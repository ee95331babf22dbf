"""Fan a job out over worker threads, one per available CPU.

numpy releases the interpreter lock inside its array loops, so chunked array
work scales across CPUs within one process, with no pool and no pickling.
simulate_fill and mc_oracle split their chunks this way.
"""

from __future__ import annotations

import os
import threading


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API off Linux
        return os.cpu_count() or 1


def _fan_out(workers: int, work) -> list:
    """[work(0), ..., work(workers - 1)]: work(0) runs on the calling thread
    and every other call on a thread of its own. Every thread is joined
    before this returns or raises; the first exception in worker order is
    then re-raised here."""
    results: list = [None] * workers
    errors: list = [None] * workers

    def run(k: int) -> None:
        try:
            results[k] = work(k)
        except BaseException as exc:  # re-raised in the calling thread below
            errors[k] = exc

    started = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results
