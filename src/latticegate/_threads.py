"""The package's one scheduler: chunks dealt to worker threads, each told its worker.

numpy releases the interpreter lock inside its array loops, so chunked array
work scales across CPUs within one process, with no pool and no pickling.
mc_oracle and kappa_map run their chunks this way; no other module starts a
thread.
"""

from __future__ import annotations

import os
import threading


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API off Linux
        return os.cpu_count() or 1


def _fan_out(workers: int, chunks: int, work) -> list:
    """[work(0, w), ..., work(chunks - 1, w)], each call told the index w, in
    range(workers), of the thread that runs it, the calling thread being
    worker 0. A worker runs its chunks one at a time, so a caller may keep
    one scratch per worker. Worker w takes chunks w, w + workers, ..., and a
    worker with no chunk is never started. A thread that finishes a chunk
    after another thread has failed takes no further chunk. Every thread is
    joined before this returns or raises; the first exception in thread
    order is then re-raised here."""
    results: list = [None] * chunks
    errors: list = [None] * workers
    failed = False

    def run(w: int) -> None:
        nonlocal failed
        try:
            for k in range(w, chunks, workers):
                results[k] = work(k, w)
                if failed:
                    return
        except BaseException as exc:  # re-raised in the calling thread below
            errors[w] = exc
            failed = True

    started = []
    try:
        for w in range(1, min(workers, chunks)):
            thread = threading.Thread(target=run, args=(w,))
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
