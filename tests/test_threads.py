"""The package's one scheduler, latticegate._threads._fan_out, and the rule
that no other module of the package imports a thread or process API.

The scan parses every module under src/latticegate and collects the root of
every absolute import, at module level or inside a function.
"""

import ast
import threading
import time

import pytest

from conftest import imported_roots, package_imports
from latticegate._threads import _fan_out

THREAD_APIS = {"threading", "_thread", "multiprocessing", "concurrent"}


class _ChunkFailure(Exception):
    pass


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(1e-3)


def test_results_come_back_in_chunk_order():
    taken = {}

    def work(k):
        taken[k] = threading.current_thread()
        return k * k

    assert _fan_out(3, 10, work) == [k * k for k in range(10)]
    # thread w takes chunks w, w + 3, ...; the calling thread is thread 0
    assert taken[0] is threading.current_thread()
    assert all(taken[k] is taken[k % 3] for k in range(10))
    assert len(set(taken.values())) == 3


def test_one_worker_and_idle_workers_start_no_thread():
    threads_before = threading.active_count()

    def work(k):
        return threading.active_count(), threading.current_thread()

    assert _fan_out(1, 4, work) == [(threads_before, threading.current_thread())] * 4
    # five workers for two chunks: only the one thread with a chunk starts
    counts = [count for count, _ in _fan_out(5, 2, work)]
    assert max(counts) <= threads_before + 1
    assert _fan_out(3, 0, work) == []


def test_a_failing_chunk_stops_the_other_threads_between_chunks():
    failed_thread = []
    taken = []

    def work(k):
        if k == 1:
            failed_thread.append(threading.current_thread())
            raise _ChunkFailure("chunk 1")
        # the calling thread ends chunk 0 once the failed thread has exited
        _wait_for(lambda: failed_thread and not failed_thread[0].is_alive())
        taken.append(k)

    with pytest.raises(_ChunkFailure, match="chunk 1"):
        _fan_out(2, 10, work)
    # chunks 2, 4, ... of the calling thread were never taken
    assert taken == [0]


def test_every_thread_is_joined():
    threads_before = threading.active_count()
    _fan_out(4, 8, lambda k: time.sleep(1e-3))
    assert threading.active_count() == threads_before

    def work(k):
        if k == 0:
            raise _ChunkFailure("calling thread")
        time.sleep(0.05)

    # the calling thread fails at once and still waits for the others
    with pytest.raises(_ChunkFailure, match="calling thread"):
        _fan_out(4, 8, work)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("calling_thread_fails", [False, True])
def test_the_first_exception_in_thread_order_is_re_raised(calling_thread_fails):
    # thread 2 fails first in time, yet the exception of the lowest failing
    # thread is the one that surfaces
    thread_2_failed = threading.Event()

    def work(k):
        if k == 2:
            thread_2_failed.set()
            raise _ChunkFailure("thread 2")
        assert thread_2_failed.wait(10.0)
        if k == 1 or calling_thread_fails:
            raise _ChunkFailure(f"thread {k}")

    want = "thread 0" if calling_thread_fails else "thread 1"
    with pytest.raises(_ChunkFailure, match=want):
        _fan_out(3, 3, work)


def test_the_scan_sees_imports_inside_functions():
    source = "def f():\n    from multiprocessing import Pool\n    import concurrent.futures\n"
    assert imported_roots(ast.parse(source)) == {"multiprocessing", "concurrent"}


def test_only_the_scheduler_imports_a_thread_or_process_api():
    assert package_imports(THREAD_APIS) == {"_threads.py": ["threading"]}
