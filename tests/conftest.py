import os
import signal

import pytest

from gasaunet import worker

TEST_TIME_LIMIT_S = 600


@pytest.fixture(autouse=True)
def time_limit():
    """Fail any test that runs longer than TEST_TIME_LIMIT_S of wall-clock
    time, so that a deadlock fails the suite instead of hanging it. Where
    there is no signal.setitimer (Windows), tests run unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"the test ran longer than {TEST_TIME_LIMIT_S} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process unreaped, running or not,
    once the worker that outlives calls (gasaunet.worker) is closed."""
    yield
    worker.close()
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process unreaped")
