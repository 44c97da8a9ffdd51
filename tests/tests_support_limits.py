"""A wall-clock limit on a block of test code, so that a hang fails its test instead of stalling the suite."""

import contextlib
import signal


class TimeLimitExceeded(BaseException):
    """The block ran past its limit.

    Not an ``Exception``: no handler in the code under test can take it for an
    error of its own, and hypothesis fails at once instead of shrinking a hang.
    """


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise `TimeLimitExceeded` in the main thread once the block has run ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
