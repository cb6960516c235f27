import signal

import pytest

from hsw import datum_preset


@pytest.fixture(scope="session")
def a1():
    return datum_preset("A1")


@pytest.fixture(scope="session")
def a2():
    return datum_preset("A2")


@pytest.fixture(scope="session")
def b2():
    return datum_preset("B2")


@pytest.fixture(scope="session")
def g2():
    return datum_preset("G2")


@pytest.fixture
def hang_guard():
    """End a hang in an alarm after 60 s instead of a stuck run."""

    class Hung(BaseException):
        """Not an Exception, so no handler on the way up catches it."""

    def hung(signum, frame):
        raise Hung("the test hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
