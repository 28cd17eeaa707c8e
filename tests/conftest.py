"""A per-test hang watchdog, from the standard library alone.

A test that loops forever never reports, so each test runs under
``faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True)``: past the
limit every thread's traceback goes to the terminal and the run exits 1.
The traceback is written to a copy of stderr taken before any test runs,
because output captured during a test is lost when the process exits.
"""
import faulthandler
import os

import pytest

# far above the slowest test, which takes about 3 s
HANG_LIMIT_S = 120

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def hang_watchdog(request):
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
