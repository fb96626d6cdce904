import faulthandler
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# a test, or the import of a test module, still running after this many
# seconds prints every thread's traceback and ends the run, so a loop
# without end fails instead of hanging; the slowest test takes about 8 s
# under -X dev
TIME_LIMIT_S = 60
_STDERR = pytest.StashKey()


def pytest_configure(config):
    # a copy of stderr taken before the tests' output is captured: the
    # traceback must reach the terminal, and the run exits with it
    config.stash[_STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@contextmanager
def _time_limit(config):
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True,
                                      file=config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    with _time_limit(item.config):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    with _time_limit(collector.config):
        return (yield)
