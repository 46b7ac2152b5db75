"""Shared pytest plumbing.

Acceptance-style tests record one line per criterion through
`helpers.record_criterion`; the lines are replayed in the terminal summary so
they survive output capture.

Every test must end with no live `multiprocessing` child: a process left
running (a pool worker, epi_train's specialists) keeps working, or blocks,
after its test, and fails the benchmark run that started it.
"""

import sys

import pytest

from helpers import ACCEPTANCE_RESULTS


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    mp = sys.modules.get("multiprocessing")   # not loaded: no child to leave
    left = mp.active_children() if mp else []
    for p in left:
        p.kill()
        p.join()
    assert not left, f"live multiprocessing children after the test: {left}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)
