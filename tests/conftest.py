import os
import sys

import pytest

from leray import exactlinalg

sys.path.insert(0, os.path.dirname(__file__))


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
    sys.stderr.write("%-60s %s\n" % (name, status))


class KernelCalls(list):
    """The SNF kernel's calls, one ``(nrows, ncols, rows)`` each, with
    ``rows`` a tuple of row tuples.  After ``refuse()`` every further
    call raises AssertionError instead of reaching the kernel."""

    refusing = False

    def refuse(self):
        self.refusing = True


@pytest.fixture
def kernel_calls(monkeypatch):
    """Route ``exactlinalg``'s SNF kernel through a recorder for the
    rest of the test; returns its ``KernelCalls``."""
    calls = KernelCalls()
    kernel = exactlinalg.smith_with_transforms

    def recording(a, nrows, ncols):
        if calls.refusing:
            raise AssertionError("SNF kernel called")
        calls.append((nrows, ncols, tuple(map(tuple, a))))
        return kernel(a, nrows, ncols)
    monkeypatch.setattr(exactlinalg, "smith_with_transforms", recording)
    return calls
