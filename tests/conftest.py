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
    """The SNF kernel's calls through either entry, one
    ``(nrows, ncols, rows)`` each, with ``rows`` a tuple of row tuples:
    the dense rows the transform entry takes, or those of the nonzero
    rows ``invariant_factors`` takes.
    ``transformed`` lists the calls of ``smith_with_transforms`` alone,
    the rest went to ``invariant_factors``.  After ``refuse()`` every
    further call raises AssertionError instead of reaching the kernel."""

    refusing = False

    def __init__(self):
        super().__init__()
        self.transformed = []

    def clear(self):
        super().clear()
        self.transformed.clear()

    def refuse(self):
        self.refusing = True


@pytest.fixture
def kernel_calls(monkeypatch):
    """Route both of ``exactlinalg``'s SNF kernel entries through a
    recorder for the rest of the test; returns its ``KernelCalls``."""
    calls = KernelCalls()

    def recorder(kernel, transformed):
        def recording(a, nrows, ncols):
            if calls.refusing:
                raise AssertionError("SNF kernel called")
            dense = a if transformed else [
                [row.get(j, 0) for j in range(ncols)] for row in a]
            call = (nrows, ncols, tuple(map(tuple, dense)))
            calls.append(call)
            if transformed:
                calls.transformed.append(call)
            return kernel(a, nrows, ncols)
        return recording
    monkeypatch.setattr(exactlinalg, "smith_with_transforms", recorder(
        exactlinalg.smith_with_transforms, True))
    monkeypatch.setattr(exactlinalg, "_kernel_invariant_factors", recorder(
        exactlinalg._kernel_invariant_factors, False))
    return calls


@pytest.fixture
def presentations(monkeypatch):
    """Record the ambient rank of each ``Subquotient`` made for the
    rest of the test; returns the list of ranks."""
    ranks = []
    init = exactlinalg.Subquotient.__init__

    def recording(self, cycles, relations):
        ranks.append(cycles.U.nrows)
        init(self, cycles, relations)
    monkeypatch.setattr(exactlinalg.Subquotient, "__init__", recording)
    return ranks
