"""Spans and counters recorded around the public functions of leray.

``Tracer.install`` replaces each traced function, in every ``leray``
module that binds it, by a wrapper that records a span: name, start,
end, parent span and job id.  ``uninstall`` puts the originals back.
Nothing in the package itself is changed or imported differently.

Bookkeeping that costs more than a clock read (entry counts, bit
lengths, the SNF certificate) runs in its own ``trace.stats`` span, so
it is not charged to the layer being measured.
"""

import functools
import random
import statistics
import sys
from time import perf_counter

# (span name, module, attribute); "Class.method" names a method.
SPANS = [
    ("cli.main", "leray.cli", "main"),
    ("cli.parse", "leray.cli", "load_document"),
    ("cli.parse", "leray.cli", "parse_complex"),
    ("cli.parse", "leray.cli", "parse_system"),
    ("cli.parse", "leray.cli", "parse_bundle_spec"),
    ("simplicial.builtin", "leray.simplicial", "builtin"),
    ("local_systems.from_monodromy", "leray.local_systems", "from_monodromy"),
    ("local_systems.flatness_check", "leray.local_systems", "flatness_check"),
    ("cohomology.build", "leray.cohomology", "build"),
    ("cohomology.cohomology", "leray.cohomology", "cohomology"),
    ("spectral.e1_page", "leray.spectral", "e1_page"),
    ("spectral.e2_page", "leray.spectral", "e2_page"),
    ("spectral.attach_d2", "leray.spectral", "attach_d2"),
    ("spectral.stabilize", "leray.spectral", "stabilize"),
    ("spectral.assemble", "leray.spectral", "assemble"),
    ("spectral.with_differentials", "leray.spectral",
     "SpectralPage.with_differentials"),
    ("ncp_bundles.analyze", "leray.ncp_bundles", "analyze"),
    ("ncp_bundles.k_theory_bundle", "leray.ncp_bundles", "k_theory_bundle"),
    ("ncp_bundles.d2_spec", "leray.ncp_bundles", "d2_spec"),
    ("exactlinalg.snf", "leray.exactlinalg", "smith_with_transforms"),
    ("exactlinalg.matmul", "leray.exactlinalg", "IntMatrix.__mul__"),
    ("exactlinalg.subquotient", "leray.exactlinalg", "Subquotient.__init__"),
    ("exactlinalg.project", "leray.exactlinalg", "Subquotient.project"),
    ("exactlinalg.solve", "leray.exactlinalg", "solve"),
]

# Calls of cohomology.build / cohomology.cohomology made inside
# spectral.e2_page are the E2 cross-check; they get this parent span.
XCHECK = "spectral.e2_xcheck"
STATS = "trace.stats"

# Layers reported with .calls, .s (inclusive) and .self_s.
TIMED_LAYERS = list(dict.fromkeys(
    name for name, _, _ in SPANS
    if name != "spectral.with_differentials")) + [XCHECK]

_NAME, _START, _END, _PARENT, _JOB, _OUTER = range(6)


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _apply(m, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in m]


def snf_certificate_ok(a, u, d, v, uinv, rng):
    """Contract of one SNF result: D diagonal, non-negative, a
    divisibility chain with zeros last; U A V = D and U U_inv = I.

    The two products are checked on random vectors (Freivalds): a wrong
    product passes with probability at most 2^-20 per check.
    """
    nrows, ncols = len(d), len(d[0]) if d else 0
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i == j:
                diag.append(x)
            elif x:
                return False
    if any(x < 0 for x in diag):
        return False
    nonzero = [x for x in diag if x]
    if diag[:len(nonzero)] != nonzero:
        return False
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return False
    x = [rng.randint(-2 ** 20, 2 ** 20) for _ in range(ncols)]
    if _apply(u, _apply(a, _apply(v, x))) != _apply(d, x):
        return False
    y = [rng.randint(-2 ** 20, 2 ** 20) for _ in range(nrows)]
    return _apply(u, _apply(uinv, y)) == y


class Tracer:
    """Records spans and kernel counters while installed."""

    def __init__(self, seed):
        self.spans = []
        self.stack = []
        self.active = {}
        self.job = -1  # -1 marks set-up work, jobs count from 0
        self.in_e2 = 0
        self.rng = random.Random("cert:%d" % seed)
        self.snf = {"cells": 0, "max_dim": 0, "max_bits": 0,
                    "identity_inputs": 0, "cert_failures": 0}
        self.matmul = {"madds": 0, "nonzeros": 0, "entries": 0}
        self._patches = []

    # -- recording ------------------------------------------------------

    def _open(self, name):
        outer = not self.active.get(name)
        self.active[name] = self.active.get(name, 0) + 1
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.job, outer]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = perf_counter()
        return rec

    def _close(self, rec):
        rec[_END] = perf_counter()
        self.stack.pop()
        self.active[rec[_NAME]] -= 1

    def call(self, name, fn, args, kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrapper(self, name, fn):
        tracer = self
        if name == "spectral.e2_page":
            def wrapper(*args, **kwargs):
                tracer.in_e2 += 1
                try:
                    return tracer.call(name, fn, args, kwargs)
                finally:
                    tracer.in_e2 -= 1
        elif name in ("cohomology.build", "cohomology.cohomology"):
            def wrapper(*args, **kwargs):
                if not tracer.in_e2:
                    return tracer.call(name, fn, args, kwargs)
                rec = tracer._open(XCHECK)
                try:
                    return tracer.call(name, fn, args, kwargs)
                finally:
                    tracer._close(rec)
        elif name == "exactlinalg.snf":
            def wrapper(a, nrows, ncols):
                out = tracer.call(name, fn, (a, nrows, ncols), {})
                tracer._snf_stats(a, nrows, ncols, out)
                return out
        elif name == "exactlinalg.matmul":
            def wrapper(left, right):
                if isinstance(right, int):
                    return fn(left, right)
                out = tracer.call(name, fn, (left, right), {})
                tracer._matmul_stats(left, right)
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _snf_stats(self, a, nrows, ncols, out):
        rec = self._open(STATS)
        u, d, v, uinv, _ = out
        s = self.snf
        s["cells"] += nrows * ncols
        s["max_dim"] = max(s["max_dim"], nrows, ncols)
        s["max_bits"] = max(s["max_bits"], _bits(a), _bits(u), _bits(d),
                            _bits(v))
        if nrows == ncols and all(a[i][j] == (i == j) for i in range(nrows)
                                  for j in range(ncols)):
            s["identity_inputs"] += 1
        if not snf_certificate_ok(a, u, d, v, uinv, self.rng):
            s["cert_failures"] += 1
        self._close(rec)

    def _matmul_stats(self, left, right):
        rec = self._open(STATS)
        r, k, c = left.nrows, left.ncols, right.ncols
        m = self.matmul
        m["madds"] += r * k * c
        m["entries"] += r * k + k * c
        m["nonzeros"] += sum(1 for row in left.rows() for x in row if x) + \
            sum(1 for row in right.rows() for x in row if x)
        self._close(rec)

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "leray" or n.startswith("leray.")) and m]
        for name, module, attr in SPANS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- metrics --------------------------------------------------------

    def metrics(self, traced_job_s, untraced_job_s):
        """Per-layer metrics over every span recorded, plus the tracing
        overhead and how much of the traced job time the spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        calls, incl, self_s = {}, {}, {}
        for i, rec in enumerate(spans):
            name, dur = rec[_NAME], rec[_END] - rec[_START]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if rec[_OUTER]:
                incl[name] = incl.get(name, 0.0) + dur
        out = {}
        for name in TIMED_LAYERS:
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".s"] = (incl.get(name, 0.0), "s")
            out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
        out["spectral.with_differentials.calls"] = (
            calls.get("spectral.with_differentials", 0), "count")
        snf_calls = calls.get("exactlinalg.snf", 0)
        s = self.snf
        out["exactlinalg.snf.cells"] = (s["cells"], "count")
        out["exactlinalg.snf.max_dim"] = (s["max_dim"], "count")
        out["exactlinalg.snf.max_bits"] = (s["max_bits"], "bits")
        out["exactlinalg.snf.identity_inputs"] = (
            s["identity_inputs"] / snf_calls if snf_calls else 0.0, "ratio")
        out["exactlinalg.snf.cert_failures"] = (s["cert_failures"], "count")
        m = self.matmul
        out["exactlinalg.matmul.madds"] = (m["madds"], "count")
        out["exactlinalg.matmul.density"] = (
            m["nonzeros"] / m["entries"] if m["entries"] else 0.0, "ratio")
        traced_p50 = statistics.median(traced_job_s) * 1e3
        out["trace.job_ms_p50"] = (traced_p50, "ms")
        out["trace.overhead_ms"] = (
            traced_p50 - statistics.median(untraced_job_s) * 1e3, "ms")
        out["trace.stats.s"] = (self_s.get(STATS, 0.0), "s")
        roots = sum(rec[_END] - rec[_START] for rec in spans
                    if rec[_PARENT] < 0 and rec[_JOB] >= 0)
        out["trace.coverage"] = (roots / sum(traced_job_s), "ratio")
        return out
