import os
import random
import subprocess
import sys

import pytest

import leray

from leray._kernel import BACKEND
from leray._kernel import pure

try:
    from leray._kernel import _csnf
except ImportError:
    _csnf = None

from oracles import random_matrix


needs_compiled = pytest.mark.skipif(
    _csnf is None, reason="compiled kernel not built")


def test_some_backend_selected():
    assert BACKEND in ("pure", "c")


@needs_compiled
def test_backends_bit_identical_randomized():
    rng = random.Random(42)
    for _ in range(150):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        assert _csnf.smith_with_transforms(a, r, c) == \
            pure.smith_with_transforms(a, r, c)


@needs_compiled
def test_backends_bit_identical_big_entries():
    rng = random.Random(7)
    mat = random_matrix(rng, 5, 5, lo=-10 ** 9, hi=10 ** 9)
    a = [list(row) for row in mat.rows()]
    assert _csnf.smith_with_transforms(a, 5, 5) == \
        pure.smith_with_transforms(a, 5, 5)


def test_env_var_forces_pure_backend():
    code = ("import leray._kernel as k; print(k.BACKEND)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(leray.__file__)))
    env = dict(os.environ, LERAY_KERNEL="pure")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "pure", out.stderr


def test_input_not_mutated():
    a = [[2, 4], [6, 8]]
    snapshot = [row[:] for row in a]
    pure.smith_with_transforms(a, 2, 2)
    assert a == snapshot
    if _csnf is not None:
        _csnf.smith_with_transforms(a, 2, 2)
        assert a == snapshot
