import json
import math
import random

import numpy as np
import pytest

from conftest import run_python
from aperiodica.spectral import (
    BOUNDARY_NEUMANN,
    TridiagonalOperator,
    build_finite,
    eigenvalues,
    ids,
    sturm_count,
    transfer_product,
)
from aperiodica.substitution import FixedPointStream, fibonacci_rule

FIB_VALUES = {0: 0.0, 1: 1.0}


def fib_prefix(n):
    return FixedPointStream(fibonacci_rule()).prefix(n)


def free_eigenvalues(n):
    return sorted(2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))


def test_build_finite_examples():
    op = build_finite((0, 0, 0), {0: 0.0}, 1.0)
    assert op.diagonal == (0.0, 0.0, 0.0)
    op = build_finite(fib_prefix(5), FIB_VALUES, 1.0)
    assert op.diagonal == (0.0, 1.0, 0.0, 0.0, 1.0)
    op = build_finite(fib_prefix(5), FIB_VALUES, 0.0)
    assert op.diagonal == (0.0,) * 5
    op = build_finite(fib_prefix(10), FIB_VALUES, 2.0, (3, 6))
    assert op.diagonal == (0.0, 2.0, 0.0)


def test_build_finite_validation():
    with pytest.raises(ValueError):
        build_finite((0, 1), {0: 1.0, 1: 1.0}, 1.0)
    with pytest.raises(ValueError):
        build_finite((0, 1), {0: 0.0}, 1.0)
    with pytest.raises(ValueError):
        build_finite((0, 1), FIB_VALUES, 1.0, (0, 5))
    with pytest.raises(ValueError):
        build_finite((0, 1), FIB_VALUES, 1.0, (1, 1))
    with pytest.raises(ValueError):
        build_finite((0, 1), FIB_VALUES, 1.0, boundary="mystery")


def test_neumann_boundary_shifts_edge_entries():
    op = build_finite((0, 0, 0), {0: 0.0}, 1.0, boundary=BOUNDARY_NEUMANN)
    assert op.diagonal == (1.0, 0.0, 1.0)


def test_free_laplacian_closed_form():
    for n in (3, 10, 100):
        op = TridiagonalOperator((0.0,) * n)
        got = eigenvalues(op, tol=1e-12)
        want = free_eigenvalues(n)
        assert len(got) == n
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


def test_single_site():
    assert eigenvalues(TridiagonalOperator((2.5,))) == [pytest.approx(2.5)]


def test_eigenvalues_match_numpy_oracle():
    rng = random.Random(3)
    for size in (7, 23, 60):
        diag = [rng.uniform(-3, 3) for _ in range(size)]
        got = eigenvalues(TridiagonalOperator(diag), tol=1e-12)
        m = np.diag(diag) + np.diag([1.0] * (size - 1), 1) + np.diag([1.0] * (size - 1), -1)
        want = np.sort(np.linalg.eigvalsh(m))
        assert len(got) == size
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_sturm_count_brackets_spectrum():
    op = build_finite(fib_prefix(50), FIB_VALUES, 2.0)
    eigs = eigenvalues(op)
    assert len(eigs) == 50
    assert sturm_count(op, eigs[0] - 1.0) == 0
    assert sturm_count(op, eigs[-1] + 1.0) == 50
    mid = 0.5 * (eigs[24] + eigs[25])
    assert sturm_count(op, mid) == 25


def test_eigenvalue_tolerance_validation():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            eigenvalues(TridiagonalOperator((0.0,)), tol=tol)


def test_operator_rejects_non_finite_diagonal():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            TridiagonalOperator((0.0, bad))


def test_bisection_stops_at_adjacent_floats():
    # Brackets narrower than one ulp, and diagonals whose endpoint sum
    # overflows, once kept the bisection spinning forever.
    proc = run_python(
        "-c",
        "import json\n"
        "from aperiodica.spectral import TridiagonalOperator, eigenvalues\n"
        "print(json.dumps(eigenvalues(TridiagonalOperator((0.0,) * 3), tol=1e-18)))\n"
        "print(json.dumps(eigenvalues(TridiagonalOperator((0.0, 1.7e308)))))\n",
    )
    assert proc.returncode == 0, proc.stderr
    tiny, huge = (json.loads(line) for line in proc.stdout.splitlines())
    assert tiny == pytest.approx(free_eigenvalues(3), abs=1e-15)
    assert huge == pytest.approx([0.0, 1.7e308], abs=1e-9)


def test_interlacing():
    rng = random.Random(17)
    for _ in range(5):
        diag = [rng.uniform(-2, 2) for _ in range(24)]
        full = eigenvalues(TridiagonalOperator(diag))
        section = eigenvalues(TridiagonalOperator(diag[:-1]))
        for k, mu in enumerate(section):
            assert full[k] - 1e-8 <= mu <= full[k + 1] + 1e-8


def test_ids():
    eigs = free_eigenvalues(3)
    assert ids(eigs, eigs[0] - 1) == 0.0
    assert ids(eigs, eigs[-1] + 1) == 1.0
    median = eigs[1]
    assert ids(eigs, median) == pytest.approx(2 / 3)  # included, right-continuous
    assert ids(eigs, median - 1e-9) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        ids([], 0.0)


def test_transfer_product_examples():
    t = transfer_product(2.5, (), {0: 0.0}, 1.0)
    assert t.matrix == ((1.0, 0.0), (0.0, 1.0))
    assert t.scale_pow2 == 0 and t.count == 0
    t = transfer_product(0.0, (0,), {0: 0.0}, 1.0)
    assert t.matrix == ((0.0, -1.0), (1.0, 0.0))
    assert t.determinant_error() == 0.0


def test_transfer_determinants_bounded_regime():
    word = fib_prefix(10000)
    for energy, coupling in ((1.37, 0.0), (0.2, 0.3), (0.25, 0.5)):
        t = transfer_product(energy, word, FIB_VALUES, coupling)
        assert t.determinant_error() <= 1e-12


def test_transfer_growth_in_hyperbolic_regime():
    t = transfer_product(10.0, fib_prefix(2000), FIB_VALUES, 2.0)
    assert t.scale_pow2 > 0
    assert t.growth_rate() > 1.0
    # growth estimate matches the explicit eigenvalue of the constant map
    # [[10 - v, -1], [1, 0]] only loosely; just require finiteness
    assert math.isfinite(t.growth_rate())


def test_transfer_window_validation():
    with pytest.raises(ValueError):
        transfer_product(0.0, (0, 0), {0: 0.0}, 1.0, (0, 5))
