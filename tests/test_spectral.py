import json
import math
import random
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from aperiodica import spectral
from aperiodica.rudin_shapiro import quaternary_prefix
from aperiodica.spectral import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_NEUMANN,
    TransferMatrixProduct,
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
    op = build_finite(fib_prefix(10)[3:6], FIB_VALUES, 2.0)
    assert op.diagonal == (0.0, 2.0, 0.0)


def test_build_finite_validation():
    with pytest.raises(ValueError):
        build_finite((0, 1), {0: 1.0, 1: 1.0}, 1.0)
    with pytest.raises(ValueError):
        build_finite((0, 1), {0: 0.0}, 1.0)
    with pytest.raises(ValueError, match="size >= 1"):
        build_finite((), FIB_VALUES, 1.0)
    with pytest.raises(ValueError, match="size >= 1"):
        build_finite((), FIB_VALUES, 1.0, boundary=BOUNDARY_NEUMANN)
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


def stress_operators(n=300):
    """Seeded Fibonacci, Rudin-Shapiro and random sections of n sites with
    ordinary, clustered (1e-7 apart) and large (1e6) values, under both
    boundaries."""
    rng = random.Random(29)
    fib, rs = fib_prefix(n), quaternary_prefix(n)
    cases = [
        ("fibonacci", fib, {0: rng.uniform(-2, 2), 1: rng.uniform(-2, 2)}),
        ("rudin-shapiro", rs, {a: rng.uniform(-1, 1) for a in range(4)}),
        ("random", tuple(range(n)), {i: rng.uniform(-3, 3) for i in range(n)}),
        ("clustered", rs, {a: a * 1e-7 for a in range(4)}),
        ("large fibonacci", fib, {0: 0.0, 1: 1e6}),
        ("large rudin-shapiro", rs, {a: rng.uniform(-1e6, 1e6) for a in range(4)}),
    ]
    for label, word, values in cases:
        for boundary in (BOUNDARY_DIRICHLET, BOUNDARY_NEUMANN):
            yield f"{label}/{boundary}", build_finite(word, values, 1.0, boundary=boundary)


def counting_sturm(monkeypatch):
    """Replace the Sturm pass with one that counts its calls."""
    passes = [0]
    sturm = spectral.sturm_count

    def counted(op, x):
        passes[0] += 1
        return sturm(op, x)

    monkeypatch.setattr(spectral, "sturm_count", counted)
    return passes


@pytest.fixture(scope="module")
def stress_solves():
    """(label, operator, tol, eigenvalues, Sturm passes) per stress case."""
    solves = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        passes = counting_sturm(monkeypatch)
        for label, op in stress_operators():
            for tol in (1e-6, 1e-12, 1e-15):
                passes[0] = 0
                eigs = eigenvalues(op, tol=tol)
                solves.append((label, op, tol, eigs, passes[0]))
    return solves


def numpy_eigenvalues(op):
    n = op.size
    m = np.diag(op.diagonal) + np.diag([1.0] * (n - 1), 1) + np.diag([1.0] * (n - 1), -1)
    return np.sort(np.linalg.eigvalsh(m))


def test_eigenvalues_keep_their_brackets(stress_solves):
    for label, op, tol, eigs, _ in stress_solves:
        assert_brackets(label, op, tol, eigs)


def bisection_passes(op, tol):
    """Sturm passes that bisection from the global bounds may take."""
    lo, hi = min(op.diagonal) - 2.0, max(op.diagonal) + 2.0
    return (math.ceil(math.log2((hi - lo) / tol)) + 2) * op.size


def test_stress_solves_need_no_more_passes_than_bisection(stress_solves):
    for label, op, tol, _, passes in stress_solves:
        assert passes <= bisection_passes(op, tol), (label, tol, passes / op.size)


def test_stress_solves_take_few_passes(stress_solves):
    # Seeded by the QL guesses, the worst case took 5.44 passes per
    # eigenvalue (random potential, Neumann, at tol 1e-15); bisection
    # alone takes 37 to 38 on the ordinary sections at n = 60, tol 1e-12.
    for label, op, tol, _, passes in stress_solves:
        assert passes <= 7 * op.size, (label, tol, passes / op.size)


def assert_brackets(label, op, tol, eigs):
    """Each value is the midpoint of a bracket no wider than tol (or one
    ulp) holding eigenvalue k."""
    assert len(eigs) == op.size
    for k, e in enumerate(eigs):
        d = max(tol / 2, math.ulp(e))
        assert sturm_count(op, e - d) <= k < sturm_count(op, e + d), (label, tol, k)


def test_bisection_alone_keeps_brackets(monkeypatch):
    # With no QL guesses every bracket is closed by bisection from the
    # probes shared so far.
    passes = counting_sturm(monkeypatch)
    monkeypatch.setattr(spectral, "_ql_guesses", lambda diagonal: None)
    tol = 1e-12
    cases = ("fibonacci/neumann", "clustered/dirichlet", "large rudin-shapiro/dirichlet")
    for label, op in stress_operators(60):
        if label in cases:
            passes[0] = 0
            eigs = eigenvalues(op, tol=tol)
            assert_brackets(label, op, tol, eigs)
            assert passes[0] <= bisection_passes(op, tol), (label, passes[0] / op.size)


@pytest.mark.parametrize("hostile", ["off by 1e-9", "shifted by one", "zeros", "nan"])
def test_hostile_guesses_keep_brackets(monkeypatch, hostile):
    # Whatever the QL sweep returns, only Sturm counts close a bracket:
    # a guess the counts reject falls through to bisection.
    for label, op in stress_operators():
        want = numpy_eigenvalues(op)
        guesses = {
            "off by 1e-9": [float(w) + 1e-9 for w in want],
            "shifted by one": [float(w) for w in (*want[1:], want[-1])],
            "zeros": [0.0] * op.size,
            "nan": [float(w) for w in want[:-1]] + [math.nan],
        }[hostile]
        monkeypatch.setattr(spectral, "_ql_guesses", lambda diagonal: guesses)
        eigs = eigenvalues(op, tol=1e-12)
        assert_brackets(label, op, 1e-12, eigs)
        # numpy's own error grows with ||T||: about 2e-10 on the 1e6 potentials
        norm = max(map(abs, op.diagonal)) + 2.0
        assert max(abs(a - b) for a, b in zip(eigs, want)) < 1e-10 * norm, label


def test_ql_guesses_on_small_and_overflowing_diagonals():
    assert spectral._ql_guesses((1e308, -1e308)) is None
    # The pinned CLI case `--values a=-1e300,b=1 --size 20` is solved by
    # bisection alone.
    op = build_finite(fib_prefix(20), {0: -1e300, 1: 1.0}, 1.0)
    assert spectral._ql_guesses(op.diagonal) is None
    assert spectral._ql_guesses((2.5,)) == [2.5]
    got = spectral._ql_guesses((0.0,) * 101)
    assert max(abs(a - b) for a, b in zip(got, free_eigenvalues(101))) < 1e-14


def test_few_sturm_passes_per_eigenvalue(monkeypatch):
    # Bisection from the global bounds took about 41 passes per eigenvalue
    # at this size and tolerance.
    passes = counting_sturm(monkeypatch)
    rng = random.Random(31)
    values = {a: rng.uniform(-1, 1) for a in range(4)}
    for op in (
        build_finite(fib_prefix(300), FIB_VALUES, 1.5),
        build_finite(quaternary_prefix(300), values, 1.0),
    ):
        passes[0] = 0
        assert len(eigenvalues(op, tol=1e-12)) == 300
        assert passes[0] <= 12 * 300, passes[0] / 300
        # Two count-only passes certify each QL guess.
        assert passes[0] <= 3 * 300, passes[0] / 300


def test_eigenvalues_end_on_hostile_slopes():
    # At x = 0 the free operator of odd size has eigenvalues of leading
    # minors, so a pivot is zero and is replaced by 1e-300; on +-1e308
    # diagonals a - x overflows and the QL sweep fails.
    huge = ((1e308, -1e308), (-1e308, 1e308, -1e308), (1.7e308, -1.7e308, 0.0, 1.7e308))
    proc = run_python(
        "-c",
        "import json, sys\n"
        "from aperiodica.spectral import TridiagonalOperator, eigenvalues\n"
        "for n in (3, 5, 101):\n"
        "    print(json.dumps(eigenvalues(TridiagonalOperator((0.0,) * n))))\n"
        "for diagonal in json.loads(sys.argv[1]):\n"
        "    print(json.dumps(eigenvalues(TridiagonalOperator(diagonal))))\n",
        json.dumps(huge),
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    for n, got in zip((3, 5, 101), lines):
        assert len(got) == n
        assert max(abs(a - b) for a, b in zip(got, free_eigenvalues(n))) < 1e-10
    for diagonal, got in zip(huge, lines[3:]):
        assert got == pytest.approx(sorted(diagonal), rel=1e-12, abs=1e-9)
    assert len(lines) == 3 + len(huge)


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
    assert t.growth_rate() == 0.0
    # det * 2**1200 has no float: the error reads as infinite.
    assert TransferMatrixProduct(0.0, 0, 1, t.matrix, 600).determinant_error() == math.inf
    t = transfer_product(0.0, (0,), {0: 0.0}, 1.0)
    assert t.matrix == ((0.0, -1.0), (1.0, 0.0))
    assert t.determinant_error() == 0.0


def test_transfer_determinants_bounded_regime():
    word = fib_prefix(10000)
    for energy, coupling in ((1.37, 0.0), (0.2, 0.3), (0.25, 0.5)):
        t = transfer_product(energy, word, FIB_VALUES, coupling)
        assert t.determinant_error() <= 1e-12


def decimal_product(energy, word, values, coupling):
    """Entries (a, b, c, d) of the product of [[E - coupling * x, -1], [1, 0]]
    over ``word``, left to right, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, MAX_EMAX, MIN_EMIN
        factor = {x: Decimal(energy) - Decimal(coupling) * Decimal(v) for x, v in values.items()}
        a, b, c, d = Decimal(1), Decimal(0), Decimal(0), Decimal(1)
        for x in word:
            v = factor[x]
            a, b, c, d = v * a - c, v * b - d, a, b
        return a, b, c, d


def assert_matches_oracle(t, energy, potential, values, coupling):
    """Every entry of 2**scale_pow2 * matrix lies within 4 n 2^-52 ||M|| of
    the oracle's product M (max-norm) over the potential."""
    n = t.count
    want = decimal_product(energy, potential, values, coupling)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, MAX_EMAX, MIN_EMIN
        scale = Decimal(2) ** t.scale_pow2
        got = [Decimal(x) * scale for row in t.matrix for x in row]
        norm = max(abs(w) for w in want)
        worst = max(abs(g - w) for g, w in zip(got, want))
        assert worst <= 4 * n * Decimal(2) ** -52 * norm, (float(worst / norm), n)


def random_word(seed, letters, n):
    """Seeded random word over range(letters), as a list."""
    rng = random.Random(seed)
    return [rng.randrange(letters) for _ in range(n)]


ORACLE_LENGTH = 2000
ORACLE_WORDS = {
    "fibonacci": (fib_prefix(ORACLE_LENGTH), FIB_VALUES),
    "rudin-shapiro": (quaternary_prefix(ORACLE_LENGTH), {0: -0.7, 1: 0.2, 2: 0.55, 3: 1.0}),
    # lists, not tuples: the blocks of a list potential are sliced too
    "random2": (random_word(2, 2, ORACLE_LENGTH), {0: 0.25, 1: -0.5}),
    "random4": (random_word(4, 4, ORACLE_LENGTH), {0: -1.0, 1: -0.3, 2: 0.4, 3: 0.9}),
}
# (energy, coupling): bounded with coupling 0 and |E| < 2, then hyperbolic
# with every factor E - coupling * x beyond +-2.5.
ORACLE_REGIMES = ((1.37, 0.0), (-0.6, 0.0), (3.5, 1.0), (-3.5, 1.0))
# Whole word, offsets and lengths off the 32-letter blocks, an empty
# slice and one shorter than a block.
ORACLE_WINDOWS = (None, (5, ORACLE_LENGTH - 7), (37, 37), (100, 119), (3, 1003))
# Products over the slices word[s:e] above and below, as transfer_product
# gave them when it took (s, e) as a window of the whole word and cut
# blocks from s: float.hex of the four entries, then scale_pow2.
WINDOW_PRODUCTS = json.loads((Path(__file__).parent / "data" / "transfer_windows.json").read_text())


def assert_as_windowed(t, name, coupling, window):
    """``t`` equals, bit for bit, the recorded product of the window."""
    key = f"{name} E={t.energy} lambda={coupling} [{window[0]}:{window[1]}]"
    got = [x.hex() for row in t.matrix for x in row] + [t.scale_pow2]
    assert got == WINDOW_PRODUCTS[key], key


@pytest.mark.parametrize("name", sorted(ORACLE_WORDS))
def test_transfer_product_matches_decimal_oracle(name):
    word, values = ORACLE_WORDS[name]
    for energy, coupling in ORACLE_REGIMES:
        for window in ORACLE_WINDOWS:
            part = word if window is None else word[window[0] : window[1]]
            t = transfer_product(energy, part, values, coupling)
            assert (t.start, t.stop) == (0, len(part))
            assert_matches_oracle(t, energy, part, values, coupling)
            if window is not None:
                assert_as_windowed(t, name, coupling, window)


def test_transfer_product_on_a_word_of_many_distinct_blocks(monkeypatch):
    # 40000 random letters hold about 1250 distinct 32-letter blocks, and
    # the call's table steps each of them once.
    word = tuple(random_word(40, 4, 40000))
    values = {0: -1.0, 1: -0.3, 2: 0.4, 3: 0.9}
    stepped = []
    steps = spectral._steps

    def recorded(letters, *rest):
        stepped.append(letters)
        return steps(letters, *rest)

    monkeypatch.setattr(spectral, "_steps", recorded)
    for energy, coupling in ((1.37, 0.0), (3.5, 1.0)):
        stepped.clear()
        part = word[11:39990]
        t = transfer_product(energy, part, values, coupling)
        assert_matches_oracle(t, energy, part, values, coupling)
        assert_as_windowed(t, "random40", coupling, (11, 39990))
        size = spectral._BLOCK
        blocks = {part[i : i + size] for i in range(0, len(part), size)}
        assert len(stepped) == len(blocks) > 1024
        assert set(stepped) == blocks


@pytest.mark.parametrize(
    "values, energy, coupling",
    [
        ({0: 0.0, 1: 1e300}, 0.5, 1.0),
        ({0: -1e300, 1: 1e300}, 0.0, 1.0),
        # A factor of 1e10 lifts the entries to about 2^33 without a
        # renormalization; the next factor of 1e300 then overflowed.
        ({0: 1e10, 1: 1e300}, 0.0, -1.0),
    ],
)
def test_transfer_product_with_huge_factors(values, energy, coupling):
    part = ORACLE_WORDS["random2"][0][3:404]
    t = transfer_product(energy, part, values, coupling)
    assert_matches_oracle(t, energy, part, values, coupling)
    assert_as_windowed(t, f"random2 {values}", coupling, (3, 404))


def test_transfer_growth_in_hyperbolic_regime():
    word = fib_prefix(2000)
    t = transfer_product(10.0, word, FIB_VALUES, 2.0)
    assert t.scale_pow2 > 0
    assert t.growth_rate() > 1.0
    # log of the oracle's max-norm per factor
    with localcontext() as ctx:
        ctx.prec = 60
        norm = max(abs(x) for x in decimal_product(10.0, word, FIB_VALUES, 2.0))
        want = float(norm.ln() / len(word))
    assert abs(t.growth_rate() - want) <= 1e-12


@pytest.mark.parametrize(
    "energy, values, coupling",
    [
        (math.nan, {0: 0.0, 1: 1.0}, 1.0),
        (math.inf, {0: 0.0, 1: 1.0}, 1.0),
        (0.5, {0: 0.0, 1: 1.0}, math.nan),
        (0.5, {0: 0.0, 1: 1.0}, -math.inf),
        (0.5, {0: 0.0, 1: math.nan}, 1.0),
        (0.5, {0: 0.0, 1: math.inf}, 0.0),
        # finite values whose factors E - coupling * x overflow
        (0.5, {0: -1e300, 1: 1e300}, 1e10),
    ],
)
def test_transfer_product_rejects_non_finite_input(energy, values, coupling):
    with pytest.raises(ValueError, match="must be finite"):
        transfer_product(energy, fib_prefix(100), values, coupling)


def test_transfer_product_rejects_unassigned_letter():
    with pytest.raises(ValueError, match="no value assigned to letter 2"):
        transfer_product(0.5, (0, 1, 2, 0), {0: 0.0, 1: 1.0}, 1.0)
    with pytest.raises(ValueError, match="no value assigned to letter 'b'"):
        transfer_product(0.5, "a" * 40 + "b", {"a": 0.0}, 1.0)
