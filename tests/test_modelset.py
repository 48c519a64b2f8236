import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import brute_maximal_palindromes, run_python
from aperiodica.modelset import (
    FieldElement,
    ModelSetPatch,
    OMEGA_GOLDEN,
    QuadField,
    Window,
    centro_symmetry_center,
    check_generic,
    enumerate_patch,
    genericity_shift,
    inversion_witness,
    palindrome_scan,
    star,
)
from aperiodica import modelset
from aperiodica.modelset import _manacher, _row_points
from aperiodica.rudin_shapiro import rs_binary_prefix
from aperiodica.substitution import atlas_chain, fibonacci_rule

GOLDEN = QuadField(5, OMEGA_GOLDEN)
LAT = GOLDEN
TAU = GOLDEN.omega()


def fib_window():
    return Window(GOLDEN.element(Fraction(1, 3)), GOLDEN.element(Fraction(4, 3)))


def gap_values(patch):
    """The exact value of each letter of the patch's gap word."""
    return tuple(patch.lattice.point(*mn) for mn in patch.gap_coords)


def fibonacci(k):
    """(F_k, F_(k+1))."""
    f, g = 0, 1
    for _ in range(k):
        f, g = g, f + g
    return f, g


rationals = st.fractions(max_denominator=12).filter(lambda f: abs(f) < 100)


def test_quadfield_validation():
    with pytest.raises(ValueError):
        QuadField(4)
    with pytest.raises(ValueError):
        QuadField(12)
    with pytest.raises(ValueError):
        QuadField(1)
    with pytest.raises(ValueError):
        QuadField(5, "half")
    for d in (5.9, 5.0, True, "5"):
        with pytest.raises(ValueError):
            QuadField(d)
    for d in (9, 18, 75):  # odd square factors 9, 9 and 25
        with pytest.raises(ValueError, match="squarefree"):
            QuadField(d)
    with pytest.raises(ValueError, match=f"MAX_D = {2**32}"):
        QuadField(modelset.MAX_D + 1)
    assert QuadField(2**32 - 1).d == 2**32 - 1  # 3*5*17*257*65537, squarefree
    assert float(QuadField(5, OMEGA_GOLDEN).omega()) == pytest.approx(1.6180339887)
    assert float(QuadField(2).omega()) == pytest.approx(2**0.5)


def test_star_examples():
    zero = GOLDEN.element(0)
    assert star(zero) == zero
    assert star(TAU) == GOLDEN.element(Fraction(1, 2), Fraction(-1, 2))


@given(rationals, rationals)
def test_star_is_an_involution(p, q):
    z = FieldElement(5, p, q)
    assert star(star(z)) == z


@given(rationals, rationals, rationals, rationals)
def test_field_ordering_matches_floats_when_clear(p1, q1, p2, q2):
    a = FieldElement(5, p1, q1)
    b = FieldElement(5, p2, q2)
    fa, fb = float(a), float(b)
    if abs(fa - fb) > 1e-6:
        assert (a < b) == (fa < fb)


@given(rationals, rationals)
def test_field_floor_is_exact(p, q):
    z = FieldElement(5, p, q)
    k = z.floor()
    assert not z < k
    assert z < k + 1
    assert z.ceil() == -((-z).floor())


def squares_sign(p, q, d):
    """Sign of p + q*sqrt(d) without any floor: when p and q disagree in
    sign, the larger of p*p and d*q*q wins (they differ for q != 0, as
    sqrt(d) is irrational)."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if (p > 0) == (q > 0):
        return 1 if p > 0 else -1
    return (1 if p > 0 else -1) if p * p > d * q * q else (1 if q > 0 else -1)


def squares_floor(p, q, d):
    """floor(p + q*sqrt(d)) from squares_sign alone: gallop out from 0 to
    integers lo < hi with value - lo >= 0 > value - hi, then bisect."""
    lo, hi = (0, 1) if squares_sign(p, q, d) >= 0 else (-1, 0)
    while squares_sign(p - hi, q, d) >= 0:
        lo, hi = hi, 2 * hi
    while squares_sign(p - lo, q, d) < 0:
        lo, hi = 2 * lo, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if squares_sign(p - mid, q, d) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def assert_sign_and_floor_match_squares(z):
    assert z.sign() == squares_sign(z.p, z.q, z.d), z
    assert z.floor() == squares_floor(z.p, z.q, z.d), z


@given(st.sampled_from([2, 3, 5, 7]), rationals, rationals)
def test_field_sign_and_floor_match_the_squares_rule(d, p, q):
    assert_sign_and_floor_match_squares(FieldElement(d, p, q))


def test_field_sign_and_floor_of_near_cancelling_unit_powers():
    # psi^k = ((1 - sqrt(5)) / 2)^k and (1 - sqrt(2))^k have coefficients
    # of size about |unit|^-k and values of size |unit|^k, down to about
    # 1e-42 and 1e-77 at k = 200: each value is a near-total cancellation.
    units = (FieldElement(5, Fraction(1, 2), Fraction(-1, 2)), FieldElement(2, 1, -1))
    offsets = [Fraction(0)] + [
        sign * Fraction(1, 10**e) for e in (0, 30, 45, 60, 90) for sign in (1, -1)
    ]
    for unit in units:
        power = FieldElement(unit.d, 1)
        for _ in range(201):
            for z in (power, -power):
                for offset in offsets:
                    assert_sign_and_floor_match_squares(z + offset)
            power = power * unit


def test_field_floor_of_tiny_element_with_huge_coefficients():
    # (L_200 - F_200 * sqrt(5)) / 2 = psi^200, psi = (1 - sqrt(5)) / 2, is
    # about 1e-42 while its float value is off by about 4e25; a floor
    # seeded from the float walked that distance one integer at a time.
    proc = run_python(
        "-c",
        "from fractions import Fraction\n"
        "from aperiodica.modelset import FieldElement\n"
        "f, g = 0, 1\n"
        "for _ in range(200):\n"
        "    f, g = g, f + g\n"
        "lucas = 2 * g - f\n"
        "print(FieldElement(5, Fraction(lucas, 2), Fraction(-f, 2)).floor())\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


@given(rationals, rationals, rationals, rationals)
def test_field_division_roundtrip(p1, q1, p2, q2):
    z = FieldElement(5, p1, q1)
    w = FieldElement(5, p2, q2)
    if w != 0:
        assert (z / w) * w == z


def test_field_misc():
    with pytest.raises(ValueError):
        FieldElement(5, 1) + FieldElement(2, 1)
    with pytest.raises(ZeroDivisionError):
        FieldElement(5, 1) / FieldElement(5, 0)
    assert abs(FieldElement(5, -3)) == FieldElement(5, 3)
    assert str(GOLDEN.element(Fraction(1, 2), Fraction(1, 2))) == "1/2+1/2*sqrt(5)"


def test_lattice_coords():
    z = LAT.point(3, -2)
    assert LAT.star_coords(star(z)) == (3, -2)
    assert LAT.star_coords(GOLDEN.element(Fraction(1, 3))) is None
    sqrt2 = QuadField(2)
    z2 = sqrt2.point(-1, 4)
    assert sqrt2.star_coords(star(z2)) == (-1, 4)


def test_window_validation_and_center():
    with pytest.raises(ValueError):
        Window(GOLDEN.element(1), GOLDEN.element(1))
    w = Window(GOLDEN.element(0), GOLDEN.element(1))
    assert centro_symmetry_center(w) == GOLDEN.element(1)
    assert centro_symmetry_center(fib_window()) == GOLDEN.element(Fraction(5, 3))
    sym = Window(GOLDEN.element(-2), GOLDEN.element(2))
    assert centro_symmetry_center(sym) == GOLDEN.element(0)


def test_genericity_verdicts():
    hits = check_generic(Window(GOLDEN.element(0), GOLDEN.element(1)), LAT)
    assert hits
    assert GOLDEN.element(0) in hits
    assert not check_generic(fib_window(), LAT)
    tau_conj = star(TAU)
    hits = check_generic(Window(tau_conj, tau_conj + 1), LAT)
    assert hits
    assert hits == (tau_conj, tau_conj + 1)


def test_genericity_shift_suggestion():
    assert genericity_shift(Window(GOLDEN.element(0), GOLDEN.element(1)), LAT) == Fraction(1, 16)
    assert genericity_shift(fib_window(), LAT) == Fraction(1, 16)
    # +-1/16 both move an endpoint onto an integer, so the scan needs k = 2.
    window = Window(GOLDEN.element(Fraction(-1, 16)), GOLDEN.element(Fraction(17, 16)))
    assert genericity_shift(window, LAT) == Fraction(1, 8)


def test_patch_points_satisfy_window_exactly():
    patch = enumerate_patch(LAT, fib_window(), 50)
    window = fib_window()
    assert len(patch) > 0
    points = [patch.lattice.point(*mn) for mn in patch.coords]
    for z in points:
        assert window.contains(star(z))
        assert not (z < -Fraction(50)) and not (Fraction(50) < z)
    assert all(a < b for a, b in zip(points, points[1:]))


def test_patch_subset_monotonicity():
    small = enumerate_patch(LAT, fib_window(), 80)
    wide = enumerate_patch(
        LAT, Window(GOLDEN.element(Fraction(1, 4)), GOLDEN.element(Fraction(3, 2))), 80
    )
    assert set(small.coords) <= set(wide.coords)


def oracle_patch(lattice, window, radius):
    """The patch from the exact row enumeration over [-R, R], put in order
    by exact field comparisons; its gap word comes from the consecutive
    differences, whose distinct values are sorted the same way."""
    R = Fraction(radius)
    rows = _row_points(lattice, window.lo, window.hi, -R, R)
    coords = tuple(sorted(rows, key=lambda mn: lattice.point(*mn)))
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(coords, coords[1:])]
    gap_coords = tuple(sorted(set(steps), key=lambda mn: lattice.point(*mn)))
    index = {mn: i for i, mn in enumerate(gap_coords)}
    return ModelSetPatch(lattice, window, R, coords, gap_coords, tuple(index[s] for s in steps))


def assert_walk_matches_oracle(lattice, window, radius):
    walked = enumerate_patch(lattice, window, radius)
    oracle = oracle_patch(lattice, window, radius)
    assert walked.coords == oracle.coords
    assert walked.gap_coords == oracle.gap_coords
    assert walked.letters == oracle.letters
    if len(oracle) >= 2:
        # One letter per step, and the letters name every gap: 0, 1, ...
        assert len(walked.letters) == len(walked) - 1
        assert sorted(set(walked.letters)) == list(range(len(walked.gap_coords)))
    return walked


def random_window(rng, field, generic=True):
    """A window with endpoints p + q*sqrt(d) for small rationals p and q,
    at most about 6 long."""
    while True:
        lo = field.element(
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        )
        width = field.element(
            Fraction(rng.randint(1, 40), rng.randint(10, 20)),
            Fraction(rng.randint(-2, 2), rng.randint(3, 9)),
        )
        if not width.sign() > 0:
            continue
        window = Window(lo, lo + width)
        if (not check_generic(window, field)) == generic:
            return window


def test_walk_matches_row_enumeration_on_named_windows():
    sym = Window(GOLDEN.element(Fraction(-1, 2)), GOLDEN.element(Fraction(1, 2)))
    irr = Window(star(TAU) - Fraction(1, 2), star(TAU) + Fraction(1, 2))
    three_gap = Window(GOLDEN.element(Fraction(-3, 5)), GOLDEN.element(Fraction(7, 10)))
    wide = Window(GOLDEN.element(Fraction(1, 4)), GOLDEN.element(Fraction(12, 5)))
    nongeneric = Window(GOLDEN.element(0), GOLDEN.element(1))
    # psi**2000, psi = (1 - sqrt(5)) / 2: a tiny number written with
    # 418-digit coefficients, beyond what a float can hold.
    f, g = fibonacci(2000)
    tiny = GOLDEN.element(Fraction(2 * g - f, 2), Fraction(-f, 2))
    huge = Window(tiny + Fraction(1, 3), tiny + Fraction(4, 3))
    for window in (fib_window(), sym, irr, three_gap, wide, nongeneric, huge):
        for radius in (Fraction(1, 2), 1, 3, 50, 1000):
            assert_walk_matches_oracle(LAT, window, radius)
    for window in (three_gap, wide):
        patch = enumerate_patch(LAT, window, 300)
        assert len(gap_values(patch)) == 3
        assert set(patch.letters) == {0, 1, 2}
    # A point exactly on the window's boundary stays in the closed window.
    assert (0, 0) in enumerate_patch(LAT, nongeneric, 10).coords


def test_walk_matches_row_enumeration_far_out():
    # [tau^k - 1/2, tau^k + 1/2] with tau^k = (L_k + F_k * sqrt(5)) / 2: the
    # window lies about tau^k from the origin, so every patch point has
    # coordinates of about k/5 digits, which no float holds for k = 2000.
    for k in (200, 2000):
        f, g = fibonacci(k)
        power = GOLDEN.element(Fraction(2 * g - f, 2), Fraction(f, 2))
        window = Window(power - Fraction(1, 2), power + Fraction(1, 2))
        for radius in (Fraction(1, 2), 1, 20, 300):
            walked = assert_walk_matches_oracle(LAT, window, radius)
        assert len(walked) > 100 and len(walked.gap_coords) == 2


def test_walk_decides_near_misses_exactly():
    # Window edges within |unit^k| of the star image of a patch point, on
    # either side of it.  The walk's integer reading of such a point can err
    # by more than its distance to the edge, so only the band around the
    # edge and the exact test behind it keep the point in or out.
    sqrt2 = QuadField(2)
    for field, unit in ((GOLDEN, star(TAU)), (sqrt2, sqrt2.element(1, -1))):
        lattice = field
        window = Window(field.element(Fraction(1, 3)), field.element(Fraction(4, 3)))
        coords = enumerate_patch(lattice, window, 100).coords
        delta = field.element(1)
        for k in range(1, 61):
            delta = delta * unit
            if k % 5:
                continue
            for mn in (coords[3], coords[-3]):
                z = star(lattice.point(*mn))
                for edge in (z - abs(delta), z + abs(delta)):
                    assert_walk_matches_oracle(lattice, Window(edge, edge + 1), 100)
                    assert_walk_matches_oracle(lattice, Window(edge - 1, edge), 100)
    # Edges z* +- psi^k for a point z near the origin whose star image has
    # the sqrt(5) coefficient -q/2, q that of psi^k: the reading of z*
    # against the edge z* + psi^k then errs by the point's |b| and the
    # edge's together.
    delta = GOLDEN.element(1)
    for k in range(1, 61):
        delta = delta * star(TAU)
        if k % 3:
            continue
        n = int(delta.q)
        z = star(LAT.point((-(TAU * n)).floor(), n))
        for edge in (z - delta, z + delta):
            assert_walk_matches_oracle(LAT, Window(edge, edge + 1), 20)
            assert_walk_matches_oracle(LAT, Window(edge - 1, edge), 20)


def test_walk_on_radii_with_no_or_one_point():
    # No point of the paper's model set lies within 1/2 of the origin, and
    # only the point 1 within 1.
    assert len(assert_walk_matches_oracle(LAT, fib_window(), Fraction(1, 2))) == 0
    assert assert_walk_matches_oracle(LAT, fib_window(), 1).coords == ((1, 0),)
    narrow = Window(GOLDEN.element(Fraction(-1, 100)), GOLDEN.element(Fraction(1, 100)))
    assert assert_walk_matches_oracle(LAT, narrow, 5).coords == ((0, 0),)


def test_walk_matches_row_enumeration_on_random_windows():
    rng = random.Random(20261018)
    for trial in range(240):
        field = QuadField(rng.choice((2, 3, 5, 7)), rng.choice(("sqrt", OMEGA_GOLDEN)))
        window = random_window(rng, field, generic=trial % 8 != 0)
        radius = Fraction(round(2 ** rng.uniform(-1, 10) * 8), 8)
        assert_walk_matches_oracle(field, window, min(radius, 1000))


def test_walk_keeps_boundary_points_far_out():
    # Windows whose endpoints are star images of patch points near +-R: the
    # step onto such a point lands exactly on the boundary of the closed
    # window, which keeps it.
    rng = random.Random(7)
    for trial in range(24):
        field = QuadField((2, 3, 5, 7)[trial % 4], ("sqrt", OMEGA_GOLDEN)[trial // 4 % 2])
        lattice = field
        coords = enumerate_patch(lattice, random_window(rng, field), 1000).coords
        ends = [rng.choice(coords[:40]), rng.choice(coords[-40:])]
        stars = sorted((star(lattice.point(*mn)), mn) for mn in ends)
        if stars[0][0] == stars[1][0]:
            continue
        window = Window(stars[0][0], stars[1][0])
        walked = assert_walk_matches_oracle(lattice, window, 1000)
        assert set(ends) <= set(walked.coords)


def test_patch_cap_follows_the_expected_point_count(monkeypatch):
    # The paper window holds about 2R / sqrt(5) points within R, so a cap
    # of 100 points admits R = 111 and refuses R = 112 (100 sqrt(5) / 2
    # is about 111.8), before any walking.
    monkeypatch.setattr(modelset, "MAX_PATCH_POINTS", 100)
    assert 95 <= len(enumerate_patch(LAT, fib_window(), 111)) <= 101
    for radius in (112, 10**400):
        with pytest.raises(ValueError, match=f"R = {radius} .* more than 100 points"):
            enumerate_patch(LAT, fib_window(), radius)


def test_tiny_radius_gives_empty_patch():
    patch = enumerate_patch(LAT, fib_window(), Fraction(1, 2))
    assert len(patch) == 0
    with pytest.raises(ValueError):
        enumerate_patch(LAT, fib_window(), 0)


def test_two_gaps_with_ratio_tau():
    patch = enumerate_patch(LAT, fib_window(), 300)
    gaps = gap_values(patch)
    assert len(gaps) == 2 and set(patch.letters) == {0, 1}
    assert gaps[1] / gaps[0] == TAU
    again = enumerate_patch(LAT, fib_window(), 300)
    assert (again.gap_coords, again.letters) == (patch.gap_coords, patch.letters)


def test_shifted_window_has_same_gaps():
    gaps = gap_values(enumerate_patch(LAT, fib_window(), 200))
    shifted = gap_values(enumerate_patch(LAT, fib_window().shift(Fraction(1, 7)), 200))
    assert shifted == gaps


def test_gap_legend_stable_under_doubling_radius():
    gaps = gap_values(enumerate_patch(LAT, fib_window(), 150))
    double = gap_values(enumerate_patch(LAT, fib_window(), 300))
    assert gaps == double


def test_single_gap_patch_gives_constant_word():
    coords = ((0, 0), (1, 0), (2, 0), (3, 0))
    patch = ModelSetPatch(LAT, fib_window(), Fraction(10), coords, ((1, 0),), (0, 0, 0))
    assert gap_values(patch) == (GOLDEN.element(1),)
    assert patch.letters == (0, 0, 0)
    # A patch of one point has no gap and an empty gap word.
    single = enumerate_patch(LAT, fib_window(), 1)
    assert (single.coords, single.gap_coords, single.letters) == (((1, 0),), (), ())


def test_derived_sequence_factors_match_fibonacci_atlas():
    patch = enumerate_patch(LAT, fib_window(), 1000)
    word = patch.letters
    swapped = tuple(1 - a for a in word)
    chain = atlas_chain(fibonacci_rule(), 12)
    for n in range(1, 13):
        factors = {word[i : i + n] for i in range(len(word) - n + 1)}
        factors_swapped = {swapped[i : i + n] for i in range(len(swapped) - n + 1)}
        assert factors_swapped == chain[n - 1].words
        if n >= 2:
            # only one letter assignment identifies the chain with the rule
            assert factors != chain[n - 1].words


def test_repetitivity_proxy():
    word = enumerate_patch(LAT, fib_window(), 800).letters
    worst = 0
    for n in range(1, 11):
        positions = {}
        for i in range(len(word) - n + 1):
            positions.setdefault(word[i : i + n], []).append(i)
        for occs in positions.values():
            gaps = [b - a for a, b in zip(occs, occs[1:])]
            if gaps:
                worst = max(worst, max(gaps))
    assert 0 < worst < len(word) / 2


def test_inversion_witness_symmetric_rational_window():
    window = Window(GOLDEN.element(Fraction(-1, 2)), GOLDEN.element(Fraction(1, 2)))
    assert not check_generic(window, LAT)
    assert inversion_witness(window, LAT) == (0, 0)


def test_inversion_witness_symmetric_irrational_window():
    center = star(TAU)
    window = Window(center - Fraction(1, 2), center + Fraction(1, 2))
    assert not check_generic(window, LAT)
    assert inversion_witness(window, LAT) == (0, -2)  # t = -2*tau


def test_inversion_witness_generic_fibonacci_window():
    # lo + hi = 5/3 is not a star image, so no translate of the model set
    # is its mirror image, whatever a finite patch of it may suggest.
    assert centro_symmetry_center(fib_window()) == GOLDEN.element(Fraction(5, 3))
    assert inversion_witness(fib_window(), LAT) is None


def test_inversion_witness_empty_patch():
    # The verdict is the whole model set's: a patch holding no point at
    # all does not change it.
    window = Window(GOLDEN.element(Fraction(11, 4)), GOLDEN.element(Fraction(13, 4)))
    assert len(enumerate_patch(LAT, window, Fraction(1, 2))) == 0
    assert inversion_witness(window, LAT) == (-6, 0)


def overlap_sets(patch, shift):
    """Exact (m, n) sets of -patch and of patch + t on [lo, hi], the span
    [-R, R] and [-R + t, R + t] where both are fully known.  The patch is
    in increasing order, so each set is one run of it, found by bisection."""
    lattice, R = patch.lattice, patch.radius
    tm, tn = shift
    t = lattice.point(tm, tn)
    lo, hi = max(-R, -R + t), min(R, R + t)

    def position(mn):
        return lattice.point(*mn)

    def run(a, b):
        coords = patch.coords
        return coords[bisect_left(coords, a, key=position) : bisect_right(coords, b, key=position)]

    negated = {(-m, -n) for m, n in run(-hi, -lo)}
    shifted = {(m + tm, n + tn) for m, n in run(lo - t, hi - t)}
    return negated, shifted


def test_inversion_witness_is_exact_on_random_windows():
    # Windows with lo + hi = star(z) are mirrored by t = -z, checked on the
    # R = 300 overlap; moving lo + hi off star(z) by a non-integer rational
    # leaves the star image, and then no t exists.
    rng = random.Random(20261019)
    for trial in range(240):
        field = QuadField((2, 3, 5, 7)[trial // 2 % 4], ("sqrt", OMEGA_GOLDEN)[trial // 8 % 2])
        lattice = field
        zm, zn = rng.randint(-6, 6), rng.randint(-6, 6)
        z = lattice.point(zm, zn)
        width = abs(field.element(
            Fraction(rng.randint(1, 60), rng.randint(10, 20)),
            Fraction(rng.randint(-1, 1), rng.randint(5, 9)),
        ))
        window = Window((star(z) - width) / 2, (star(z) + width) / 2)
        if trial % 2:
            off = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(2, 9))
            if off.denominator == 1:
                off += Fraction(1, 2)
            assert inversion_witness(window.shift(off / 2), lattice) is None
            continue
        t = inversion_witness(window, lattice)
        assert t == (-zm, -zn)
        negated, shifted = overlap_sets(enumerate_patch(lattice, window, 300), t)
        assert negated and negated == shifted


def test_palindrome_scan_examples():
    ab = (0, 1, 0)
    scan = palindrome_scan(ab)
    assert scan[0] == (2, 3)
    assert (1, 2) not in scan  # "ab" is not an even palindrome
    assert palindrome_scan(()) == []


@given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
def test_palindrome_scan_matches_brute_force(letters):
    word = tuple(letters)
    got = {c2: ln for c2, ln in palindrome_scan(word)}
    expected = brute_maximal_palindromes(word)
    assert got == expected


def test_palindrome_scan_top_rows():
    rng = random.Random(5)
    words = [(), (0,), (1, 1), (0, 1, 0)]
    words += [tuple(rng.randrange(k) for _ in range(rng.randint(1, 300))) for k in (1, 2, 2, 3, 4) * 12]
    for word in words:
        rows = palindrome_scan(word)
        for top in (0, 1, 2, 7, 100, len(rows), len(rows) + 5):
            assert palindrome_scan(word, top=top) == rows[:top]
    assert palindrome_scan((), top=3) == []
    with pytest.raises(ValueError):
        palindrome_scan((0, 1), top=-1)


def manacher_oracle(word):
    """The textbook scan: one radius per step, each started from its
    mirror's and expanded letter by letter."""
    n = len(word)
    d1 = [0] * n
    left, right = 0, -1
    for i in range(n):
        k = 1 if i > right else min(d1[left + right - i], right - i + 1)
        while i - k >= 0 and i + k < n and word[i - k] == word[i + k]:
            k += 1
        d1[i] = k
        if i + k - 1 > right:
            left, right = i - k + 1, i + k - 1
    d2 = [0] * n
    left, right = 0, -1
    for i in range(n):
        k = 0 if i > right else min(d2[left + right - i + 1], right - i + 1)
        while i - k - 1 >= 0 and i + k < n and word[i - k - 1] == word[i + k]:
            k += 1
        d2[i] = k
        if i + k - 1 > right:
            left, right = i - k, i + k - 1
    return d1, d2


@st.composite
def mirrored_words(draw):
    """Words over 1-4 letters grown by appending letters and mirror images
    of the word so far, so that long palindromes nest in each other."""
    letters = st.integers(0, draw(st.integers(0, 3)))
    word = draw(st.lists(letters, max_size=6))
    for grow in draw(st.lists(st.sampled_from(("letter", "mirror", "mirror tail")), max_size=8)):
        if grow == "letter":
            word.append(draw(letters))
        elif grow == "mirror":
            word += word[::-1]
        else:
            word += word[::-1][draw(st.integers(0, 3)) :]
    return tuple(word[:2000])


@given(st.integers(0, 3).flatmap(lambda m: st.lists(st.integers(0, m), max_size=300)) | mirrored_words())
def test_manacher_matches_the_textbook_scan(word):
    word = tuple(word)
    assert (_manacher(word, 0), _manacher(word, 1)) == manacher_oracle(word)


def test_manacher_on_long_structured_words():
    n = 20000
    words = {
        "constant": (0,) * n,
        "period 2": tuple(i % 2 for i in range(n)),
        "Thue-Morse": tuple(bin(i).count("1") % 2 for i in range(n)),
        "Rudin-Shapiro": rs_binary_prefix(n),
    }
    sqrt2 = QuadField(2)
    for name, lattice, window in (
        ("paper window", LAT, fib_window()),
        ("three-gap", LAT, Window(GOLDEN.element(Fraction(-3, 5)), GOLDEN.element(Fraction(7, 10)))),
        ("sqrt(2)", sqrt2, Window(sqrt2.element(Fraction(1, 5)), sqrt2.element(Fraction(8, 5)))),
    ):
        words[name] = enumerate_patch(lattice, window, 20000).letters
    for name, word in words.items():
        assert len(word) >= 15000, name
        assert (_manacher(word, 0), _manacher(word, 1)) == manacher_oracle(word), name


def test_rs_binary_palindromes_cap_at_fourteen():
    word = rs_binary_prefix(2**13)
    scan = palindrome_scan(word)
    lengths = {ln for _, ln in scan}
    assert max(lengths) == 14


def test_model_set_palindromes_grow():
    patch = enumerate_patch(LAT, fib_window(), 12000)
    word = patch.letters
    assert len(word) >= 10000
    best = palindrome_scan(word)[0][1]
    assert best >= len(word) / 50

