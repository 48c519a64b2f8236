"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines land in the terminal summary section "acceptance criteria" of
every pytest run (and on plain stdout under ``pytest -s``).
"""

import math
import random
from fractions import Fraction

from conftest import record_acceptance

from aperiodica import cli
from aperiodica import modelset as ms
from aperiodica import rudin_shapiro as rs
from aperiodica import spectral as sp
from aperiodica.substitution import (
    FixedPointStream,
    SubstitutionRule,
    atlas_by_window,
    atlas_chain,
    fibonacci_rule,
    is_primitive,
    matrix,
    thue_morse_rule,
)
from aperiodica.words import Alphabet, exclusion_verdict


def criterion(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    record_acceptance(line)
    assert ok, f"acceptance criterion failed: {name}{tail}"


def test_table1_reproduction(tmp_path):
    out = tmp_path / "table.tsv"
    code = cli.main(["rs-table", "--nmax", "20", "--golden", "--format", "tsv", "-o", str(out)])
    rows = rs.table1(20)
    golden = rs.golden_table1()
    criterion(
        "table1-reproduction",
        code == 0 and rows == golden and len(rows) == 20,
        "cli exit 0, 20 rows exact",
    )


def test_complexity_law():
    chain = atlas_chain(rs.quaternary_rule(), 40)
    ok = all(
        len({rs.phi(w) for w in chain[n - 1].words}) == 8 * n - 8 for n in range(8, 41)
    )
    criterion("complexity-law-8n-minus-8", ok, "binary counts, n = 8..40")


def test_palindrome_spectra():
    chain = atlas_chain(rs.quaternary_rule(), 40)
    quaternary = {
        a.length for a in chain if any(w == w[::-1] for w in a.words)
    }
    binary = {
        a.length
        for a in chain
        if any(v == v[::-1] for v in {rs.phi(w) for w in a.words})
    }
    ok4 = quaternary == {1, 3, 5, 7}
    ok2 = binary == {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14}
    criterion(
        "palindrome-spectra",
        ok4 and ok2,
        f"quaternary {sorted(quaternary)}, binary {sorted(binary)}, scanned to 40",
    )


def test_definition_equivalence():
    criterion("definition-equivalence", rs.equivalence_check(2**16), "first 2^16 symbols")


def test_atlas_method_equivalence():
    ok = True
    for rule in (fibonacci_rule(), thue_morse_rule(), rs.quaternary_rule()):
        chain = atlas_chain(rule, 25)
        for n in range(1, 26):
            if atlas_by_window(rule, n).words != chain[n - 1].words:
                ok = False
    criterion("atlas-method-equivalence", ok, "fibonacci, thue-morse, rudin-shapiro, n <= 25")


def test_exclusion_soundness():
    rng = random.Random(20260808)
    rules = []
    while len(rules) < 200:
        r = rng.choice((2, 3, 4))
        images = tuple(
            tuple(rng.randrange(r) for _ in range(rng.choice((1, 2, 2, 3)))) for _ in range(r)
        )
        try:
            rule = SubstitutionRule(Alphabet("abcd"[:r]), images)
        except ValueError:
            continue
        if is_primitive(matrix(rule)) is None:
            continue
        rules.append(rule)
    fired = 0
    sound = True
    for rule in rules:
        chain = atlas_chain(rule, 12)
        verdict = exclusion_verdict(chain)
        if verdict.first_excluding_pair is None:
            continue
        fired += 1
        prefix = FixedPointStream(rule).prefix(100000)
        longest = ms.palindrome_scan(prefix, top=1)[0][1]
        if longest >= verdict.first_excluding_pair:
            sound = False
    criterion(
        "exclusion-soundness",
        sound and fired > 0,
        f"{fired}/200 rules fired; 1e5-letter scans all below the excluded length",
    )


def _fibonacci_setup():
    field = ms.QuadField(5, ms.OMEGA_GOLDEN)
    lattice = field
    window = ms.Window(field.element(Fraction(1, 3)), field.element(Fraction(4, 3)))
    return field, lattice, window


def test_model_set_correctness():
    field, lattice, window = _fibonacci_setup()
    patch = ms.enumerate_patch(lattice, window, 1000)
    gaps = [lattice.point(*mn) for mn in patch.gap_coords]
    two_gaps = len(gaps) == 2
    ratio_tau = two_gaps and gaps[1] / gaps[0] == field.omega()
    relabeled = tuple(1 - a for a in patch.letters)
    chain = atlas_chain(fibonacci_rule(), 12)
    factors_ok = all(
        {relabeled[i : i + n] for i in range(len(relabeled) - n + 1)} == chain[n - 1].words
        for n in range(1, 13)
    )
    criterion(
        "model-set-correctness",
        two_gaps and ratio_tau and factors_ok,
        f"{len(patch)} points at R=1000, gap ratio exactly the golden ratio",
    )


def test_genericity_checks():
    field, lattice, _ = _fibonacci_setup()
    tau_conj = field.omega().conjugate()
    fails = ms.check_generic(ms.Window(field.element(0), field.element(1)), lattice)
    passes = ms.check_generic(
        ms.Window(field.element(Fraction(1, 3)), field.element(Fraction(4, 3))), lattice
    )
    fails_irr = ms.check_generic(ms.Window(tau_conj, tau_conj + 1), lattice)
    ok = bool(fails) and not passes and bool(fails_irr)
    witnesses = field.element(0) in fails and tau_conj in fails_irr
    criterion("genericity-checks", ok and witnesses, "[0,1] fails, [1/3,4/3] passes, [t',t'+1] fails")


def test_symmetry_and_palindromicity():
    field, lattice, window = _fibonacci_setup()
    tau = field.omega()
    # (window, (m, n) of the exact inversion shift t = m + n*tau with
    # -L = L + t, or None for none)
    cases = [
        (ms.Window(field.element(Fraction(-1, 2)), field.element(Fraction(1, 2))), (0, 0)),
        (ms.Window(tau.conjugate() - Fraction(1, 2), tau.conjugate() + Fraction(1, 2)), (0, -2)),
        (window, None),
    ]
    generic = not any(ms.check_generic(w, lattice) for w, _ in cases)
    verdicts_ok = [ms.inversion_witness(w, lattice) for w, _ in cases] == [t for _, t in cases]
    # Factors extend to the right, so closure under reversal at length 40
    # gives it at every shorter length.
    words = [ms.enumerate_patch(lattice, w, 120000).letters for w, _ in cases]
    factor_sets = [{word[i : i + 40] for i in range(len(word) - 39)} for word in words]
    reversal_closed = all({f[::-1] for f in factors} == factors for factors in factor_sets)
    big = words[-1]
    long_enough = len(big) >= 100000
    longest = ms.palindrome_scan(big, top=1)[0][1]
    criterion(
        "symmetry-palindromicity",
        generic and verdicts_ok and reversal_closed and long_enough and longest >= 2000,
        "exact t = 0, -2tau and none for 3 generic windows; length-40 factors of each "
        f"R=120000 gap word closed under reversal (a finite check); max palindrome "
        f"{longest} in {len(big)} letters",
    )


def test_spectral_probe():
    closed_form_ok = True
    for n in (3, 10, 100):
        got = sp.eigenvalues(sp.TridiagonalOperator((0.0,) * n), tol=1e-12)
        want = sorted(2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
        if len(got) != n or max(abs(a - b) for a, b in zip(got, want)) > 1e-10:
            closed_form_ok = False

    word = FixedPointStream(fibonacci_rule()).prefix(10000)
    counts_ok = len(sp.eigenvalues(sp.build_finite(word, {0: 0.0, 1: 1.0}, 2.0, (0, 50)))) == 50

    det_ok = all(
        sp.transfer_product(energy, word, {0: 0.0, 1: 1.0}, coupling).determinant_error() <= 1e-12
        for energy, coupling in ((1.37, 0.0), (0.2, 0.3), (0.25, 0.5))
    )

    rng = random.Random(99)
    interlacing_ok = True
    for _ in range(50):
        size = rng.randint(5, 28)
        diag = [rng.uniform(-2.5, 2.5) for _ in range(size)]
        full = sp.eigenvalues(sp.TridiagonalOperator(diag))
        section = sp.eigenvalues(sp.TridiagonalOperator(diag[:-1]))
        if len(full) != size:
            interlacing_ok = False
            break
        for k, mu in enumerate(section):
            if not (full[k] - 1e-8 <= mu <= full[k + 1] + 1e-8):
                interlacing_ok = False
    criterion(
        "spectral-probe",
        closed_form_ok and counts_ok and det_ok and interlacing_ok,
        "closed form 1e-10; counts; det 1e-12 over 1e4 factors; interlacing x50",
    )
