import hashlib
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import run_python
from aperiodica import cli
from aperiodica import modelset, rudin_shapiro, spectral, substitution
from aperiodica.words import Alphabet


FIB_RULE = {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}, "seed": "a"}
RS_RULE = {
    "alphabet": ["a", "b", "c", "d"],
    "images": {"a": "ab", "b": "ac", "c": "db", "d": "dc"},
    "seed": "a",
}
# Rules on which earlier atlas constructions went wrong: the first kept
# the non-factors ca and dc, the second's prefix stop came too early.
CLOSURE_RULE = {
    "alphabet": ["a", "b", "c", "d"],
    "images": {"a": "cc", "b": "ccd", "c": "abd", "d": "bc"},
}
EARLY_STOP_RULE = {"alphabet": ["a", "b", "c"], "images": {"a": "bb", "b": "ca", "c": "aaa"}}
FIB_SPEC = {"d": 5, "omega": "golden", "window": {"lo": "1/3", "hi": "4/3"}, "R": "200"}
# Model-set windows whose CLI output is pinned by sha256 digests in
# data/modelset_digests.json: the paper's window, two windows centred on
# the star image (rational and irrational centre), a non-generic one, a
# three-gap golden window and a sqrt(2) window.
DIGEST_WINDOWS = {
    "paper": {"d": 5, "omega": "golden", "window": {"lo": "1/3", "hi": "4/3"}},
    "sym_rational": {"d": 5, "omega": "golden", "window": {"lo": "-1/2", "hi": "1/2"}},
    "sym_irrational": {
        "d": 5,
        "omega": "golden",
        "window": {"lo": {"p": "0", "q": "-1/2"}, "hi": {"p": "1", "q": "-1/2"}},
    },
    "nongeneric": {"d": 5, "omega": "golden", "window": {"lo": "0", "hi": "1"}},
    "three_gap": {"d": 5, "omega": "golden", "window": {"lo": "-3/5", "hi": "7/10"}},
    "sqrt2": {"d": 2, "omega": "sqrt", "window": {"lo": "1/5", "hi": "8/5"}},
}
DIGEST_CASES = [
    (name, action, radius)
    for name in DIGEST_WINDOWS
    for action in ("generate", "check-window", "symmetry", "palindromes")
    for radius in ("300", "2000")
]
DIGESTS = Path(__file__).parent / "data" / "modelset_digests.json"
TM_RULE = {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "ba"}, "seed": "a"}


def random_rule_payloads(letters, count, seed):
    """Seeded primitive rules on ``letters`` letters with images of length
    1-4 that have a growing fixed point, as rule-file payloads."""
    alphabet = Alphabet("abcd"[:letters])
    rng = random.Random(seed)
    payloads = []
    while len(payloads) < count:
        images = {s: "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 4)))
                  for s in alphabet.symbols}
        rule = substitution.SubstitutionRule.from_mapping(alphabet, images)
        if substitution.is_primitive(substitution.matrix(rule)) is None:
            continue
        try:
            substitution.resolve_seed_and_power(rule)
        except ValueError:
            continue
        payloads.append({"alphabet": list(alphabet.symbols), "images": images})
    return payloads


# Exclusion-pipeline runs whose CLI output is pinned by sha256 digests in
# data/exclusion_digests.json: atlases of Fibonacci, Thue-Morse and
# Rudin-Shapiro by every method, their exclusion verdicts, the binary
# Rudin-Shapiro verdict and table, and seeded random 3- and 4-letter rules.
EXCLUSION_RULES = {"fib": FIB_RULE, "tm": TM_RULE, "rs": RS_RULE}
EXCLUSION_RULES.update(
    (f"random{letters}_{i}", payload)
    for letters in (3, 4)
    for i, payload in enumerate(random_rule_payloads(letters, 3, seed=letters))
)
EXCLUSION_CASES = [
    (name, ["atlas", "-N", n, "--method", method])
    for name in ("fib", "tm", "rs")
    for n in ("1", "5", "12", "25")
    for method in ("induction", "window", "both")
]
EXCLUSION_CASES += [
    (name, ["exclude", "--nmax", nmax]) for name in ("fib", "tm", "rs") for nmax in ("12", "30")
]
EXCLUSION_CASES += [("rs", ["exclude", "--nmax", "40", "--phi"])]
EXCLUSION_CASES += [
    (name, ["exclude", "--nmax", "20"]) for name in EXCLUSION_RULES if name.startswith("random")
]
EXCLUSION_CASES += [
    (None, ["rs-table", "--nmax", "40"]),
    (None, ["rs-table", "--format", "tsv", "--golden"]),
]
EXCLUSION_DIGESTS = Path(__file__).parent / "data" / "exclusion_digests.json"
# Spectrum runs whose CLI output is pinned by sha256 digests in
# data/spectrum_digests_seeded.json: the free operator, Fibonacci and
# four-letter Rudin-Shapiro potentials, the TSV format, the Neumann
# boundary and a potential spanning 300 orders of magnitude.  The
# solve's Newton loop alone, without QL guesses, gives the bytes of
# data/spectrum_digests.json.
SPECTRUM_RULES = {"fib": FIB_RULE, "rs": RS_RULE}
SPECTRUM_CASES = [
    (None, ["spectrum", "--size", "100"]),
    ("fib", ["spectrum", "--values", "a=0,b=1", "--lambda", "2", "--size", "100"]),
    ("rs", ["spectrum", "--values", "a=1,b=-1,c=2,d=-2", "--size", "80"]),
    ("fib", ["spectrum", "--values", "a=0,b=1", "--size", "60", "--format", "tsv"]),
    ("fib", ["spectrum", "--values", "a=0,b=1", "--size", "60", "--boundary", "neumann"]),
    ("fib", ["spectrum", "--values", "a=-1e300,b=1", "--size", "20"]),
]
SPECTRUM_DIGESTS = Path(__file__).parent / "data" / "spectrum_digests_seeded.json"
UNSEEDED_SPECTRUM_DIGESTS = Path(__file__).parent / "data" / "spectrum_digests.json"


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_atlas_both_methods(files, capsys):
    rule = files("fib.json", FIB_RULE)
    code, data = run_json(capsys, ["atlas", "--rule", rule, "-N", "2", "--method", "both"])
    assert code == 0
    assert data["count"] == 3
    assert data["words"] == ["aa", "ab", "ba"]
    assert data["methods_agree"] is True


def test_atlas_rs_row_eight(files, capsys):
    rule = files("rs.json", RS_RULE)
    code, data = run_json(capsys, ["atlas", "--rule", rule, "-N", "8"])
    assert code == 0
    assert data["count"] == 56


def test_atlas_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": [')
    assert cli.main(["atlas", "--rule", str(bad), "-N", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_atlas_missing_file(capsys):
    assert cli.main(["atlas", "--rule", "/nonexistent.json", "-N", "2"]) == 2


def test_atlas_nonprimitive_rule(files, capsys):
    rule = files("perm.json", {"alphabet": ["a", "b"], "images": {"a": "b", "b": "a"}})
    for argv in (
        ["atlas", "--rule", rule, "-N", "2"],
        ["exclude", "--rule", rule, "--nmax", "4"],
        ["spectrum", "--rule", rule, "--values", "a=0,b=1", "--size", "5"],
    ):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "Wielandt bound 2" in captured.err
        assert captured.out == ""


def test_large_cyclic_rule_is_refused_quickly(files, capsys):
    # x_i -> x_(i+1) on 200 letters: no power of its matrix is positive,
    # and the bitset search up to the Wielandt bound 39602 ends at once.
    symbols = [f"x{i}" for i in range(200)]
    images = {s: symbols[(i + 1) % 200] for i, s in enumerate(symbols)}
    rule = files("cycle.json", {"alphabet": symbols, "images": images})
    start = time.perf_counter()
    assert cli.main(["exclude", "--rule", rule, "--nmax", "5"]) == 1
    assert time.perf_counter() - start < 1
    assert "Wielandt bound 39602" in capsys.readouterr().err


def test_atlas_holds_only_factors(files, capsys):
    rule = files("closure.json", CLOSURE_RULE)
    code, data = run_json(capsys, ["atlas", "--rule", rule, "-N", "2"])
    assert code == 0
    assert data["words"] == ["ab", "bc", "bd", "cc", "cd", "da", "db"]
    code, data = run_json(capsys, ["exclude", "--rule", rule, "--nmax", "21"])
    assert code == 0
    assert data["lengths_with_palindromes"] == [1, 2, 3, 4, 5]
    assert data["first_excluding_pair"] == 6


def test_atlas_window_method_finds_every_factor(files, capsys):
    rule = files("early.json", EARLY_STOP_RULE)
    code, data = run_json(capsys, ["atlas", "--rule", rule, "-N", "10", "--method", "both"])
    assert code == 0
    assert data["count"] == 52
    assert data["methods_agree"] is True


def test_atlas_prefix_cap(files, capsys, monkeypatch):
    monkeypatch.setattr(substitution, "DEFAULT_MAX_PREFIX", 128)
    rule = files("rs.json", RS_RULE)
    assert cli.main(["atlas", "--rule", rule, "-N", "10", "--method", "window"]) == 2
    assert "prefix cap" in capsys.readouterr().err


def test_exclude_phi(files, capsys):
    rule = files("rs.json", RS_RULE)
    code, data = run_json(capsys, ["exclude", "--rule", rule, "--nmax", "16", "--phi"])
    assert code == 0
    assert data["first_excluding_pair"] == 15
    assert data["status"] == "excluded"
    assert data["lengths_with_palindromes"] == [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14]


def test_exclude_quaternary(files, capsys):
    rule = files("rs.json", RS_RULE)
    code, data = run_json(capsys, ["exclude", "--rule", rule, "--nmax", "9"])
    assert code == 0
    assert data["first_excluding_pair"] == 8


def test_exclude_fibonacci_undetermined(files, capsys):
    rule = files("fib.json", FIB_RULE)
    code, data = run_json(capsys, ["exclude", "--rule", rule, "--nmax", "30"])
    assert code == 0
    assert data["status"] == "undetermined"
    assert data["lengths_with_palindromes"] == list(range(1, 31))


def test_exclude_phi_needs_four_letters(files, capsys):
    rule = files("fib.json", FIB_RULE)
    assert cli.main(["exclude", "--rule", rule, "--nmax", "5", "--phi"]) == 2


def test_rs_table_golden(capsys):
    assert cli.main(["rs-table", "--nmax", "20", "--golden"]) == 0


def test_rs_table_golden_mismatch(capsys, monkeypatch):
    rows = rudin_shapiro.golden_table1()
    rows[4] = rudin_shapiro.Table1Row(5, 33, "yes", 24, "yes")
    monkeypatch.setattr(cli.rudin_shapiro, "golden_table1", lambda: rows)
    assert cli.main(["rs-table", "--nmax", "20", "--golden"]) == 1
    err = capsys.readouterr().err
    assert "row 5 count4" in err


def test_rs_table_tsv_prefix(capsys):
    code = cli.main(["rs-table", "--nmax", "5", "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n\tcount4\tpal4\tcount2\tpal2"
    assert len(lines) == 6
    assert lines[1] == "1\t4\tyes\t2\tyes"


def test_rs_table_rejects_zero(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["rs-table", "--nmax", "0"])
    assert err.value.code == 2


def test_modelset_check_window_failing(files, capsys):
    spec = files("bad.json", {**FIB_SPEC, "window": {"lo": "0", "hi": "1"}})
    code, data = run_json(capsys, ["modelset", "--spec", spec, "--action", "check-window"])
    assert code == 0
    assert data["W1"] and data["W2"] and data["W3"]
    assert data["W4"] is False
    assert "0" in data["witnesses"]
    assert data["suggested_shift"] == "1/16"


def test_modelset_check_window_generic(files, capsys):
    spec = files("fib.json", FIB_SPEC)
    code, data = run_json(capsys, ["modelset", "--spec", spec, "--action", "check-window"])
    assert code == 0
    assert data["W4"] is True
    assert data["witnesses"] == []


def test_modelset_generate(files, capsys):
    spec = files("fib.json", FIB_SPEC)
    code, data = run_json(capsys, ["modelset", "--spec", spec, "-R", "100"])
    assert code == 0
    assert data["count"] == len(data["points"])
    assert [entry["letter"] for entry in data["legend"]] == ["a", "b"]
    assert len(data["sequence"]) == data["count"] - 1
    assert "warning" not in data


def test_modelset_generate_nongeneric_warns(files, capsys):
    spec = files("bad.json", {**FIB_SPEC, "window": {"lo": "0", "hi": "1"}})
    code, data = run_json(capsys, ["modelset", "--spec", spec, "-R", "50"])
    assert code == 0
    assert "warning" in data
    assert data["suggested_shift"] == "1/16"
    assert data["count"] > 0


def test_modelset_symmetry(files, capsys):
    spec = files("sym.json", {**FIB_SPEC, "window": {"lo": "-1/2", "hi": "1/2"}})
    code, data = run_json(capsys, ["modelset", "--spec", spec, "--action", "symmetry"])
    assert code == 0
    assert data["centro_symmetry_center"] == "0"
    assert data["inversion_witness"] == {"m": 0, "n": 0, "value": "0"}


def test_modelset_palindromes(files, capsys):
    spec = files("fib.json", FIB_SPEC)
    code, data = run_json(capsys, ["modelset", "--spec", spec, "--action", "palindromes"])
    assert code == 0
    assert data["max_palindrome_length"] >= data["sequence_length"] / 50
    assert data["palindromes"][0]["length"] == data["max_palindrome_length"]


def test_only_generate_builds_the_points(files, capsys, monkeypatch):
    patches, walk = [], modelset.enumerate_patch

    def recording(*args):
        patches.append(walk(*args))
        return patches[-1]

    monkeypatch.setattr(modelset, "enumerate_patch", recording)
    spec = files("fib.json", FIB_SPEC)
    for action in ("palindromes", "symmetry", "generate"):
        code, data = run_json(capsys, ["modelset", "--spec", spec, "--action", action])
        assert code == 0
        assert ("coords" in vars(patches[-1])) == (action == "generate")
        assert data.get("count", len(patches[-1])) == len(patches[-1]) > 100


@pytest.mark.parametrize("radius", ["1/2", "1"])
def test_modelset_palindromes_need_two_points(files, capsys, radius):
    # The paper's window holds no point within R = 1/2 and one within R = 1.
    spec = files("fib.json", {**FIB_SPEC, "R": radius})
    assert cli.main(["modelset", "--spec", spec, "--action", "palindromes"]) == 2
    assert capsys.readouterr().err == "error: need at least two points to read off gaps\n"


def test_modelset_window_object_endpoints(files, capsys):
    # tau' - 1/2 = 0 + (-1/2)*sqrt(5), tau' + 1/2 = 1 + (-1/2)*sqrt(5)
    spec = files(
        "irr.json",
        {
            "d": 5,
            "omega": "golden",
            "window": {"lo": {"p": "0", "q": "-1/2"}, "hi": {"p": "1", "q": "-1/2"}},
            "R": "150",
        },
    )
    code, data = run_json(capsys, ["modelset", "--spec", spec, "--action", "symmetry"])
    assert code == 0
    assert data["inversion_witness"] == {"m": 0, "n": -2, "value": "-3.23606797749979"}


def modelset_digest(directory, name, action, radius):
    """sha256 of the bytes ``aperiodica modelset`` writes for one corpus case."""
    spec = Path(directory) / f"{name}.json"
    spec.write_text(json.dumps(DIGEST_WINDOWS[name]))
    out = Path(directory) / f"{name}-{action}-{radius}.out"
    code = cli.main(["modelset", "--spec", str(spec), "--action", action, "-R", radius, "-o", str(out)])
    assert code == 0, (name, action, radius)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_modelset_output_bytes_are_pinned(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = {
        f"{name} {action} R={radius}": modelset_digest(tmp_path, name, action, radius)
        for name, action, radius in DIGEST_CASES
    }
    assert got == want


def exclusion_digest(directory, name, argv):
    """Key and sha256 of the bytes one exclusion-corpus run writes."""
    key = " ".join(argv)
    out = Path(directory) / "case.out"
    argv = [*argv, "-o", str(out)]
    if name is not None:
        rule = Path(directory) / f"{name}.json"
        rule.write_text(json.dumps(EXCLUSION_RULES[name]))
        argv[1:1] = ["--rule", str(rule)]
        images = EXCLUSION_RULES[name]["images"]
        key = f"{name} {','.join(images[s] for s in sorted(images))} {key}"
    assert cli.main(argv) == 0, key
    return key, hashlib.sha256(out.read_bytes()).hexdigest()


def test_exclusion_output_bytes_are_pinned(tmp_path):
    want = json.loads(EXCLUSION_DIGESTS.read_text())
    got = dict(exclusion_digest(tmp_path, name, argv) for name, argv in EXCLUSION_CASES)
    assert got == want


def spectrum_digest(directory, name, argv):
    """Key and sha256 of the bytes one spectrum-corpus run writes."""
    key = " ".join(argv if name is None else [name, *argv])
    out = Path(directory) / "case.out"
    argv = [*argv, "-o", str(out)]
    if name is not None:
        rule = Path(directory) / f"{name}.json"
        rule.write_text(json.dumps(SPECTRUM_RULES[name]))
        argv[1:1] = ["--rule", str(rule)]
    assert cli.main(argv) == 0, key
    return key, hashlib.sha256(out.read_bytes()).hexdigest()


def test_spectrum_output_bytes_are_pinned(tmp_path):
    want = json.loads(SPECTRUM_DIGESTS.read_text())
    got = dict(spectrum_digest(tmp_path, name, argv) for name, argv in SPECTRUM_CASES)
    assert got == want


def test_unseeded_spectrum_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral, "_ql_guesses", lambda diagonal: None)
    want = json.loads(UNSEEDED_SPECTRUM_DIGESTS.read_text())
    got = dict(spectrum_digest(tmp_path, name, argv) for name, argv in SPECTRUM_CASES)
    assert got == want


def test_spectrum_free_case(capsys):
    code, data = run_json(capsys, ["spectrum", "--size", "3"])
    assert code == 0
    eigs = data["eigenvalues"]
    assert len(eigs) == 3
    assert eigs[0] == pytest.approx(-(2**0.5), abs=1e-9)
    assert eigs[1] == pytest.approx(0.0, abs=1e-9)
    assert eigs[2] == pytest.approx(2**0.5, abs=1e-9)


def test_spectrum_free_case_honours_the_boundary(capsys):
    # The free operator once kept Dirichlet ends whatever --boundary said.
    code, data = run_json(capsys, ["spectrum", "--size", "3", "--boundary", "neumann"])
    assert code == 0
    assert data["boundary"] == "neumann"
    assert data["eigenvalues"] == pytest.approx([-1.0, 1.0, 2.0], abs=1e-9)


def test_spectrum_fibonacci(files, capsys):
    rule = files("fib.json", FIB_RULE)
    code, data = run_json(
        capsys,
        ["spectrum", "--rule", rule, "--values", "a=0,b=1", "--lambda", "2", "--size", "100"],
    )
    assert code == 0
    assert len(data["eigenvalues"]) == 100
    assert data["eigenvalues"] == sorted(data["eigenvalues"])
    assert data["ids"][0][1] == 0.0
    assert data["ids"][-1][1] == 1.0


def test_spectrum_rejects_repeated_values(files, capsys):
    rule = files("fib.json", FIB_RULE)
    code = cli.main(
        ["spectrum", "--rule", rule, "--values", "a=1,b=1", "--lambda", "2", "--size", "5"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: potential values must be pairwise different\n"
    # A letter assigned twice once ran silently with its last value.
    code = cli.main(["spectrum", "--rule", rule, "--values", "a=0,a=1,b=2", "--size", "5"])
    assert code == 2
    assert capsys.readouterr().err == "error: --values assigns 'a' twice\n"


@pytest.mark.parametrize(
    "with_rule, values, message",
    [
        (True, "a=0,b", "bad --values entry 'b': use letter=value"),
        (True, "a=0", "--values assigns nothing to ['b']"),
        (True, None, "--values is required together with --rule"),
        # Once dropped without a word: the free operator ran and exited 0.
        (False, "a=0,b=1", "--rule is required together with --values"),
    ],
)
def test_spectrum_rejects_incomplete_potentials(files, capsys, with_rule, values, message):
    argv = ["spectrum", "--size", "5"]
    if with_rule:
        argv += ["--rule", files("fib.json", FIB_RULE)]
    if values is not None:
        argv += ["--values", values]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_spectrum_tolerance_below_float_spacing():
    proc = run_python("-m", "aperiodica.cli", "spectrum", "--size", "5", "--tol", "1e-17")
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["eigenvalues"]) == 5


def test_spectrum_rejects_non_finite_input(files, capsys):
    assert cli.main(["spectrum", "--size", "5", "--tol", "nan"]) == 2
    assert "tolerance" in capsys.readouterr().err
    rule = files("fib.json", FIB_RULE)
    assert cli.main(["spectrum", "--rule", rule, "--values", "a=0,b=nan", "--size", "5"]) == 2
    assert "finite" in capsys.readouterr().err
    proc = run_python(
        "-m", "aperiodica.cli", "spectrum", "--rule", rule,
        "--values", "a=0,b=1e308", "--lambda", "10", "--size", "5",
    )
    assert proc.returncode == 2
    assert "finite" in proc.stderr


@pytest.mark.parametrize("coupling", ["nan", "inf", "-inf"])
def test_spectrum_rejects_non_finite_lambda(capsys, coupling):
    # The free operator never reads the coupling, and once printed
    # "lambda": NaN, which is not JSON.
    assert cli.main(["spectrum", "--size", "2", f"--lambda={coupling}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --lambda must be finite")


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
    | st.text()
    | st.text(st.characters(max_codepoint=0x3F))
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.text(st.characters(max_codepoint=0x3F)), inner, max_size=4),
    max_leaves=40,
)


@given(json_payloads)
def test_json_text_matches_json_dumps(payload):
    expected = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert cli._json_text(payload) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_text_rejects_non_finite_floats(bad):
    for payload in (bad, [1, bad], {"a": {"b": (bad,)}}):
        with pytest.raises(ValueError):
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(ValueError):
            cli._json_text(payload)


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_spectrum_ids_grid_stays_finite(files):
    # The IDS grid once spanned eigenvalues near the float limit with
    # lo + (hi - lo) * i / 200, whose span overflows, and printed Infinity.
    rule = files("fib.json", FIB_RULE)
    for values in (
        "a=0,b=1.7e308",
        "a=-1.7e308,b=1.7e308",
        "a=-1e308,b=1e308",
        "a=0,b=1.7976931348623157e308",
        "a=-1.79769313486231e308,b=1.7976931348623157e308",  # top end rounds past the max
    ):
        proc = run_python(
            "-m", "aperiodica.cli", "spectrum", "--rule", rule,
            "--values", values, "--size", "5",
        )
        assert proc.returncode == 0, (values, proc.stderr)
        data = json.loads(proc.stdout, parse_constant=_reject_constant)
        grid = [e for e, _ in data["ids"]]
        assert all(math.isfinite(e) for e in grid), values
        assert grid == sorted(grid), values


def test_spectrum_ids_grid_spans_the_spectrum(files):
    # eigs[-1] + 0.5 adds nothing beyond 2**53 (and eigs[0] - 0.5 likewise),
    # and a span that dwarfs the top swallows it in the grid's rounding; the
    # IDS then ended at 0.6 or started above 0.
    rule = files("fib.json", FIB_RULE)
    for values in (
        "a=0,b=1.7976931348623157e308",
        "a=-1e308,b=1e308",
        "a=-1e20,b=-1e17",
        "a=-1e300,b=1",
        "a=-1.7976931348623157e308,b=1.7976931348623157e308",
    ):
        proc = run_python(
            "-m", "aperiodica.cli", "spectrum", "--rule", rule,
            "--values", values, "--size", "5",
        )
        assert proc.returncode == 0, (values, proc.stderr)
        data = json.loads(proc.stdout, parse_constant=_reject_constant)
        eigs, table = data["eigenvalues"], data["ids"]
        assert table[0][0] < eigs[0] and table[-1][0] >= eigs[-1], values
        assert (table[0][1], table[-1][1]) == (0.0, 1.0), values


def test_spectrum_rejects_zero_size(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", "--size", "0"])
    assert err.value.code == 2


def test_spectrum_tsv(capsys):
    code = cli.main(["spectrum", "--size", "4", "--format", "tsv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "E\tids"
    assert len(out.splitlines()) == 202


def test_modelset_symmetry_with_huge_exact_candidate(files):
    # [psi^2000 - 1/2, psi^2000 + 1/2], psi = (1 - sqrt(5)) / 2, written
    # with 418-digit coefficients: its centre 2 psi^2000 is a star image,
    # so the exact shift is t = -2 tau^2000 = -2 F_1999 - 2 F_2000 tau,
    # which has no float; the patch at R = 200 knows nothing of it.
    f, g = 0, 1
    for _ in range(2000):
        f, g = g, f + g
    lucas = 2 * g - f
    spec = files(
        "huge.json",
        {
            "d": 5,
            "omega": "golden",
            "window": {
                "lo": {"p": f"{lucas - 1}/2", "q": f"{-f}/2"},
                "hi": {"p": f"{lucas + 1}/2", "q": f"{-f}/2"},
            },
        },
    )
    proc = run_python("-m", "aperiodica.cli", "modelset", "--spec", spec, "--action", "symmetry", "-R", "200")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["count"] > 0
    assert data["centro_symmetry_center"] == f"{lucas}{-f}*sqrt(5)"
    assert data["inversion_witness"] == {"m": -2 * (g - f), "n": -2 * f, "value": None}


def far_window_spec():
    """[tau^2000 - 1/2, tau^2000 + 1/2], tau^2000 = (L_2000 + F_2000 sqrt(5)) / 2,
    written with 418-digit coefficients."""
    f, g = 0, 1
    for _ in range(2000):
        f, g = g, f + g
    lucas = 2 * g - f
    return {
        "d": 5,
        "omega": "golden",
        "window": {
            "lo": {"p": f"{lucas - 1}/2", "q": f"{f}/2"},
            "hi": {"p": f"{lucas + 1}/2", "q": f"{f}/2"},
        },
    }


def test_modelset_far_window_all_actions(files):
    # Every patch point of the far window has (m, n) of about 418 digits,
    # so no point has a float and each is printed with exact m and n and
    # "value": null.
    spec = files("far.json", far_window_spec())
    out = {}
    for action in ("generate", "check-window", "symmetry", "palindromes"):
        proc = run_python("-m", "aperiodica.cli", "modelset", "--spec", spec, "--action", action, "-R", "20")
        assert proc.returncode == 0, (action, proc.stderr)
        out[action] = json.loads(proc.stdout)
    points = out["generate"]["points"]
    assert len(points) == out["generate"]["count"] == out["symmetry"]["count"] > 10
    assert all(p["value"] is None and abs(p["n"]) > 10**400 for p in points)
    assert [entry["value"] is not None for entry in out["generate"]["legend"]] == [True, True]
    assert len(out["generate"]["sequence"]) == len(points) - 1
    assert out["check-window"]["W4"] is True
    assert out["symmetry"]["inversion_witness"]["value"] is None
    assert out["palindromes"]["sequence_length"] == len(points) - 1


def generate_oracle(spec, radius):
    """What ``modelset --action generate`` must write: ``json.dumps`` of
    the payload built here as dicts, one dict a point, from the library's
    patch and genericity verdict."""
    field, window, R = cli._load_modelset_spec(spec, radius)
    omega = float(field.omega())

    def point(m, n):
        try:
            value = m + n * omega
        except OverflowError:
            value = math.inf
        return {"m": m, "n": n, "value": format(value, ".15g") if math.isfinite(value) else None}

    hits = modelset.check_generic(window, field)
    patch = modelset.enumerate_patch(field, window, R)
    payload = {
        "d": field.d,
        "omega": field.omega_style,
        "window": {"lo": str(window.lo), "hi": str(window.hi)},
        "R": str(R),
        "count": len(patch),
        "points": [point(m, n) for m, n in patch.coords],
    }
    if hits:
        payload["warning"] = "window is not generic: " + ", ".join(map(str, hits))
        payload["suggested_shift"] = str(modelset.genericity_shift(window, field))
    if len(patch) >= 2:
        payload["legend"] = [
            {"letter": letter, **point(m, n)} for letter, (m, n) in zip("abc", patch.gap_coords)
        ]
        payload["sequence"] = "".join("abc"[i] for i in patch.letters)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def seeded_window_specs(seed, count):
    """Seeded windows over Q(sqrt 2) and Q(sqrt 5), some with an irrational
    end, each with a radius."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        d, style = rng.choice([(2, "sqrt"), (5, "sqrt"), (5, "golden")])
        lo = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        hi = lo + Fraction(rng.randint(6, 24), rng.randint(3, 6))
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.3 else 0
        window = {"lo": {"p": str(lo), "q": str(q)}, "hi": {"p": str(hi), "q": str(q)}}
        cases.append(({"d": d, "omega": style, "window": window}, rng.choice(["40", "150", "301/2"])))
    return cases


# (spec, radius, kind): seeded windows, a non-generic window (which adds
# "warning" and "suggested_shift"), patches of one point and of none
# (no "legend"), and the far window, whose every "value" is null.
GENERATE_ORACLE_CASES = [
    *((spec, radius, "seeded") for spec, radius in seeded_window_specs(18, 8)),
    ({"d": 5, "omega": "golden", "window": {"lo": "0", "hi": "1"}}, "200", "nongeneric"),
    ({"d": 5, "omega": "golden", "window": {"lo": "-1/2", "hi": "1/2"}}, "1/10", "few"),
    (FIB_SPEC, "1/2", "few"),
    (far_window_spec(), "20", "far"),
]


@pytest.mark.parametrize("spec, radius, kind", GENERATE_ORACLE_CASES)
def test_generate_matches_json_dumps_of_point_dicts(files, capsys, spec, radius, kind):
    path = files("spec.json", spec)
    assert cli.main(["modelset", "--spec", path, "-R", radius]) == 0
    out = capsys.readouterr().out
    # Lines, not one string: pytest's diff of two long strings takes minutes.
    assert out.splitlines(keepends=True) == generate_oracle(path, radius).splitlines(keepends=True)
    data = json.loads(out)
    values = [p["value"] for p in data["points"]]
    if kind == "few":
        assert len(values) < 2 and "legend" not in data
    elif kind == "far":
        assert values and all(v is None for v in values)
    else:
        assert any(v.startswith("-") for v in values) and any(v[0] != "-" for v in values)
    if kind == "nongeneric":
        assert "warning" in data and "suggested_shift" in data


SPEC_ARGV = ["modelset", "--spec"]
RULE_ARGV = ["exclude", "--nmax", "5", "--rule"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (SPEC_ARGV, "[1, 2]"),
        (SPEC_ARGV, '{"d": 5, "omega": "golden", "window": [1, 2]}'),
        # JSON reads 1e400 as inf, which no Fraction holds.
        (SPEC_ARGV, '{"d": 5, "window": {"lo": "1/3", "hi": "4/3"}, "R": 1e400}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": {"p": [1]}, "hi": "4/3"}}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": "1/0", "hi": "4/3"}}'),
        (RULE_ARGV, '{"alphabet": ["a", "b"], "images": {"a": "ab", "b": 5}}'),
        (RULE_ARGV, '{"alphabet": 5, "images": {"a": "ab", "b": "a"}}'),
        # JSON booleans once ran as the integers 0 and 1.
        (SPEC_ARGV, '{"d": 5, "window": {"lo": true, "hi": "4/3"}}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": {"p": true}, "hi": "4/3"}}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": {"p": "1/3", "q": false}, "hi": "4/3"}}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": "1/3", "hi": "4/3"}, "R": true}'),
        # JSON floats once ran as their binary values (R = 0.1, p = 0.5).
        (SPEC_ARGV, '{"d": 5, "window": {"lo": "1/3", "hi": "4/3"}, "R": 0.1}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": {"p": 0.5}, "hi": "4/3"}}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": 0.5, "hi": "4/3"}}'),
        # A missing key once printed as the bare "error: 'd'".
        (SPEC_ARGV, '{"window": {"lo": "1/3", "hi": "4/3"}}'),
        (SPEC_ARGV, '{"d": 5, "R": "10"}'),
        (SPEC_ARGV, '{"d": 5, "window": {"hi": "4/3"}}'),
        (SPEC_ARGV, '{"d": 5, "window": {"lo": "1/3"}}'),
        (RULE_ARGV, '{"alphabet": ["a", "b"]}'),
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli.main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not re.fullmatch(r"error: '\w+'\n", err), "a bare key names no fault"


def test_atlas_and_exclude_do_not_read_the_seed(files, capsys):
    # Every sequence in the hull has the factors of the rule.  Seed b gives
    # no fixed point (b -> a), so atlas and exclude once exited 2 on it;
    # spectrum, which reads the seed's fixed point, still does.
    rules = {seed: files(f"fib_{seed}.json", {**FIB_RULE, "seed": seed}) for seed in "ab"}
    outputs = []
    for rule in rules.values():
        for argv in (["atlas", "-N", "6", "--method", "both"], ["exclude", "--nmax", "8"]):
            assert cli.main([*argv, "--rule", rule]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    argv = ["spectrum", "--rule", rules["b"], "--values", "a=0,b=1", "--size", "5"]
    assert cli.main(argv) == 2
    assert "no seed/power pair" in capsys.readouterr().err


def test_rule_images_must_be_an_object(files, capsys):
    # A list of images once read as a mapping with no symbol in it.
    rule = files("list.json", {"alphabet": ["a", "b"], "images": ["ab", "a"]})
    assert cli.main(RULE_ARGV + [rule]) == 2
    err = capsys.readouterr().err
    assert err == "error: rule file images must be an object mapping each symbol to its image\n"


@pytest.mark.parametrize("d", [5.9, True, "5"])
def test_modelset_rejects_non_integer_d(files, capsys, d):
    spec = files("bad_d.json", {**FIB_SPEC, "d": d})
    assert cli.main(["modelset", "--spec", spec, "--action", "generate"]) == 2
    assert "d must be a squarefree integer" in capsys.readouterr().err


def test_modelset_symmetry_paper_window_has_no_witness(files, capsys):
    # lo + hi = 5/3 is not a star image, so no lattice shift mirrors the
    # model set at any radius, although finite patches agree with shifted
    # mirror images on long stretches.
    spec = files("fib.json", FIB_SPEC)
    for radius in ("1000", "2000", "4000"):
        code, data = run_json(capsys, ["modelset", "--spec", spec, "--action", "symmetry", "-R", radius])
        assert code == 0
        assert data["centro_symmetry_center"] == "5/3"
        assert data["inversion_witness"] is None, radius


def test_output_file_and_determinism(files, capsys, tmp_path):
    spec = files("fib.json", FIB_SPEC)
    target = tmp_path / "patch.json"
    assert cli.main(["modelset", "--spec", spec, "-R", "80", "-o", str(target)]) == 0
    first = target.read_bytes()
    assert cli.main(["modelset", "--spec", spec, "-R", "80", "-o", str(target)]) == 0
    assert target.read_bytes() == first
    assert json.loads(first)["count"] > 0


def test_modelset_radius_past_the_patch_cap_exits_2(files):
    # R = 1e400 once walked the paper window until memory ran out; under a
    # 400 MB address-space limit it died with a MemoryError traceback and
    # exit 1.  The radius is now refused before any point is built.
    spec = files("fib.json", FIB_SPEC)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from aperiodica import cli\n"
        f"sys.exit(cli.main(['modelset', '--spec', {spec!r}, '--action', 'symmetry', '-R', '1e400']))\n"
    )
    proc = run_python("-c", code, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: radius R = {10**400} ")
    assert "more than 250000 points" in proc.stderr and "MAX_PATCH_POINTS" in proc.stderr


@pytest.mark.parametrize(
    "radius, lo", [("1e99999999", "1/3"), ("1e-99999999", "1/3"), ("20", "1e99999999"), ("1e5000", "1/3")]
)
def test_number_past_the_digit_limit_exits_2_before_expanding(files, radius, lo):
    # Fraction builds the power of ten an exponent names: 1e10000000 took
    # 9.5 s to read and 1e99999999 ran past 300 s, while 1e5000 exited 2
    # with the int-to-text limit's message, which names no number.
    spec = files("spec.json", dict(FIB_SPEC, window={"lo": lo, "hi": "4/3"}))
    argv = ["modelset", "--spec", spec, "--action", "symmetry", "-R", radius]
    proc = run_python("-m", "aperiodica.cli", *argv, timeout=10)
    assert proc.returncode == 2, proc.stderr
    number = radius if lo == "1/3" else lo
    assert proc.stderr == f"error: bad number {number!r}: more than 4300 digits\n"


@pytest.mark.parametrize("digits", [4300, 4301, 5001])
def test_spec_integer_past_the_digit_limit_names_the_number(tmp_path, digits):
    # A JSON integer past 4300 digits once exited 2 with CPython's
    # int-to-text message, which names no number.
    number = "1" + "0" * (digits - 1)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(FIB_SPEC, R=0)).replace('"R": 0', f'"R": {number}'))
    argv = ["modelset", "--spec", str(spec), "--action", "symmetry"]
    proc = run_python("-m", "aperiodica.cli", *argv, timeout=30)
    assert proc.returncode == 2, proc.stderr
    if digits > 4300:
        assert proc.stderr == f"error: bad number {number}: more than 4300 digits\n"
    else:
        assert "more than 250000 points" in proc.stderr


def test_generate_past_the_byte_cap_exits_2_before_the_walk(files, capsys, monkeypatch):
    # The far window at R = 270000 expects about 241000 points, under
    # MAX_PATCH_POINTS, but each has 418-digit m and n: under a 400 MB
    # address-space limit it died with a MemoryError traceback and exit 1.
    # The radius is now refused from the window and R alone.
    def walk(*args):
        raise AssertionError("the patch was walked")

    monkeypatch.setattr(modelset, "enumerate_patch", walk)
    spec = files("far.json", far_window_spec())
    assert cli.main(["modelset", "--spec", spec, "--action", "generate", "-R", "270000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius R = 270000 expects more than 50000000 bytes")
    assert "MAX_GENERATE_BYTES" in err


@pytest.mark.parametrize(
    "spec, radius",
    [(FIB_SPEC, "2000"), (DIGEST_WINDOWS["sqrt2"], "2000"), (far_window_spec(), "20")]
    + seeded_window_specs(18, 8),
)
def test_point_bytes_bound_each_point(files, spec, radius):
    # Each point's text, with the comma before it, is at most the bound
    # the byte cap multiplies by the expected count, and not far below.
    field, window, R = cli._load_modelset_spec(files("spec.json", spec), radius)
    patch = modelset.enumerate_patch(field, window, R)
    text = cli._generate_text({"points": []}, patch.coords, float(field.omega()))
    lengths = [len("," + item) for item in re.findall(r"\{[^{}]*\}", text)]
    bound = cli._point_bytes(field, window, R)
    assert bound - 30 < max(lengths) <= bound


def test_byte_cap_leaves_room_for_the_corpus(files):
    # Every digest case and the benchmark's generate at R = 10000 stay
    # far below MAX_GENERATE_BYTES.
    cases = [(w, "2000") for w in DIGEST_WINDOWS.values()]
    cases += [(FIB_SPEC, "10000"), (DIGEST_WINDOWS["sqrt2"], "10000")]
    for spec, radius in cases:
        field, window, R = cli._load_modelset_spec(files("spec.json", spec), radius)
        text = modelset.expected_count(field, window, R) * cli._point_bytes(field, window, R)
        assert text * 20 < cli.MAX_GENERATE_BYTES


def run_limited(argv, timeout=60):
    """The CLI on ``argv`` in a child process under a 400 MB address-space
    limit, with its JSON output written to a file read back here."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from aperiodica import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    return run_python("-c", code, timeout=timeout)


def test_exclude_reaches_length_2000_under_400_mb(files, tmp_path):
    # The atlas chain held every factor of every length up to n_max: at
    # 2000 on Fibonacci it died with a MemoryError traceback and exit 1.
    rule, out = files("fib.json", FIB_RULE), tmp_path / "out.json"
    proc = run_limited(["exclude", "--rule", rule, "--nmax", "2000", "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["status"] == "undetermined"
    assert data["lengths_with_palindromes"] == list(range(1, 2001))


@pytest.mark.parametrize(
    "n, method, code", [(20000, "induction", 2), (5000, "both", 2), (3000, "both", 0)]
)
def test_atlas_under_400_mb(files, tmp_path, n, method, code):
    # Both atlases were built without a bound: under a 400 MB address-space
    # limit N = 20000 and N = 5000 --method both died with a MemoryError
    # traceback and exit 1.  They are now refused before any factor is
    # built as a tuple, while N = 3000 --method both (about 190 MiB) runs.
    rule, out = files("fib.json", FIB_RULE), tmp_path / "out.json"
    proc = run_limited(["atlas", "--rule", rule, "-N", str(n), "--method", method, "-o", str(out)])
    assert proc.returncode == code, proc.stderr
    if code == 2:
        cap = f"MAX_ATLAS_LETTERS = {substitution.MAX_ATLAS_LETTERS}"
        assert proc.stderr == f"error: the length-{n} atlas would hold more than {cap} letters\n"
    else:
        data = json.loads(out.read_text())
        assert data["count"] == n + 1 and data["methods_agree"] is True


def test_long_head_cycle_rule_under_400_mb(files, tmp_path):
    # x_i -> x_(i+1) x_0, x_25 -> x_0 x_1 fits in under 1 KB, and its
    # fixed point needs sigma^26.  The stream built sigma^26 of every
    # letter, about 2^26 letters each, and both runs died with a
    # MemoryError traceback and exit 1.  x_25 first occurs near 2^25, past
    # the prefix cap, so the window atlas cannot close before it.
    symbols = [f"x{i}" for i in range(26)]
    images = {s: f"{symbols[i + 1]}.x0" for i, s in enumerate(symbols[:-1])}
    rule = files("cycle26.json", {"alphabet": symbols, "images": dict(images, x25="x0.x1")})
    values = ",".join(f"{s}={i}" for i, s in enumerate(symbols))
    out = tmp_path / "out.json"
    proc = run_limited(
        ["spectrum", "--rule", rule, "--values", values, "--size", "5", "-o", str(out)], timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["eigenvalues"]) == 5
    proc = run_limited(["atlas", "--rule", rule, "-N", "3", "--method", "window"], timeout=30)
    assert proc.returncode == 2, proc.stderr
    cap = substitution.DEFAULT_MAX_PREFIX
    assert proc.stderr == f"error: factor set of length 3 did not close within the prefix cap {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [["exclude", "--nmax", "5"]]
    + [["atlas", "-N", "5", "--method", method] for method in ("induction", "window", "both")],
)
def test_one_letter_rule_exits_2(files, argv):
    # a -> a is primitive but has no growing fixed point; without the
    # seed check the cover words' block lengths never reach N - 1.
    rule = files("one.json", {"alphabet": ["a"], "images": {"a": "a"}})
    proc = run_limited(argv + ["--rule", rule], timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "no seed/power pair" in proc.stderr


@pytest.mark.parametrize("n_max", [400, 612, 708, 1500])
def test_rs_table_under_400_mb_exits_0(tmp_path, n_max):
    # The atlas chain died at 400 with a MemoryError and exit 1; a cap on
    # every length-N window of the cover words, with repetition, refused
    # N >= 612, and one counting tens of bytes a letter refused N >= 708.
    # Only the distinct windows are held, one byte a letter.
    out = tmp_path / "out.json"
    proc = run_limited(["rs-table", "--nmax", str(n_max), "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["rows"]
    want = [(8 * n - 8,) * 2 for n in range(8, n_max + 1)]
    assert [(r["count4"], r["count2"]) for r in rows[7:]] == want


@pytest.mark.parametrize("command", ["exclude", "rs-table"])
def test_huge_nmax_exits_2_at_once(files, command):
    argv = [command, "--nmax", str(10**15)]
    if command == "exclude":
        argv += ["--rule", files("fib.json", FIB_RULE)]
    proc = run_limited(argv, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: length {10**15} would hold ")
    if command == "exclude":
        assert f"MAX_COVER_LETTERS = {substitution.MAX_COVER_LETTERS}" in proc.stderr
    else:
        assert f"MAX_TABLE_BYTES = {rudin_shapiro.MAX_TABLE_BYTES}" in proc.stderr


@pytest.mark.parametrize("with_rule", [False, True])
def test_spectrum_size_past_the_bound_exits_2(files, with_rule):
    # --size 10**8 built its letters first: under a 400 MB address-space
    # limit it died with a MemoryError traceback and exit 1.  The size is
    # now refused before any letter is built.
    argv = ["spectrum", "--size", str(10**8)]
    if with_rule:
        argv += ["--rule", files("fib.json", FIB_RULE), "--values", "a=0,b=1"]
    proc = run_limited(argv, timeout=20)
    assert proc.returncode == 2, proc.stderr
    bound = f"MAX_SITES = {spectral.MAX_SITES}"
    assert proc.stderr == f"error: --size {10**8} is past the bound {bound}\n"


def test_spectrum_size_at_the_bound_reaches_the_solve(monkeypatch, capsys):
    # A solve at the bound takes hours, so the operator is stopped once built.
    sizes = []

    def stop(potential, *args, **kwargs):
        sizes.append(len(potential))
        raise ValueError("stopped before the solve")

    monkeypatch.setattr(spectral, "build_finite", stop)
    assert cli.main(["spectrum", "--size", str(spectral.MAX_SITES)]) == 2
    assert sizes == [spectral.MAX_SITES]
    assert capsys.readouterr().err == "error: stopped before the solve\n"


def test_modelset_d_past_the_bound_exits_2(files):
    # Squarefreeness is decided by trial division up to sqrt(d): d = 10**20 + 39
    # once ran past a 30 s timeout in check-window.  d above MAX_D is refused.
    spec = files("huge_d.json", {**FIB_SPEC, "d": 10**20 + 39})
    argv = ["-m", "aperiodica.cli", "modelset", "--spec", spec, "--action", "check-window"]
    proc = run_python(*argv, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: d must be a squarefree integer")
    assert f"MAX_D = {2**32}" in proc.stderr


def test_input_files_are_read_as_utf8_in_any_locale(files):
    # Text-mode reading once decoded rule files with the locale's codec,
    # so in the C locale this rule exited 2 on the byte 0xce of "α".
    rule = files("greek.json", {"alphabet": ["α", "β"], "images": {"α": "αβ", "β": "α"}})
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = run_python("-m", "aperiodica.cli", "atlas", "--rule", rule, "-N", "2", env=c_locale)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["words"] == ["αα", "αβ", "βα"]


# Arguments each command parses without error, so that a trailing word
# reaches the top-level parser's "unrecognized arguments" error.
VALID_ARGV = {
    "atlas": ["--rule", "r.json", "-N", "2"],
    "exclude": ["--rule", "r.json", "--nmax", "2"],
    "rs-table": ["--nmax", "2"],
    "modelset": ["--spec", "s.json"],
    "spectrum": ["--size", "2"],
}
PARSER_CORPUS = (
    [[], ["-h"], ["frobnicate"], ["exc"], ["--", "exclude"]]
    + [[command, "-h"] for command in VALID_ARGV]
    + [[command, *argv, "extra"] for command, argv in VALID_ARGV.items()]
    + [
        ["atlas", "--rule", "r.json", "-N", "2", "--method", "nope"],
        ["spectrum", "--size", "2", "--boundary", "periodic"],
        ["exclude", "--rule", "r.json", "--nmax", "zero"],
        ["spectrum", "--size", "2", "--lambda", "strong"],
        ["rs-table", "--nmax", "0"],
        ["exclude", "--nmax", "2"],
        ["modelset"],
        # Parsed cleanly, so these reach dispatch.
        ["rs-table", "--nmax", "3", "--format", "tsv"],
        ["spectrum", "--size", "2"],
        ["exclude", "--rule", "missing.json", "--nmax", "2"],
    ]
)


def cli_outcome(capsys, argv=None):
    """Exit code, standard output and standard error of one ``cli.main`` call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["60", "200"])
@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_parser_of_one_command_matches_the_full_parser(capsys, monkeypatch, argv, columns):
    # main builds only the named command's parser; help, usage, errors
    # and exit codes must be those of the parser with every command.
    monkeypatch.setenv("COLUMNS", columns)
    got = cli_outcome(capsys, argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser(None))
    assert got == cli_outcome(capsys, argv)


def test_main_reads_sys_argv_and_builds_one_command(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(
        cli,
        "_COMMANDS",
        tuple(
            (name, help_text, lambda p, name=name, add=add: (built.append(name), add(p)))
            for name, help_text, add in cli._COMMANDS
        ),
    )
    monkeypatch.setattr(sys, "argv", ["aperiodica", "rs-table", "--nmax", "4"])
    from_sys_argv = cli_outcome(capsys)
    assert built == ["rs-table"]
    assert from_sys_argv == cli_outcome(capsys, ["rs-table", "--nmax", "4"])
    assert from_sys_argv[0] == 0 and from_sys_argv[1].startswith("{")


@pytest.mark.parametrize(
    "argv, message",
    [([], "the following arguments are required: command"), (["exc"], "argument command: invalid choice")],
)
def test_top_level_errors_name_the_command_argument(capsys, argv, message):
    code, out, err = cli_outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: aperiodica [-h] {atlas,exclude,rs-table,modelset,spectrum} ...")
    assert message in err
