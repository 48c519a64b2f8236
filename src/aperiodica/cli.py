"""Single command line entry point for every pipeline.

Exit codes: 0 success, 1 domain verdict failure (golden mismatch,
non-primitive rule, method disagreement), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction

from . import modelset, rudin_shapiro, spectral, substitution, words


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _f15(x):
    return format(float(x), ".15g")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _load_json(path):
    # Bytes, so that json.load detects UTF-8, -16 or -32 whatever the locale.
    with open(path, "rb") as fh:
        return _json_object(json.load(fh), f"file {path}")


def _load_rule(path):
    return substitution.rule_from_dict(_load_json(path))


def _atlas_payload(alphabet, n, atlas):
    return {
        "N": n,
        "count": len(atlas),
        "words": [alphabet.text(w) for w in sorted(atlas)],
    }


def cmd_atlas(args):
    rule, _ = _load_rule(args.rule)
    by_induction = by_window = None
    if args.method in ("induction", "both"):
        by_induction = substitution.atlas_by_induction(rule, args.n)
    if args.method in ("window", "both"):
        by_window = substitution.atlas_by_window(rule, args.n)
    payload = _atlas_payload(rule.alphabet, args.n, by_induction or by_window)
    agree = True
    if args.method == "both":
        agree = by_induction == by_window
        payload["methods_agree"] = agree
    _emit(_json_text(payload), args.output)
    return 0 if agree else 1


def _verdict_payload(verdict):
    return {
        "lengths_with_palindromes": sorted(verdict.lengths_with_palindromes),
        "first_excluding_pair": verdict.first_excluding_pair,
        "status": verdict.status,
    }


def cmd_exclude(args):
    rule, _ = _load_rule(args.rule)
    if args.phi and rule.alphabet.symbols != ("a", "b", "c", "d"):
        raise ValueError("--phi needs the four-letter alphabet a, b, c, d")
    covers = substitution.cover_words(rule, args.nmax)
    if args.phi:
        covers = [rudin_shapiro.phi(w) for w in covers]
    payload = {"nmax": args.nmax, "projection": "phi" if args.phi else None}
    payload.update(_verdict_payload(words.exclusion_verdict(covers, args.nmax)))
    _emit(_json_text(payload), args.output)
    return 0


def cmd_rs_table(args):
    rows, (verdict4, verdict2) = rudin_shapiro.table1(args.nmax)
    columns = [field.name for field in dataclasses.fields(rudin_shapiro.Table1Row)]
    if args.format == "tsv":
        lines = ["\t".join(columns)] + ["\t".join(map(str, dataclasses.astuple(r))) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(
            {
                "rows": [dataclasses.asdict(r) for r in rows],
                "exclusion_verdicts": {
                    "quaternary": _verdict_payload(verdict4),
                    "binary": _verdict_payload(verdict2),
                },
            }
        )
    _emit(text, args.output)
    if args.golden:
        golden = rudin_shapiro.golden_table1()
        depth = min(len(rows), len(golden))
        bad = []
        for computed, expected in zip(rows[:depth], golden[:depth]):
            for cell in columns:
                got, want = getattr(computed, cell), getattr(expected, cell)
                if got != want:
                    bad.append(f"row {expected.n} {cell}: got {got!r}, expected {want!r}")
        if bad:
            print("golden mismatch:", file=sys.stderr)
            for line in bad:
                print("  " + line, file=sys.stderr)
            return 1
    return 0


# The most digits a number may have: CPython's default limit on
# converting between int and decimal text.
MAX_NUMBER_DIGITS = 4300
# The text Fraction reads, underscores removed: the digits before and
# after the point, and an exponent or a denominator.
_NUMBER = re.compile(r"\s*[-+]?(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+)|/(\d+))?\s*")


def _too_long(text):
    """Whether Fraction(text) would read a digit string, or build a
    numerator or a denominator before reducing, of more than
    MAX_NUMBER_DIGITS digits: decided from the digits written and the
    exponent, before any power of ten is built."""
    match = _NUMBER.fullmatch(text.replace("_", ""))
    if match is None:
        return False
    whole, point, exponent, denominator = match.groups(default="")
    if max(len(whole), len(point), len(exponent), len(denominator)) > MAX_NUMBER_DIGITS:
        return True
    digits = (whole + point).lstrip("0")
    significant = digits.rstrip("0")
    shift = int(exponent or 0) - len(point) + len(digits) - len(significant)
    return len(significant) + max(shift, 0) > MAX_NUMBER_DIGITS or -shift >= MAX_NUMBER_DIGITS


def _fraction(raw):
    """Fraction(raw), with a ValueError for every value it cannot read.
    JSON floats are refused: a binary float is not the decimal written.
    So is a number of more than MAX_NUMBER_DIGITS digits, whose powers
    of ten could take minutes to build."""
    if isinstance(raw, (bool, float)):
        raise ValueError(f"bad number {raw!r}: use an integer or 'p/q'")
    if isinstance(raw, str) and _too_long(raw):
        raise ValueError(f"bad number {raw!r}: more than {MAX_NUMBER_DIGITS} digits")
    try:
        return Fraction(raw)
    except (TypeError, OverflowError, ZeroDivisionError):
        raise ValueError(f"bad number {raw!r}: use an integer or 'p/q'") from None


def _parse_field_value(field, raw):
    if isinstance(raw, (str, int, float)):
        return field.element(_fraction(raw))
    if isinstance(raw, dict):
        return field.element(_fraction(raw.get("p", 0)), _fraction(raw.get("q", 0)))
    raise ValueError(f"bad field value {raw!r}: use 'p/q' or {{'p': ..., 'q': ...}}")


def _load_modelset_spec(path, r_override):
    data = _load_json(path)
    try:
        d, bounds = data["d"], _json_object(data["window"], "window")
        lo, hi = bounds["lo"], bounds["hi"]
    except KeyError as exc:
        raise ValueError(f"spec file missing key {exc}") from None
    field = modelset.QuadField(d, data.get("omega", modelset.OMEGA_SQRT))
    window = modelset.Window(_parse_field_value(field, lo), _parse_field_value(field, hi))
    radius = _fraction(r_override if r_override is not None else data.get("R", "100"))
    return field, window, radius


def _lattice_value(m, n, omega):
    """The one rendering of the lattice point m + n*omega: the float
    m + n*omega to 15 significant digits, or None when it is not finite."""
    try:
        value = m + n * omega
    except OverflowError:
        return None
    return format(value, ".15g") if math.isfinite(value) else None


def _generate_text(payload, coords, omega):
    """The JSON text of a ``generate`` payload with ``coords`` written as
    the items of its empty ``"points"`` list, one format string a point.

    Below CPython 3.13 ``json.dumps`` with an indent encodes in Python,
    one step a token, and the points are nearly all of the text.  The
    keys sort as R, count, d, legend, omega, points, so the first
    ``"points": []`` of the text is that list.
    """
    head, empty, tail = _json_text(payload).partition('"points": []')
    items = []
    for m, n in coords:
        value = _lattice_value(m, n, omega)
        value = "null" if value is None else f'"{value}"'
        items.append(f'{{\n      "m": {m},\n      "n": {n},\n      "value": {value}\n    }}')
    if not items:
        return head + empty + tail
    items[0] = head + '"points": [\n    ' + items[0]
    items[-1] += "\n  ]" + tail
    return ",\n    ".join(items)


# The points text of a generate payload is held about twice over while
# it is joined, beside the patch: a run whose points came to 49.7 MB of
# text (418-digit m and n) peaked at 143 MiB on CPython 3.11.
MAX_GENERATE_BYTES = 50_000_000


def _point_bytes(field, window, radius):
    """An upper bound on the text of one point of a patch within radius
    R: 81 bytes with a 24-byte value and both signs, and the digits of
    the largest |m| and |n|, at most 0.30103*b + 1 for b bits."""
    bounds = modelset._coordinate_bounds(field, window, radius)
    return 81 + sum(int(k.bit_length() * 0.30103) + 1 for k in bounds)


# The gap names: an interval window has at most three gaps (three-distance theorem).
_GAP_NAMES = "abc"


def cmd_modelset(args):
    field, window, radius = _load_modelset_spec(args.spec, args.radius)
    hits = modelset.check_generic(window, field)
    suggestion = modelset.genericity_shift(window, field) if hits else None
    if args.action == "check-window":
        # W1..W3 hold for every interval window by construction.
        payload = {
            "W1": True,
            "W2": True,
            "W3": True,
            "W4": not hits,
            "witnesses": [str(e) for e in hits],
            "suggested_shift": str(suggestion) if suggestion is not None else None,
        }
        _emit(_json_text(payload), args.output)
        return 0
    payload = {
        "d": field.d,
        "omega": field.omega_style,
        "window": {"lo": str(window.lo), "hi": str(window.hi)},
        "R": str(radius),
    }
    if hits:
        payload["warning"] = "window is not generic: " + ", ".join(str(e) for e in hits)
        payload["suggested_shift"] = str(suggestion)
    if args.action == "generate":
        per_point = _point_bytes(field, window, radius)
        if modelset.expected_count(field, window, radius) * per_point > MAX_GENERATE_BYTES:
            raise ValueError(
                f"radius R = {radius} expects more than {MAX_GENERATE_BYTES} bytes of points "
                f"({per_point} a point), the generate cap MAX_GENERATE_BYTES"
            )
    patch = modelset.enumerate_patch(field, window, radius)
    omega = float(field.omega())
    if args.action == "generate":
        payload["count"] = len(patch)
        payload["points"] = []
        if len(patch) >= 2:
            payload["legend"] = [
                {"letter": letter, "m": m, "n": n, "value": _lattice_value(m, n, omega)}
                for letter, (m, n) in zip(_GAP_NAMES, patch.gap_coords)
            ]
            payload["sequence"] = "".join(map(_GAP_NAMES.__getitem__, patch.letters))
        _emit(_generate_text(payload, patch.coords, omega), args.output)
        return 0
    if args.action == "symmetry":
        witness = modelset.inversion_witness(window, field)
        payload["count"] = len(patch)
        payload["centro_symmetry_center"] = str(modelset.centro_symmetry_center(window))
        if witness is not None:
            m, n = witness
            witness = {"m": m, "n": n, "value": _lattice_value(m, n, omega)}
        payload["inversion_witness"] = witness
    else:
        if len(patch) < 2:
            raise ValueError("need at least two points to read off gaps")
        scan = modelset.palindrome_scan(patch.letters, top=args.top)
        payload["sequence_length"] = len(patch.letters)
        payload["max_palindrome_length"] = scan[0][1] if scan else 0
        payload["palindromes"] = [{"center2": c2, "length": length} for c2, length in scan]
    _emit(_json_text(payload), args.output)
    return 0


def _parse_values(text, alphabet):
    mapping = {}
    for part in text.split(","):
        sym, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"bad --values entry {part!r}: use letter=value")
        letter = alphabet.index(sym.strip())
        if letter in mapping:
            raise ValueError(f"--values assigns {sym.strip()!r} twice")
        mapping[letter] = float(val)
    missing = [s for i, s in enumerate(alphabet.symbols) if i not in mapping]
    if missing:
        raise ValueError(f"--values assigns nothing to {missing}")
    return mapping


def _ids_grid(lo, hi):
    """lo + (hi - lo) * i / 200 for i = 0..200, evaluated 2**9 times
    smaller so that no intermediate overflows; scaling by a power of two
    is exact, so this is that formula bit for bit wherever it stays
    finite.  Only a top end within rounding of the largest float can
    round past it, and is held there."""
    s = 2.0**-9
    return [min((lo * s + (hi * s - lo * s) * i / 200) / s, sys.float_info.max) for i in range(201)]


def cmd_spectrum(args):
    if not math.isfinite(args.coupling):
        raise ValueError(f"--lambda must be finite, got {args.coupling}")
    if args.size > spectral.MAX_SITES:
        raise ValueError(f"--size {args.size} is past the bound MAX_SITES = {spectral.MAX_SITES}")
    if args.rule:
        rule, seed = _load_rule(args.rule)
        substitution.require_primitive(rule)
        if not args.values:
            raise ValueError("--values is required together with --rule")
        mapping = _parse_values(args.values, rule.alphabet)
        prefix = substitution.FixedPointStream(rule, seed).prefix(args.size)
    elif args.values:
        raise ValueError("--rule is required together with --values")
    else:
        prefix, mapping = (0,) * args.size, {0: 0.0}
    op = spectral.build_finite(prefix, mapping, args.coupling, boundary=args.boundary)
    eigs = spectral.eigenvalues(op, tol=args.tol)
    lo, hi = eigs[0] - 0.5, eigs[-1] + 0.5
    # The half unit of headroom is lost to rounding beyond 2**53, and at
    # the top also when the span dwarfs that end; such an end is widened
    # by a margin that rounding by a few ulps of the larger end cannot undo.
    margin = max(-lo, hi) * 2.0**-40
    if lo == eigs[0]:
        lo = max(lo - margin, -sys.float_info.max)
    grid = _ids_grid(lo, hi)
    if grid[-1] < eigs[-1]:
        grid = _ids_grid(lo, min(hi + margin, sys.float_info.max))
    table = [(e, spectral.ids(eigs, e)) for e in grid]
    if args.format == "tsv":
        lines = ["E\tids"] + [f"{_f15(e)}\t{_f15(v)}" for e, v in table]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(
            {
                "size": op.size,
                "lambda": args.coupling,
                "boundary": args.boundary,
                "eigenvalues": eigs,
                "ids": [[e, v] for e, v in table],
            }
        )
    _emit(text, args.output)
    return 0


def _atlas_arguments(p):
    p.add_argument("--rule", required=True, help="rule JSON file")
    p.add_argument("-N", dest="n", type=_positive_int, required=True)
    p.add_argument("--method", choices=("induction", "window", "both"), default="induction")
    p.set_defaults(func=cmd_atlas)


def _exclude_arguments(p):
    p.add_argument("--rule", required=True)
    p.add_argument("--nmax", type=_positive_int, required=True)
    p.add_argument("--phi", action="store_true", help="collapse a,b->0 and c,d->1 first")
    p.set_defaults(func=cmd_exclude)


def _rs_table_arguments(p):
    p.add_argument("--nmax", type=_positive_int, default=20)
    p.add_argument("--golden", action="store_true", help="compare against the stored table")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_rs_table)


def _modelset_arguments(p):
    p.add_argument("--spec", required=True, help="model set JSON file")
    p.add_argument(
        "--action",
        choices=("generate", "check-window", "symmetry", "palindromes"),
        default="generate",
    )
    p.add_argument("-R", dest="radius", help="override the spec's radius (rational)")
    p.add_argument("--top", type=_positive_int, default=100, help="palindrome rows to emit")
    p.set_defaults(func=cmd_modelset)


def _spectrum_arguments(p):
    p.add_argument("--rule", help="substitution rule supplying the potential letters")
    p.add_argument("--values", help="letter values, e.g. a=0,b=1")
    p.add_argument("--lambda", dest="coupling", type=float, default=1.0)
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument(
        "--boundary",
        choices=(spectral.BOUNDARY_DIRICHLET, spectral.BOUNDARY_NEUMANN),
        default=spectral.BOUNDARY_DIRICHLET,
    )
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_spectrum)


# One entry per subcommand, in the order help lists them: name, help
# text, and the function that adds its arguments (all but the shared
# -o) and its handler.  The handlers are looked up when a parser is
# built, not stored here, so a wrapper set on the module attribute is
# the one that runs.
_COMMANDS = (
    ("atlas", "factor atlas of a substitution rule", _atlas_arguments),
    ("exclude", "palindrome exclusion verdict", _exclude_arguments),
    ("rs-table", "Rudin-Shapiro complexity/palindrome table", _rs_table_arguments),
    ("modelset", "cut-and-project pipelines", _modelset_arguments),
    ("spectrum", "finite-section eigenvalues and IDS", _spectrum_arguments),
)
_COMMAND_CHOICES = "{" + ",".join(name for name, _, _ in _COMMANDS) + "}"


def build_parser(command=None):
    """The command line parser; with ``command`` one of the subcommand
    names, only that subcommand's parser is built.

    A run parses a single subcommand, and building the other four cost
    more than an ``exclude`` verdict (every ``add_argument`` makes a help
    formatter, which asks for the terminal size).  The subparsers'
    metavar keeps the full command list in the usage line that top-level
    errors print.  For any other ``command`` (None, ``-h``, an unknown
    word) every subcommand is built and the metavar is left unset, since
    argparse also puts it where "argument command: invalid choice" and
    "required: command" name the argument.
    """
    parser = argparse.ArgumentParser(
        prog="aperiodica",
        description="Factor atlases, palindrome exclusion, Rudin-Shapiro tables, "
        "cut-and-project model sets and finite tight-binding probes.",
    )
    entries = [entry for entry in _COMMANDS if entry[0] == command]
    if entries:
        sub = parser.add_subparsers(dest="command", required=True, metavar=_COMMAND_CHOICES)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        entries = _COMMANDS
    for name, help_text, add_arguments in entries:
        command_parser = sub.add_parser(name, help=help_text)
        add_arguments(command_parser)
        command_parser.add_argument("-o", "--output")
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except substitution.NotPrimitiveError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
