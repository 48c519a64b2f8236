"""Single command line entry point for every pipeline.

Exit codes: 0 success, 1 domain verdict failure (golden mismatch,
non-primitive rule, method disagreement), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

from . import modelset, rudin_shapiro, spectral, substitution, words


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


class _KeyPrefixes(dict):
    """The ``"key": `` text of each key, made on first use."""

    def __missing__(self, key):
        text = self[key] = _json_string(key) + ": "
        return text


def _json_text(payload):
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``
    and a newline, byte for byte, for payloads with string keys.

    Below CPython 3.13 ``json.dumps`` with an indent runs its pure-Python
    encoder, one generator step per token, which took longer than the
    patch itself on a ``generate`` payload.  This renderer joins each
    container's parts once and memoises the ``"key": `` prefixes for the
    call.  A non-finite float raises ValueError, as with allow_nan=False.
    """
    prefixes = _KeyPrefixes()

    def render(value, indent):
        if isinstance(value, str):
            return _json_string(value)
        if isinstance(value, int):
            return "true" if value is True else "false" if value is False else int.__repr__(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"out of range float values are not JSON compliant: {value!r}")
            return float.__repr__(value)
        if value is None:
            return "null"
        inner = indent + "  "
        parts = []
        # Loops, not comprehensions: before 3.12 each comprehension is a call.
        if isinstance(value, dict):
            for k, v in sorted(value.items()):
                parts.append(prefixes[k] + render(v, inner))
            brackets = "{}"
        elif isinstance(value, (list, tuple)):
            for v in value:
                parts.append(render(v, inner))
            brackets = "[]"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not parts:
            return brackets
        return brackets[0] + inner + ("," + inner).join(parts) + indent + brackets[1]

    return render(payload, "\n") + "\n"


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


def _atlas_payload(alphabet, atlas):
    return {
        "N": atlas.length,
        "count": len(atlas.words),
        "words": [alphabet.text(w) for w in atlas.sorted_words()],
    }


def cmd_atlas(args):
    rule, _ = _load_rule(args.rule)
    by_induction = by_window = None
    if args.method in ("induction", "both"):
        by_induction = substitution.atlas_by_induction(rule, args.n)
    if args.method in ("window", "both"):
        by_window = substitution.atlas_by_window(rule, args.n)
    payload = _atlas_payload(rule.alphabet, by_induction or by_window)
    agree = True
    if args.method == "both":
        agree = by_induction.words == by_window.words
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
    chain = substitution.atlas_chain(rule, args.nmax)
    if args.phi:
        chain = substitution.prefix_chain(rudin_shapiro.phi_atlas(chain[-1]))
    payload = {"nmax": args.nmax, "projection": "phi" if args.phi else None}
    payload.update(_verdict_payload(words.exclusion_verdict(chain)))
    _emit(_json_text(payload), args.output)
    return 0


def _table_tsv(rows):
    lines = ["n\tcount4\tpal4\tcount2\tpal2"]
    for r in rows:
        lines.append(f"{r.n}\t{r.count4}\t{r.pal4}\t{r.count2}\t{r.pal2}")
    return "\n".join(lines) + "\n"


def cmd_rs_table(args):
    rows = rudin_shapiro.table1(args.nmax)
    if args.format == "tsv":
        text = _table_tsv(rows)
    else:
        verdict4, verdict2 = rows.verdicts
        text = _json_text(
            {
                "rows": [
                    {"n": r.n, "count4": r.count4, "pal4": r.pal4, "count2": r.count2, "pal2": r.pal2}
                    for r in rows
                ],
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
            for cell in ("n", "count4", "pal4", "count2", "pal2"):
                got, want = getattr(computed, cell), getattr(expected, cell)
                if got != want:
                    bad.append(f"row {expected.n} {cell}: got {got!r}, expected {want!r}")
        if bad:
            print("golden mismatch:", file=sys.stderr)
            for line in bad:
                print("  " + line, file=sys.stderr)
            return 1
    return 0


def _fraction(raw):
    """Fraction(raw), with a ValueError for every value it cannot read.
    JSON floats are refused: a binary float is not the decimal written."""
    if isinstance(raw, (bool, float)):
        raise ValueError(f"bad number {raw!r}: use an integer or 'p/q'")
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


def _lattice_point(m, n, omega):
    """Exact (m, n) of the lattice point m + n*omega, with the float
    rendering of m + n*omega, or null when that has no finite float."""
    try:
        value = m + n * omega
    except OverflowError:
        value = math.inf
    return {"m": m, "n": n, "value": _f15(value) if math.isfinite(value) else None}


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
    patch = modelset.enumerate_patch(field, window, radius)
    omega = float(field.omega())
    if args.action == "generate":
        payload["count"] = len(patch)
        payload["points"] = [_lattice_point(m, n, omega) for m, n in patch.coords]
        if len(patch) >= 2:
            payload["legend"] = [
                {"letter": letter, **_lattice_point(m, n, omega)}
                for letter, (m, n) in zip(_GAP_NAMES, patch.gap_coords)
            ]
            payload["sequence"] = "".join(map(_GAP_NAMES.__getitem__, patch.letters))
    elif args.action == "symmetry":
        witness = modelset.inversion_witness(window, field)
        payload["count"] = len(patch)
        payload["centro_symmetry_center"] = str(modelset.centro_symmetry_center(window))
        payload["inversion_witness"] = (
            None if witness is None else _lattice_point(*witness, omega)
        )
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
    except (
        OSError,
        json.JSONDecodeError,
        ValueError,
        KeyError,
        substitution.PrefixLimitError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
