"""Seeded inputs and the fixed batch of operations for each workload.

Everything here is plain standard library and never imports the
package: the runner builds the same plan as the worker to check the
outputs, and the worker times building it as part of set-up.

A plan holds the files to write (rule and spec files, as JSON payloads),
the potentials handed to ``spectral.transfer_product`` and the ordered
list of operations that make up one round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

LETTERS = "abcd"
FIB_IMAGES = ("ab", "a")
RS_IMAGES = ("ab", "ac", "db", "dc")
WINDOW_PREFIX_CAP = 1 << 20
PALINDROME_TOP = 100
# The runner pickles the plan into the run directory under this name; the
# workers load it from there.
PLAN_FILE = "plan.pickle"

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests fast while running every operation kind.
SCALES = {
    "full": {
        "rules_per_size": 40,
        "atlas_every": 8,
        "letter_target": 40000,
        "rs_nmax": 40,
        "pal_radius": 50000,
        "gen_radius": 10000,
        "sym_radius": 25000,
        "spectrum_size": 300,
        "transfer_length": 300000,
    },
    "tiny": {
        "rules_per_size": 2,
        "atlas_every": 3,
        "letter_target": 2000,
        "rs_nmax": 16,
        "pal_radius": 600,
        "gen_radius": 300,
        "sym_radius": 300,
        "spectrum_size": 24,
        "transfer_length": 2000,
    },
}

WORKLOADS = ("exclusion", "modelset", "spectrum")

# Fixed energies of the transfer products; coupling 0 keeps the first two
# in the bounded (rotation) regime on every seed.
TRANSFER_ENERGIES = ((1.37, "zero"), (0.3, "zero"), (0.2, "seeded"))


class MemoKeyClash(RuntimeError):
    """Two timed operations would share an ``_atlas_chain`` memo key."""


@dataclass
class Op:
    """One timed operation: a CLI call or a ``transfer_product`` call.

    ``check`` names the check that reads the output back; ``info`` holds
    what that check needs.  ``memo_key`` is the (rule, n_max, seed) key
    under which the program memoises the atlas chain this call builds.
    """

    label: str
    kind: str
    check: str
    argv: tuple = ()
    info: dict = field(default_factory=dict)
    memo_key: tuple = None


@dataclass
class Plan:
    files: dict
    ops: list
    potentials: dict


def rule_payload(images, seed=None):
    alphabet = LETTERS[: len(images)]
    payload = {"alphabet": list(alphabet), "images": dict(zip(alphabet, images))}
    if seed is not None:
        payload["seed"] = seed
    return payload


def expand(images, min_length, letter="a"):
    """sigma^j(letter) for the first j that reaches min_length letters."""
    table = {ord(a): img for a, img in zip(LETTERS, images)}
    word = letter
    while len(word) < min_length:
        grown = word.translate(table)
        if len(grown) == len(word) and grown == word:
            raise ValueError(f"{images} does not grow from {letter!r}")
        word = grown
    return word


def is_primitive(images):
    """Some power of the counting matrix is positive (Wielandt bound)."""
    r = len(images)
    m = [[images[j].count(LETTERS[i]) for j in range(r)] for i in range(r)]
    p = m
    for _ in range(r * r - 2 * r + 2):
        if all(e > 0 for row in p for e in row):
            return True
        p = [[sum(p[i][k] * m[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    return False


def factor_sets(images, nmax):
    """Length-n factors for n = 1..nmax (index n - 1) of the fixed point's
    language, read off sigma^j(a) for the first j at which one more
    application of the rule adds no factor of length nmax.

    A primitive rule has the same language from every letter, and every
    factor extends to the right, so the shorter factors are the prefixes
    of the longest ones.
    """
    table = {ord(a): img for a, img in zip(LETTERS, images)}
    word = expand(images, max(1024, 64 * nmax))
    top = {word[i : i + nmax] for i in range(len(word) - nmax + 1)}
    while True:
        word = word.translate(table)
        grown = {word[i : i + nmax] for i in range(len(word) - nmax + 1)}
        if grown == top:
            break
        top = grown
    return [frozenset(g[:n] for g in top) for n in range(1, nmax + 1)]


def _nmax_for(sets, letter_target):
    """Length to scan so that every rule costs about the same.

    The induction step extends each word of the previous atlas by each of
    the r letters, so its cost grows like r * sum(n * p(n)).
    """
    r = len(sets[0])
    total = 0
    for n, words in enumerate(sets, 1):
        total += r * n * len(words)
        if total >= letter_target:
            return n
    return len(sets)


def induction_keeps_non_factors(images, sets):
    """True when the window map, iterated from every one-letter extension
    of the length-(n-1) factors, settles on a set that still holds words
    which are not factors (or never settles), for some n <= len(sets).

    This mirrors the stable-set iteration of ``atlas_by_induction`` on the
    words outside the language only: factors map onto factors, so the
    iteration settles exactly when its non-factor part does.
    """
    table = {ord(a): img for a, img in zip(LETTERS, images)}
    first = {a: len(img) for a, img in zip(LETTERS, images)}
    alphabet = LETTERS[: len(images)]
    for n in range(2, len(sets) + 1):
        legal = sets[n - 1]
        strays = {w + a for w in sets[n - 2] for a in alphabet} - legal
        for _ in range(len(strays) + 2):
            if not strays:
                break
            grown = set()
            for x in strays:
                image = x.translate(table)
                grown.update(image[j : j + n] for j in range(first[x[0]]))
            grown -= legal
            if grown == strays:
                return True
            strays = grown
        else:
            return True
    return False


def _fixed_point_table(images):
    """Letter images of sigma^k and the seed s of the one-sided fixed point
    the window method reads: the smallest k <= r, then the first s in
    alphabet order, with sigma^k(s) starting with s and longer than s."""
    table = {ord(a): img for a, img in zip(LETTERS, images)}
    powers = list(LETTERS[: len(images)])
    for _ in range(len(images)):
        powers = [w.translate(table) for w in powers]
        for s, image in zip(LETTERS, powers):
            if image[0] == s and len(image) > 1:
                return {ord(a): img for a, img in zip(LETTERS, powers)}, s
    raise ValueError(f"{images} has no growing fixed point")


def window_method_misses(images, n, legal):
    """True when collecting length-n factors of a doubling fixed-point
    prefix, stopped at the first doubling that adds nothing (the window
    method's rule), misses factors or runs past the prefix cap."""
    table, prefix = _fixed_point_table(images)
    length = max(64, 4 * n)
    factors = None
    while length <= WINDOW_PREFIX_CAP:
        while len(prefix) < length:
            prefix = prefix.translate(table)
        bigger = {prefix[i : i + n] for i in range(length - n + 1)}
        if bigger == factors:
            return factors != legal
        factors = bigger
        length *= 2
    return True


def _random_rules(rng, per_size, letter_target, cap=40):
    """Distinct primitive aperiodic rules, per_size for each of 2, 3 and 4
    letters, with images of length 1 to 3.  Each comes with its scan
    length and the atlas length below it at which the window method
    stops soundly (None if it does not).

    Eventually periodic rules (p(12) <= 12) carry no exclusion question
    and are skipped.  So are rules on which the induction atlas keeps
    non-factors: that fault of the program shows on some seeds only.  The
    filter models the program's current induction step, so it has to be
    re-derived (or dropped) once that fault is mended.
    """
    fixed = {FIB_IMAGES, RS_IMAGES}
    seen = set()
    out = []
    for r in (2, 3, 4) * per_size:
        while True:
            images = tuple(
                "".join(rng.choice(LETTERS[:r]) for _ in range(rng.choice((1, 2, 2, 3))))
                for _ in range(r)
            )
            if images in seen or images in fixed or not is_primitive(images):
                continue
            seen.add(images)
            sets = factor_sets(images, cap)
            if len(sets[11]) <= 12:
                continue
            nmax = _nmax_for(sets, letter_target)
            if not induction_keeps_non_factors(images, sets[:nmax]):
                n = min(10, nmax - 1)
                window_ok = n >= 2 and not window_method_misses(images, n, sets[n - 1])
                out.append((images, nmax, n if window_ok else None))
                break
    return out


def _exclusion(rng, sc):
    """Every random rule through ``exclude``; a fixed number of them, spread
    over the list among those on which the window method stops soundly,
    also through ``atlas --method both`` at a length below the scan length,
    so the two never share a memo key.  A round has the same number of
    operations on every seed."""
    files, ops = {}, []
    rules = _random_rules(rng, sc["rules_per_size"], sc["letter_target"])
    eligible = [i for i, (_, _, n) in enumerate(rules) if n is not None]
    count = len(rules) // sc["atlas_every"]
    if len(eligible) < count:
        raise RuntimeError(f"only {len(eligible)} rules suit the window method, {count} needed")
    with_atlas = {eligible[k * len(eligible) // count] for k in range(count)}
    for i, (images, nmax, n) in enumerate(rules):
        name = f"rule{i:03d}.json"
        files[name] = rule_payload(images)
        ops.append(
            Op(f"exclude{i:03d}", "cli", "exclude", ("exclude", "--rule", name, "--nmax", str(nmax)),
               {"images": images, "nmax": nmax}, (images, nmax, None))
        )
        if i in with_atlas:
            ops.append(
                Op(f"atlas{i:03d}", "cli", "atlas",
                   ("atlas", "--rule", name, "-N", str(n), "--method", "both"),
                   {"images": images, "n": n}, (images, n, None))
            )
    files["rs.json"] = rule_payload(RS_IMAGES, seed="a")
    nmax = sc["rs_nmax"]
    ops.append(
        Op("rs_phi", "cli", "rs_phi", ("exclude", "--rule", "rs.json", "--nmax", str(nmax), "--phi"),
           {"nmax": nmax}, (RS_IMAGES, nmax, "a"))
    )
    ops.append(
        Op("rs_table", "cli", "rs_table", ("rs-table", "--nmax", str(nmax), "--golden"),
           {"nmax": nmax}, (RS_IMAGES, nmax, None))
    )
    return files, ops, {}


# Model sets.  An endpoint is a pair (p, q) of Fractions meaning
# p + q*sqrt(d).  "golden" is Z + Z*tau over sqrt(5), "sqrt" is
# Z + Z*sqrt(2); star conjugates sqrt(d) to -sqrt(d).

def star_coords(kind, p, q):
    """(m, n) with p + q*sqrt(d) = m + n*omega~, or None."""
    if kind == "golden":
        m, n = p + q, -2 * q
    else:
        m, n = p, -q
    if m.denominator == 1 and n.denominator == 1:
        return int(m), int(n)
    return None


def _value(x):
    p, q = x
    if q == 0:
        return str(p)
    return {"p": str(p), "q": str(q)}


def spec_payload(kind, lo, hi, radius):
    d = 5 if kind == "golden" else 2
    return {"d": d, "omega": kind, "window": {"lo": _value(lo), "hi": _value(hi)}, "R": str(radius)}


def _rational(rng, lo, hi, den=(7, 9, 11, 13, 17)):
    """A non-integer rational in [lo, hi] with a small odd denominator."""
    while True:
        q = rng.choice(den)
        k_lo, k_hi = math.ceil(lo * q), math.floor(hi * q)
        if k_lo > k_hi:
            continue
        k = rng.randint(k_lo, k_hi)
        if k % q:
            return Fraction(k, q)


def _generic(kind, lo, hi):
    return star_coords(kind, *lo) is None and star_coords(kind, *hi) is None


def _symmetric_window(rng, kind):
    """A generic window whose centre sum lo + hi lies in the star image;
    the seed moves the centre, the length stays fixed."""
    while True:
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        if kind == "golden":
            centre = (Fraction(m) + Fraction(n, 2), Fraction(-n, 2))
            half = Fraction(6, 13)
        else:
            centre = (Fraction(m), Fraction(-n))
            half = Fraction(9, 13)
        lo = (centre[0] / 2 - half, centre[1] / 2)
        hi = (centre[0] / 2 + half, centre[1] / 2)
        if _generic(kind, lo, hi):
            return lo, hi


def _modelset(rng, sc):
    """The seed places the windows; their lengths, and so the number of
    points at each radius, stay fixed."""
    start = _rational(rng, -2, 2)
    length = Fraction(7, 5)
    windows = {
        "paper": ("golden", (Fraction(1, 3), Fraction(0)), (Fraction(4, 3), Fraction(0))),
        "golden": ("golden", (start, Fraction(0)), (start + 1, Fraction(0))),
        "sqrt": ("sqrt", (start, Fraction(0)), (start + length, Fraction(0))),
    }
    symmetric = {
        "sym_golden1": ("golden",) + _symmetric_window(rng, "golden"),
        "sym_golden2": ("golden",) + _symmetric_window(rng, "golden"),
        "sym_sqrt": ("sqrt",) + _symmetric_window(rng, "sqrt"),
    }
    files, ops = {}, []
    for name, (kind, lo, hi) in {**windows, **symmetric}.items():
        files[f"{name}.json"] = spec_payload(kind, lo, hi, 100)
    for action, radius, group in (
        ("palindromes", sc["pal_radius"], windows),
        ("generate", sc["gen_radius"], windows),
        ("symmetry", sc["sym_radius"], symmetric),
    ):
        for name, (kind, lo, hi) in group.items():
            info = {"kind": kind, "lo": lo, "hi": hi, "radius": radius}
            argv = ("modelset", "--spec", f"{name}.json", "--action", action, "-R", str(radius))
            if action == "palindromes":
                info["top"] = PALINDROME_TOP
                argv += ("--top", str(PALINDROME_TOP))
            ops.append(Op(f"{action}_{name}", "cli", action, argv, info))
    return files, ops, {}


def _distinct_values(rng, count, lo, hi):
    values = []
    while len(values) < count:
        v = round(rng.uniform(lo, hi), 3)
        if v not in values:
            values.append(v)
    return values


def _spectrum(rng, sc):
    size = sc["spectrum_size"]
    files = {"fib.json": rule_payload(FIB_IMAGES, seed="a"), "rs.json": rule_payload(RS_IMAGES, seed="a")}
    ops = [Op("spectrum_free", "cli", "spectrum_free", ("spectrum", "--size", str(size)), {"size": size})]
    for i, (rule, images, letters) in enumerate(
        (("fib", FIB_IMAGES, 2), ("fib", FIB_IMAGES, 2), ("rs", RS_IMAGES, 4), ("rs", RS_IMAGES, 4))
    ):
        values = _distinct_values(rng, letters, -1.0, 1.0)
        coupling = round(rng.uniform(1.0, 2.0), 3)
        text = ",".join(f"{a}={v}" for a, v in zip(LETTERS, values))
        ops.append(
            Op(f"spectrum_{rule}{i}", "cli", "spectrum",
               ("spectrum", "--rule", f"{rule}.json", "--values", text, "--lambda", str(coupling),
                "--size", str(size)),
               {"images": images, "values": values, "coupling": coupling, "size": size})
        )
    length = sc["transfer_length"]
    offset = rng.randrange(0, length // 4)
    word = expand(FIB_IMAGES, offset + length)[offset : offset + length]
    potentials = {"fib": tuple(LETTERS.index(a) for a in word)}
    values = _distinct_values(rng, 2, 0.0, 1.0)
    for k, (energy, regime) in enumerate(TRANSFER_ENERGIES):
        coupling = 0.0 if regime == "zero" else round(rng.uniform(0.2, 0.4), 3)
        ops.append(
            Op(f"transfer{k}", "transfer", "transfer", (),
               {"potential": "fib", "energy": energy, "coupling": coupling,
                "values": {0: values[0], 1: values[1]}})
        )
    return files, ops, potentials


def check_memo_keys(ops):
    """Fail loudly if two timed operations of one round share a memo key.

    The program memoises atlas chains by (rule, n_max, seed); a shared key
    would let one operation be served from another's work.
    """
    seen = {}
    for op in ops:
        if op.memo_key is None:
            continue
        if op.memo_key in seen:
            raise MemoKeyClash(
                f"operations {seen[op.memo_key]} and {op.label} share the atlas memo key {op.memo_key}"
            )
        seen[op.memo_key] = op.label


def build(workload, seed, scale="full"):
    """The plan of one workload; the same seed and scale give the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sc = SCALES[scale]
    rng = random.Random(f"{workload}:{seed}")
    files, ops, potentials = {"exclusion": _exclusion, "modelset": _modelset, "spectrum": _spectrum}[
        workload
    ](rng, sc)
    check_memo_keys(ops)
    return Plan(files, ops, potentials)
