"""Both constructions of the Rudin-Shapiro sequence and its factor table.

The arithmetic route counts adjacent 1-1 bit pairs; the substitution
route runs the four-letter rule a -> ab, b -> ac, c -> db, d -> dc and
collapses letters through ``phi``.  Both give the same binary sequence,
which the test suite checks far beyond the displayed prefix.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .substitution import FixedPointStream, SubstitutionRule, cover_words
from .words import Alphabet, exclusion_verdict

# Bytes of length-N factors that table1 holds at once, one byte a
# letter: at N = 5000 (8 N * N bytes) a run peaked at 214 MiB RSS.
MAX_TABLE_BYTES = 200_000_000

BINARY_ALPHABET = Alphabet(("0", "1"))
QUATERNARY_ALPHABET = Alphabet("abcd")

_RULE = SubstitutionRule.from_mapping(
    QUATERNARY_ALPHABET, {"a": "ab", "b": "ac", "c": "db", "d": "dc"}
)

YES = "yes"
NO = "no"
BLANK = ""


def quaternary_rule():
    """The four-letter rule whose fixed point projects onto the binary sequence."""
    return _RULE


def block_count_a(n):
    """Number of (possibly overlapping) 11 blocks in the binary expansion of n."""
    if n < 0:
        raise ValueError("defined for n >= 0")
    return (n & (n >> 1)).bit_count()


def rs_binary_prefix(length):
    """First ``length`` binary values; entry n is the parity of block_count_a(n)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return tuple((n & (n >> 1)).bit_count() & 1 for n in range(length))


def phi(w):
    """Letterwise collapse a, b -> 0 and c, d -> 1."""
    if w and (min(w) < 0 or max(w) > 3):
        raise ValueError("phi expects letters of the four-letter alphabet")
    return tuple(0 if a < 2 else 1 for a in w)


def quaternary_prefix(length):
    """Prefix of the fixed point of the four-letter rule, seed a."""
    return FixedPointStream(_RULE, seed=0).prefix(length)


def equivalence_check(length):
    """True iff the two constructions agree on the first ``length`` symbols."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return phi(quaternary_prefix(length)) == rs_binary_prefix(length)


@dataclass(frozen=True)
class Table1Row:
    """Complexities and palindrome statuses of both versions at one length.

    A status is "yes", "no", or blank ("") once the exclusion pair for
    that column lies strictly below the row's length.
    """

    n: int
    count4: int
    pal4: str
    count2: int
    pal2: str


def _status(verdict, n):
    """yes/no for length n, blank past the row after the excluding pair."""
    pair = verdict.first_excluding_pair
    if pair is not None and n > pair + 1:
        return BLANK
    return YES if n in verdict.lengths_with_palindromes else NO


def _counts(covers, n_max):
    """C(1..n_max) from the sorted distinct length-n_max factors: each
    length-n factor is the prefix of one, so C(n) is one more than the
    adjacent pairs that share fewer than n letters."""
    top = sorted({b[i : i + n_max] for b in map(bytes, covers) for i in range(len(b) - n_max + 1)})
    shared = Counter(len(os.path.commonprefix(pair)) for pair in zip(top, top[1:]))
    return [1 + c for c in itertools.accumulate(map(shared.__getitem__, range(n_max)))]


def table1(n_max=20):
    """Rows for lengths 1..n_max, and the exclusion verdicts (quaternary,
    binary) their statuses are read from.

    Both read the cover words, the binary ones as phi images (phi maps
    letter to letter).  The counts hold one alphabet's distinct length-n_max
    factors at a time as bytes, at most 8 n_max of them (8n - 8 from n = 8
    on): ValueError, before any word is built, when those would hold more
    than ``MAX_TABLE_BYTES`` bytes.
    """
    held = 8 * n_max * n_max
    if held > MAX_TABLE_BYTES:
        raise ValueError(
            f"length {n_max} would hold {held} bytes of factors, "
            f"past the cap MAX_TABLE_BYTES = {MAX_TABLE_BYTES}"
        )
    quaternary = cover_words(_RULE, n_max)
    covers = quaternary, [phi(w) for w in quaternary]
    v4, v2 = verdicts = tuple(exclusion_verdict(c, n_max) for c in covers)
    count4, count2 = (_counts(c, n_max) for c in covers)
    rows = [
        Table1Row(n, count4[n - 1], _status(v4, n), count2[n - 1], _status(v2, n))
        for n in range(1, n_max + 1)
    ]
    return rows, verdicts


def golden_table1():
    """The reference 20-row table shipped with the package."""
    text = resources.files("aperiodica").joinpath("data/rs_table1.tsv").read_text()
    rows = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        cells = line.split("\t")
        cells += [""] * (5 - len(cells))
        n, count4, pal4, count2, pal2 = cells
        rows.append(Table1Row(int(n), int(count4), pal4, int(count2), pal2))
    return rows
