"""Both constructions of the Rudin-Shapiro sequence and its factor table.

The arithmetic route counts adjacent 1-1 bit pairs; the substitution
route runs the four-letter rule a -> ab, b -> ac, c -> db, d -> dc and
collapses letters through ``phi``.  Both give the same binary sequence,
which the test suite checks far beyond the displayed prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .substitution import Atlas, FixedPointStream, SubstitutionRule, atlas_by_induction
from .substitution import atlas_chain, prefix_chain
from .words import Alphabet, exclusion_verdict

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


def phi_atlas(atlas):
    """The letterwise phi image of a quaternary atlas."""
    return Atlas(atlas.length, frozenset(phi(w) for w in atlas.words))


def binary_atlas(n):
    """Length-n factors of the binary sequence, as the phi image of the
    quaternary atlas."""
    return phi_atlas(atlas_by_induction(_RULE, n))


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


class Table1(list):
    """The rows of Table 1, plus the exclusion verdicts (quaternary,
    binary) that their status columns are read from."""

    def __init__(self, rows, verdicts):
        super().__init__(rows)
        self.verdicts = verdicts


def _status(verdict, n):
    """yes/no for length n, blank past the row after the excluding pair."""
    pair = verdict.first_excluding_pair
    if pair is not None and n > pair + 1:
        return BLANK
    return YES if n in verdict.lengths_with_palindromes else NO


def table1(n_max=20):
    """Factor counts and palindrome statuses for lengths 1..n_max."""
    quaternary = atlas_chain(_RULE, n_max)
    # phi maps letter to letter, so phi(w)[:n] = phi(w[:n]).
    binary = prefix_chain(phi_atlas(quaternary[-1]))
    v4, v2 = exclusion_verdict(quaternary), exclusion_verdict(binary)
    rows = [
        Table1Row(a4.length, len(a4), _status(v4, a4.length), len(a2), _status(v2, a2.length))
        for a4, a2 in zip(quaternary, binary)
    ]
    return Table1(rows, (v4, v2))


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
