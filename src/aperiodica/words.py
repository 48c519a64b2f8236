"""Alphabets, finite words and palindrome bookkeeping.

A word is a tuple of letter indices into an :class:`Alphabet`; the empty
tuple is the empty word.  Keeping words as plain tuples makes them
hashable, cheap to slice and independent of how symbols are spelled.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

EXCLUDED = "excluded"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol names.

    The order is canonical: letter ``i`` of any word refers to
    ``symbols[i]``.  Symbols may be several characters long; such words
    serialize with ``.`` between symbols.
    """

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        for sym in self.symbols:
            if not isinstance(sym, str) or not sym:
                raise ValueError(f"bad symbol {sym!r}: symbols are nonempty strings")
            if "." in sym or any(ch.isspace() for ch in sym):
                raise ValueError(f"bad symbol {sym!r}: no dots or whitespace allowed")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")

    def __len__(self):
        return len(self.symbols)

    def index(self, symbol):
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    @property
    def _dotted(self):
        return any(len(s) > 1 for s in self.symbols)

    def word(self, text):
        """Parse a serialized word (symbols concatenated, or dot-joined)."""
        if text == "":
            return ()
        parts = text.split(".") if ("." in text or self._dotted) else list(text)
        return tuple(self.index(p) for p in parts)

    def text(self, word):
        """Serialize a word; inverse of :meth:`word`."""
        try:
            names = [self.symbols[i] for i in word]
        except IndexError:
            raise ValueError(f"letter index out of range for alphabet {self.symbols}") from None
        return (".".join(names) if self._dotted else "".join(names))


def is_palindrome(w):
    """True iff ``w`` reads the same backwards; the empty word counts."""
    return w == w[::-1]


def inner(w):
    """Drop the first and last letter; needs ``len(w) >= 2``."""
    if len(w) < 2:
        raise ValueError(f"inner() needs a word of length >= 2, got {len(w)}")
    return w[1:-1]


@dataclass(frozen=True)
class PalindromeVerdict:
    """Outcome of scanning factor sets of consecutive lengths.

    ``first_excluding_pair = n`` means lengths n and n+1 both carry no
    palindromic factor, which rules out palindromes of every length >= n;
    ``status`` is ``"excluded"`` in that case and ``"undetermined"`` when
    no such pair was seen up to the scanned maximum.
    """

    lengths_with_palindromes: frozenset
    first_excluding_pair: object
    status: str


def _manacher(word, even):
    """Manacher's radii of the maximal palindromes at every position:
    odd ones for ``even`` 0, where d[i] counts letters from the center i
    (inclusive), and even ones for ``even`` 1, where d[i] is the
    half-length of the palindrome centred between i-1 and i.

    A centre i is expanded letter by letter up to its palindrome's end.
    Inside it, position j has the radius r of its mirror 2i - j whenever
    the mirrored palindrome ends strictly inside (r < end - j), the lemma
    behind the textbook scan; such radii are copied, the first eight one
    at a time and the rest as reversed slices in doubling chunks.  The
    first j whose mirror reaches the left end starts from end - j and is
    the next centre, since its palindrome ends no sooner than i's.
    """
    n = len(word)
    d = [0] * n
    base = 1 - even
    nxt, k = 0, base
    for i in range(n):
        if i < nxt:
            continue
        lo = i - even
        while k <= lo and i + k < n and word[lo - k] == word[i + k]:
            k += 1
        d[i] = k
        if k <= 1:
            k = base
            continue
        r = d[i - 1]
        if r >= k - 1:
            k -= 1
            continue
        d[i + 1] = r
        end = i + k
        twice = i + i
        for j in range(i + 2, min(end, i + 9)):
            r = d[twice - j]
            if r >= end - j:
                break
            d[j] = r
        else:
            j, step = i + 9, 16
            while j < end:
                stop = min(end, j + step)
                mirror = d[twice - stop + 1 : twice - j + 1]
                mirror.reverse()
                reach = map(operator.ge, mirror, range(end - j, end - stop, -1))
                hit = next(itertools.compress(itertools.count(j), reach), stop)
                d[j:hit] = mirror[: hit - j]
                if hit < stop:
                    j = hit
                    break
                j, step = stop, step + step
            else:
                nxt, k = end, base
                continue
        nxt, k = j, end - j
    return d


def exclusion_verdict(covers, n_max):
    """The verdict for lengths 1..n_max from a list of words whose factors
    of length <= n_max are the language's, such as :func:`cover_words`.

    A palindrome chopped by one letter at each end stays a palindrome, so
    within each parity the lengths that carry one run up to the longest;
    one Manacher pass per word and parity finds the longest odd and even
    ones.  The longer, P, is followed by the first pair without, P + 1.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    odd = max((2 * max(_manacher(w, 0)) - 1 for w in covers if w), default=0)
    even = max((2 * max(_manacher(w, 1)) for w in covers if w), default=0)
    # A maximal palindrome past n_max holds one of each shorter length of
    # its parity, and those of length <= n_max are factors of the language.
    odd, even = min(odd, n_max - 1 + n_max % 2), min(even, n_max - n_max % 2)
    with_pal = frozenset(range(1, odd + 1, 2)) | frozenset(range(2, even + 1, 2))
    pair = max(odd, even) + 1
    if pair < n_max:
        return PalindromeVerdict(with_pal, pair, EXCLUDED)
    return PalindromeVerdict(with_pal, None, UNDETERMINED)
