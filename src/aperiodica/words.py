"""Alphabets, finite words and palindrome bookkeeping.

A word is a tuple of letter indices into an :class:`Alphabet`; the empty
tuple is the empty word.  Keeping words as plain tuples makes them
hashable, cheap to slice and independent of how symbols are spelled.
"""

from __future__ import annotations

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


def exclusion_verdict(chain):
    """Derive the palindromicity verdict from the atlas chain for lengths 1..N_max.

    ``chain[i]`` is the atlas (``length`` and ``words``) of length i + 1.
    The scan stops at the first pair of lengths without palindromic
    factors: by the chop argument no longer length carries one, so the
    atlases past the pair are not read.
    """
    if not chain:
        raise ValueError("atlases must cover consecutive lengths 1..N_max")
    with_pal = set()
    first_pair = None
    for n, atlas in enumerate(chain, 1):
        if atlas.length != n:
            raise ValueError("atlases must cover consecutive lengths 1..N_max")
        words = atlas.words
        if any(len(w) != n for w in words):
            raise ValueError(f"atlas for length {n} contains words of other lengths")
        if any(is_palindrome(w) for w in words):
            with_pal.add(n)
        elif n > 1 and n - 1 not in with_pal:
            first_pair = n - 1
            break
    status = EXCLUDED if first_pair is not None else UNDETERMINED
    return PalindromeVerdict(frozenset(with_pal), first_pair, status)
