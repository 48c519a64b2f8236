"""Alphabets, finite words and palindrome bookkeeping.

A word is a tuple of letter indices into an :class:`Alphabet`; the empty
tuple is the empty word.  Keeping words as plain tuples makes them
hashable, cheap to slice and independent of how symbols are spelled.
The model-set gap word, of at most three letters, is ``bytes`` instead,
one byte a letter; ``_manacher`` scans both kinds.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

EXCLUDED = "excluded"
UNDETERMINED = "undetermined"
_ENDS = (object(), object())
# _manacher copies mirrored radii in blocks of _COPY_MIN to _COPY_CAP, and
# jumps to the next centre when it is over _SKIP_MIN positions on.
_COPY_MIN, _COPY_CAP, _SKIP_MIN = 16, 256, 16


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

    A centre i is expanded letter by letter for eight letters past the
    radius it inherits; a palindrome that reaches further is extended by
    comparing slices of the word with slices of its reverse, doubling the
    slice while it matches and then halving it.  Inside the palindrome,
    position j has the radius r of its mirror 2i - j whenever the
    mirrored palindrome ends strictly inside (r < end - j), the lemma
    behind the textbook scan; such radii are copied, the first eight one
    at a time and the rest as reversed slices.  A block [j, stop) is
    copied whole when its largest mirrored radius is at most end - stop,
    since every end - j' in it is larger; blocks double up to ``_COPY_CAP``
    and halve when the test fails, and only blocks of at most
    ``_COPY_MIN`` are tested radius by radius.  The first j whose mirror
    reaches the left end starts from end - j and is the next centre,
    since its palindrome ends no sooner than i's.  The scan jumps there
    when it is more than ``_SKIP_MIN`` positions on, so the Python work
    grows with the centres expanded, not with the letters.

    A ``bytes`` word is scanned as bytes, with two byte values it does
    not hold as its end markers, so it is never copied into a tuple; any
    other word, or one that holds all 256 byte values, is scanned as a
    tuple.
    """
    n = len(word)
    d = [0] * n
    base = 1 - even
    nxt, k = 0, base
    # Two distinct end markers stop every expansion: word[-1] and word[n].
    free = bytes(range(256)).translate(None, word) if isinstance(word, bytes) else b""
    word, rev = (word + free[:2] if len(free) > 1 else tuple(word) + _ENDS), None
    # A scan from start breaks off at a centre more than _SKIP_MIN positions
    # on, and a new scan starts there: a new range costs less than stepping
    # through the copied positions.
    start = 0
    while start < n:
        for i in range(start, n):
            if i < nxt:
                continue
            lo = i - even
            if word[lo - k] == word[i + k]:
                cap, k = k + 8, k + 1
                while word[lo - k] == word[i + k]:
                    k += 1
                    if k == cap:
                        if rev is None:
                            rev = word[-3::-1]
                        # rev[off + t] is word[lo - t]; a slice that runs past
                        # either end of the word differs.
                        off, step = n - 1 - lo, 8
                        while rev[off + k : off + k + step] == word[i + k : i + k + step]:
                            k, step = k + step, step + step
                        while step > 1:
                            step //= 2
                            if rev[off + k : off + k + step] == word[i + k : i + k + step]:
                                k += step
                        break
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
                j, step = i + 9, _COPY_MIN
                while j < end:
                    stop = min(end, j + step)
                    mirror = d[twice - stop + 1 : twice - j + 1]
                    mirror.reverse()
                    if stop - j > _COPY_MIN:
                        if max(mirror) > end - stop:
                            step = (stop - j) // 2
                            continue
                    else:
                        reach = map(operator.ge, mirror, range(end - j, end - stop, -1))
                        hit = next(itertools.compress(itertools.count(j), reach), stop)
                        if hit < stop:
                            d[j:hit] = mirror[: hit - j]
                            j = hit
                            break
                    d[j:stop] = mirror
                    j, step = stop, min(step + step, _COPY_CAP)
                else:
                    nxt, k = end, base
                    if end - i > _SKIP_MIN:
                        break
                    continue
                if j - i > _SKIP_MIN:
                    nxt, k = j, end - j
                    break
            nxt, k = j, end - j
        else:
            break
        start = nxt
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
