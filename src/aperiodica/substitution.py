"""Primitive substitution rules, fixed points and factor atlases.

A few cover words hold exactly the fixed point's factors of each length
up to N: exclusion, the Rudin-Shapiro table and the induction atlas read
them.  The window atlas collects the factors of a growing fixed-point
prefix instead; the test suite cross-checks both routes.  A prefix of n
letters is cut at n after each application of sigma to the seed letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from .words import Alphabet

DEFAULT_MAX_PREFIX = 1 << 20
# Letters held at once by cover words: at a few tens of bytes a letter,
# words and Manacher's radii stay within 400 MB.
MAX_COVER_LETTERS = 4_000_000
# Letters in the words of one atlas: ``atlas --method both`` holds two
# atlases and their text, about 20 bytes a letter, within 400 MB.
MAX_ATLAS_LETTERS = 15_000_000


class NotPrimitiveError(ValueError):
    """The substitution matrix has no strictly positive power."""


@dataclass(frozen=True)
class SubstitutionRule:
    """A letter-to-word map, extended to words by concatenation.

    ``images[i]`` is the image of letter ``i``; every image is a nonempty
    word over the same alphabet.
    """

    alphabet: Alphabet
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(tuple(w) for w in self.images))
        r = len(self.alphabet)
        if len(self.images) != r:
            raise ValueError(f"need one image per letter: got {len(self.images)} for {r} letters")
        for i, img in enumerate(self.images):
            if not img:
                raise ValueError(f"image of {self.alphabet.symbols[i]!r} is empty")
            if min(img) < 0 or max(img) >= r:
                raise ValueError(f"image of {self.alphabet.symbols[i]!r} uses foreign letters")

    @classmethod
    def from_mapping(cls, alphabet, images):
        """Build from a symbol -> image-text mapping."""
        alphabet = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        missing = [s for s in alphabet.symbols if s not in images]
        if missing:
            raise ValueError(f"missing images for {missing}")
        return cls(alphabet, tuple(alphabet.word(images[s]) for s in alphabet.symbols))


def rule_from_dict(data):
    """Parse the rule file payload {"alphabet": [...], "images": {...}, "seed": ...}.

    Returns ``(rule, seed_index_or_None)``; only ``spectrum`` reads the seed.
    """
    try:
        alphabet = Alphabet(data["alphabet"])
        if not isinstance(data["images"], dict):
            raise ValueError("rule file images must be an object mapping each symbol to its image")
        rule = SubstitutionRule.from_mapping(alphabet, data["images"])
    except KeyError as exc:
        raise ValueError(f"rule file missing key {exc}") from None
    except TypeError:
        raise ValueError("rule file needs a symbol list as alphabet and an images object") from None
    seed = alphabet.index(data["seed"]) if "seed" in data else None
    return rule, seed


_FIBONACCI = SubstitutionRule.from_mapping(Alphabet("ab"), {"a": "ab", "b": "a"})
_THUE_MORSE = SubstitutionRule.from_mapping(Alphabet("ab"), {"a": "ab", "b": "ba"})


def fibonacci_rule():
    """a -> ab, b -> a."""
    return _FIBONACCI


def thue_morse_rule():
    """a -> ab, b -> ba."""
    return _THUE_MORSE


def apply(rule, w):
    """Image of a word: concatenation of the letter images in order."""
    images = rule.images
    if w and (min(w) < 0 or max(w) >= len(images)):
        raise ValueError("word uses letters outside the rule's alphabet")
    out = []
    for a in w:
        out.extend(images[a])
    return tuple(out)


def matrix(rule):
    """Counting matrix: entry (i, j) is how often letter i occurs in image(j).

    Column j therefore sums to the image length of letter j, and the
    matrix of a composition is the product of the matrices.
    """
    r = len(rule.alphabet)
    return tuple(tuple(rule.images[j].count(i) for j in range(r)) for i in range(r))


def is_primitive(m):
    """Smallest k with all entries of m**k positive, or None.

    Only the pattern of nonzero entries matters, so each row of a power
    is an int bitset of its positive columns.  Once some power is
    positive every higher one is, and none becomes positive past the
    Wielandt bound r*r - 2*r + 2, so squaring m up to the bound decides
    primitivity and binary lifting over the squares finds the least k.
    """
    r = len(m)
    if any(len(row) != r for row in m) or any(e < 0 for row in m for e in row):
        raise ValueError("need a square matrix with nonnegative integer entries")
    full = (1 << r) - 1

    def times(x, y):
        out = []
        for bits in x:
            row = 0
            while bits:
                low = bits & -bits
                row |= y[low.bit_length() - 1]
                bits ^= low
            out.append(row)
        return out

    squares = [[sum(1 << j for j, e in enumerate(row) if e) for row in m]]
    while squares[-1].count(full) < r:
        if 1 << (len(squares) - 1) >= r * r - 2 * r + 2:
            return None
        squares.append(times(squares[-1], squares[-1]))
    k, power = 0, None
    for s in reversed(range(len(squares) - 1)):
        trial = squares[s] if power is None else times(power, squares[s])
        if trial.count(full) < r:
            k, power = k + (1 << s), trial
    return k + 1


def require_primitive(rule):
    """Raise :class:`NotPrimitiveError` unless the rule's matrix is primitive."""
    if is_primitive(matrix(rule)) is None:
        r = len(rule.alphabet)
        raise NotPrimitiveError(
            f"rule is not primitive: no power up to the Wielandt bound {r * r - 2 * r + 2} "
            "of the substitution matrix is strictly positive"
        )


def resolve_seed_and_power(rule, seed=None):
    """Smallest power k such that some admissible seed letter s has
    sigma^k(s) starting with s and growing; ties pick the first seed in
    alphabet order.  Raises when no pair exists (e.g. a -> a)."""
    r = len(rule.alphabet)
    seeds = range(r) if seed is None else [seed]
    # First letter and length of sigma^k(a) for every letter a, at k = 0.
    heads, lengths = list(range(r)), [1] * r
    for k in range(1, r + 1):
        heads = [rule.images[a][0] for a in heads]
        lengths = [sum(lengths[b] for b in img) for img in rule.images]
        for s in seeds:
            if heads[s] == s and lengths[s] > 1:
                return s, k
    raise ValueError("no seed/power pair yields a growing fixed point within the alphabet-size bound")


class FixedPointStream:
    """Prefixes of the one-sided fixed point.

    ``sigma**power`` applied to the seed letter starts with the seed, so
    its powers applied to ``(seed,)`` give nested prefixes.  Every image
    is nonempty, so the first n letters of sigma(w) read at most n
    letters of w: each application keeps only n letters, and a prefix
    never holds more than n.
    """

    def __init__(self, rule, seed=None):
        self._images = rule.images
        self._seed, self._power = resolve_seed_and_power(rule, seed)

    def prefix(self, n):
        """The first n letters of the fixed point."""
        word, lookup = (self._seed,), self._images.__getitem__
        while len(word) < n:
            for _ in range(self._power):
                word = tuple(islice(chain.from_iterable(map(lookup, word)), n))
        return word[:n]


def atlas_by_induction(rule, n):
    """Length-n atlas, the frozenset of the fixed point's length-n
    factors: the distinct length-n windows of :func:`cover_words`.
    ValueError, before any window is built, when the atlas would hold
    more than ``MAX_ATLAS_LETTERS`` letters.
    """
    covers = cover_words(rule, n)
    _distinct_windows(covers, n)
    return frozenset({w[i : i + n] for w in covers for i in range(len(w) - n + 1)})


def _distinct_windows(words, n):
    """The distinct length-n windows of ``words`` as strings, an eighth of
    the room of tuples on up to 256 letters.  ValueError as soon as they
    would hold more than ``MAX_ATLAS_LETTERS`` letters as tuples."""
    found = set()
    for w in words:
        text = "".join(map(chr, w))
        for i in range(len(text) - n + 1):
            found.add(text[i : i + n])
            if n * len(found) > MAX_ATLAS_LETTERS:
                raise ValueError(
                    f"the length-{n} atlas would hold more than "
                    f"MAX_ATLAS_LETTERS = {MAX_ATLAS_LETTERS} letters"
                )
    return found


def atlas_by_window(rule, n):
    """Length-n atlas by collecting factors of a doubling fixed-point prefix.

    The prefix stops growing once every length-n window of its image is
    among its factors.  The image is legal and holds the windows that the
    substitution induces on each factor, so the factor set is then closed
    under that induced map, and a nonempty closed set of legal words is
    the whole language: the stop is exact.  ValueError, before any window
    is built as a tuple, when the prefix would pass ``DEFAULT_MAX_PREFIX``
    letters or its factors ``MAX_ATLAS_LETTERS``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    require_primitive(rule)
    stream = FixedPointStream(rule)
    length = max(64, 4 * n)
    while length <= DEFAULT_MAX_PREFIX:
        prefix = stream.prefix(length)
        factors = _distinct_windows([prefix], n)
        image = "".join(map(chr, apply(rule, prefix)))
        if all(image[i : i + n] in factors for i in range(len(image) - n + 1)):
            return frozenset({prefix[i : i + n] for i in range(length - n + 1)})
        length *= 2
    raise ValueError(
        f"factor set of length {n} did not close within the prefix cap {DEFAULT_MAX_PREFIX}"
    )


def complexity(rule, n):
    """Number of distinct length-n factors of the fixed point."""
    return len(_distinct_windows(cover_words(rule, n), n))


def cover_words(rule, n):
    """Words whose factors of length <= n are exactly the fixed point's:
    each sigma^j(x), with j least such that all have at least n - 1
    letters, and for each legal two-letter word uv the last n - 1 letters
    of sigma^j(u) followed by the first n - 1 of sigma^j(v).  A window of
    length <= n cannot hold a whole block sigma^j(x) and a letter on each
    side, so it lies in one block or across one junction.
    The legal two-letter words are those inside the images, closed under
    the junction of the images of a legal uv: a two-letter factor of
    sigma^(k+1)(x) lies in some sigma(y) or across sigma(y) sigma(z) with
    yz a factor of sigma^k(x).

    ValueError, decided from the image lengths before any word is built,
    when the words would hold more than ``MAX_COVER_LETTERS`` letters.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    require_primitive(rule)
    resolve_seed_and_power(rule)  # refuses a -> a, whose blocks never grow
    images = rule.images
    pairs = {img[i : i + 2] for img in images for i in range(len(img) - 1)}
    todo = list(pairs)
    while todo:
        u, v = todo.pop()
        uv = images[u][-1], images[v][0]
        if uv not in pairs:
            pairs.add(uv)
            todo.append(uv)
    pairs = sorted(pairs)
    j, lengths = 0, [1] * len(images)
    while min(lengths) < n - 1:
        j, lengths = j + 1, [sum(lengths[b] for b in img) for img in images]
    held = sum(lengths) + (2 * n - 2) * len(pairs)
    if held > MAX_COVER_LETTERS:
        raise ValueError(
            f"length {n} would hold {held} letters of cover words, "
            f"past the cap MAX_COVER_LETTERS = {MAX_COVER_LETTERS}"
        )
    blocks = [(x,) for x in range(len(images))]
    for _ in range(j):
        blocks = [apply(rule, w) for w in blocks]
    return blocks + [blocks[u][len(blocks[u]) - n + 1 :] + blocks[v][: n - 1] for u, v in pairs]
