"""Primitive substitution rules, fixed points and factor atlases.

The two atlas constructions, one closing a single legal word under the
substitution induced on length-N windows and one collecting the factors
of a growing fixed-point prefix, are two routes to the same set and are
cross-checked in the test suite.  The chain for lengths 1..n_max is one
closure at n_max plus prefix sets: every factor of the one-sided fixed
point extends to the right, so it is the prefix of a longer factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Alphabet

DEFAULT_MAX_PREFIX = 1 << 20


class PrefixLimitError(RuntimeError):
    """Window-method factor collection hit the prefix cap before closing."""


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


def matrix_multiply(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def is_primitive(m):
    """Smallest k with all entries of m**k positive, or None.

    The search stops at the Wielandt bound r*r - 2*r + 2, beyond which no
    nonnegative matrix becomes positive if it has not already.
    """
    r = len(m)
    if any(len(row) != r for row in m) or any(e < 0 for row in m for e in row):
        raise ValueError("need a square matrix with nonnegative integer entries")
    bound = r * r - 2 * r + 2
    p = m
    for k in range(1, bound + 1):
        if all(e > 0 for row in p for e in row):
            return k
        p = matrix_multiply(p, m)
    return None


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
    """Lazily extendable prefix of the one-sided fixed point.

    ``sigma**power`` applied to the seed letter starts with the seed, so
    repeated application produces nested prefixes; the buffer is grown by
    substituting one already-known letter at a time.
    """

    def __init__(self, rule, seed=None):
        seed, power = resolve_seed_and_power(rule, seed)
        images = [(a,) for a in range(len(rule.alphabet))]
        for _ in range(power):
            images = [apply(rule, w) for w in images]
        self._images = images
        self._buf = list(images[seed])
        self._next = 1

    def prefix(self, n):
        """The first n letters of the fixed point."""
        buf = self._buf
        images = self._images
        while len(buf) < n:
            buf.extend(images[buf[self._next]])
            self._next += 1
        return tuple(buf[:n])


def induced_substitute(rule, w):
    """Length-N windows read off the image of a length-N word.

    With m the image length of the first letter of ``w``, the windows at
    offsets 0..m-1 of ``rule(w)`` are returned; later offsets would
    re-count windows produced by the remaining letters of ``w``.  Those
    windows read only the first m + N - 1 letters of the image, so letter
    images are joined only until that many are there.
    """
    if not w:
        raise ValueError("induced substitution needs a nonempty word")
    images = rule.images
    n, m = len(w), len(images[w[0]])
    letters = []
    for a in w:
        letters += images[a]
        if len(letters) >= m + n - 1:
            break
    full = tuple(letters)
    return [full[i : i + n] for i in range(m)]


@dataclass(frozen=True)
class Atlas:
    """All length-N factors of the fixed point of a primitive rule."""

    length: int
    words: frozenset

    def __len__(self):
        return len(self.words)

    def sorted_words(self):
        return sorted(self.words)


def prefix_chain(top):
    """Atlases for lengths 1..top.length (index 0 holds length 1), each the
    prefix set of the one above; exact when every factor extends to the
    right, as on a one-sided fixed point and its letterwise images."""
    chain = [top]
    for n in range(top.length - 1, 0, -1):
        chain.append(Atlas(n, frozenset(w[:-1] for w in chain[-1].words)))
    chain.reverse()
    return chain


def atlas_chain(rule, n_max):
    """Atlases for every length 1..n_max (index 0 holds length 1): the
    closure at n_max and its prefix sets (see :func:`prefix_chain`)."""
    return prefix_chain(atlas_by_induction(rule, n_max))


def atlas_by_induction(rule, n):
    """Length-n atlas: the closure of a fixed point's length-n prefix
    under the induced map, after checking that the rule is primitive.

    Applied k times to a legal word w, the induced map yields every
    length-n window of sigma^k(w) that starts inside sigma^k(w[0]); for a
    primitive rule and large k that stretch holds every legal word, so
    the closure is the whole length-n language.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    require_primitive(rule)
    start = FixedPointStream(rule).prefix(n)
    words = {start}
    todo = [start]
    while todo:
        for v in induced_substitute(rule, todo.pop()):
            if v not in words:
                words.add(v)
                todo.append(v)
    return Atlas(n, frozenset(words))


def _ngrams(word, n):
    return {word[i : i + n] for i in range(len(word) - n + 1)}


def atlas_by_window(rule, n):
    """Length-n atlas by collecting factors of a growing fixed-point prefix.

    The prefix doubles until its factor set is closed under the induced
    map.  A nonempty closed set of legal words holds the closure of each
    of its members, which is the whole language, so the stop is exact
    and needs no a-priori repetitivity constant.  The prefix may not grow
    past ``DEFAULT_MAX_PREFIX`` letters.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    require_primitive(rule)
    stream = FixedPointStream(rule)
    length = max(64, 4 * n)
    while length <= DEFAULT_MAX_PREFIX:
        factors = _ngrams(stream.prefix(length), n)
        if all(v in factors for w in factors for v in induced_substitute(rule, w)):
            return Atlas(n, frozenset(factors))
        length *= 2
    raise PrefixLimitError(
        f"factor set of length {n} did not close within the prefix cap {DEFAULT_MAX_PREFIX}"
    )


def complexity(rule, n):
    """Number of distinct length-n factors of the fixed point."""
    return len(atlas_by_induction(rule, n).words)
