"""The atlas chain: a tests-only oracle for atlases, exclusion and Table 1.

The length-N language is the closure of one legal word under the
substitution induced on length-N windows, and the chain of atlases for
lengths 1..n_max is one closure at n_max plus prefix sets: every factor
of the one-sided fixed point extends to the right, so it is the prefix
of a longer factor.  The package reads the same atlases, verdicts and
counts off cover words; these helpers build every factor set by the
closure and scan it, which keeps them independent of that route.
"""

from aperiodica import words
from aperiodica.rudin_shapiro import phi, quaternary_rule
from aperiodica.substitution import FixedPointStream, require_primitive
from aperiodica.words import EXCLUDED, UNDETERMINED, PalindromeVerdict


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


def closure(rule, n):
    """Length-n atlas as the closure of the fixed point's length-n prefix
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
    found = {start}
    todo = [start]
    while todo:
        for v in induced_substitute(rule, todo.pop()):
            if v not in found:
                found.add(v)
                todo.append(v)
    return frozenset(found)


def prefix_chain(top):
    """Atlases for lengths 1..N, N the length of the words of ``top``
    (index i holds length i + 1), each the prefix set of the one above;
    exact when every factor extends to the right, as on a one-sided fixed
    point and its letterwise images."""
    chain = [top]
    for _ in range(len(next(iter(top))) - 1):
        chain.append(frozenset(w[:-1] for w in chain[-1]))
    chain.reverse()
    return chain


def atlas_chain(rule, n_max):
    """Atlases for every length 1..n_max (index 0 holds length 1): the
    closure at n_max and its prefix sets (see :func:`prefix_chain`)."""
    return prefix_chain(closure(rule, n_max))


def phi_atlas(atlas):
    """The letterwise phi image of a quaternary atlas."""
    return frozenset(phi(w) for w in atlas)


def binary_atlas(n):
    """Length-n factors of the binary sequence, as the phi image of the
    quaternary atlas."""
    return phi_atlas(closure(quaternary_rule(), n))


def chain_verdict(chain):
    """The palindromicity verdict from the atlas chain for lengths 1..N_max.

    ``chain[i]`` is the set of words of length i + 1.  The scan stops at
    the first pair of lengths without palindromic factors: by the chop
    argument no longer length carries one, so the atlases past the pair
    are not read.
    """
    if not chain:
        raise ValueError("atlases must cover consecutive lengths 1..N_max")
    with_pal = set()
    first_pair = None
    for n, found in enumerate(chain, 1):
        if any(len(w) != n for w in found):
            raise ValueError(f"atlas for length {n} contains words of other lengths")
        if any(words.is_palindrome(w) for w in found):
            with_pal.add(n)
        elif n > 1 and n - 1 not in with_pal:
            first_pair = n - 1
            break
    status = EXCLUDED if first_pair is not None else UNDETERMINED
    return PalindromeVerdict(frozenset(with_pal), first_pair, status)
