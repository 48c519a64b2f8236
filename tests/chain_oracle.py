"""The atlas chain: a tests-only oracle for exclusion and Table 1.

The chain of atlases for lengths 1..n_max is one closure at n_max plus
prefix sets: every factor of the one-sided fixed point extends to the
right, so it is the prefix of a longer factor.  The package reads the
same verdicts and counts off cover words; these helpers build every
factor set explicitly and scan it, which keeps them independent of that
route.
"""

from aperiodica import words
from aperiodica.rudin_shapiro import phi, quaternary_rule
from aperiodica.substitution import atlas_by_induction
from aperiodica.words import EXCLUDED, UNDETERMINED, PalindromeVerdict


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
    return prefix_chain(atlas_by_induction(rule, n_max))


def phi_atlas(atlas):
    """The letterwise phi image of a quaternary atlas."""
    return frozenset(phi(w) for w in atlas)


def binary_atlas(n):
    """Length-n factors of the binary sequence, as the phi image of the
    quaternary atlas."""
    return phi_atlas(atlas_by_induction(quaternary_rule(), n))


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
