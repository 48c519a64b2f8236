import pytest
from hypothesis import given, strategies as st

from aperiodica.words import (
    Alphabet,
    EXCLUDED,
    UNDETERMINED,
    exclusion_verdict,
    inner,
    is_palindrome,
)

AB = Alphabet("ab")


def test_alphabet_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "x.y"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))


def test_alphabet_roundtrip_single_char():
    w = AB.word("abba")
    assert w == (0, 1, 1, 0)
    assert AB.text(w) == "abba"
    assert AB.word("") == ()
    assert AB.text(()) == ""


def test_alphabet_roundtrip_multichar():
    alph = Alphabet(("lo", "hi"))
    w = alph.word("lo.hi.lo")
    assert w == (0, 1, 0)
    assert alph.text(w) == "lo.hi.lo"
    with pytest.raises(ValueError):
        alph.word("lo.zz")


def test_is_palindrome_examples():
    level = Alphabet("elv")
    assert is_palindrome(level.word("level"))
    assert is_palindrome(())
    assert not is_palindrome(AB.word("ab"))


def test_inner_examples():
    abc = Alphabet("abc")
    assert abc.text(inner(abc.word("abcba"))) == "bcb"
    assert inner(AB.word("aa")) == ()
    assert AB.text(inner(AB.word("abba"))) == "bb"
    with pytest.raises(ValueError):
        inner(AB.word("a"))


def palindromes_in(atlas):
    """The palindromic members of a set of equal-length words."""
    atlas = set(atlas)
    if len({len(w) for w in atlas}) > 1:
        raise ValueError("palindromes_in() expects words of a single length")
    return {w for w in atlas if is_palindrome(w)}


def test_palindromes_in_examples():
    atlas = {AB.word(t) for t in ("aba", "abb", "bab")}
    assert palindromes_in(atlas) == {AB.word("aba"), AB.word("bab")}
    with pytest.raises(ValueError):
        palindromes_in({AB.word("a"), AB.word("ab")})
    assert palindromes_in(set()) == set()


def test_exclusion_verdict_requires_consecutive_lengths():
    with pytest.raises(ValueError):
        exclusion_verdict({1: {(0,)}, 3: {(0, 0, 0)}})
    with pytest.raises(ValueError):
        exclusion_verdict({2: {(0, 0)}})
    with pytest.raises(ValueError):
        exclusion_verdict({1: {(0, 0)}})


def test_exclusion_verdict_constant_sequence_undetermined():
    atlases = {n: {(0,) * n} for n in range(1, 12)}
    verdict = exclusion_verdict(atlases)
    assert verdict.status == UNDETERMINED
    assert verdict.first_excluding_pair is None
    assert verdict.lengths_with_palindromes == frozenset(range(1, 12))


def test_exclusion_verdict_finds_first_pair():
    # palindromes at 1 and 2 only: pair (3, 4) is the first gap of two
    atlases = {
        1: {(0,)},
        2: {(0, 0)},
        3: {(0, 0, 1)},
        4: {(0, 0, 1, 0)},
        5: {(0, 1, 1, 0, 1)},
    }
    verdict = exclusion_verdict(atlases)
    assert verdict.status == EXCLUDED
    assert verdict.first_excluding_pair == 3
    assert 3 not in verdict.lengths_with_palindromes
    assert 4 not in verdict.lengths_with_palindromes


@given(st.lists(st.integers(0, 2), max_size=12), st.booleans())
def test_chop_invariance_on_generated_palindromes(half, odd):
    mid = (2,) if odd else ()
    w = tuple(half) + mid + tuple(reversed(half))
    assert is_palindrome(w)
    while len(w) >= 2:
        w = inner(w)
        assert is_palindrome(w)


@given(st.lists(st.integers(0, 3), max_size=20))
def test_palindrome_check_is_reversal_symmetric(letters):
    w = tuple(letters)
    assert is_palindrome(w) == is_palindrome(w[::-1])
