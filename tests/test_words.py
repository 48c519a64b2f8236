import pytest
from hypothesis import given, strategies as st

from aperiodica import words
from aperiodica.words import (
    Alphabet,
    EXCLUDED,
    UNDETERMINED,
    exclusion_verdict,
    inner,
    is_palindrome,
)
from aperiodica.rudin_shapiro import quaternary_rule
from chain_oracle import atlas_chain, chain_verdict

AB = Alphabet("ab")


def chain(by_length):
    """The atlas chain holding, in order, the word sets of ``by_length``."""
    return [frozenset(word_set) for word_set in by_length.values()]


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


def test_chain_verdict_requires_consecutive_lengths():
    with pytest.raises(ValueError):
        chain_verdict(chain({1: {(0,)}, 3: {(0, 0, 0)}}))
    with pytest.raises(ValueError):
        chain_verdict(chain({2: {(0, 0)}}))
    with pytest.raises(ValueError):
        chain_verdict(chain({1: {(0, 0)}}))


def test_chain_verdict_constant_sequence_undetermined():
    atlases = {n: {(0,) * n} for n in range(1, 12)}
    verdict = chain_verdict(chain(atlases))
    assert verdict.status == UNDETERMINED
    assert verdict.first_excluding_pair is None
    assert verdict.lengths_with_palindromes == frozenset(range(1, 12))


def test_chain_verdict_finds_first_pair():
    # palindromes at 1 and 2 only: pair (3, 4) is the first gap of two
    atlases = {
        1: {(0,)},
        2: {(0, 0)},
        3: {(0, 0, 1)},
        4: {(0, 0, 1, 0)},
        5: {(0, 1, 1, 0, 1)},
    }
    verdict = chain_verdict(chain(atlases))
    assert verdict.status == EXCLUDED
    assert verdict.first_excluding_pair == 3
    assert 3 not in verdict.lengths_with_palindromes
    assert 4 not in verdict.lengths_with_palindromes


def test_chain_verdict_reads_nothing_past_the_first_pair(monkeypatch):
    # By the chop argument no length past the first excluding pair can
    # carry a palindrome, so the scan stops there: the Rudin-Shapiro pair
    # is (8, 9), and atlases of lengths 10..40 that would be rejected
    # (wrong length, wrong words) are never read.
    full = atlas_chain(quaternary_rule(), 40)
    calls = []
    monkeypatch.setattr(words, "is_palindrome", lambda w: calls.append(w) or w == w[::-1])
    verdict = chain_verdict(full)
    assert verdict.first_excluding_pair == 8
    assert {len(w) for w in calls} == set(range(1, 10))
    assert len(calls) <= sum(len(a) for a in full[:9]) < len(full[-1])
    malformed = full[:9] + [frozenset({(0,)})] * 31
    assert chain_verdict(malformed) == verdict
    with pytest.raises(ValueError):
        chain_verdict(full[:7] + malformed[9:])


def test_exclusion_verdict_constant_sequence_undetermined():
    verdict = exclusion_verdict([(0,) * 40], 11)
    assert verdict.status == UNDETERMINED
    assert verdict.first_excluding_pair is None
    assert verdict.lengths_with_palindromes == frozenset(range(1, 12))


def test_exclusion_verdict_finds_first_pair():
    # palindromes at 1 and 2 only: pair (3, 4) is the first gap of two
    verdict = exclusion_verdict([(0, 0, 1, 1, 2, 2)], 5)
    assert verdict.status == EXCLUDED
    assert verdict.first_excluding_pair == 3
    assert verdict.lengths_with_palindromes == {1, 2}
    # The pair must lie within n_max: at 3 only length 3 is scanned past 2.
    assert exclusion_verdict([(0, 0, 1, 1, 2, 2)], 3).status == UNDETERMINED


def test_exclusion_verdict_caps_palindromes_at_n_max():
    # A palindrome longer than n_max holds one of every shorter length of
    # its parity, and the verdict reports none past n_max.
    verdict = exclusion_verdict([(0, 1, 2, 1, 0)], 4)
    assert verdict.lengths_with_palindromes == {1, 3}
    assert verdict.first_excluding_pair is None
    assert exclusion_verdict([(0, 1, 1, 0)], 3).lengths_with_palindromes == {1, 2}


def test_exclusion_verdict_skips_empty_words_and_needs_positive_n_max():
    assert exclusion_verdict([(), (0,), (1,), ()], 1) == exclusion_verdict([(0,), (1,)], 1)
    assert exclusion_verdict([()], 2).first_excluding_pair == 1
    with pytest.raises(ValueError):
        exclusion_verdict([(0,)], 0)


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
