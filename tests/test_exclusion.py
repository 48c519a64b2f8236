"""The exclusion verdict read off cover words, against the atlas chain."""

import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chain_oracle import atlas_chain, chain_verdict, phi_atlas, prefix_chain
from conftest import acceptance_rules
from aperiodica.rudin_shapiro import MAX_TABLE_BYTES, phi, quaternary_rule, table1
from aperiodica.substitution import (
    MAX_COVER_LETTERS,
    SubstitutionRule,
    cover_words,
    fibonacci_rule,
    is_primitive,
    matrix,
    resolve_seed_and_power,
    thue_morse_rule,
)
from aperiodica.words import EXCLUDED, UNDETERMINED, Alphabet, exclusion_verdict


def factors(covers, n):
    return {w[i : i + n] for w in covers for i in range(len(w) - n + 1)}


@pytest.mark.parametrize("n_max", [12, 40])
def test_verdict_equals_the_chain_on_the_acceptance_rules(n_max):
    for rule in acceptance_rules():
        assert exclusion_verdict(cover_words(rule, n_max), n_max) == chain_verdict(
            atlas_chain(rule, n_max)
        ), rule


@pytest.mark.parametrize("n_max", [1, 2, 12, 40])
def test_verdict_equals_the_chain_on_rudin_shapiro_with_and_without_phi(n_max):
    covers = cover_words(quaternary_rule(), n_max)
    chain = atlas_chain(quaternary_rule(), n_max)
    assert exclusion_verdict(covers, n_max) == chain_verdict(chain)
    binary = prefix_chain(phi_atlas(chain[-1]))
    assert exclusion_verdict([phi(w) for w in covers], n_max) == chain_verdict(binary)


@st.composite
def growing_rules(draw):
    """Primitive rules on 1-3 letters with images of length 1-4 that have
    a growing fixed point."""
    r = draw(st.integers(1, 3))
    image = st.lists(st.integers(0, r - 1), min_size=1, max_size=4).map(tuple)
    rule = SubstitutionRule(Alphabet("abc"[:r]), tuple(draw(image) for _ in range(r)))
    assume(is_primitive(matrix(rule)) is not None)
    try:
        resolve_seed_and_power(rule)
    except ValueError:
        assume(False)
    return rule


@settings(max_examples=150, deadline=None)
@given(growing_rules(), st.integers(1, 14))
@example(fibonacci_rule(), 1)
@example(fibonacci_rule(), 2)
@example(quaternary_rule(), 1)
@example(SubstitutionRule(Alphabet("a"), ((0, 0),)), 2)
def test_cover_words_hold_exactly_the_language(rule, n_max):
    covers = cover_words(rule, n_max)
    chain = atlas_chain(rule, n_max)
    for n, atlas in enumerate(chain, 1):
        assert factors(covers, n) == atlas
    assert exclusion_verdict(covers, n_max) == chain_verdict(chain)


def test_junction_words_at_lengths_one_and_two():
    # At n_max 1 the blocks are the letters and the junction words are
    # empty; at 2 they are the legal two-letter words themselves.
    rule = quaternary_rule()
    one = cover_words(rule, 1)
    assert one[:4] == [(0,), (1,), (2,), (3,)] and set(one[4:]) == {()}
    assert exclusion_verdict(one, 1).lengths_with_palindromes == {1}
    two = cover_words(rule, 2)
    assert set(two[4:]) == atlas_chain(rule, 2)[-1]


def test_cap_is_decided_before_any_word_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_COVER_LETTERS"):
            cover_words(fibonacci_rule(), 10**12)
        # The table holds at most 8 n distinct length-n factors of n bytes
        # each: n = 5001 is the first past the cap.
        with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
            table1(math.isqrt(MAX_TABLE_BYTES // 8) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # The cap counts letters: the junction words alone hold 2 (n - 1) each.
    n = MAX_COVER_LETTERS // 6 + 2
    with pytest.raises(ValueError, match="MAX_COVER_LETTERS"):
        cover_words(fibonacci_rule(), n)


def test_reach_at_length_ten_thousand():
    n_max = 10**4
    covers = cover_words(quaternary_rule(), n_max)
    quaternary = exclusion_verdict(covers, n_max)
    assert quaternary.lengths_with_palindromes == {1, 3, 5, 7}
    assert (quaternary.first_excluding_pair, quaternary.status) == (8, EXCLUDED)
    binary = exclusion_verdict([phi(w) for w in covers], n_max)
    assert binary.lengths_with_palindromes == {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14}
    assert (binary.first_excluding_pair, binary.status) == (15, EXCLUDED)
    fibonacci = exclusion_verdict(cover_words(fibonacci_rule(), n_max), n_max)
    assert fibonacci.status == UNDETERMINED
    assert fibonacci.lengths_with_palindromes == frozenset(range(1, n_max + 1))
    thue_morse = exclusion_verdict(cover_words(thue_morse_rule(), n_max), n_max)
    assert thue_morse.status == UNDETERMINED
    # Thue-Morse has palindromes of every even length but odd ones only
    # up to length 3.
    assert thue_morse.lengths_with_palindromes == {1, 3} | set(range(2, n_max + 1, 2))
