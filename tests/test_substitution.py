import random

import pytest

from conftest import brute_factors, expanded_word
from aperiodica import substitution
from aperiodica.rudin_shapiro import quaternary_rule
from aperiodica.substitution import (
    Atlas,
    FixedPointStream,
    NotPrimitiveError,
    PrefixLimitError,
    SubstitutionRule,
    apply,
    atlas_by_induction,
    atlas_by_window,
    atlas_chain,
    complexity,
    fibonacci_rule,
    induced_substitute,
    is_primitive,
    matrix,
    matrix_multiply,
    resolve_seed_and_power,
    rule_from_dict,
    thue_morse_rule,
)
from aperiodica.words import Alphabet


def compose(outer, inner_rule):
    """The rule sending a to outer(inner_rule(a))."""
    if outer.alphabet != inner_rule.alphabet:
        raise ValueError("composition needs a shared alphabet")
    return SubstitutionRule(outer.alphabet, tuple(apply(outer, img) for img in inner_rule.images))


def matrix_power(m, k):
    if k < 1:
        raise ValueError("power must be >= 1")
    out = m
    for _ in range(k - 1):
        out = matrix_multiply(out, m)
    return out


def atlas_texts(rule, atlas):
    return sorted(rule.alphabet.text(w) for w in atlas.words)


def test_rule_validation():
    ab = Alphabet("ab")
    with pytest.raises(ValueError):
        SubstitutionRule(ab, ((0, 1),))
    with pytest.raises(ValueError):
        SubstitutionRule(ab, ((0, 1), ()))
    with pytest.raises(ValueError):
        SubstitutionRule(ab, ((0, 2), (0,)))


def test_rule_from_dict():
    rule, seed = rule_from_dict(
        {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}, "seed": "a"}
    )
    assert rule == fibonacci_rule()
    assert seed == 0
    rule, seed = rule_from_dict({"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}})
    assert seed is None
    with pytest.raises(ValueError):
        rule_from_dict({"alphabet": ["a", "b"], "images": {"a": "ab"}})


def test_apply_examples():
    rs = quaternary_rule()
    assert rs.alphabet.text(apply(rs, rs.alphabet.word("a"))) == "ab"
    assert apply(rs, ()) == ()
    fib = fibonacci_rule()
    assert fib.alphabet.text(apply(fib, fib.alphabet.word("ab"))) == "aba"
    with pytest.raises(ValueError):
        apply(fib, (0, 5))


def test_matrix_examples():
    rs = quaternary_rule()
    m = matrix(rs)
    assert len(m) == 4
    for j in range(4):
        assert sum(m[i][j] for i in range(4)) == 2
    identity_rule = SubstitutionRule(Alphabet("a"), ((0,),))
    assert matrix(identity_rule) == ((1,),)
    fib = fibonacci_rule()
    assert matrix(compose(fib, fib)) == matrix_multiply(matrix(fib), matrix(fib))
    assert matrix(compose(rs, rs)) == matrix_multiply(matrix(rs), matrix(rs))


def test_matrix_column_sums_on_random_rules():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.choice((2, 3, 4))
        images = tuple(
            tuple(rng.randrange(r) for _ in range(rng.randint(1, 4))) for _ in range(r)
        )
        rule = SubstitutionRule(Alphabet("abcd"[:r]), images)
        m = matrix(rule)
        for j in range(r):
            assert sum(m[i][j] for i in range(r)) == len(images[j])


def test_is_primitive_examples():
    assert is_primitive(matrix(quaternary_rule())) == 3
    assert is_primitive(matrix(fibonacci_rule())) == 2
    swap = SubstitutionRule(Alphabet("ab"), ((1,), (0,)))
    assert is_primitive(matrix(swap)) is None
    with pytest.raises(ValueError):
        is_primitive(((1, -1), (0, 1)))


def test_matrix_power():
    fib = matrix(fibonacci_rule())
    assert matrix_power(fib, 1) == fib
    assert matrix_power(fib, 3) == matrix_multiply(matrix_multiply(fib, fib), fib)


def test_fixed_point_prefixes():
    rs = quaternary_rule()
    stream = FixedPointStream(rs, seed=0)
    assert rs.alphabet.text(stream.prefix(14)) == "abacabdbabacdc"
    fib = fibonacci_rule()
    assert fib.alphabet.text(FixedPointStream(fib).prefix(5)) == "abaab"


def test_fixed_point_prefixes_are_nested():
    stream = FixedPointStream(thue_morse_rule())
    p1 = stream.prefix(37)
    p2 = stream.prefix(512)
    assert p2[:37] == p1


def test_seed_power_detection():
    # a -> ba, b -> a: the expansion only returns to the seed at power 2
    rule = SubstitutionRule.from_mapping(Alphabet("ab"), {"a": "ba", "b": "a"})
    seed, power = resolve_seed_and_power(rule, seed=0)
    assert (seed, power) == (0, 2)
    word = FixedPointStream(rule, seed=0).prefix(8)
    assert rule.alphabet.text(word).startswith("aba")


def test_seed_power_matches_explicit_powers():
    # Oracle: sigma^k of every letter spelled out for k = 1..r; pairs are
    # listed by k, then by seed in alphabet order.
    for rule in random_primitive_rules(60, 11) + [fibonacci_rule(), quaternary_rule()]:
        r = len(rule.alphabet)
        words, pairs = [(a,) for a in range(r)], []
        for k in range(1, r + 1):
            words = [apply(rule, w) for w in words]
            pairs += [(s, k) for s in range(r) if words[s][0] == s and len(words[s]) > 1]
        for seed in [None] + list(range(r)):
            admissible = [p for p in pairs if seed in (None, p[0])]
            if admissible:
                assert resolve_seed_and_power(rule, seed) == admissible[0]
            else:
                with pytest.raises(ValueError):
                    resolve_seed_and_power(rule, seed)


def test_seed_power_detection_fails_for_nongrowing_rule():
    rule = SubstitutionRule(Alphabet("a"), ((0,),))
    with pytest.raises(ValueError):
        resolve_seed_and_power(rule)


def test_induced_substitute_examples():
    fib = fibonacci_rule()
    assert induced_substitute(fib, fib.alphabet.word("ab")) == [
        fib.alphabet.word("ab"),
        fib.alphabet.word("ba"),
    ]
    rs = quaternary_rule()
    assert induced_substitute(rs, rs.alphabet.word("ab")) == [
        rs.alphabet.word("ab"),
        rs.alphabet.word("ba"),
    ]
    assert induced_substitute(fib, fib.alphabet.word("a")) == [(0,), (1,)]


def test_atlas_examples():
    fib = fibonacci_rule()
    assert atlas_texts(fib, atlas_by_induction(fib, 2)) == ["aa", "ab", "ba"]
    assert atlas_texts(fib, atlas_by_window(fib, 3)) == ["aab", "aba", "baa", "bab"]
    rs = quaternary_rule()
    assert len(atlas_by_induction(rs, 2)) == 8
    assert len(atlas_by_induction(rs, 8)) == 56
    assert len(atlas_by_window(rs, 1)) == 4
    assert complexity(rs, 6) == 40
    assert complexity(rs, 20) == 152
    assert complexity(fib, 10) == 11


def test_atlas_requires_primitive_rule():
    swap = SubstitutionRule(Alphabet("ab"), ((1,), (0,)))
    for build in (atlas_by_induction, atlas_by_window, atlas_chain):
        with pytest.raises(NotPrimitiveError, match="Wielandt bound 2"):
            build(swap, 2)


def random_primitive_rules(count, seed):
    """Seeded primitive rules on 2-4 letters with images of length 1-4."""
    rng = random.Random(seed)
    rules = []
    while len(rules) < count:
        r = rng.choice((2, 3, 4))
        images = tuple(
            tuple(rng.randrange(r) for _ in range(rng.randint(1, 4))) for _ in range(r)
        )
        rule = SubstitutionRule(Alphabet("abcd"[:r]), images)
        if is_primitive(matrix(rule)) is not None:
            rules.append(rule)
    return rules


def test_atlas_matches_brute_force_factors():
    cases = [(fibonacci_rule(), 6), (thue_morse_rule(), 6), (quaternary_rule(), 5)]
    cases += [(rule, 8) for rule in random_primitive_rules(40, 3)]
    for rule, n in cases:
        seed, _ = resolve_seed_and_power(rule)
        expected = brute_factors(rule, seed, n, min_length=20000)
        assert atlas_by_induction(rule, n).words == expected
        assert atlas_by_window(rule, n).words == expected
        chain = atlas_chain(rule, n)
        assert [a.length for a in chain] == list(range(1, n + 1))
        word = expanded_word(rule, seed, 20000)
        for atlas in chain:
            windows = zip(*(word[j:] for j in range(atlas.length)))
            assert atlas.words == set(windows)


def test_every_fixed_point_has_the_atlas_of_its_rule():
    # Every sequence in the hull of a primitive rule has the same factors,
    # so the prefix of each admissible seed's fixed point holds the atlas.
    multi_seed = 0
    for rule in random_primitive_rules(40, 7):
        seeds = []
        for s in range(len(rule.alphabet)):
            try:
                seeds.append(resolve_seed_and_power(rule, s)[0])
            except ValueError:
                pass
        multi_seed += len(seeds) > 1
        atlases = [atlas_by_induction(rule, n).words for n in range(1, 9)]
        for s in seeds:
            word = FixedPointStream(rule, s).prefix(20000)
            for n, atlas in enumerate(atlases, 1):
                assert set(zip(*(word[j:] for j in range(n)))) == atlas, (rule, s, n)
    assert multi_seed >= 10


def test_method_equivalence_small():
    for rule in (fibonacci_rule(), thue_morse_rule(), quaternary_rule()):
        for n in range(1, 13):
            assert atlas_by_induction(rule, n).words == atlas_by_window(rule, n).words


def test_monotone_consistency():
    rule = quaternary_rule()
    chain = atlas_chain(rule, 10)
    for n in range(2, 11):
        smaller = chain[n - 2].words
        for w in chain[n - 1].words:
            assert w[:-1] in smaller
            assert w[1:] in smaller


def test_chain_runs_the_induced_map_once_per_top_word(monkeypatch):
    # One closure at n_max: one induced-map call per word of the top
    # atlas and none for the shorter lengths, which are prefix sets.
    calls = []
    original = substitution.induced_substitute

    def counted(rule, w):
        calls.append(len(w))
        return original(rule, w)

    monkeypatch.setattr(substitution, "induced_substitute", counted)
    chain = atlas_chain(quaternary_rule(), 40)
    assert len(calls) == len(chain[-1])
    assert set(calls) == {40}
    assert [len(a) for a in chain[:8]] == [4, 8, 16, 24, 32, 40, 48, 56]


def test_induced_substitute_matches_full_image():
    # The induced map builds only the m + N - 1 image letters its windows
    # read; they must be the windows of the whole image.
    for rule in [fibonacci_rule(), quaternary_rule()] + random_primitive_rules(20, 5):
        for w in atlas_by_induction(rule, 9).words:
            full = apply(rule, w)
            m = len(rule.images[w[0]])
            assert induced_substitute(rule, w) == [full[i : i + 9] for i in range(m)]
        assert induced_substitute(rule, (0,)) == [(a,) for a in rule.images[0]]


def test_stable_set_idempotence():
    for rule in (fibonacci_rule(), quaternary_rule()):
        atlas = atlas_by_induction(rule, 7)
        image = set()
        for w in atlas.words:
            image.update(induced_substitute(rule, w))
        assert image == set(atlas.words)


def test_sturmian_complexity_oracle():
    fib = fibonacci_rule()
    for n in range(1, 16):
        assert complexity(fib, n) == n + 1


def test_window_method_prefix_cap(monkeypatch):
    monkeypatch.setattr(substitution, "DEFAULT_MAX_PREFIX", 128)
    with pytest.raises(PrefixLimitError):
        atlas_by_window(quaternary_rule(), 10)


def test_atlas_sorted_words_are_deterministic():
    atlas = atlas_by_induction(quaternary_rule(), 4)
    assert atlas.sorted_words() == sorted(atlas.words)
    assert isinstance(atlas, Atlas)
