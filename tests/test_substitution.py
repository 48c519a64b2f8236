import random

import pytest

import chain_oracle
from chain_oracle import atlas_chain, closure, induced_substitute
from conftest import brute_factors, expanded_word, run_python
from aperiodica import substitution
from aperiodica.rudin_shapiro import quaternary_rule
from aperiodica.substitution import (
    FixedPointStream,
    NotPrimitiveError,
    SubstitutionRule,
    apply,
    atlas_by_induction,
    atlas_by_window,
    complexity,
    cover_words,
    fibonacci_rule,
    is_primitive,
    matrix,
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


def matrix_multiply(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def matrix_power(m, k):
    if k < 1:
        raise ValueError("power must be >= 1")
    out = m
    for _ in range(k - 1):
        out = matrix_multiply(out, m)
    return out


def atlas_texts(rule, atlas):
    return sorted(rule.alphabet.text(w) for w in atlas)


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
    # An image for a symbol outside the alphabet was once dropped unread.
    with pytest.raises(ValueError, match=r"outside the alphabet: \['c'\]"):
        rule_from_dict({"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a", "c": "x"}})


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


def integer_power_primitivity(m):
    """The least k <= r*r - 2*r + 2 with m**k positive, by integer powers."""
    p = m
    for k in range(1, len(m) ** 2 - 2 * len(m) + 3):
        if all(e > 0 for row in p for e in row):
            return k
        p = matrix_multiply(p, m)
    return None


def test_is_primitive_matches_integer_powers():
    rng = random.Random(2026)
    for _ in range(300):
        r = rng.randint(1, 6)
        density = rng.random()
        m = tuple(
            tuple(rng.randint(1, 3) if rng.random() < density else 0 for _ in range(r))
            for _ in range(r)
        )
        assert is_primitive(m) == integer_power_primitivity(m), m
    # Wielandt's matrix reaches the bound: the cycle 0 -> 1 -> ... -> r-1 -> 0
    # with one chord r-1 -> 1.  The plain cycle is never positive.
    for r in (2, 3, 5, 8, 40):
        cycle = [[int(j == (i + 1) % r) for j in range(r)] for i in range(r)]
        assert is_primitive(cycle) is None
        cycle[r - 1][1] = 1
        assert is_primitive(cycle) == r * r - 2 * r + 2
    assert is_primitive(((5,),)) == 1 and is_primitive(((0,),)) is None


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


class ImageTableStream:
    """Reference fixed-point prefixes: sigma^power of every letter spelled
    out in full, and a buffer grown by substituting one known letter at a
    time with those images."""

    def __init__(self, rule, seed=None):
        seed, power = resolve_seed_and_power(rule, seed)
        images = [(a,) for a in range(len(rule.alphabet))]
        for _ in range(power):
            images = [apply(rule, w) for w in images]
        self._images = images
        self._buf = list(images[seed])
        self._next = 1

    def prefix(self, n):
        buf = self._buf
        while len(buf) < n:
            buf.extend(self._images[buf[self._next]])
            self._next += 1
        return tuple(buf[:n])


def test_prefixes_match_the_image_table_stream():
    # Single lengths from fresh streams, and the doubling lengths that
    # atlas_by_window asks one stream for, for every admissible seed.
    pairs = 0
    for rule in random_primitive_rules(300, 24, sizes=range(1, 7)):
        seeds = [None]
        for s in range(len(rule.alphabet)):
            try:
                seeds.append(resolve_seed_and_power(rule, s)[0])
            except ValueError:
                pass
        if len(seeds) == 1:
            for build in (FixedPointStream, ImageTableStream):
                with pytest.raises(ValueError, match="no seed/power pair"):
                    build(rule)
            continue
        for seed in seeds:
            pairs += 1
            for n in (0, 1, 2, 7, 100, 3000):
                assert FixedPointStream(rule, seed).prefix(n) == ImageTableStream(rule, seed).prefix(n)
            stream, reference = FixedPointStream(rule, seed), ImageTableStream(rule, seed)
            for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192, 5):
                assert stream.prefix(n) == reference.prefix(n), (rule, seed, n)
    assert pairs >= 600


def long_head_cycle_rule():
    """x_i -> x_(i+1) x_0 for i < 25, x_25 -> x_0 x_1: primitive, with a
    head cycle of 26 letters, so sigma^26 is the least power whose image
    of x_0 starts with x_0, and |sigma^26(x)| is about 2^26."""
    images = tuple((i + 1, 0) for i in range(25)) + ((0, 1),)
    return SubstitutionRule(Alphabet([f"x{i}" for i in range(26)]), images)


def test_long_head_cycle_prefix_holds_only_its_letters():
    # The image-table stream spelled out sigma^26 of every letter first,
    # about 2^26 letters each.  The child runs under a 400 MB address-space
    # limit, so that a stream that still did would fail there.
    rule = long_head_cycle_rule()
    assert resolve_seed_and_power(rule) == (0, 26)
    code = (
        "import resource, tracemalloc\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from aperiodica.substitution import FixedPointStream, SubstitutionRule\n"
        "from aperiodica.words import Alphabet\n"
        f"rule = SubstitutionRule(Alphabet({rule.alphabet.symbols!r}), {rule.images!r})\n"
        "tracemalloc.start()\n"
        "word = FixedPointStream(rule).prefix(250000)\n"
        "print(len(word), tracemalloc.get_traced_memory()[1])\n"
    )
    proc = run_python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    length, peak = map(int, proc.stdout.split())
    # The word and the next application's tuple, 8 bytes a letter each.
    assert length == 250000 and peak < 8 << 20


def test_first_positions_match_the_prefix():
    # Every admissible seed of seeded rules on 1-6 letters, with caps that
    # cut the fixed point before, at and after each letter's first position.
    for rule in random_primitive_rules(200, 25, sizes=range(1, 7)):
        for s in range(len(rule.alphabet)):
            try:
                seed = resolve_seed_and_power(rule, s)[0]
            except ValueError:
                continue
            stream = FixedPointStream(rule, seed)
            for cap in (1, 2, 3, 5, 17, 64, 1000):
                word = stream.prefix(cap)
                expected = [word.index(a) if a in word else cap for a in range(len(rule.alphabet))]
                assert stream.first_positions(cap) == expected, (rule, seed, cap)
    # x_i first occurs at 2^i for i >= 2, read without building a word.
    first = FixedPointStream(long_head_cycle_rule()).first_positions(1 << 30)
    assert first == [0, 1] + [1 << i for i in range(2, 26)]


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
    for build in (atlas_by_induction, atlas_by_window, atlas_chain, cover_words):
        with pytest.raises(NotPrimitiveError, match="Wielandt bound 2"):
            build(swap, 2)


def random_primitive_rules(count, seed, sizes=(2, 3, 4)):
    """Seeded primitive rules on ``sizes`` letters (at most 6) with images
    of length 1-4."""
    rng = random.Random(seed)
    rules = []
    while len(rules) < count:
        r = rng.choice(sizes)
        images = tuple(
            tuple(rng.randrange(r) for _ in range(rng.randint(1, 4))) for _ in range(r)
        )
        rule = SubstitutionRule(Alphabet("abcdef"[:r]), images)
        if is_primitive(matrix(rule)) is not None:
            rules.append(rule)
    return rules


def first_closed_prefix(rule, n):
    """Length of the first doubling prefix whose length-n factors are
    closed under the oracle's induced map."""
    length = max(64, 4 * n)
    while True:
        word = FixedPointStream(rule).prefix(length)
        factors = set(zip(*(word[j:] for j in range(n))))
        if all(v in factors for w in factors for v in induced_substitute(rule, w)):
            return length
        length *= 2


def test_atlas_matches_brute_force_factors(monkeypatch):
    requested = []
    prefix = FixedPointStream.prefix

    def recorded(self, length):
        requested.append(length)
        return prefix(self, length)

    monkeypatch.setattr(FixedPointStream, "prefix", recorded)
    cases = [(fibonacci_rule(), 6), (thue_morse_rule(), 6), (quaternary_rule(), 5)]
    cases += [(rule, 8) for rule in random_primitive_rules(40, 3)]
    for rule, n in cases:
        # The junction closure's two-letter words; Fibonacci needs two
        # rounds of it (ab -> ba -> aa).
        assert {w for w in cover_words(rule, 2) if len(w) == 2} == closure(rule, 2)
        seed, _ = resolve_seed_and_power(rule)
        expected = brute_factors(rule, seed, n, min_length=20000)
        assert atlas_by_induction(rule, n) == expected
        requested.clear()
        assert atlas_by_window(rule, n) == expected
        # The window method stops where the induced-map test stopped.
        stop = max(requested)
        assert stop == first_closed_prefix(rule, n)
        chain = atlas_chain(rule, n)
        assert [{len(w) for w in a} for a in chain] == [{k} for k in range(1, n + 1)]
        word = expanded_word(rule, seed, 20000)
        for k, atlas in enumerate(chain, 1):
            windows = zip(*(word[j:] for j in range(k)))
            assert atlas == set(windows)


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
        atlases = [atlas_by_induction(rule, n) for n in range(1, 9)]
        for s in seeds:
            word = FixedPointStream(rule, s).prefix(20000)
            for n, atlas in enumerate(atlases, 1):
                assert set(zip(*(word[j:] for j in range(n)))) == atlas, (rule, s, n)
    assert multi_seed >= 10


def test_method_equivalence_small():
    for rule in (fibonacci_rule(), thue_morse_rule(), quaternary_rule()):
        for n in range(1, 13):
            assert atlas_by_induction(rule, n) == atlas_by_window(rule, n)


def test_monotone_consistency():
    rule = quaternary_rule()
    chain = atlas_chain(rule, 10)
    for n in range(2, 11):
        smaller = chain[n - 2]
        for w in chain[n - 1]:
            assert w[:-1] in smaller
            assert w[1:] in smaller


def test_chain_runs_the_induced_map_once_per_top_word(monkeypatch):
    # One closure at n_max: one induced-map call per word of the top
    # atlas and none for the shorter lengths, which are prefix sets.
    calls = []
    original = chain_oracle.induced_substitute

    def counted(rule, w):
        calls.append(len(w))
        return original(rule, w)

    monkeypatch.setattr(chain_oracle, "induced_substitute", counted)
    chain = atlas_chain(quaternary_rule(), 40)
    assert len(calls) == len(chain[-1])
    assert set(calls) == {40}
    assert [len(a) for a in chain[:8]] == [4, 8, 16, 24, 32, 40, 48, 56]


def test_induced_substitute_matches_full_image():
    # The induced map builds only the m + N - 1 image letters its windows
    # read; they must be the windows of the whole image.
    for rule in [fibonacci_rule(), quaternary_rule()] + random_primitive_rules(20, 5):
        for w in atlas_by_induction(rule, 9):
            full = apply(rule, w)
            m = len(rule.images[w[0]])
            assert induced_substitute(rule, w) == [full[i : i + 9] for i in range(m)]
        assert induced_substitute(rule, (0,)) == [(a,) for a in rule.images[0]]


def test_stable_set_idempotence():
    for rule in (fibonacci_rule(), quaternary_rule()):
        atlas = atlas_by_induction(rule, 7)
        image = set()
        for w in atlas:
            image.update(induced_substitute(rule, w))
        assert image == atlas


def test_sturmian_complexity_oracle():
    fib = fibonacci_rule()
    for n in range(1, 16):
        assert complexity(fib, n) == n + 1


def test_window_method_prefix_cap(monkeypatch):
    monkeypatch.setattr(substitution, "DEFAULT_MAX_PREFIX", 128)
    with pytest.raises(ValueError, match="did not close within the prefix cap 128"):
        atlas_by_window(quaternary_rule(), 10)


def test_atlas_letter_cap_counts_the_distinct_factors(monkeypatch):
    # Fibonacci has 11 factors of length 10: 110 letters as an atlas.
    monkeypatch.setattr(substitution, "MAX_ATLAS_LETTERS", 110)
    for build in (atlas_by_induction, atlas_by_window):
        assert len(build(fibonacci_rule(), 10)) == 11
    monkeypatch.setattr(substitution, "MAX_ATLAS_LETTERS", 109)
    for build in (atlas_by_induction, atlas_by_window):
        with pytest.raises(ValueError, match="would hold more than MAX_ATLAS_LETTERS = 109 "):
            build(fibonacci_rule(), 10)


def test_atlas_is_the_frozenset_of_its_words():
    for build in (atlas_by_induction, atlas_by_window):
        atlas = build(quaternary_rule(), 4)
        assert type(atlas) is frozenset and len(atlas) == 24
        assert {len(w) for w in atlas} == {4}
