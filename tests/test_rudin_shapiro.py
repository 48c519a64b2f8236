import pytest

from aperiodica.rudin_shapiro import (
    BINARY_ALPHABET,
    QUATERNARY_ALPHABET,
    Table1Row,
    block_count_a,
    equivalence_check,
    golden_table1,
    phi,
    quaternary_prefix,
    quaternary_rule,
    rs_binary_prefix,
    table1,
)
from aperiodica.words import EXCLUDED
from chain_oracle import atlas_chain, binary_atlas, chain_verdict, closure, phi_atlas, prefix_chain


def test_block_count_examples():
    assert block_count_a(0) == 0
    assert block_count_a(3) == 1
    assert block_count_a(7) == 2
    assert block_count_a(11) == 1
    assert block_count_a(2**10) == 0
    with pytest.raises(ValueError):
        block_count_a(-1)


def test_binary_prefix_matches_displayed_values():
    assert rs_binary_prefix(14) == (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1)
    assert rs_binary_prefix(0) == ()
    assert rs_binary_prefix(4) == (0, 0, 0, 1)


def test_phi_examples():
    a = QUATERNARY_ALPHABET
    assert phi(a.word("abacabdb")) == BINARY_ALPHABET.word("00010010")
    assert phi(()) == ()
    assert phi(a.word("dc")) == (1, 1)
    with pytest.raises(ValueError):
        phi((0, 4))


def test_equivalence_of_both_constructions():
    assert equivalence_check(1)
    assert equivalence_check(14)
    assert equivalence_check(2**10)
    with pytest.raises(ValueError):
        equivalence_check(0)


def test_binary_atlas_counts():
    assert len(binary_atlas(1)) == 2
    assert binary_atlas(1) == {(0,), (1,)}
    assert len(binary_atlas(6)) == 36
    assert len(binary_atlas(9)) == 64


def test_projected_atlas_equals_direct_factor_scan():
    word = rs_binary_prefix(2**14)
    for n in range(1, 11):
        direct = {word[i : i + n] for i in range(len(word) - n + 1)}
        assert binary_atlas(n) == direct


def test_table_rows():
    rows, _ = table1(20)
    assert rows[0] == Table1Row(1, 4, "yes", 2, "yes")
    assert rows[1] == Table1Row(2, 8, "no", 4, "yes")
    assert rows[7] == Table1Row(8, 56, "no", 56, "yes")
    assert rows[8] == Table1Row(9, 64, "no", 64, "no")
    assert rows[14] == Table1Row(15, 112, "", 112, "no")
    assert rows[16] == Table1Row(17, 128, "", 128, "")
    assert rows[19] == Table1Row(20, 152, "", 152, "")


def test_table_matches_golden_file():
    assert table1(20)[0] == golden_table1()


def test_table_prefix_and_validation():
    assert [r.n for r in table1(5)[0]] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        table1(0)


def test_counts_agree_from_length_eight_on():
    for row in table1(20)[0]:
        if row.n >= 8:
            assert row.count4 == row.count2


def palindrome_verdicts(n_max):
    """Exclusion verdicts (quaternary, binary) from one closure per length."""
    quaternary = [closure(quaternary_rule(), n) for n in range(1, n_max + 1)]
    binary = [binary_atlas(n) for n in range(1, n_max + 1)]
    return chain_verdict(quaternary), chain_verdict(binary)


def test_verdicts():
    v4, v2 = palindrome_verdicts(16)
    rows, verdicts = table1(16)
    assert verdicts == (v4, v2)
    assert [r.count2 for r in rows] == [len(binary_atlas(n)) for n in range(1, 17)]
    assert v4.status == EXCLUDED and v4.first_excluding_pair == 8
    assert sorted(v4.lengths_with_palindromes) == [1, 3, 5, 7]
    assert v2.status == EXCLUDED and v2.first_excluding_pair == 15
    assert sorted(v2.lengths_with_palindromes) == [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14]


def test_quaternary_prefix_runs_through_phi():
    prefix = quaternary_prefix(64)
    assert phi(prefix) == rs_binary_prefix(64)
    assert quaternary_rule().alphabet.text(prefix[:8]) == "abacabdb"


def test_table_counts_and_statuses_match_the_atlas_chain():
    for n_max in range(1, 41):
        quaternary = atlas_chain(quaternary_rule(), n_max)
        binary = prefix_chain(phi_atlas(quaternary[-1]))
        verdicts = chain_verdict(quaternary), chain_verdict(binary)
        rows, got = table1(n_max)
        assert got == verdicts
        assert [r.count4 for r in rows] == [len(a) for a in quaternary]
        assert [r.count2 for r in rows] == [len(a) for a in binary]
        assert [r.pal4 == "yes" for r in rows] == [
            n in verdicts[0].lengths_with_palindromes for n in range(1, n_max + 1)
        ]
