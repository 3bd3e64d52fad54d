"""Canonical forms, isomorphism witnesses, enumeration, and census checks."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bck import classify, core
from bck.classify import (
    canonical_form,
    degree_census,
    enumerate_algebras,
    find_isomorphism,
    find_maximal_subalgebra,
    is_isomorphic,
    relabel,
    subalgebra,
    verify_unique_minimum,
)
from bck.construct import b_star, cd_set, extend_top, m_chain, union
from bck.core import PI, TC, TWO, CayleyTable, find_violation, validate

import oracle


def corpus(max_order, min_order=1):
    return [
        a
        for n in range(min_order, max_order + 1)
        for a in enumerate_algebras(n)
    ]


# --- relabeling --------------------------------------------------------------


def test_relabel_identity_is_a_no_op():
    assert relabel(PI.table, (0, 1, 2)) == PI.table


def test_relabel_matches_the_oracle():
    rng = random.Random(11)
    for algebra in corpus(5, min_order=3):
        tail = list(range(1, algebra.order))
        rng.shuffle(tail)
        sigma = (0, *tail)
        assert relabel(algebra.table, sigma).rows == oracle.relabeled(
            algebra.table.rows, sigma
        )


@pytest.mark.parametrize(
    "perm, label", [((0, 2, 1.0), "1.0"), ((0, 2, True), "True"), ((0, -1, 2), "-1")]
)
def test_relabel_rejects_labels_that_are_not_elements(perm, label):
    # 1.0 == 1 and True == 1 would pass the permutation check
    with pytest.raises(ValueError, match=f"label {label} is not an element of 0..2"):
        relabel(PI.table, perm)


def test_relabel_rejects_non_permutations_and_moved_zero():
    with pytest.raises(ValueError):
        relabel(PI.table, (0, 1, 1))
    with pytest.raises(ValueError):
        relabel(PI.table, (1, 0, 2))
    with pytest.raises(ValueError):
        relabel(PI.table, (0, 1))


# --- canonical forms ---------------------------------------------------------


def test_canonical_form_of_pi_is_its_own_table():
    assert canonical_form(PI) == PI.table


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(7)
    for algebra in corpus(5, min_order=2):
        tail = list(range(1, algebra.order))
        rng.shuffle(tail)
        shuffled = validate(relabel(algebra.table, (0, *tail)))
        assert canonical_form(shuffled) == canonical_form(algebra)


@given(st.data())
def test_canonical_form_is_invariant_under_random_relabelings(data):
    n = data.draw(st.integers(2, 6))
    algebra = data.draw(st.sampled_from(enumerate_algebras(n)))
    tail = data.draw(st.permutations(range(1, n)))
    shuffled = validate(relabel(algebra.table, (0, *tail)))
    assert canonical_form(shuffled) == canonical_form(algebra)


def _flat(rows):
    return tuple(v for row in rows for v in row)


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_flat_matches_the_oracle_on_every_valid_table(n):
    for rows in oracle.pruned_valid_tables(n):
        assert tuple(classify._canonical_flat(_flat(rows), n)[0]) == _flat(
            oracle.canonical_flat(rows)
        )


def test_canonical_flat_matches_the_oracle_on_order_seven_extensions():
    # labeled order-7 extensions of order-6 classes are the tables
    # enumeration feeds it; the oracle is the unpruned minimum over
    # itertools.permutations
    rng = random.Random(17)
    extensions = []
    bases = enumerate_algebras(6)
    rng.shuffle(bases)
    while len(extensions) < 40:
        extensions += classify._extensions(bases.pop().table.rows)
    for flat in rng.sample(extensions, 40):
        rows = tuple(flat[x * 7 : (x + 1) * 7] for x in range(7))
        assert tuple(classify._canonical_flat(flat, 7)[0]) == _flat(oracle.canonical_flat(rows))


def test_canonical_form_identifies_the_chain_extension():
    assert canonical_form(extend_top(TWO)) == canonical_form(PI)


def test_canonical_form_is_minimal_over_relabelings():
    # exhaustive check at order 3: only one non-identity 0-fixing relabeling
    for algebra in enumerate_algebras(3):
        flat = canonical_form(algebra).flat()
        assert flat <= relabel(algebra.table, (0, 2, 1)).flat()


def test_canonical_form_guards_against_factorial_blowup():
    with pytest.raises(ValueError):
        canonical_form(m_chain(12))


def test_canonical_form_keeps_no_relabeling_table_above_order_eight():
    # a call builds the relabelings it needs and drops them, at order 8 as
    # above it (kept, they take 5.8 MiB at order 8 and 52 MiB at order 9);
    # what stays is CPython's free lists, 0.16 MiB at order 8, 0.47 at 9
    for n, bound in ((8, 2**19), (9, 2**20)):
        chain = m_chain(n)
        tracemalloc.start()
        try:
            form = canonical_form(chain)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < bound, n
    sigma = (0, 8, 3, 1, 7, 2, 6, 4, 5)
    assert canonical_form(validate(relabel(chain.table, sigma))) == form


# --- isomorphism -------------------------------------------------------------


def test_the_two_order_three_chains_are_not_isomorphic():
    assert find_isomorphism(PI, TC) is None
    assert not is_isomorphic(PI, TC)


def test_identity_witness_on_equal_algebras():
    assert find_isomorphism(PI, PI) == (0, 1, 2)


def test_union_is_order_independent_up_to_isomorphism():
    a = union(TWO, PI)
    b = union(PI, TWO)
    witness = find_isomorphism(a, b)
    assert witness is not None
    assert relabel(a.table, witness) == b.table


def test_witnesses_relabel_source_to_target():
    rng = random.Random(3)
    for algebra in corpus(5, min_order=3)[::5]:
        tail = list(range(1, algebra.order))
        rng.shuffle(tail)
        shuffled = validate(relabel(algebra.table, (0, *tail)))
        witness = find_isomorphism(algebra, shuffled)
        assert witness is not None
        assert relabel(algebra.table, witness) == shuffled.table


# Pairs with equal orders, commuting reports and signature multisets, each
# found by tracing the search: the first two reach the rejection of an
# image already taken by another element (the second pair is isomorphic),
# the third, at its sixth node, the rejection of an assigned product whose
# image disagrees with the product of the images.
REJECTING_PAIRS = [
    (
        ((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0),
         (3, 1, 1, 0, 0, 1), (4, 3, 3, 1, 0, 3), (5, 1, 1, 1, 0, 0)),
        ((0, 0, 0, 0, 0, 0), (1, 0, 2, 0, 2, 2), (2, 0, 0, 0, 0, 0),
         (3, 2, 5, 0, 2, 2), (4, 2, 2, 0, 0, 2), (5, 0, 2, 0, 0, 0)),
        False,
    ),
    (
        ((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 1), (2, 2, 0, 2, 2, 2),
         (3, 4, 4, 0, 1, 1), (4, 4, 4, 0, 0, 0), (5, 5, 5, 5, 5, 0)),
        ((0, 0, 0, 0, 0, 0), (1, 0, 1, 1, 1, 1), (2, 2, 0, 2, 2, 2),
         (3, 3, 0, 0, 3, 0), (4, 0, 4, 4, 0, 0), (5, 3, 4, 4, 3, 0)),
        True,
    ),
    (
        ((0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0),
         (3, 1, 1, 0, 0, 1, 1), (4, 5, 2, 2, 0, 1, 2), (5, 2, 1, 1, 0, 0, 1),
         (6, 2, 1, 1, 0, 0, 0)),
        ((0, 0, 0, 0, 0, 0, 0), (1, 0, 3, 3, 3, 0, 3), (2, 3, 0, 3, 3, 0, 0),
         (3, 0, 0, 0, 0, 0, 0), (4, 0, 0, 3, 0, 0, 0), (5, 4, 3, 2, 4, 0, 3),
         (6, 3, 3, 4, 3, 0, 0)),
        False,
    ),
]


def test_find_isomorphism_on_pairs_that_reach_each_rejection():
    assert find_isomorphism(PI, TWO) is None  # the orders differ
    for rows_a, rows_b, isomorphic in REJECTING_PAIRS:
        a = validate(CayleyTable(rows_a))
        b = validate(CayleyTable(rows_b))
        assert a.commuting_report() == b.commuting_report()
        assert (canonical_form(a) == canonical_form(b)) == isomorphic
        witness = find_isomorphism(a, b)
        if isomorphic:
            assert relabel(a.table, witness) == b.table
        else:
            assert witness is None


def test_find_isomorphism_is_not_bounded_by_the_interpreter_stack(monkeypatch):
    # the search assigns one element per step of a loop, so an order above
    # the recursion limit (1,000 frames) is searched like any other; the
    # chain skips its axiom check, about 5 s at this order, which smaller
    # chains pass in test_construct
    monkeypatch.setattr(core, "find_violation", lambda table: None)
    chain = m_chain(1100)
    assert find_isomorphism(chain, chain) == tuple(range(1100))


def test_signatures_count_up_sets_down_sets_and_fixers():
    # their order sets find_isomorphism's candidate order, and so which
    # witness it returns first
    for algebra in corpus(5):
        t = algebra.table.rows
        r = range(algebra.order)
        assert classify._signatures(algebra.table) == [
            (
                sum(t[x][y] == 0 for y in r),
                sum(t[y][x] == 0 for y in r),
                sum(t[x][y] == x for y in r),
            )
            for x in r
        ]


def test_distinct_enumerated_classes_are_not_isomorphic():
    algebras = enumerate_algebras(4)
    for i, a in enumerate(algebras):
        for b in algebras[i + 1 :]:
            assert find_isomorphism(a, b) is None


def test_isomorphism_agrees_with_canonical_forms_on_orders_five_and_six():
    # each class against a seeded relabelling of itself and, at order 5, of
    # every class; at order 6, of each class that shares its commuting report
    # and signature multiset (113 pairs of classes), as only such pairs reach
    # the search: a witness exists exactly when the canonical forms coincide
    rng = random.Random(29)
    for n, classes, sharing in [(5, 88, 3), (6, 775, 113)]:
        algebras = enumerate_algebras(n)
        shuffled = []
        for algebra in algebras:
            tail = list(range(1, n))
            rng.shuffle(tail)
            shuffled.append(validate(relabel(algebra.table, (0, *tail))))
        keys = [
            (a.commuting_report(), sorted(classify._signatures(a.table)))
            for a in algebras
        ]
        pairs = [
            (i, j)
            for i in range(len(algebras))
            for j in range(len(algebras))
            if n == 5 or keys[i] == keys[j]
        ]
        assert sum(keys[i] == keys[j] for i, j in pairs if i < j) == sharing
        forms = [canonical_form(a) for a in algebras]
        matches = 0
        for i, j in pairs:
            a, b = algebras[i], shuffled[j]
            witness = find_isomorphism(a, b)
            assert (witness is not None) == (forms[i] == canonical_form(b))
            if witness is not None:
                assert relabel(a.table, witness) == b.table
                matches += 1
        assert matches == len(algebras) == classes


def test_isomorphic_algebras_share_all_invariants():
    rng = random.Random(5)
    for algebra in corpus(5, min_order=3)[::7]:
        tail = list(range(1, algebra.order))
        rng.shuffle(tail)
        shuffled = validate(relabel(algebra.table, (0, *tail)))
        assert shuffled.commuting_report() == algebra.commuting_report()
        assert shuffled.is_commutative() == algebra.is_commutative()
        assert shuffled.is_bounded() == algebra.is_bounded()
        assert (
            shuffled.is_positive_implicative()
            == algebra.is_positive_implicative()
        )
        assert canonical_form(shuffled) == canonical_form(algebra)


def test_isomorphism_is_an_equivalence_on_samples():
    rng = random.Random(13)
    algebras = enumerate_algebras(5)
    for _ in range(10):
        a = rng.choice(algebras)
        tail_b = list(range(1, a.order))
        rng.shuffle(tail_b)
        b = validate(relabel(a.table, (0, *tail_b)))
        tail_c = list(range(1, a.order))
        rng.shuffle(tail_c)
        c = validate(relabel(b.table, (0, *tail_c)))
        assert is_isomorphic(a, a)
        assert is_isomorphic(a, b) == is_isomorphic(b, a)
        if is_isomorphic(a, b) and is_isomorphic(b, c):
            assert is_isomorphic(a, c)


def test_isomorphism_works_on_larger_synthesized_algebras():
    a = m_chain(12)
    sigma = (0, *range(2, 12), 1)
    shuffled = validate(relabel(a.table, sigma))
    witness = find_isomorphism(a, shuffled)
    assert witness is not None
    assert relabel(a.table, witness) == shuffled.table
    assert find_isomorphism(a, b_star(12)) is None


# --- enumeration -------------------------------------------------------------


def test_tiny_orders_have_one_class_each():
    assert len(enumerate_algebras(1)) == 1
    only = enumerate_algebras(2)
    assert len(only) == 1
    assert only[0].table == TWO.table


def test_order_three_classes():
    algebras = enumerate_algebras(3)
    assert len(algebras) == 3
    noncommutative = [a for a in algebras if not a.is_commutative()]
    assert len(noncommutative) == 1
    assert is_isomorphic(noncommutative[0], PI)


def test_class_counts_match_the_naive_oracle():
    for n in range(1, 5):
        assert len(enumerate_algebras(n)) == oracle.class_count(n)


def test_pruned_oracle_search_matches_the_plain_filter():
    # the pruning in oracle.pruned_valid_tables, which criterion 10 relies
    # on at order 5, loses no table where the unpruned filter is in reach
    for n in range(2, 5):
        plain = oracle.all_valid_tables(n) if n <= 3 else oracle.forced_valid_tables(n)
        assert sorted(oracle.pruned_valid_tables(n)) == sorted(plain)


def test_regression_class_counts():
    # orders 5 and 6 sit beyond the naive oracle; these counts were
    # confirmed by two independent search strategies plus exhaustive
    # pairwise isomorphism grouping of all valid labeled order-5 tables
    assert len(enumerate_algebras(5)) == 88
    assert len(enumerate_algebras(6)) == 775
    noncommutative = [
        a for a in enumerate_algebras(6) if not a.is_commutative()
    ]
    assert len(noncommutative) == 747


# sha256 of each level as one space-joined flat table per line, the same
# text bench/reference.json hashes for orders 4 and 6
LEVEL_DIGESTS = {
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "9f2f86d596f09a87813fc12a69ee9ae8cd9c9b781bd0b23ad60fd841838ff671",
    3: "cf515ad3652822e826996c73641769fd094d52c37a0d6d5d21a603a5c63b8e0d",
    4: "9e8da8ba47d5537291f9a990cc047296be127adabdb72508bc998faf56b555ce",
    5: "9f0a1d0cba77eeb669ebeb8a8b44c2a4a81bcccc6c0c5043a40b7a32e69cd3d3",
    6: "5f0a0e7683c8d1cdb16f37ae9435560668614728c34203b38c464dfd94aa7133",
}


def _level_digest(flats):
    # hashed a line at a time: the text of level 8 would be another 62 MiB
    digest = hashlib.sha256()
    separator = b""
    for flat in flats:
        digest.update(separator + " ".join(map(str, flat)).encode())
        separator = b"\n"
    return digest.hexdigest()


@pytest.mark.parametrize("n", sorted(LEVEL_DIGESTS))
def test_enumerated_levels_are_byte_identical(n):
    assert _level_digest(a.table.flat() for a in enumerate_algebras(n)) == LEVEL_DIGESTS[n]


ORDER_7_DIGEST = "c0ead06a0de81752af0f9edaa3883995f5bdc67b4150371558a0a95554338ed2"
# classes per commuting-degree numerator over 49
ORDER_7_CENSUS = {
    19: 1, 21: 20, 23: 136, 25: 408, 27: 836, 29: 1164, 31: 1357, 33: 1331,
    35: 1101, 37: 952, 39: 714, 41: 504, 43: 303, 45: 190, 47: 81, 49: 72,
}


@pytest.mark.order7
def test_order_seven_level_census_and_worker_counts():
    # outside the default run: python -m pytest -m order7
    algebras = enumerate_algebras(7, budget=7)
    flats = [a.table.flat() for a in algebras]
    assert len(flats) == 9170
    assert _level_digest(flats) == ORDER_7_DIGEST
    census = degree_census(7, budget=7)
    assert census == {Fraction(k, 49): c for k, c in ORDER_7_CENSUS.items()}
    assert [tuple(f) for f in classify._extend_level(classify._level(6), jobs=2)] == flats
    perms = cache(classify._build_perms)
    assert _mass(7, perms) == _extension_mass(7, perms) == Fraction(1893863, 240)
    # the transfer lemmas, against the naive count: +3 for a top extension,
    # +2n+1 for a union with 2
    for algebra in algebras:
        count = oracle.pair_count(algebra.table.rows)
        assert oracle.pair_count(extend_top(algebra).table.rows) == count + 3
        assert oracle.pair_count(union(algebra, TWO).table.rows) == count + 15


ORDER_8_DIGEST = "1a8d0af9036253f7d37c644e718bd79ee2942b11bd4e20743ec80d3160457944"
# classes per commuting-degree numerator over 64
ORDER_8_CENSUS = {
    22: 1, 24: 27, 26: 275, 28: 1305, 30: 3694, 32: 7666, 34: 11712,
    36: 15670, 38: 17018, 40: 17491, 42: 15329, 44: 14214, 46: 11590,
    48: 9286, 50: 6560, 52: 4942, 54: 2990, 56: 1954, 58: 1084, 60: 615,
    62: 251, 64: 192,
}


@pytest.mark.order8
def test_order_eight_level_census_minimum_and_worker_counts():
    # outside the default run: python -m pytest -m order8.  Every degree of
    # CD(8) occurs, and the least, 22/64, once: the chain's class
    algebras = enumerate_algebras(8, budget=8)
    # flats are hashed as they are made, and the jobs=2 pass below is
    # compared by the same digest, which pins the level: no list of flats
    # (77 MiB as tuples, by tracemalloc) is held beside the level
    assert len(algebras) == 143866
    assert _level_digest(a.table.flat() for a in algebras) == ORDER_8_DIGEST
    census = degree_census(8, budget=8)
    assert census == {Fraction(k, 64): c for k, c in ORDER_8_CENSUS.items()}
    assert set(census) == set(cd_set(8)) | {Fraction(1)}
    report = verify_unique_minimum(8, budget=8)
    assert report.degree == Fraction(22, 64)
    assert report.representative.table == canonical_form(m_chain(8))
    assert relabel(report.representative.table, report.witness) == m_chain(8).table
    assert _level_digest(classify._extend_level(classify._level(7), jobs=2)) == ORDER_8_DIGEST


def _smallest_maximal(t):
    """The maximal elements of a table whose down-set is smallest."""
    r = range(len(t))
    maximal = [u for u in r if all(t[u][z] for z in r if z != u)]
    down = {u: [row[u] for row in t].count(0) for u in maximal}
    return {u for u in maximal if down[u] == min(down.values())}


@pytest.mark.parametrize("m", range(1, 5))
def test_extensions_are_exactly_the_valid_tables_over_each_base(m):
    # the labeled search is complete and sound: over each representative it
    # yields, once each, the oracle's valid order-(m+1) tables with that
    # representative as their leading m-by-m block and the new element m
    # maximal, that is m*y != 0 for 0 < y < m, with no maximal u < m having
    # a smaller down-set than m
    tables = oracle.pruned_valid_tables(m + 1)
    for base in enumerate_algebras(m):
        rows = base.table.rows
        found = [tuple(f) for f in classify._extensions(rows)]
        assert len(found) == len(set(found))
        assert set(found) == {
            tuple(v for row in t for v in row)
            for t in tables
            if tuple(row[:m] for row in t[:m]) == rows
            and m in _smallest_maximal(t)
        }


def _mass(n, perms):
    """The sum of 1/|Aut A| over the classes A of order n."""
    return sum(Fraction(1, classify._canonical_flat(a.table.flat(), n, perms)[1])
               for a in classify._level(n))


def _extension_mass(n, perms):
    """The sum over the classes B of order n-1 of 1/|Aut B| times the sum of
    1/w(E) over E in ``_extensions(B)``, w(E) being the number of maximal
    elements of E with the smallest down-set among the maximal ones."""
    total = Fraction(0)
    for base in classify._level(n - 1):
        weights = sum(
            Fraction(1, len(_smallest_maximal([e[x * n : (x + 1) * n] for x in range(n)])))
            for e in classify._extensions(base.table.rows)
        )
        total += weights / classify._canonical_flat(base.table.flat(), n - 1, perms)[1]
    return total


def test_automorphism_counts_match_the_oracle():
    # the tie count of ``_canonical_flat`` is |Aut A| on the canonical flat
    # and on a randomly relabelled copy, which reaches the same minimum
    rng = random.Random(23)
    perms = cache(classify._build_perms)
    for n in range(1, 7):
        for algebra in classify._level(n):
            rows = algebra.table.rows
            tail = list(range(1, n))
            rng.shuffle(tail)
            shuffled = relabel(algebra.table, (0, *tail))
            expected = (bytes(algebra.table.flat()), oracle.automorphism_count(rows))
            for table in (algebra.table, shuffled):
                assert classify._canonical_flat(table.flat(), n, perms) == expected, rows


def test_mass_formula_ties_each_level_to_the_extensions_below_it():
    # count the labeled tables on 0..n-1, each with one of its maximal
    # elements of smallest down-set chosen, in two ways: (n-1)! times either
    # side.  It checks the canonical deduplication, the down-set cut and the
    # completeness of _extensions, up to a whole class going missing
    perms = cache(classify._build_perms)
    masses = {n: _mass(n, perms) for n in range(2, 7)}
    for n, mass in masses.items():
        assert mass == _extension_mass(n, perms), n
    assert [masses[n] for n in range(3, 7)] == [
        Fraction(5, 2), Fraction(67, 6), Fraction(1735, 24), Fraction(3259, 5)
    ]
    assert 24 * masses[5] == len(oracle.pruned_valid_tables(5)) == 1735


@pytest.mark.parametrize("n", range(2, 6))
def test_no_product_outside_a_maximal_element_is_that_element(n):
    # the column rule of ``_extensions``, read off the oracle alone: x*u = u
    # would give u <= x (x*y <= x), so for a maximal u it needs x in {0, u}
    for t in oracle.pruned_valid_tables(n):
        r = range(n)
        for u in r:
            if all(t[u][z] for z in r if z != u):
                assert all(t[x][u] != u for x in r if x not in (0, u)), t


@pytest.mark.parametrize("n", range(2, 6))
def test_removing_a_maximal_element_leaves_a_subalgebra(n):
    # the completeness of ``_extensions``, read off the oracle alone: since
    # x*y <= x, x*y = u for a maximal u forces x = u, so for every maximal
    # u the other elements are closed, and some maximal u is not 0
    for t in oracle.pruned_valid_tables(n):
        r = range(n)
        maximal = [u for u in r if all(t[u][z] for z in r if z != u)]
        assert maximal and 0 not in maximal, t
        for u in maximal:
            assert all(t[x][y] != u for x in r for y in r if u not in (x, y)), t


@pytest.mark.parametrize("n", range(2, 6))
def test_maximal_elements_with_the_smallest_down_set_are_a_deletion_key(n):
    # the down-set cut of ``_extensions``, read off the oracle alone: the
    # maximal elements whose down-set is smallest form a non-empty set that
    # every 0-fixing relabeling maps onto the same set of the relabeled
    # table, and deleting any one of them leaves a subalgebra.  The valid
    # tables are closed under relabeling and the swaps of adjacent labels
    # other than 0 generate every 0-fixing relabeling, so checking those
    # swaps on every table covers them all
    r = range(n)
    for t in oracle.pruned_valid_tables(n):
        key = _smallest_maximal(t)
        assert key and 0 not in key, t
        for i in range(1, n - 1):
            sigma = (*r[:i], i + 1, i, *r[i + 2 :])
            relabeled = oracle.relabeled(t, sigma)
            assert _smallest_maximal(relabeled) == {sigma[u] for u in key}, t
        for u in key:
            assert all(t[x][y] != u for x in r for y in r if u not in (x, y)), t


def test_leaf_check_agrees_with_the_oracle_on_every_completed_table(monkeypatch):
    # every table the order-5 search completes (and those of the smaller
    # levels) is judged as the full naive axiom check judges it
    judged = []
    flat_valid = classify._flat_valid

    def record(t):
        verdict = flat_valid(t)
        judged.append((tuple(map(tuple, t)), verdict))
        return verdict

    bases = [base.table.rows for m in range(1, 5) for base in enumerate_algebras(m)]
    monkeypatch.setattr(classify, "_flat_valid", record)
    for rows in bases:
        classify._extensions(rows)
    assert len(judged) == 1 + 3 + 15 + 110
    for rows, verdict in judged:
        assert verdict == (oracle.first_violation(rows) is None), rows
    assert [verdict for _, verdict in judged].count(False) == 7


def test_leaf_check_reads_every_bck1_instance_through_the_new_element(monkeypatch):
    # every table the search completes over the order-5 classes, each of
    # which passed ``_partial_ok`` at every cell, is judged as a naive scan
    # of the BCK1 instances through e judges it; every rejected table fails
    # only where x = e, as ``_flat_valid`` leaves y = e and z = e to
    # ``_partial_ok``
    judged = []
    flat_valid = classify._flat_valid

    def record(t):
        verdict = flat_valid(t)
        judged.append((tuple(map(tuple, t)), verdict))
        return verdict

    bases = [base.table.rows for base in enumerate_algebras(5)]
    monkeypatch.setattr(classify, "_flat_valid", record)
    for rows in bases:
        classify._extensions(rows)
    e = 5
    r = range(e + 1)
    failing = Counter()
    for t, verdict in judged:
        where = {
            "xyz"[(x, y, z).index(e)]
            for x in r
            for y in r
            for z in r
            if e in (x, y, z) and t[t[t[x][y]][t[x][z]]][t[z][y]]
        }
        assert verdict == (not where), t
        failing["".join(sorted(where))] += 1
    assert len(judged) == 1093 and failing[""] == 932 and failing["x"] == 161
    assert failing["x"] and not failing["y"] and not failing["z"]


@pytest.mark.parametrize("m", range(1, 5))
def test_extensions_never_run_the_full_axiom_check(monkeypatch, m):
    # the search relies on the base being valid: no completed table needs
    # the whole-table check
    bases = [base.table.rows for base in enumerate_algebras(m)]
    expected = [classify._extensions(rows) for rows in bases]

    def refuse(t):
        raise AssertionError("full axiom check called")

    monkeypatch.setattr(core, "_first_violation", refuse)
    monkeypatch.setattr(core, "find_violation", refuse)
    monkeypatch.setattr(core, "_bck1_by_columns", refuse)
    monkeypatch.setattr(core, "_bck1_by_lanes", refuse)
    assert [classify._extensions(rows) for rows in bases] == expected


def test_enumerated_representatives_are_canonical_sorted_and_valid():
    for n in range(2, 6):
        algebras = enumerate_algebras(n)
        flats = [a.table.flat() for a in algebras]
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)
        for algebra in algebras:
            assert find_violation(algebra.table) is None
            assert canonical_form(algebra) == algebra.table


def test_equal_rows_of_a_level_are_one_object():
    rows = [row for algebra in enumerate_algebras(6) for row in algebra.table.rows]
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)


def test_enumerated_classes_are_validated_once(monkeypatch):
    enumerate_algebras(5)  # builds every level up to 5, or finds it built
    calls = []
    check = core.find_violation
    monkeypatch.setattr(
        core, "find_violation", lambda table: calls.append(table.order) or check(table)
    )
    enumerate_algebras(5)
    degree_census(5)
    assert calls == []


def test_enumerated_classes_are_counted_once(monkeypatch):
    degree_census(5)  # counts every order-5 class, or finds them counted
    reports = []
    report = core.CommutingReport
    monkeypatch.setattr(
        core, "CommutingReport", lambda *args: reports.append(args) or report(*args)
    )
    degree_census(5)
    assert [a.is_commutative() for a in enumerate_algebras(5)].count(True) == 11
    assert reports == []


def test_enumeration_respects_the_budget():
    with pytest.raises(ValueError, match="budget"):
        enumerate_algebras(8)
    with pytest.raises(ValueError, match="budget"):
        enumerate_algebras(5, budget=4)


def test_budget_error_names_a_long_order_by_a_prefix():
    # bare, as an int prints; past 20 digits a prefix and the length
    shown = "9" * 20 + "... (4000 characters)"
    with pytest.raises(ValueError) as info:
        enumerate_algebras(int("9" * 4000))
    assert str(info.value) == (
        f"order {shown} exceeds the enumeration budget 7; pass budget={shown} "
        f"(or set BCK_ENUM_BUDGET={shown} for the bck command) to allow it"
    )
    with pytest.raises(ValueError, match=f"^order {10**19} exceeds .* budget={10**19} "):
        enumerate_algebras(10**19)


def test_enumeration_is_deterministic_across_worker_counts():
    bases = classify._level(4)
    parallel = classify._extend_level(bases, jobs=2)
    assert parallel == classify._extend_level(bases, jobs=1)
    assert [a.table.flat() for a in enumerate_algebras(5)] == [tuple(f) for f in parallel]


def _fresh_python(code):
    """The stdout of ``code`` run in a new interpreter on this suite's ``bck``."""
    src = Path(classify.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return done.stdout


def test_importing_the_cli_loads_no_process_pool():
    code = """
import sys
import bck, bck.cli
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""
    assert _fresh_python(code) == "[]\n"


def test_a_cold_sharded_enumeration_shards_only_the_requested_level():
    # in a new interpreter, since this process's levels are cached
    code = """
import json
from bck import classify
calls = []
extend = classify._extend_level
def recording(bases, jobs):
    calls.append((len(bases), jobs))
    return extend(bases, jobs)
classify._extend_level = recording
flats = [a.table.flat() for a in classify.enumerate_algebras(5, jobs=2)]
print(json.dumps({"calls": calls, "flats": flats}))
"""
    out = json.loads(_fresh_python(code))
    assert out["calls"] == [[1, 1], [1, 1], [3, 1], [14, 2]]
    assert _level_digest(out["flats"]) == LEVEL_DIGESTS[5]


@pytest.mark.parametrize(
    "function, args, message",
    [
        (enumerate_algebras, (True,), "n must be an int, got True"),
        (enumerate_algebras, (5.0,), "n must be an int, got 5.0"),
        (enumerate_algebras, (5, 3.5), "budget must be an int, got 3.5"),
        (enumerate_algebras, (5, True), "budget must be an int, got True"),
        (enumerate_algebras, (5, None, 1.5), "jobs must be an int, got 1.5"),
        (enumerate_algebras, (5, None, "2"), "jobs must be an int, got '2'"),
        (enumerate_algebras, (5, None, None), "jobs must be an int, got None"),
        (enumerate_algebras, (5, None, 0), "jobs must be at least 1, got 0"),
        (enumerate_algebras, (5, None, -1), "jobs must be at least 1, got -1"),
        (degree_census, (5.0,), "n must be an int, got 5.0"),
        (degree_census, (5, True), "budget must be an int, got True"),
        (verify_unique_minimum, (4.0,), "n must be an int, got 4.0"),
        (verify_unique_minimum, (True,), "n must be an int, got True"),
        (enumerate_algebras, (0,), "order must be at least 1"),
    ],
)
def test_enumeration_refuses_arguments_that_are_not_ints(function, args, message):
    # refused before the level cache is read, so a cold and a warm cache agree
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_noncommutative_degrees_lie_in_the_achievable_set():
    for n in range(3, 6):
        degrees = {
            a.commuting_degree()
            for a in enumerate_algebras(n)
            if not a.is_commutative()
        }
        assert degrees == set(cd_set(n))


# --- census ------------------------------------------------------------------


def test_census_counts_sum_to_the_class_count():
    for n in range(2, 6):
        census = degree_census(n)
        assert sum(census.values()) == len(enumerate_algebras(n))


def test_census_multiplicities_at_the_extremes():
    assert degree_census(4)[Fraction(14, 16)] == 3
    # nine classes, which acceptance criterion 10 recounts with the
    # oracle's own search; see test_nine_maximum_degree_classes_at_order_five
    assert degree_census(5)[Fraction(23, 25)] == 9
    for n in range(3, 6):
        assert degree_census(n)[Fraction(3 * n - 2, n * n)] == 1


def test_nine_maximum_degree_classes_at_order_five():
    """The maximum degree 23/25 is hit by exactly nine order-5 classes.

    Each representative is checked with the independent axiom oracle and
    a direct pair count; pairwise non-isomorphism is established by the
    oracle's exhaustive search over all 0-fixing permutations, so the
    count does not depend on this package's canonical forms.
    """
    hits = [
        a.table.rows
        for a in enumerate_algebras(5)
        if a.commuting_report().pair_count == 23
    ]
    assert len(hits) == 9
    for rows in hits:
        assert oracle.axioms_hold(rows)
        assert oracle.pair_count(rows) == 23
    for i, a in enumerate(hits):
        for b in hits[i + 1 :]:
            assert not oracle.related(a, b)


# --- unique minimum ----------------------------------------------------------


def test_unique_minimum_reports_with_witnesses():
    for n in range(2, 6):
        report = verify_unique_minimum(n)
        assert report.degree == Fraction(3 * n - 2, n * n)
        assert relabel(report.representative.table, report.witness) == m_chain(
            n
        ).table


@pytest.mark.parametrize("n", [1, 0, -3])
def test_unique_minimum_rejects_orders_below_two(n):
    with pytest.raises(ValueError, match="order >= 2"):
        verify_unique_minimum(n)


# --- subalgebras -------------------------------------------------------------


def test_maximal_subalgebra_of_the_order_three_chain():
    assert find_maximal_subalgebra(PI) == (0, 1)


def test_the_order_one_algebra_has_no_maximal_subalgebra():
    with pytest.raises(ValueError, match="^order must be at least 2$"):
        find_maximal_subalgebra(enumerate_algebras(1)[0])


def test_maximal_subalgebra_of_extensions_is_the_base():
    for algebra in corpus(4, min_order=2):
        extended = extend_top(algebra)
        assert find_maximal_subalgebra(extended) == tuple(range(algebra.order))


def test_every_small_algebra_has_a_maximal_subalgebra():
    for algebra in corpus(5, min_order=2):
        subset = find_maximal_subalgebra(algebra)
        assert len(subset) == algebra.order - 1
        assert subset[0] == 0
        restricted = subalgebra(algebra, subset)
        assert find_violation(restricted.table) is None


def test_subalgebra_rejects_unclosed_subsets():
    # truncated subtraction on 0..3: 3*1 = 2, so dropping 2 is not closed
    lukasiewicz = validate(
        CayleyTable(((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (3, 2, 1, 0)))
    )
    with pytest.raises(ValueError, match="not closed"):
        subalgebra(lukasiewicz, (0, 1, 3))
    with pytest.raises(ValueError, match="element 0"):
        subalgebra(PI, (1, 2))


@pytest.mark.parametrize(
    "elements, label",
    [
        ((0, 5), "5"),
        ((0, -1), "-1"),
        ((0, 1.0), "1.0"),
        ((0, 1, True), "True"),
        ((0, "1"), "'1'"),
    ],
)
def test_subalgebra_rejects_labels_that_are_not_elements(elements, label):
    # (0, 1, True) would otherwise restrict to the order-2 algebra
    with pytest.raises(ValueError, match=f"label {label} is not an element of 0..2"):
        subalgebra(PI, elements)
