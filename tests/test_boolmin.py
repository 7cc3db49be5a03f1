"""Tests for the Boolean minimization substrate."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.boolmin import (
    DONT_CARE,
    TruthTable,
    implicant_covers,
    implicant_literals,
    min_bool_exp,
    minimize_table,
    prime_implicants,
)
from repro.boolmin.cover import select_cover
from repro.boolmin.primes import minimal_transversals
from repro.boolmin.quine_mccluskey import prime_implicants as qm_prime_implicants
from repro.logic.evaluate import eval_formula
from repro.logic.formulas import Comparison, FALSE, TRUE
from repro.logic.terms import const, intvar

ATOMS = [Comparison("=", intvar(f"v{i}"), const(1)) for i in range(4)]


class TestPrimeImplicants:
    def test_single_minterm(self):
        primes = prime_implicants([0b01], [], 2)
        assert primes == [(1, 0)]

    def test_full_cover_merges_to_tautology(self):
        primes = prime_implicants([0, 1, 2, 3], [], 2)
        assert primes == [(0, 3)]  # one implicant with all dashes

    def test_xor_has_no_merges(self):
        primes = prime_implicants([0b01, 0b10], [], 2)
        assert (1, 0) in primes and (2, 0) in primes
        assert len(primes) == 2

    def test_dont_cares_enable_merging(self):
        # on={01}, dc={11}: primes include x1 with v0 dashed? 01 and 11
        # differ in bit 1 -> implicant (1, 2).
        primes = prime_implicants([0b01], [0b11], 2)
        assert (1, 2) in primes

    def test_implicant_covers(self):
        assert implicant_covers((1, 2), 0b01)
        assert implicant_covers((1, 2), 0b11)
        assert not implicant_covers((1, 2), 0b00)

    def test_implicant_literals(self):
        assert implicant_literals((1, 2), 2) == 1
        assert implicant_literals((0, 3), 2) == 0


class TestCoverSelection:
    def test_essential_primes_chosen(self):
        table = TruthTable(2, {0b00: 1, 0b01: 1, 0b11: 1})
        cover = minimize_table(table)
        # Optimal: (!v1) + (v0) -> two implicants of one literal each.
        assert len(cover) == 2
        assert all(implicant_literals(p, 2) == 1 for p in cover)

    def test_all_zero_gives_empty_cover(self):
        table = TruthTable(2, {m: 0 for m in range(4)})
        assert minimize_table(table) == []

    def test_dc_only_rows_not_required(self):
        table = TruthTable(2, {0b00: 1, 0b11: DONT_CARE})
        cover = minimize_table(table)
        for m in [0b00]:
            assert any(implicant_covers(p, m) for p in cover)


class TestMinBoolExp:
    def test_constant_false(self):
        table = TruthTable(1, {0: 0, 1: 0})
        assert min_bool_exp(table, ATOMS[:1]) == FALSE

    def test_constant_true(self):
        table = TruthTable(1, {0: 1, 1: 1})
        assert min_bool_exp(table, ATOMS[:1]) == TRUE

    def test_identity(self):
        table = TruthTable(1, {0: 0, 1: 1})
        assert min_bool_exp(table, ATOMS[:1]) == ATOMS[0]

    def test_negation(self):
        table = TruthTable(1, {0: 1, 1: 0})
        assert min_bool_exp(table, ATOMS[:1]) == ATOMS[0].negated()

    def test_paper_example_14(self):
        # Variables: a>=b (0), f=e (1), a=b (2), a>b (3); expected result a>=b.
        rows = {
            0b0000: 0, 0b1000: DONT_CARE, 0b0100: DONT_CARE, 0b1100: DONT_CARE,
            0b0010: DONT_CARE, 0b1010: DONT_CARE, 0b0110: DONT_CARE,
            0b1110: DONT_CARE, 0b0001: DONT_CARE, 0b1001: DONT_CARE,
            0b0101: 1, 0b1101: DONT_CARE, 0b0011: DONT_CARE, 0b1011: 1,
            0b0111: 1, 0b1111: DONT_CARE,
        }
        a, b, e, f = intvar("a"), intvar("b"), intvar("e"), intvar("f")
        atoms = [
            Comparison(">=", a, b),
            Comparison("=", f, e),
            Comparison("=", a, b),
            Comparison(">", a, b),
        ]
        assert min_bool_exp(TruthTable(4, rows), atoms) == atoms[0]


def _random_table(data):
    outputs = {}
    for i, v in enumerate(data):
        outputs[i] = DONT_CARE if v == 2 else v
    return TruthTable(3, outputs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_minimized_formula_matches_specified_rows(data):
    """Property: the minimized cover agrees with every non-DC row."""
    table = _random_table(data)
    cover = minimize_table(table)
    for minterm in range(8):
        expected = table.output(minterm)
        if expected == DONT_CARE:
            continue
        covered = any(implicant_covers(p, minterm) for p in cover)
        assert covered == bool(expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_formula_rendering_consistent_with_cover(data):
    """Property: the rendered formula evaluates like the implicant cover."""
    table = _random_table(data)
    cover = minimize_table(table)
    atoms = [Comparison("=", intvar(f"w{i}"), const(1)) for i in range(3)]
    formula = min_bool_exp(table, atoms)
    for assignment in itertools.product([0, 1], repeat=3):
        env = {f"w{i}": assignment[i] for i in range(3)}
        minterm = sum(bit << i for i, bit in enumerate(assignment))
        expected = any(implicant_covers(p, minterm) for p in cover)
        assert eval_formula(formula, env) == expected


class TestMinimalTransversals:
    def test_empty_hypergraph_has_the_empty_transversal(self):
        assert minimal_transversals(0, []) == [0]

    def test_one_bit_edges_are_forced(self):
        assert minimal_transversals(0b101, []) == [0b101]

    def test_berge_on_two_edges(self):
        # Edges {0,1} and {1,2}: minimal transversals {1} and {0,2}.
        assert sorted(minimal_transversals(0, [0b011, 0b110])) == [
            0b010, 0b101,
        ]

    def test_superset_edges_are_ignored(self):
        assert sorted(minimal_transversals(0, [0b011, 0b111])) == [
            0b001, 0b010,
        ]


def _partial_function(num_vars, seed, on_weight, dc_weight):
    """A random table: each row is on, don't-care or off.  About half the
    off rows are left unset, since missing rows default to 0."""
    rng = random.Random(seed)
    outputs = {}
    for minterm in range(1 << num_vars):
        r = rng.random() * (on_weight + dc_weight + 1)
        if r < on_weight:
            outputs[minterm] = 1
        elif r < on_weight + dc_weight:
            outputs[minterm] = DONT_CARE
        elif rng.random() < 0.5:
            outputs[minterm] = 0
    return TruthTable(num_vars, outputs)


def _qm_useful_primes(table):
    """Slow reference: Quine-McCluskey primes covering an on-minterm."""
    on = table.on_set
    primes = qm_prime_implicants(on, table.dc_set, table.num_vars)
    return [p for p in primes if any(implicant_covers(p, m) for m in on)]


partial_functions = st.builds(
    _partial_function,
    st.integers(0, 10),
    st.integers(0, 2**32),
    st.integers(0, 4),
    st.integers(0, 8),
)


@settings(max_examples=120, deadline=None)
@given(partial_functions)
def test_hitting_set_primes_match_quine_mccluskey(table):
    """Differential: the same primes as QM's useful list, same order."""
    assert prime_implicants(
        table.on_set, table.dc_set, table.num_vars
    ) == _qm_useful_primes(table)


@settings(max_examples=120, deadline=None)
@given(partial_functions)
def test_minimize_table_matches_quine_mccluskey_cover(table):
    """Differential: the cover chosen from QM's primes is the same one."""
    on = table.on_set
    expected = (
        select_cover(_qm_useful_primes(table), on, table.num_vars)
        if on else []
    )
    assert minimize_table(table) == expected
