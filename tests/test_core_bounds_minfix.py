"""Tests for CreateBounds (Algorithm 2) and MinFix (Algorithms 5/6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import bounds_admit, create_bounds
from repro.boolmin import DONT_CARE, TruthTable
from repro.core.minfix import (
    AtomMapping,
    _FeasibilityChecker,
    build_truth_table,
    map_atom_preds,
    min_fix,
    min_fix_pos,
)
from repro.logic.formulas import (
    And,
    Comparison,
    FALSE,
    Not,
    Or,
    TRUE,
    conj,
    disj,
    neg,
)
from repro.logic.terms import add, const, intvar
from repro.solver import Solver, smt
from repro.solver.theory import check_literals

A, B, C, D, E, F = (intvar(x) for x in "ABCDEF")


def cmp(op, lhs, rhs):
    return Comparison(op, lhs, rhs)


def example5_predicates():
    """P and P* from paper Example 5 / Figure 1."""
    p_star = (cmp("=", A, C) & (cmp("<", E, const(5)) | cmp(">", D, const(10)) | cmp("<", D, const(7)))) | (
        cmp("=", A, B) & (cmp("<>", D, E) | cmp(">", D, F))
    )
    p = (cmp("=", A, C) & (cmp("<>", D, E) | cmp(">", D, F))) | (
        cmp("=", A, C)
        & (cmp(">", D, const(11)) | cmp("<", D, const(7)) | cmp("<=", E, const(5)))
    )
    return p, p_star


class TestCreateBounds:
    def test_site_at_root(self):
        p, _ = example5_predicates()
        assert create_bounds(p, [()]) == (FALSE, TRUE)

    def test_no_sites_bound_is_tight(self):
        p, _ = example5_predicates()
        lower, upper = create_bounds(p, [])
        assert lower == p and upper == p

    def test_atom_site_inside_and(self):
        # (A=C and X) with X a site: bound is [FALSE, A=C].
        formula = cmp("=", A, C) & cmp("<", D, const(7))
        lower, upper = create_bounds(formula, [(1,)])
        assert lower == FALSE
        assert upper == cmp("=", A, C)

    def test_atom_site_inside_or(self):
        formula = cmp("=", A, C) | cmp("<", D, const(7))
        lower, upper = create_bounds(formula, [(0,)])
        assert lower == cmp("<", D, const(7))
        assert upper == TRUE

    def test_not_flips_bounds(self):
        formula = Not(cmp("=", A, C) & cmp("<", D, const(7)))
        lower, upper = create_bounds(formula, [(0, 1)])
        # Child bound: [FALSE, A=C]; negation: [not(A=C), TRUE].
        assert lower == neg(cmp("=", A, C))
        assert upper == TRUE

    def test_example7_root_bounds(self, solver):
        # Paper Example 7: sites {x4, x10, x12} give root bounds
        # [A=C and D<7,  D<>E or D>F or A=C].
        p, p_star = example5_predicates()
        sites = [(0, 0), (1, 1, 0), (1, 1, 2)]
        lower, upper = create_bounds(p, sites)
        expected_lower = cmp("=", A, C) & cmp("<", D, const(7))
        expected_upper = disj(cmp("<>", D, E), cmp(">", D, F), cmp("=", A, C))
        assert solver.is_equiv(lower, expected_lower)
        assert solver.is_equiv(upper, expected_upper)
        assert bounds_admit(solver, lower, p_star, upper)

    def test_viability_rejects_insufficient_sites(self, solver):
        # Fixing only x11 (D<7) cannot reach P*.
        p, p_star = example5_predicates()
        lower, upper = create_bounds(p, [(1, 1, 1)])
        assert not bounds_admit(solver, lower, p_star, upper)

    def test_bounds_always_contain_any_fix_result(self, solver):
        # Lemma 5.3 sanity: applying arbitrary fixes stays within bounds.
        from repro.logic.paths import replace_at

        p, _ = example5_predicates()
        sites = [(0, 0), (1, 1, 0)]
        lower, upper = create_bounds(p, sites)
        for fix in (TRUE, FALSE, cmp("=", A, B), cmp(">", D, F)):
            repaired = replace_at(p, {site: fix for site in sites})
            assert solver.in_bound(lower, repaired, upper)


class TestMapAtomPreds:
    def test_merges_equivalent_atoms(self, solver):
        f1 = cmp("=", add(A, const(1)), add(B, const(1)))
        f2 = cmp("=", A, B)
        mapping = map_atom_preds([f1, f2], solver)
        assert mapping.num_vars == 1

    def test_merges_negation_equivalent_atoms(self, solver):
        f1 = cmp("<", A, B)
        f2 = cmp(">=", A, B)
        mapping = map_atom_preds([conj(f1, f2)], solver)
        assert mapping.num_vars == 1
        assert mapping.polarity[f1][0] == mapping.polarity[f2][0]
        assert mapping.polarity[f1][1] != mapping.polarity[f2][1]

    def test_distinct_atoms_get_distinct_vars(self, solver):
        mapping = map_atom_preds([cmp("<", A, B) & cmp("<", B, C)], solver)
        assert mapping.num_vars == 2

    def test_evaluate_respects_polarity(self, solver):
        f = cmp("<", A, B)
        g = cmp(">=", A, B)
        mapping = map_atom_preds([f, g], solver)
        assert mapping.evaluate(f, 0b1) != mapping.evaluate(g, 0b1)


class TestBuildTruthTable:
    def test_infeasible_rows_are_dont_care(self, solver):
        # Atoms A=B and A<B cannot both hold.
        lower = cmp("=", A, B) & cmp("<", A, B)
        upper = lower
        mapping = map_atom_preds([lower, upper], solver)
        table = build_truth_table(mapping, lower, upper, solver)
        both_true = (1 << mapping.num_vars) - 1
        assert table.output(both_true) == "*"

    def test_gap_rows_are_dont_care(self, solver):
        lower = cmp("=", A, const(5))
        upper = TRUE
        mapping = map_atom_preds([lower, upper], solver)
        table = build_truth_table(mapping, lower, upper, solver)
        assert table.output(0) == "*"  # l=0, u=1 -> don't care


class TestMinFix:
    def test_tight_bound_returns_equivalent(self, solver):
        target = cmp("=", A, B) & cmp("<", C, const(5))
        fix = min_fix(target, target, solver)
        assert solver.is_equiv(fix, target)

    def test_degenerate_true(self, solver):
        assert min_fix(TRUE, TRUE, solver) == TRUE

    def test_degenerate_false(self, solver):
        assert min_fix(FALSE, FALSE, solver) == FALSE

    def test_full_slack_gives_constant(self, solver):
        assert min_fix(FALSE, TRUE, solver) in (TRUE, FALSE)

    def test_loose_bound_allows_smaller_formula(self, solver):
        # Paper Section 5.2 example: [a1&a2&a3, (a1&a2)|a3] admits just a3.
        a1 = cmp("=", A, const(1))
        a2 = cmp("=", B, const(2))
        a3 = cmp("=", C, const(3))
        lower = conj(a1, a2, a3)
        upper = disj(conj(a1, a2), a3)
        fix = min_fix(lower, upper, solver)
        assert fix == a3

    def test_result_always_within_bounds(self, solver):
        lower = cmp("=", A, B) & cmp(">", C, const(0))
        upper = cmp("=", A, B) | cmp(">", C, const(0))
        fix = min_fix(lower, upper, solver)
        assert solver.in_bound(lower, fix, upper)

    def test_example14(self, solver):
        # l = (a>=b and f=e) or a=b ; u = a=b or e=f or a>b ; answer a>=b.
        lower = disj(conj(cmp(">=", A, B), cmp("=", F, E)), cmp("=", A, B))
        upper = disj(cmp("=", A, B), cmp("=", E, F), cmp(">", A, B))
        fix = min_fix(lower, upper, solver)
        assert solver.is_equiv(fix, cmp(">=", A, B))
        assert fix.size() == 1

    def test_pos_variant_within_bounds(self, solver):
        lower = cmp("=", A, B) & cmp(">", C, const(0))
        upper = cmp("=", A, B) | cmp(">", C, const(0))
        fix = min_fix_pos(lower, upper, solver)
        assert solver.in_bound(lower, fix, upper)

    def test_pos_variant_conjunctive_target(self, solver):
        target = cmp("=", A, B) & cmp("<", C, D)
        fix = min_fix_pos(target, target, solver)
        assert solver.is_equiv(fix, target)


# ----------------------------------------------------------------------
# Interned bitmask prefix keys vs the tuple-keyed path
# ----------------------------------------------------------------------

PREFIX_POOL = [
    cmp("<", A, B), cmp("<", B, C), cmp("<", C, A), cmp("=", A, const(1)),
    cmp(">", A, const(3)), cmp("<=", D, E), cmp("=", D, const(2)),
    cmp(">", E, const(5)), cmp("<>", B, D), cmp("<", add(A, D), const(0)),
]
LONG_LIVED = Solver()


def _bounds(atom_ids, context_ids):
    atoms = [PREFIX_POOL[i] for i in atom_ids]
    context = [PREFIX_POOL[i] for i in context_ids]
    return conj(*atoms[:2]), disj(*atoms), context


def _tuple_keyed(self, mask, literals):
    return self._theory_ok(literals())


prefix_cases = st.tuples(
    st.lists(st.integers(0, len(PREFIX_POOL) - 1), min_size=1, max_size=6,
             unique=True),
    st.lists(st.integers(0, len(PREFIX_POOL) - 1), max_size=2),
)


@settings(max_examples=80, deadline=None)
@given(prefix_cases)
def test_bitmask_prefix_answers_match_monolithic_check(case):
    """Every DFS prefix: the interned-key answer on a long-lived solver is
    check_literals' verdict on the prefix's literal tuple."""
    lower, upper, context = _bounds(*case)
    mapping = map_atom_preds([lower, upper], LONG_LIVED, context)
    checker = _FeasibilityChecker(mapping, LONG_LIVED, context)
    if checker._literals is None:
        return  # non-literal context: the SMT session path decides
    for length in range(mapping.num_vars + 1):
        for assignment in range(1 << length):
            literals = checker._prefix_literals(assignment, length)
            expected = check_literals(literals) if literals else True
            assert checker.feasible_prefix(assignment, length) == expected


@settings(max_examples=60, deadline=None)
@given(prefix_cases)
def test_bitmask_keyed_tables_match_tuple_keyed_tables(case):
    lower, upper, context = _bounds(*case)
    solver = Solver()
    mapping = map_atom_preds([lower, upper], solver, context)
    table = build_truth_table(mapping, lower, upper, solver, context)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Solver, "prefix_ok", _tuple_keyed)
        reference_solver = Solver()
        reference = build_truth_table(
            map_atom_preds([lower, upper], reference_solver, context),
            lower, upper, reference_solver, context,
        )
    assert table.outputs == reference.outputs


def test_checker_reinterns_after_the_intern_table_resets(monkeypatch):
    monkeypatch.setattr(smt, "_INTERN_LIMIT", 8)
    solver = Solver()
    first_atoms = [cmp("<", A, B), cmp("<", B, C), cmp("<", C, A)]
    lower, upper = conj(*first_atoms[:2]), disj(*first_atoms)
    first = _FeasibilityChecker(map_atom_preds([lower, upper], solver),
                                solver, ())
    assert first.feasible_prefix(0b011, 2)
    assert not first.feasible_prefix(0b111, 3)  # A<B<C<A
    epoch = solver.intern_epoch
    # Six more literals pass the limit: the table restarts and the new
    # ids reuse the first checker's bit positions.
    other = [cmp("=", D, const(2)), cmp(">", E, const(5)), cmp("<=", D, E)]
    second = _FeasibilityChecker(map_atom_preds([disj(*other)], solver),
                                 solver, ())
    assert solver.intern_epoch == epoch + 1
    # Fill the prefix cache under the new ids, then query the first
    # checker: stale bits would collide with the second checker's keys.
    for checker in (second, first):
        for length in range(4):
            for assignment in range(1 << length):
                literals = checker._prefix_literals(assignment, length)
                expected = check_literals(literals) if literals else True
                assert checker.feasible_prefix(assignment, length) == expected


# ----------------------------------------------------------------------
# Bit-parallel bound rows vs per-row evaluation
# ----------------------------------------------------------------------

ROW_ATOMS = [cmp("<", intvar(f"x{i}"), const(i)) for i in range(10)]


def _row_formulas(num_vars):
    """Formulas over the first ``num_vars`` ROW_ATOMS: atoms, their
    negated-atom renderings, constants, NOT, AND and OR."""
    leaves = st.one_of(
        st.integers(0, num_vars - 1).map(lambda i: ROW_ATOMS[i]),
        st.integers(0, num_vars - 1).map(lambda i: ROW_ATOMS[i].negated()),
        st.sampled_from([TRUE, FALSE]),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, min_size=2, max_size=3).map(
                lambda ops: And(tuple(ops))),
            st.lists(sub, min_size=2, max_size=3).map(
                lambda ops: Or(tuple(ops))),
        ),
        max_leaves=8,
    )


@st.composite
def row_cases(draw):
    num_vars = draw(st.integers(1, 10))
    # Some atoms also map their negated rendering directly (a merged
    # complement); the rest reach it through the complement lookup.
    direct = draw(st.lists(st.booleans(), min_size=num_vars,
                           max_size=num_vars))
    polarity = {}
    for i in range(num_vars):
        polarity[ROW_ATOMS[i]] = (i, True)
        if direct[i]:
            polarity[ROW_ATOMS[i].negated()] = (i, False)
    mapping = AtomMapping(ROW_ATOMS[:num_vars], polarity)
    return mapping, draw(_row_formulas(num_vars))


def _truth(formula, assignment):
    """Ground truth over ROW_ATOMS: atom ``i`` holds iff bit ``i`` is set."""
    if formula in (TRUE, FALSE):
        return formula == TRUE
    if isinstance(formula, Comparison):
        if formula in ROW_ATOMS:
            return bool(assignment >> ROW_ATOMS.index(formula) & 1)
        return not _truth(formula.negated(), assignment)
    if isinstance(formula, Not):
        return not _truth(formula.child, assignment)
    values = [_truth(c, assignment) for c in formula.operands]
    return all(values) if isinstance(formula, And) else any(values)


@settings(max_examples=200, deadline=None)
@given(row_cases())
def test_rows_match_per_row_evaluate(case):
    mapping, formula = case
    rows = mapping.rows(formula)
    assert 0 <= rows < 1 << (1 << mapping.num_vars)
    for assignment in range(1 << mapping.num_vars):
        expected = _truth(formula, assignment)
        assert mapping.evaluate(formula, assignment) == expected
        assert bool((rows >> assignment) & 1) == expected


# ----------------------------------------------------------------------
# DFS-carried prefix keys vs per-node feasible_prefix
# ----------------------------------------------------------------------

CHURN_ATOMS = [cmp("<", D, E), cmp("<", E, F), cmp("<", F, D),
               cmp("=", D, const(0))]


class _InternChurn:
    """Stands in for a deadline: every poll (each 64 DFS nodes) interns
    another checker's literals past the intern limit, bumping
    ``intern_epoch``, and fills the prefix cache under the new ids, so a
    stale carried key would collide with that checker's entries."""

    def __init__(self, solver):
        self.solver = solver
        self.other = map_atom_preds([disj(*CHURN_ATOMS)], solver)
        self.polls = 0

    def check(self, where=""):
        self.polls += 1
        other = _FeasibilityChecker(self.other, self.solver, ())
        for length in range(len(CHURN_ATOMS) + 1):
            for assignment in range(1 << length):
                other.feasible_prefix(assignment, length)


def _per_node_table(mapping, lower, upper, solver, context):
    """BuildTruthTable's reference: a from-scratch feasible_prefix at every
    DFS node, no cores, and evaluate on every feasible leaf."""
    checker = _FeasibilityChecker(mapping, solver, context)
    table = TruthTable(mapping.num_vars)

    def dfs(index, assignment):
        if not checker.feasible_prefix(assignment, index):
            table.fill_stride(assignment, 1 << index, DONT_CARE)
            return
        if index == mapping.num_vars:
            low = mapping.evaluate(lower, assignment)
            high = mapping.evaluate(upper, assignment)
            table.set(assignment, int(low) if low == high else DONT_CARE)
            return
        dfs(index + 1, assignment)
        dfs(index + 1, assignment | (1 << index))

    dfs(0, 0)
    return table


keyed_cases = st.tuples(
    st.lists(st.integers(0, len(PREFIX_POOL) - 1), min_size=3, max_size=8,
             unique=True),
    st.lists(st.integers(0, len(PREFIX_POOL) - 1), max_size=2),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(keyed_cases)
def test_carried_key_tables_match_per_node_tables(case):
    atom_ids, context_ids, churn = case
    lower, upper, context = _bounds(atom_ids, context_ids)
    solver = Solver()
    mapping = map_atom_preds([lower, upper], solver, context)
    reference = _per_node_table(mapping, lower, upper, Solver(), context)
    if churn:
        # Every re-intern resets the table: each poll moves the epoch.
        solver_limit = max(2 * mapping.num_vars + len(context),
                           2 * len(CHURN_ATOMS))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smt, "_INTERN_LIMIT", solver_limit)
            solver.deadline = _InternChurn(solver)
            table = build_truth_table(mapping, lower, upper, solver, context)
    else:
        table = build_truth_table(mapping, lower, upper, solver, context)
    assert table.outputs == reference.outputs


def test_carried_keys_survive_intern_resets_mid_dfs(monkeypatch):
    atoms = [cmp("<", intvar(f"x{i}"), const(i)) for i in range(6)]
    atoms += [cmp(">", intvar("x0"), const(3)), cmp("<", A, B)]
    lower, upper = conj(*atoms[:3]), disj(*atoms)
    solver = Solver()
    mapping = map_atom_preds([lower, upper], solver)
    monkeypatch.setattr(smt, "_INTERN_LIMIT", 2 * mapping.num_vars)
    churn = solver.deadline = _InternChurn(solver)
    epoch = solver.intern_epoch
    table = build_truth_table(mapping, lower, upper, solver)
    assert churn.polls >= 2 and solver.intern_epoch >= epoch + 2 * churn.polls
    reference = _per_node_table(mapping, lower, upper, Solver(), ())
    assert table.outputs == reference.outputs


def test_expired_deadline_stops_the_theory_direct_dfs():
    from repro.service.deadline import Deadline, DeadlineExceeded

    atoms = [cmp("<", intvar(f"x{i}"), const(i)) for i in range(8)]
    lower, upper = conj(*atoms[:2]), disj(*atoms)
    solver = Solver()
    mapping = map_atom_preds([lower, upper], solver)
    assert _FeasibilityChecker(mapping, solver, ()).keyed
    solver.deadline = Deadline.after_ms(0.0)
    with pytest.raises(DeadlineExceeded, match="minfix"):
        build_truth_table(mapping, lower, upper, solver)
