"""Tests for RepairWhere (Algorithm 1) and the cost model (Definitions 2/3)."""

from fractions import Fraction

import pytest

from repro.core.cost import Repair, repair_cost, site_count_cost
from repro.core.where_repair import repair_where, verify_repair
from repro.logic.formulas import Comparison, conj, disj
from repro.logic.terms import const, intvar

A, B, C, D, E, F = (intvar(x) for x in "ABCDEF")


def cmp(op, lhs, rhs):
    return Comparison(op, lhs, rhs)


def example5():
    p_star = (cmp("=", A, C) & (cmp("<", E, const(5)) | cmp(">", D, const(10)) | cmp("<", D, const(7)))) | (
        cmp("=", A, B) & (cmp("<>", D, E) | cmp(">", D, F))
    )
    p = (cmp("=", A, C) & (cmp("<>", D, E) | cmp(">", D, F))) | (
        cmp("=", A, C)
        & (cmp(">", D, const(11)) | cmp("<", D, const(7)) | cmp("<=", E, const(5)))
    )
    return p, p_star


class TestCostModel:
    def test_example6_three_site_cost(self):
        # Example 6: sites (x4, x10, x12) with atomic fixes cost 0.75.
        p, p_star = example5()
        repair = Repair.of(
            {
                (0, 0): cmp("=", A, B),
                (1, 1, 0): cmp(">", D, const(10)),
                (1, 1, 2): cmp("<", E, const(5)),
            }
        )
        assert repair_cost(repair, p, p_star) == pytest.approx(0.75)

    def test_example6_trivial_root_repair_cost(self):
        p, p_star = example5()
        repair = Repair.of({(): p_star})
        assert repair_cost(repair, p, p_star) == pytest.approx(1 / 6 + 1.0)

    def test_example6_two_site_cost(self):
        # Sites (x5, x3) with the larger fixes: cost 2w + (4+3+5+6)/24.
        p, p_star = example5()
        fix_x5 = disj(
            cmp("<", E, const(5)), cmp(">", D, const(10)), cmp("<", D, const(7))
        )
        fix_x3 = cmp("=", A, B) & (cmp("<>", D, E) | cmp(">", D, F))
        repair = Repair.of({(0, 1): fix_x5, (1,): fix_x3})
        expected = 2 * (1 / 6) + ((3 + 4) + (6 + 5)) / 24  # ~1.08 in the paper
        assert repair_cost(repair, p, p_star) == pytest.approx(expected)

    def test_site_count_cost(self):
        assert site_count_cost(3) == pytest.approx(0.5)

    def test_repair_apply(self):
        p, _ = example5()
        repair = Repair.of({(0, 0): cmp("=", A, B)})
        assert repair.apply(p).atoms()[0] == cmp("=", A, B)

    def test_custom_weight(self):
        p, p_star = example5()
        repair = Repair.of({(): p_star})
        high = repair_cost(repair, p, p_star, weight=Fraction(1))
        low = repair_cost(repair, p, p_star, weight=Fraction(1, 100))
        assert high > low


class TestRepairWhere:
    def test_equivalent_inputs_trivial(self, solver):
        p = cmp("=", A, B) & cmp("<", C, const(5))
        p_star = cmp("<", C, const(5)) & cmp("=", B, A)
        result = repair_where(p, p_star, solver=solver)
        # A zero-distance repair may be found, but the first viable repair
        # should cost at most a single small site.
        assert result.found
        assert result.cost <= 1.0

    def test_single_error_conjunctive(self, solver):
        p = conj(cmp("=", A, B), cmp(">", C, const(5)), cmp("<", D, E))
        p_star = conj(cmp("=", A, B), cmp(">", C, const(9)), cmp("<", D, E))
        result = repair_where(p, p_star, solver=solver)
        assert result.found
        assert len(result.repair) == 1
        assert verify_repair(p, p_star, result.repair, solver)

    def test_two_errors_conjunctive(self, solver):
        p = conj(cmp("=", A, B), cmp(">", C, const(5)), cmp("<", D, E))
        p_star = conj(cmp("<>", A, B), cmp(">", C, const(5)), cmp("<=", D, E))
        result = repair_where(p, p_star, max_sites=2, solver=solver)
        assert result.found
        assert len(result.repair) == 2
        assert verify_repair(p, p_star, result.repair, solver)

    def test_optimized_beats_or_ties_plain(self, solver):
        p, p_star = example5()
        plain = repair_where(p, p_star, max_sites=3, solver=solver)
        optimized = repair_where(
            p, p_star, max_sites=3, optimized=True, solver=solver
        )
        assert optimized.cost <= plain.cost
        assert verify_repair(p, p_star, optimized.repair, solver)

    def test_missing_conjunct_repair(self, solver):
        # The working query lacks a join condition entirely.
        p = conj(cmp("=", A, const(1)), cmp(">", C, const(0)))
        p_star = conj(cmp("=", A, const(1)), cmp(">", C, const(0)), cmp("=", B, D))
        result = repair_where(p, p_star, solver=solver)
        assert result.found
        assert verify_repair(p, p_star, result.repair, solver)

    def test_trace_is_recorded(self, solver):
        p, p_star = example5()
        result = repair_where(p, p_star, max_sites=2, solver=solver)
        assert result.trace
        assert result.first_viable_elapsed is not None
        assert result.first_viable_elapsed <= result.elapsed
        # Trace entries are (time, cost) pairs in time order.
        times = [entry.elapsed for entry in result.trace]
        assert times == sorted(times)

    def test_best_cost_is_minimum_of_trace(self, solver):
        p, p_star = example5()
        result = repair_where(p, p_star, max_sites=2, solver=solver)
        assert result.cost == pytest.approx(min(e.cost for e in result.trace))

    def test_transitivity_no_spurious_repair(self, solver):
        # Likes.beer=s2.beer vs S1.beer=S2.beer under transitive equality
        # (Example 1): the predicates are equivalent, no repair needed.
        p = conj(cmp("=", A, B), cmp("=", A, C))
        p_star = conj(cmp("=", A, B), cmp("=", B, C))
        assert solver.is_equiv(p, p_star)

    def test_max_sites_respected(self, solver):
        p = conj(
            cmp("=", A, const(1)), cmp("=", B, const(2)), cmp("=", C, const(3))
        )
        p_star = conj(
            cmp("=", A, const(9)), cmp("=", B, const(8)), cmp("=", C, const(7))
        )
        result = repair_where(p, p_star, max_sites=1, solver=solver)
        assert result.found
        assert len(result.repair) == 1  # forced into one (larger) site
        assert verify_repair(p, p_star, result.repair, solver)


def test_site_sets_skipped_on_derive_failure_are_counted(monkeypatch):
    """A site set whose MinFix exceeds the atom budget is skipped, and the
    skip shows on the result, in the effort delta and in the journal."""
    from repro.core import minfix
    from repro.obs import JOURNAL, EffortMeter
    from repro.solver import Solver

    target = conj(cmp(">", A, const(3)),
                  disj(cmp("<", B, const(5)), cmp("=", C, const(1))))
    predicate = conj(cmp(">", A, const(4)),
                     disj(cmp("<", B, const(5)), cmp("=", C, const(2))))
    solver = Solver()
    clean = repair_where(predicate, target, solver=solver)
    assert clean.derive_failures == {}
    assert solver.stats["derive_failures"] == 0

    # Only the site set {A > 4, B < 5} needs a 4-atom MinFix.
    monkeypatch.setattr(minfix, "MAX_UNIQUE_ATOMS", 3)
    before = {e["seq"] for e in JOURNAL.tail()}
    solver = Solver()
    with EffortMeter(solver) as meter:
        result = repair_where(predicate, target, solver=solver)
    assert result.derive_failures == {"SolverLimitError": 1}
    assert meter.delta["derive_failures"] == 1
    events = [e for e in JOURNAL.tail()
              if e["kind"] == "where.derive_failed" and e["seq"] not in before]
    assert [(e["error"], e["sites"]) for e in events] == [
        ("SolverLimitError", 2)]
    # The other site sets still yield the same repair here.
    assert result.found and result.repair == clean.repair
