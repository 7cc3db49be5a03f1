"""Tests for DeriveFixes (Algorithm 3) and MinFixMult (Algorithms 7/8)."""

import pytest

from repro.core.bounds import bounds_admit, create_bounds
from repro.core.derive_fixes import derive_fixes, distribute_fixes
from repro.core.derive_opt import min_fix_mult
from repro.errors import RepairError
from repro.logic.formulas import Comparison, FALSE, Not, TRUE, conj, disj
from repro.logic.paths import replace_at
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


def apply_and_check(solver, predicate, fixes, target):
    repaired = replace_at(predicate, fixes)
    assert solver.is_equiv(repaired, target), f"{repaired} != {target}"


class TestDeriveFixes:
    def test_root_site(self, solver):
        p, p_star = example5()
        fixes = derive_fixes(p, [()], p_star, solver)
        apply_and_check(solver, p, fixes, p_star)

    def test_single_atom_site(self, solver):
        # Fix A>5 in (A>5 and B=1) toward (A>=5 and B=1).
        p = cmp(">", A, const(5)) & cmp("=", B, const(1))
        p_star = cmp(">=", A, const(5)) & cmp("=", B, const(1))
        fixes = derive_fixes(p, [(0,)], p_star, solver)
        apply_and_check(solver, p, fixes, p_star)
        # The fix should be a single atom (optimal per Lemma 5.2).
        assert fixes[(0,)].size() == 1

    def test_sites_under_not(self, solver):
        p = Not(cmp(">", A, const(5)) | cmp("=", B, const(1)))
        p_star = Not(cmp(">", A, const(7)) | cmp("=", B, const(1)))
        fixes = derive_fixes(p, [(0, 0)], p_star, solver)
        apply_and_check(solver, p, fixes, p_star)

    def test_example5_three_sites_correct(self, solver):
        # Sites {x4, x10, x12}: DeriveFixes yields a correct (if suboptimal)
        # repair, per paper Example 8.
        p, p_star = example5()
        sites = [(0, 0), (1, 1, 0), (1, 1, 2)]
        lower, upper = create_bounds(p, sites)
        assert bounds_admit(solver, lower, p_star, upper)
        fixes = derive_fixes(p, sites, p_star, solver)
        apply_and_check(solver, p, fixes, p_star)

    def test_sibling_sites_merged_and_distributed(self, solver):
        # Two sites under the same OR parent (paper: handled as one site).
        p = disj(cmp("=", A, const(1)), cmp("=", B, const(2)), cmp("=", C, const(3)))
        p_star = disj(
            cmp("=", A, const(1)), cmp("=", B, const(5)), cmp("=", C, const(9))
        )
        sites = [(1,), (2,)]
        fixes = derive_fixes(p, sites, p_star, solver)
        assert set(fixes) == {(1,), (2,)}
        apply_and_check(solver, p, fixes, p_star)

    def test_conjunctive_sibling_sites(self, solver):
        p = conj(cmp("=", A, const(1)), cmp("=", B, const(2)), cmp("=", C, const(3)))
        p_star = conj(
            cmp("=", A, const(1)), cmp(">", B, const(5)), cmp("<", C, const(9))
        )
        fixes = derive_fixes(p, [(1,), (2,)], p_star, solver)
        apply_and_check(solver, p, fixes, p_star)

    def test_no_sites_returns_empty(self, solver):
        p, _ = example5()
        assert derive_fixes(p, [], p, solver) == {}


class TestDistributeFixes:
    def test_single_site_gets_whole_fix(self):
        fix = cmp("=", A, const(1)) | cmp("=", B, const(2))
        out = distribute_fixes(fix, {1: cmp("=", A, const(9))}, is_and=False)
        assert out == {1: fix}

    def test_clauses_follow_similarity(self):
        fix = disj(cmp("=", A, const(1)), cmp("=", B, const(2)))
        originals = {0: cmp("=", A, const(7)), 1: cmp("=", B, const(9))}
        out = distribute_fixes(fix, originals, is_and=False)
        assert out[0] == cmp("=", A, const(1))
        assert out[1] == cmp("=", B, const(2))

    def test_unmatched_sites_get_neutral_element(self):
        fix = cmp("=", A, const(1))
        originals = {0: cmp("=", A, const(7)), 1: cmp("=", B, const(9))}
        out = distribute_fixes(fix, originals, is_and=False)
        assert out[1] == FALSE  # neutral for OR
        out_and = distribute_fixes(fix, originals, is_and=True)
        assert out_and[1] == TRUE  # neutral for AND

    def test_union_of_distributed_equals_fix(self, solver):
        fix = disj(
            cmp("=", A, const(1)), cmp("=", B, const(2)), cmp("=", C, const(3))
        )
        originals = {0: cmp("=", A, const(0)), 1: cmp("=", C, const(0))}
        out = distribute_fixes(fix, originals, is_and=False)
        assert solver.is_equiv(disj(*out.values()), fix)


class TestMinFixMult:
    def test_example5_optimal_fixes(self, solver):
        # Appendix C.2: DeriveFixesOPT finds A=B / D>10 / E<5 (or the
        # equivalent 2-site split); fixes must be correct and small.
        p, p_star = example5()
        sites = [(0, 0), (1, 1, 0), (1, 1, 2)]
        fixes = min_fix_mult(p, sites, p_star, p_star, solver)
        apply_and_check(solver, p, fixes, p_star)
        total_fix_size = sum(f.size() for f in fixes.values())
        assert total_fix_size <= 3  # the optimal fixes are three atoms

    def test_paper_example_15_17(self, solver):
        # P* = a=1 or (b=2 and c=3); P = c=3 or (b=2 and a=1);
        # repair sites are the atoms c=3 and a=1; optimal fixes swap them.
        a1 = cmp("=", A, const(1))
        b2 = cmp("=", B, const(2))
        c3 = cmp("=", C, const(3))
        p_star = disj(a1, conj(b2, c3))
        p = disj(c3, conj(b2, a1))
        fixes = min_fix_mult(p, [(0,), (1, 1)], p_star, p_star, solver)
        apply_and_check(solver, p, fixes, p_star)
        assert fixes[(0,)].size() == 1
        assert fixes[(1, 1)].size() == 1

    def test_single_site_matches_derive_fixes(self, solver):
        p = cmp(">", A, const(5)) & cmp("=", B, const(1))
        p_star = cmp(">=", A, const(5)) & cmp("=", B, const(1))
        fixes = min_fix_mult(p, [(0,)], p_star, p_star, solver)
        apply_and_check(solver, p, fixes, p_star)

    def test_inviable_sites_raise(self, solver):
        p = conj(cmp("=", A, const(1)), cmp("=", B, const(2)))
        p_star = disj(cmp("=", A, const(5)), cmp("=", C, const(1)))
        with pytest.raises(RepairError):
            min_fix_mult(p, [(0,)], p_star, p_star, solver)


# ----------------------------------------------------------------------
# Bit-parallel InitFeasibility rows vs per-row _eval_with_sites
# ----------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.derive_opt import (  # noqa: E402
    _eval_with_sites,
    _merge_sibling_sites,
    _rows_with_sites,
)
from repro.core.minfix import AtomMapping  # noqa: E402
from repro.logic.formulas import And, Or  # noqa: E402
from repro.logic.paths import disjoint_path_sets, repairable_paths  # noqa: E402

SITE_ATOMS = [cmp("<", intvar(f"y{i}"), const(i)) for i in range(6)]

site_predicates = st.recursive(
    st.one_of(st.sampled_from(SITE_ATOMS), st.sampled_from([TRUE, FALSE])),
    lambda sub: st.one_of(
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(lambda ops: And(tuple(ops))),
        st.lists(sub, min_size=2, max_size=3).map(lambda ops: Or(tuple(ops))),
    ),
    max_leaves=8,
)


@st.composite
def site_cases(draw):
    predicate = draw(site_predicates)
    size = draw(st.integers(1, 3))
    site_sets = list(disjoint_path_sets(repairable_paths(predicate), size))
    if not site_sets:
        site_sets = [((),)]
    paths = draw(st.sampled_from(site_sets))
    return predicate, _merge_sibling_sites(predicate, list(paths))


@settings(max_examples=200, deadline=None)
@given(site_cases())
def test_site_rows_match_per_row_eval(case):
    predicate, sites = case
    mapping = AtomMapping(
        SITE_ATOMS, {atom: (i, True) for i, atom in enumerate(SITE_ATOMS)})
    full = (1 << (1 << mapping.num_vars)) - 1
    for s_assign in range(1 << len(sites)):
        rows = _rows_with_sites(predicate, (), sites, mapping, s_assign, full)
        for a_assign in range(1 << mapping.num_vars):
            assert bool((rows >> a_assign) & 1) == _eval_with_sites(
                predicate, (), sites, mapping, a_assign, s_assign)
