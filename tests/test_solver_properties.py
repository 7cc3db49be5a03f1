"""Property-based tests: the SMT solver against brute-force evaluation.

Random small formulas over bounded integer domains are checked: whenever
the solver says UNSAT, exhaustive enumeration must find no model; whenever
it says SAT and the formula is within the complete fragment, enumeration
over a modest domain usually finds one (we only assert the sound
direction, which is the one Qr-Hint's correctness relies on).
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.logic.evaluate import eval_formula
from repro.logic.formulas import Comparison, conj, disj, neg
from repro.logic.terms import add, const, intvar, mul, strvar
from repro.solver import Solver
from repro.solver.atoms import canonicalize
from repro.solver.theory import check_literals, components

VARS = [intvar("x"), intvar("y"), intvar("z")]
OPS = ["=", "<>", "<", "<=", ">", ">="]

atom_strategy = st.builds(
    lambda op, vi, rhs_kind, vj, k: Comparison(
        op,
        VARS[vi],
        VARS[vj] if rhs_kind else add(VARS[vj], const(k)) if k else const(k),
    ),
    st.sampled_from(OPS),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 2),
    st.integers(-2, 2),
)


def formula_strategy(depth=2):
    if depth == 0:
        return atom_strategy
    sub = formula_strategy(depth - 1)
    return st.one_of(
        atom_strategy,
        st.builds(lambda a, b: conj(a, b), sub, sub),
        st.builds(lambda a, b: disj(a, b), sub, sub),
        st.builds(neg, sub),
    )


def brute_force_satisfiable(formula, domain=range(-3, 4)):
    names = sorted({v.name for v in formula.variables()})
    if not names:
        return eval_formula(formula, {})
    for values in itertools.product(domain, repeat=len(names)):
        env = {n: Fraction(v) for n, v in zip(names, values)}
        if eval_formula(formula, env):
            return True
    return False


SOLVER = Solver()


@settings(max_examples=150, deadline=None)
@given(formula_strategy())
def test_unsat_verdicts_are_sound(formula):
    """If the solver reports UNSAT, brute force must find no model."""
    if SOLVER.is_unsatisfiable(formula):
        assert not brute_force_satisfiable(formula)


@settings(max_examples=150, deadline=None)
@given(formula_strategy())
def test_brute_force_models_imply_sat(formula):
    """If enumeration finds a model, the solver must agree it is SAT."""
    if brute_force_satisfiable(formula):
        assert SOLVER.is_satisfiable(formula)


@settings(max_examples=100, deadline=None)
@given(formula_strategy(depth=1), formula_strategy(depth=1))
def test_equivalence_agrees_with_brute_force(left, right):
    """Solver equivalence implies pointwise agreement on a finite domain."""
    if not SOLVER.is_equiv(left, right):
        return
    names = sorted(
        {v.name for v in left.variables()} | {v.name for v in right.variables()}
    )
    for values in itertools.product(range(-3, 4), repeat=len(names)):
        env = {n: Fraction(v) for n, v in zip(names, values)}
        assert eval_formula(left, env) == eval_formula(right, env)


@settings(max_examples=100, deadline=None)
@given(formula_strategy(depth=1))
def test_negation_flips_validity(formula):
    """valid(f) iff unsat(not f)."""
    assert SOLVER.is_valid(formula) == SOLVER.is_unsatisfiable(neg(formula))


@settings(max_examples=60, deadline=None)
@given(formula_strategy(depth=1), formula_strategy(depth=1))
def test_conjunction_unsat_propagates(left, right):
    """If a conjunct is UNSAT, the conjunction must be too."""
    if SOLVER.is_unsatisfiable(left):
        assert SOLVER.is_unsatisfiable(conj(left, right))


# ----------------------------------------------------------------------
# Per-component theory memo vs one monolithic theory check
# ----------------------------------------------------------------------

X, Y, Z, W = (intvar(n) for n in "xyzw")
S, T, U = (strvar(n) for n in "stu")

LITERAL_POOL = [
    canonicalize(Comparison(op, lhs, rhs))
    for op, lhs, rhs in [
        ("<", X, Y), ("<=", Y, Z), ("=", X, const(1)), (">", Z, const(3)),
        ("<", W, const(0)), ("=", add(W, X), const(2)), ("<>", Y, const(2)),
        ("=", S, const("a")), ("=", T, const("a")), ("=", S, T),
        ("=", U, const("b")), ("LIKE", U, const("a%")), ("LIKE", T, const("a")),
        # Opaque atoms: a non-constant LIKE pattern and a non-linear term.
        ("LIKE", S, U), (">", mul(X, Z), const(1)),
    ]
]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, len(LITERAL_POOL) - 1), st.booleans()),
    max_size=9,
))
def test_component_memo_agrees_with_monolithic_check(picks):
    """Differential: the split, memoised check on a long-lived solver
    gives check_literals' verdict on the whole set."""
    literals = tuple(
        (LITERAL_POOL[i].atom, LITERAL_POOL[i].positive == positive)
        for i, positive in picks
    )
    assert SOLVER._theory_ok(literals) == check_literals(literals)
    assert Solver()._theory_ok(literals) == check_literals(literals)


def _literal(op, lhs, rhs, positive=True):
    lit = canonicalize(Comparison(op, lhs, rhs))
    return (lit.atom, lit.positive == positive)


def test_shared_string_constant_links_components():
    """x='a', y='a', x<>y: split apart, each part is SAT; joined, UNSAT."""
    literals = (
        _literal("=", S, const("a")),
        _literal("=", T, const("a")),
        _literal("=", S, T, positive=False),
    )
    assert components(literals[:2]) == [literals[:2]]
    assert not check_literals(literals)
    assert not Solver()._theory_ok(literals)


def test_opaque_atom_with_both_polarities_stays_together():
    opaque = _literal("LIKE", S, U)
    literals = (opaque, _literal("<", X, Y), (opaque[0], not opaque[1]))
    assert components(literals) == [
        (literals[0], literals[2]), (literals[1],),
    ]
    assert not Solver()._theory_ok(literals)


def test_disjoint_literals_are_memoised_per_component():
    solver = Solver()
    x_part = (_literal("<", X, const(1)), _literal(">", X, const(-1)))
    z_part = (_literal("=", Z, const(4)),)
    assert solver._theory_ok(x_part + z_part)
    calls = solver.stats["theory_calls"]
    assert calls == 2  # one check per component
    # A new set sharing the x component only checks its new component.
    assert solver._theory_ok(x_part + (_literal("=", W, const(5)),))
    assert solver.stats["theory_calls"] == calls + 1


# ----------------------------------------------------------------------
# Per-solver canonicalize memo vs plain canonicalize
# ----------------------------------------------------------------------

from repro.logic.terms import floatvar  # noqa: E402

CANON_OPS = ["=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE"]
canon_sides = st.one_of(
    st.sampled_from(VARS + [floatvar("f"), strvar("s"), strvar("t")]),
    st.integers(-3, 3).map(const),
    st.sampled_from(["a%", "abc", "b_"]).map(const),
    st.builds(add, st.sampled_from(VARS), st.integers(-2, 2).map(const)),
    st.builds(mul, st.sampled_from(VARS), st.sampled_from(VARS)),
)
canon_comparisons = st.builds(
    Comparison, st.sampled_from(CANON_OPS), canon_sides, canon_sides
)


@settings(max_examples=300, deadline=None)
@given(st.lists(canon_comparisons, min_size=1, max_size=12),
       st.integers(1, 6))
def test_canonicalize_memo_agrees_with_plain_canonicalize(comparisons, limit):
    """Cold, warm and past-eviction answers all equal the plain function."""
    solver = Solver()
    solver._canon_cache.limit = limit
    for _ in range(2):
        for comparison in comparisons:
            assert solver.canonicalize(comparison) == canonicalize(comparison)
    assert len(solver._canon_cache) <= limit
