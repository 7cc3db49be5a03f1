"""Theory consistency checking for conjunctions of canonical literals.

The lazy SMT loop hands this module a full truth assignment over the
canonical atoms; we dispatch the numeric literals to the Fourier-Motzkin
solver and the string literals to the union-find/LIKE solver.  Opaque atoms
are unconstrained and always consistent.

:func:`components` splits a literal set into groups that share no
variable; the conjunction is consistent iff every group is, which lets the
SMT facade memoise each group on its own.

:func:`find_model` runs the same dispatch but asks each theory for a
concrete assignment; the merged term valuation (plus a completeness flag
that records whether opaque atoms were ignored) backs the counterexample
witness subsystem.
"""

from __future__ import annotations

from repro.logic.terms import Const
from repro.solver import arith, strings
from repro.solver.arith import Constraint, EQ, LE, LT


def _partition(literals):
    """Split literals into per-theory constraint lists.

    Returns ``(numeric_constraints, numeric_disequalities, string_equalities,
    string_disequalities, string_likes, opaque_count)``, or None when the
    same atom is asserted with both polarities.
    """
    polarity_seen = {}
    for atom, positive in literals:
        if polarity_seen.setdefault(atom, positive) != positive:
            return None  # the same atom asserted both ways

    numeric_constraints = []
    numeric_disequalities = []
    string_equalities = []
    string_disequalities = []
    string_likes = []
    opaque_count = 0

    for atom, positive in literals:
        kind = atom.kind
        if kind == "num_le":
            expr = atom.payload
            if positive:
                numeric_constraints.append(Constraint(expr, LE))
            else:
                numeric_constraints.append(Constraint(expr.negate(), LT))
        elif kind == "num_eq":
            expr = atom.payload
            if positive:
                numeric_constraints.append(Constraint(expr, EQ))
            else:
                numeric_disequalities.append(expr)
        elif kind == "str_eq":
            pair = atom.payload
            if positive:
                string_equalities.append(pair)
            else:
                string_disequalities.append(pair)
        elif kind == "str_like":
            term, pattern = atom.payload
            string_likes.append((term, pattern, positive))
        elif kind == "opaque":
            opaque_count += 1
        else:
            raise ValueError(f"unknown atom kind {kind!r}")
    return (
        numeric_constraints,
        numeric_disequalities,
        string_equalities,
        string_disequalities,
        string_likes,
        opaque_count,
    )


def _atom_nodes(atom):
    """What an atom can share with another: its terms, its string constants
    (by value), or -- for an opaque atom -- only itself."""
    kind = atom.kind
    if kind in ("num_le", "num_eq"):
        return [term for term, _ in atom.payload.coeffs]
    if kind == "str_eq":
        return [
            ("str", side.value) if isinstance(side, Const) else side
            for side in atom.payload
        ]
    if kind == "str_like":
        term, pattern = atom.payload
        if "%" in pattern or "_" in pattern:
            return [term]
        return [term, ("str", pattern)]  # a wildcard-free LIKE is an equality
    return [atom]


def components(literals):
    """Split (Atom, positive) pairs into variable-disjoint groups.

    Two literals share a group when their atoms are linked by a chain of
    shared nodes (see :func:`_atom_nodes`); an atom asserted with both
    polarities therefore stays in one group.  Each group keeps the input
    order, and groups are listed by their first literal.
    """
    parent = list(range(len(literals)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner = {}
    for i, (atom, _) in enumerate(literals):
        for node in _atom_nodes(atom):
            j = owner.setdefault(node, i)
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, literal in enumerate(literals):
        groups.setdefault(find(i), []).append(literal)
    return [tuple(group) for group in groups.values()]


def check_literals(literals):
    """Return True iff the conjunction of (Atom, positive) pairs is SAT."""
    parts = _partition(literals)
    if parts is None:
        return False
    (numeric_constraints, numeric_disequalities, string_equalities,
     string_disequalities, string_likes, _) = parts

    if numeric_constraints or numeric_disequalities:
        if not arith.is_satisfiable(numeric_constraints, numeric_disequalities):
            return False
    if string_equalities or string_disequalities or string_likes:
        if not strings.check_strings(
            string_equalities, string_disequalities, string_likes
        ):
            return False
    return True


def find_model(literals):
    """A concrete valuation realizing the literal conjunction, or None.

    Returns ``(values, complete)`` where ``values`` maps base terms (Vars,
    AggCalls, string terms) to Fractions/strings and ``complete`` is False
    when opaque atoms were present (they are ignored, so the valuation does
    not guarantee them -- callers must verify end to end).
    """
    parts = _partition(literals)
    if parts is None:
        return None
    (numeric_constraints, numeric_disequalities, string_equalities,
     string_disequalities, string_likes, opaque_count) = parts

    values = {}
    if numeric_constraints or numeric_disequalities:
        numeric = arith.find_model(numeric_constraints, numeric_disequalities)
        if numeric is None:
            return None
        values.update(numeric)
    if string_equalities or string_disequalities or string_likes:
        stringy = strings.find_model(
            string_equalities, string_disequalities, string_likes
        )
        if stringy is None:
            return None
        values.update(stringy)
    return values, opaque_count == 0
