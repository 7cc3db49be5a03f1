"""``MinFixMult`` / DeriveFixesOPT (Appendix C.2, Algorithms 7 and 8).

The independent target-bound derivation of ``DeriveFixes`` can leave
semantic overlap between sibling fixes.  ``MinFixMult`` instead fixes all
repair sites *holistically*: sibling sites sharing an AND/OR parent are
first merged into a single combined site (as in ``DeriveFixes``); every
combined site is replaced by a fresh Boolean variable; a feasibility map
describes -- per truth assignment of the unaffected atoms -- which site
truth-value combinations keep the predicate consistent with the target;
sites are then fixed greedily (most-constrained first), each minimized
with the accumulated flexibility as don't-cares, and combined-site fixes
are distributed back to their member sites by syntactic similarity.
"""

from __future__ import annotations

from repro.boolmin import DONT_CARE, TruthTable, min_bool_exp
from repro.core.derive_fixes import distribute_fixes
from repro.core.minfix import build_truth_table, map_atom_preds
from repro.errors import RepairError, SolverLimitError
from repro.logic.formulas import And, BoolConst, Comparison, Not, Or
from repro.logic.paths import node_at

MAX_TOTAL_VARS = 18

IRRELEVANT = "*"


class _Site:
    """A holistic repair unit: one path, or sibling paths under one parent."""

    def __init__(self, paths, parent_op=None):
        self.paths = sorted(paths)
        self.parent_op = parent_op  # "and" | "or" | None for single sites

    @property
    def is_group(self):
        return len(self.paths) > 1


def _merge_sibling_sites(predicate, paths):
    """Group sites sharing an AND/OR parent into combined sites."""
    by_parent = {}
    for path in paths:
        parent = path[:-1] if path else None
        by_parent.setdefault(parent, []).append(path)
    sites = []
    for parent, members in sorted(by_parent.items(), key=lambda kv: kv[1][0]):
        if parent is None or len(members) == 1:
            sites.extend(_Site([m]) for m in members)
            continue
        parent_node = node_at(predicate, parent)
        if isinstance(parent_node, And):
            sites.append(_Site(members, "and"))
        elif isinstance(parent_node, Or):
            sites.append(_Site(members, "or"))
        else:
            sites.extend(_Site([m]) for m in members)
    return sites


def min_fix_mult(predicate, paths, lower, upper, solver, context=()):
    """Compute fixes for all site ``paths`` holistically (Algorithm 7).

    Returns {path: fix_formula}.  Precondition: the sites are viable for
    the bound (checked via ``CreateBounds`` by the caller).
    """
    sites = _merge_sibling_sites(predicate, list(paths))
    outside_atoms = _atoms_outside(predicate, [p for s in sites for p in s.paths])
    mapping = map_atom_preds([*outside_atoms, lower, upper], solver, context)
    num_a = mapping.num_vars
    num_s = len(sites)
    if num_a + num_s > MAX_TOTAL_VARS:
        raise SolverLimitError(
            f"MinFixMult over {num_a}+{num_s} variables exceeds the budget"
        )

    target_table = build_truth_table(mapping, lower, upper, solver, context)
    feasibility = _init_feasibility(predicate, sites, mapping, target_table, num_s)

    site_fixes = {}
    remaining = list(range(num_s))
    while remaining:
        index, site_table = _pick_site(feasibility, remaining, num_a)
        fix = min_bool_exp(site_table, mapping.atoms)
        site_fixes[index] = fix
        feasibility = _update_feasibility(feasibility, index, fix, mapping)
        remaining.remove(index)

    fixes = {}
    for index, site in enumerate(sites):
        fix = site_fixes[index]
        if not site.is_group:
            fixes[site.paths[0]] = fix
            continue
        originals = {path: node_at(predicate, path) for path in site.paths}
        distributed = distribute_fixes(
            fix,
            {path: originals[path] for path in site.paths},
            is_and=(site.parent_op == "and"),
        )
        fixes.update(distributed)
    return fixes


def _atoms_outside(predicate, paths):
    """Atomic formulas of ``predicate`` not under any repair site."""
    out = []

    def walk(node, path):
        if path in paths:
            return
        if isinstance(node, Comparison):
            out.append(node)
            return
        for i, child in enumerate(node.children()):
            walk(child, path + (i,))

    walk(predicate, ())
    return out


def _eval_with_sites(node, path, sites, mapping, a_assign, s_assign):
    """Evaluate the predicate with (possibly merged) sites as variables.

    The per-row reference for :func:`_rows_with_sites`.
    """
    for index, site in enumerate(sites):
        if path in site.paths and not site.is_group:
            return bool(s_assign & (1 << index))
    if isinstance(node, BoolConst):
        return node.value
    if isinstance(node, Comparison):
        return mapping.evaluate(node, a_assign)
    if isinstance(node, Not):
        return not _eval_with_sites(
            node.child, path + (0,), sites, mapping, a_assign, s_assign
        )
    if isinstance(node, (And, Or)):
        is_and = isinstance(node, And)
        values = []
        group_done = set()
        for i, child in enumerate(node.children()):
            child_path = path + (i,)
            member_of = None
            for index, site in enumerate(sites):
                if site.is_group and child_path in site.paths:
                    member_of = index
                    break
            if member_of is not None:
                if member_of not in group_done:
                    group_done.add(member_of)
                    values.append(bool(s_assign & (1 << member_of)))
                continue
            values.append(
                _eval_with_sites(child, child_path, sites, mapping, a_assign, s_assign)
            )
        return all(values) if is_and else any(values)
    raise TypeError(f"unexpected node {node!r}")


def _rows_with_sites(node, path, sites, mapping, s_assign, full):
    """:func:`_eval_with_sites` under every atom assignment at once.

    Returns an int with bit ``a`` set iff the predicate holds under atom
    assignment ``a`` and site assignment ``s_assign`` (see
    :meth:`~repro.core.minfix.AtomMapping.rows`); ``full`` has every row
    bit set.
    """
    for index, site in enumerate(sites):
        if path in site.paths and not site.is_group:
            return full if s_assign & (1 << index) else 0
    if isinstance(node, (BoolConst, Comparison)):
        return mapping.rows(node)
    if isinstance(node, Not):
        return full ^ _rows_with_sites(
            node.child, path + (0,), sites, mapping, s_assign, full
        )
    if isinstance(node, (And, Or)):
        is_and = isinstance(node, And)
        out = full if is_and else 0
        group_done = set()
        for i, child in enumerate(node.children()):
            child_path = path + (i,)
            member_of = None
            for index, site in enumerate(sites):
                if site.is_group and child_path in site.paths:
                    member_of = index
                    break
            if member_of is not None:
                if member_of in group_done:
                    continue
                group_done.add(member_of)
                value = full if s_assign & (1 << member_of) else 0
            else:
                value = _rows_with_sites(
                    child, child_path, sites, mapping, s_assign, full
                )
            out = out & value if is_and else out | value
        return out
    raise TypeError(f"unexpected node {node!r}")


def _init_feasibility(predicate, sites, mapping, target_table, num_s):
    """Algorithm 8, ``InitFeasibility``.

    The predicate is evaluated bit-parallel over the atom assignments,
    once per site assignment (``_eval_with_sites`` is the per-row
    reference).
    """
    full = (1 << (1 << mapping.num_vars)) - 1
    site_rows = [
        _rows_with_sites(predicate, (), sites, mapping, s_assign, full)
        for s_assign in range(2**num_s)
    ]
    feasibility = {}
    for a_assign in range(2**mapping.num_vars):
        target = target_table.output(a_assign)
        if target == DONT_CARE:
            feasibility[a_assign] = IRRELEVANT
            continue
        options = {
            s_assign
            for s_assign, rows in enumerate(site_rows)
            if (rows >> a_assign) & 1 == target
        }
        if not options:
            raise RepairError(
                "no feasible site assignment for a required truth row; "
                "the candidate repair sites are not viable"
            )
        feasibility[a_assign] = options
    return feasibility


def _pick_site(feasibility, remaining, num_a):
    """Algorithm 8, ``PickSite``: most-constrained site first."""
    scores = {i: 0.0 for i in remaining}
    for a_assign in range(2**num_a):
        options = feasibility[a_assign]
        if options == IRRELEVANT:
            continue
        total = len(options)
        for i in remaining:
            ones = sum(1 for u in options if u & (1 << i))
            scores[i] += abs(ones / total - 0.5)
    chosen = max(remaining, key=lambda i: scores[i])

    table = TruthTable(num_a)
    for a_assign in range(2**num_a):
        options = feasibility[a_assign]
        if options == IRRELEVANT:
            table.set(a_assign, DONT_CARE)
            continue
        values = {1 if u & (1 << chosen) else 0 for u in options}
        if len(values) == 1:
            table.set(a_assign, values.pop())
        else:
            table.set(a_assign, DONT_CARE)
    return chosen, table


def _update_feasibility(feasibility, index, fix_formula, mapping):
    """Algorithm 8, ``UpdateFeasibility``: wire site ``index`` to its fix."""
    fix_rows = mapping.rows(fix_formula)
    updated = {}
    for a_assign, options in feasibility.items():
        if options == IRRELEVANT:
            updated[a_assign] = IRRELEVANT
            continue
        value = bool((fix_rows >> a_assign) & 1)
        narrowed = {u for u in options if bool(u & (1 << index)) == value}
        if not narrowed:
            raise RepairError("feasibility collapsed while wiring a site fix")
        updated[a_assign] = narrowed
    return updated
