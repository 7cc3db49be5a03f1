"""Per-layer attribution for the traced run.

The benchmark wraps the public functions of each layer at the name its
consumer imported (``repro.core.pipeline.repair_where``, not
``repro.core.where_repair.repair_where``), so the wrapper sits exactly on
the call edge between two layers.  Nothing under ``src/`` changes and the
program's own ``TRACER`` stays off: a traced run differs from an untraced
one only by these wrappers.

Each wrapped call records one span ``[layer, start, end, parent, error]``
in memory.  A span is opened only when no span of the same layer is open,
so nested calls inside one layer (``Solver.is_equiv`` -> ``is_valid`` ->
``is_unsatisfiable``) count once, at the outermost call.  Self time is a
span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

from repro.boolmin import DONT_CARE

WIDE, NARROW, CLASSROOM = "wide-where", "narrow-tutor", "classroom"
ALL = (WIDE, NARROW, CLASSROOM)

#: ``(layer, consumer module, attribute, workloads meant to fire it)``.
#: A wrapper that never fires on one of its workloads fails the traced run,
#: so renaming a function cannot silently unmeasure its layer.
TARGETS = (
    ("service.session", "repro.service.session", "AssignmentSession.grade", ALL),
    ("service.session.prepare", "repro.service.session",
     "AssignmentSession.prepare", ALL),
    ("sqlparser", "repro.service.session", "parse_query_extended", ALL),
    ("witness", "repro.service.session", "generate_witness", (NARROW, CLASSROOM)),
    ("core.pipeline", "repro.core.pipeline", "QrHint.run", ALL),
    ("core.from_stage", "repro.core.pipeline", "check_from", ALL),
    ("core.from_stage", "repro.core.pipeline", "apply_from_fix", (WIDE, NARROW)),
    ("core.table_mapping", "repro.core.pipeline", "unify_target", ALL),
    ("core.where_repair", "repro.core.pipeline", "repair_where", (WIDE, NARROW)),
    ("core.bounds", "repro.core.where_repair", "create_bounds", (WIDE, NARROW)),
    ("core.bounds", "repro.core.where_repair", "bounds_admit", (WIDE, NARROW)),
    ("core.derive", "repro.core.where_repair", "derive_fixes", (WIDE, NARROW)),
    ("core.derive", "repro.core.where_repair", "min_fix_mult", (WIDE,)),
    ("core.minfix", "repro.core.derive_fixes", "min_fix", (WIDE, NARROW)),
    ("core.minfix.map_atom_preds", "repro.core.minfix", "map_atom_preds",
     (WIDE, NARROW)),
    ("core.minfix.map_atom_preds", "repro.core.derive_opt", "map_atom_preds",
     (WIDE,)),
    ("core.minfix.truth_table", "repro.core.minfix", "build_truth_table",
     (WIDE, NARROW)),
    ("core.minfix.truth_table", "repro.core.derive_opt", "build_truth_table",
     (WIDE,)),
    ("boolmin.primes", "repro.boolmin.minimize", "prime_implicants",
     (WIDE, NARROW)),
    ("boolmin.cover", "repro.boolmin.minimize", "select_cover", (WIDE, NARROW)),
    ("core.groupby_stage", "repro.core.pipeline", "fix_grouping", (WIDE, NARROW)),
    ("core.groupby_stage", "repro.core.pipeline", "apply_grouping_fix",
     (NARROW,)),
    ("core.having_stage", "repro.core.pipeline", "analyze_having", (WIDE, NARROW)),
    ("core.having_stage", "repro.core.pipeline", "having_equivalent",
     (WIDE, NARROW)),
    ("core.having_stage", "repro.core.pipeline", "repair_having", (NARROW,)),
    ("core.select_stage", "repro.core.pipeline", "fix_select", ALL),
    ("core.select_stage", "repro.core.pipeline", "apply_select_fix", (NARROW,)),
    ("solver.smt", "repro.solver.smt", "Solver.is_satisfiable", (WIDE, NARROW)),
    ("solver.smt", "repro.solver.smt", "Solver.is_unsatisfiable", (WIDE, NARROW)),
    ("solver.smt", "repro.solver.smt", "Solver.is_valid", (WIDE, NARROW)),
    ("solver.smt", "repro.solver.smt", "Solver.entails", (WIDE, NARROW)),
    ("solver.smt", "repro.solver.smt", "Solver.is_equiv", ALL),
    ("solver.smt", "repro.solver.smt", "Solver.find_model", (NARROW,)),
    ("solver.smt.feasibility", "repro.solver.smt",
     "FeasibilitySession.feasible_prefix", (WIDE, NARROW)),
    ("solver.theory", "repro.solver.smt", "check_literals", (WIDE, NARROW)),
    ("solver.arith", "repro.solver.arith", "is_satisfiable", (WIDE, NARROW)),
    ("solver.sat", "repro.solver.sat", "SatSolver.solve", (WIDE, NARROW)),
)


class Recorder:
    """In-memory span store; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans = []  # [layer, start, end, parent index, error name]
        self.stack = []
        self.open = Counter()  # layer -> open spans (0 or 1)
        self.fired = Counter()  # "module:attribute" -> calls, nested too
        self.counts = Counter()  # layer-specific quantities (see HOOKS)

    def wrap(self, layer, target, func, hook=None):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            recorder.fired[target] += 1
            if recorder.open[layer]:
                return func(*args, **kwargs)
            span = [layer, 0.0, 0.0, recorder.stack[-1] if recorder.stack
                    else -1, None]
            recorder.stack.append(len(recorder.spans))
            recorder.spans.append(span)
            recorder.open[layer] += 1
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                recorder.open[layer] -= 1
                recorder.stack.pop()
            if hook is not None:
                hook(recorder.counts, result)
            return result

        return wrapper


def _count_sites(counts, result):
    counts["sites_considered"] += result.sites_considered


def _count_admit(counts, admitted):
    counts["admit_calls"] += 1
    counts["admitted"] += bool(admitted)


def _count_atoms(counts, mapping):
    counts["atoms_max"] = max(counts["atoms_max"], mapping.num_vars)


def _count_rows(counts, table):
    rows = 1 << table.num_vars
    dont_care = sum(1 for v in table.outputs.values() if v == DONT_CARE)
    counts["rows"] += rows
    counts["care_rows"] += rows - dont_care


def _count_primes(counts, primes):
    counts["primes"] += len(primes)


def _count_cover(counts, cover):
    counts["cover"] += len(cover)


def _count_witness(counts, witness):
    counts["witnesses_found"] += witness is not None


HOOKS = {
    ("repro.core.pipeline", "repair_where"): _count_sites,
    ("repro.core.where_repair", "bounds_admit"): _count_admit,
    ("repro.core.minfix", "map_atom_preds"): _count_atoms,
    ("repro.core.derive_opt", "map_atom_preds"): _count_atoms,
    ("repro.core.minfix", "build_truth_table"): _count_rows,
    ("repro.core.derive_opt", "build_truth_table"): _count_rows,
    ("repro.boolmin.minimize", "prime_implicants"): _count_primes,
    ("repro.boolmin.minimize", "select_cover"): _count_cover,
    ("repro.service.session", "generate_witness"): _count_witness,
}


def install(recorder, targets=TARGETS):
    """Wrap every target; returns a callable that restores the originals.

    A target that no longer resolves raises here, so the traced run fails
    instead of silently measuring less.
    """
    undo = []
    for layer, module_name, attribute, _ in targets:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        target = f"{module_name}:{attribute}"
        hook = HOOKS.get((module_name, attribute))
        setattr(owner, name, recorder.wrap(layer, target, original, hook))
        undo.append((owner, name, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def silent_targets(recorder, workload, targets=TARGETS):
    """Targets meant to fire on ``workload`` that recorded no call."""
    return [
        f"{module_name}:{attribute}"
        for _, module_name, attribute, workloads in targets
        if workload in workloads
        and not recorder.fired[f"{module_name}:{attribute}"]
    ]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(spans):
    """Layer -> summed self time: duration minus the union of the
    intervals of the span's direct children."""
    children = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    totals = Counter()
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[1]
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][1]):
            start = max(spans[child][1], reach)
            end = min(spans[child][2], span[2])
            if end > start:
                covered += end - start
                reach = end
        totals[span[0]] += (span[2] - span[1]) - covered
    return totals


def inclusive_times(spans):
    """Layer -> summed span duration (spans of one layer never nest)."""
    totals = Counter()
    for span in spans:
        totals[span[0]] += span[2] - span[1]
    return totals


def layer_metrics(recorder, solver_stats):
    """The per-layer metrics of one traced phase.

    ``solver_stats`` sums ``Solver.stats`` over the phase's sessions.
    """
    spans = recorder.spans
    own = self_times(spans)
    total = inclusive_times(spans)
    calls = Counter(span[0] for span in spans)
    errors = Counter((span[0], span[4]) for span in spans if span[4])
    counts = recorder.counts

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = solver_stats["cache_hits"] + solver_stats["sat_calls"]
    return {
        "core.minfix.map_atom_preds_s": (total["core.minfix.map_atom_preds"], "s"),
        "core.minfix.truth_table_s": (total["core.minfix.truth_table"], "s"),
        "core.minfix.self_s": (own["core.minfix"], "s"),
        "core.minfix.atoms_max": (counts["atoms_max"], "count"),
        "core.minfix.care_ratio": (ratio(counts["care_rows"], counts["rows"]), "ratio"),
        "core.minfix.atom_limit_skips": (
            errors["core.derive", "SolverLimitError"], "count"),
        "boolmin.primes_s": (total["boolmin.primes"], "s"),
        "boolmin.cover_s": (total["boolmin.cover"], "s"),
        "boolmin.primes": (counts["primes"], "count"),
        "boolmin.cover_ratio": (ratio(counts["cover"], counts["primes"]), "ratio"),
        "solver.theory.calls": (calls["solver.theory"], "count"),
        "solver.theory.self_s": (own["solver.theory"], "s"),
        "solver.arith.calls": (calls["solver.arith"], "count"),
        "solver.arith.self_s": (own["solver.arith"], "s"),
        "core.where_repair.calls": (calls["core.where_repair"], "count"),
        "core.where_repair.self_s": (own["core.where_repair"], "s"),
        "core.where_repair.share": (
            ratio(total["core.where_repair"], total["service.session"]), "ratio"),
        "core.where_repair.sites_considered": (counts["sites_considered"], "count"),
        "core.where_repair.admit_ratio": (
            ratio(counts["admitted"], counts["admit_calls"]), "ratio"),
        "core.where_repair.derive_failures": (
            errors["core.derive", "SolverLimitError"]
            + errors["core.derive", "RepairError"], "count"),
        "core.bounds.self_s": (own["core.bounds"], "s"),
        "core.derive.self_s": (own["core.derive"], "s"),
        "solver.smt.calls": (calls["solver.smt"], "count"),
        "solver.smt.self_s": (own["solver.smt"], "s"),
        "solver.smt.cache_hit_rate": (
            ratio(solver_stats["cache_hits"], lookups), "ratio"),
        "solver.smt.feasibility_s": (total["solver.smt.feasibility"], "s"),
        "solver.sat.calls": (calls["solver.sat"], "count"),
        "solver.sat.self_s": (own["solver.sat"], "s"),
        "solver.sat.conflicts": (solver_stats["conflicts"], "count"),
        "witness.calls": (calls["witness"], "count"),
        "witness.self_s": (own["witness"], "s"),
        "witness.found_rate": (
            ratio(counts["witnesses_found"], calls["witness"]), "ratio"),
        "core.pipeline.self_s": (own["core.pipeline"], "s"),
        "core.from_stage.self_s": (own["core.from_stage"], "s"),
        "core.table_mapping.calls": (calls["core.table_mapping"], "count"),
        "core.table_mapping.self_s": (own["core.table_mapping"], "s"),
        "core.groupby_stage.self_s": (own["core.groupby_stage"], "s"),
        "core.having_stage.self_s": (own["core.having_stage"], "s"),
        "core.select_stage.self_s": (own["core.select_stage"], "s"),
        "sqlparser.calls": (calls["sqlparser"], "count"),
        "sqlparser.self_s": (own["sqlparser"], "s"),
        "service.session.prepare_s": (total["service.session.prepare"], "s"),
        "service.session.self_s": (own["service.session"], "s"),
    }
