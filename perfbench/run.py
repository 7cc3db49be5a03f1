"""Per-submission grading benchmark: wide-where, narrow-tutor, classroom.

One closed-loop client grades submissions through the production
``AssignmentSession.grade`` path (one session per target), waiting for
each reply like a student in ``examples/interactive_tutor.py``.  Run from
the repository root::

    python3 perfbench/run.py --workload narrow-tutor --seed 1 --seconds 30
    python3 perfbench/run.py --workload wide-where --trace 1   # per layer
    python3 perfbench/run.py --workload all                   # every workload

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` grades the
same inputs once plain and once with every layer wrapped (see
``layers.py``) and reports per-layer counts and self times.  Outside the
timed region every distinct repaired query is re-parsed and checked
against its target on random instances, and a sha256 over (entry,
rendered hints, repaired SQL) is compared with ``expected.json``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines are
for people.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction

import speed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

NAMES = ("wide-where", "narrow-tutor", "classroom")
#: Set-up samples taken before the timed grading and after each pass.
SETUP_PER_POINT = 4
#: The per-grade latency limit behind ``within_2s_rate``.
LATENCY_LIMIT_S = 2.0
#: Percentiles a latency may be reported at; see ``reportable_percentile``.
PERCENTILES = (50, 90, 95, 99, 99.9)
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Helpers (tested in tests/test_perfbench.py)
# ----------------------------------------------------------------------


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def _rank(p, count):
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def reportable_percentile(count, min_beyond=MIN_BEYOND):
    """Highest of ``PERCENTILES`` with at least ``min_beyond`` samples
    above its nearest rank, or None when not even the median has."""
    best = None
    for p in PERCENTILES:
        if count - _rank(p, count) >= min_beyond:
            best = p
    return best


def hint_digest(rendered):
    """sha256 over ``{entry: rendered report}``, independent of order."""
    digest = hashlib.sha256()
    for key in sorted(rendered):
        digest.update(f"{key}\0{rendered[key]}\0".encode())
    return digest.hexdigest()


def run_conditions():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Grading
# ----------------------------------------------------------------------


class Phase:
    """Everything one timed grading phase produced."""

    def __init__(self):
        self.latencies = []
        #: per grade: its latency at reference machine speed (``speed``)
        self.scaled = []
        self.chunk_medians = []  # per pass: median calibration chunk, s
        self.ok = []  # per grade: graded, not degraded
        self.cached = []
        self.indices = []  # per grade: index into workload.submissions
        self.final_ids = []  # per grade: index into finals (or -1)
        self.finals = {}  # (schema, qid, final_sql) -> index
        self.errors = []
        self.pass_walls = []  # seconds per pass (one entry for the stream)
        self.passes = 0
        self.sessions = {}  # last pass: (schema, qid) -> session
        #: ``Solver.stats`` summed over every session of the phase.
        self.solver_stats = Counter()


def new_sessions(workload, catalogs):
    from repro.service.session import AssignmentSession

    return {
        key: AssignmentSession(catalogs[key[0]], sql)
        for key, sql in sorted(workload.targets.items())
    }


def run_phase(workload, catalogs, seconds, recorder=None, after_pass=None):
    """Grade ``workload.pass_count(seconds)`` whole passes over the inputs,
    fresh sessions each, or the classroom stream for ``seconds``;
    ``after_pass()`` runs outside the timing after every pass."""
    phase = Phase()
    passes = workload.pass_count(seconds) if workload.passes else 1
    while phase.passes < passes:
        sessions = new_sessions(workload, catalogs)
        phase.sessions = sessions
        order = workload.order(phase.passes)
        first = len(phase.latencies)
        chunks = [speed.time_chunk()]
        start = time.perf_counter()
        for index in order:
            sub = workload.submissions[index]
            session = sessions[(sub.schema, sub.qid)]
            if recorder is not None:
                recorder.active = True
            began = time.perf_counter()
            try:
                result = session.grade(sub.sql, witness=workload.witness)
            except Exception:  # a failed grade is counted, not fatal
                result = None
                phase.errors.append(f"{sub.key}: {traceback.format_exc(limit=3)}")
            latency = time.perf_counter() - began
            if recorder is not None:
                recorder.active = False
            chunks.append(speed.time_chunk())
            phase.latencies.append(latency)
            phase.indices.append(index)
            ok = result is not None and not result.degraded
            phase.ok.append(ok)
            phase.cached.append(result is not None and result.cached)
            if result is None:
                phase.final_ids.append(-1)
            else:
                key = (sub.schema, sub.qid, result.final_sql)
                phase.final_ids.append(
                    phase.finals.setdefault(key, len(phase.finals))
                )
                if result.degraded:
                    phase.errors.append(f"{sub.key}: degraded grade")
            if not workload.passes and time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        phase.scaled.extend(
            speed.scale(phase.latencies[first:], chunks))
        phase.chunk_medians.append(statistics.median(chunks))
        phase.pass_walls.append(round(elapsed, 3))
        for session in sessions.values():
            phase.solver_stats.update(session.solver.stats)
        phase.passes += 1
        if after_pass is not None:
            after_pass()
    return phase


def typical_latencies(phase):
    """Submission index -> the median of its scaled grades over the
    phase's passes.

    Every pass repeats the same work (fresh sessions, same order within
    each assignment), so the passes differ only in what the machine did
    meanwhile; scaling removes most of that and the median the rest.
    """
    grades = {}
    for index, latency in zip(phase.indices, phase.scaled):
        grades.setdefault(index, []).append(latency)
    return {index: statistics.median(v) for index, v in grades.items()}


def latency_sample(phase, workload):
    """The scaled latencies the timing metrics are computed from, and
    the seconds of grading they add up to: each submission's typical
    grade on pass workloads, every grade of the classroom stream."""
    if workload.passes:
        sample = sorted(typical_latencies(phase).values())
    else:
        sample = sorted(phase.scaled)
    return sample, sum(sample)


def end_to_end(phase, workload, verified):
    latencies, seconds = latency_sample(phase, workload)
    n = len(phase.latencies)
    good = [
        ok and verified.get(final, False)
        for ok, final in zip(phase.ok, phase.final_ids)
    ]
    within = sum(
        1 for ok, lat in zip(phase.ok, phase.scaled)
        if ok and lat <= LATENCY_LIMIT_S
    )
    return {
        "grades_per_s": (len(latencies) / seconds, "1/s"),
        "grade_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "grade_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "within_2s_rate": (within / n, "ratio"),
        "verified_rate": (sum(good) / n, "ratio"),
        "failed_rate": (phase.ok.count(False) / n, "ratio"),
    }


# ----------------------------------------------------------------------
# Correctness gate (outside the timed region)
# ----------------------------------------------------------------------


def verify_finals(phase, workload, catalogs):
    """final index -> repaired query shows no difference from its target
    on random instances (``engine.diff.differential_check``).

    Queries are compared in canonical alias form: a repaired query that is
    canonically identical to its target passes without execution, and
    each distinct canonical repair is executed once.
    """
    from repro.engine.diff import differential_check
    from repro.errors import ReproError
    from repro.service.cache import canonical_key
    from repro.sqlparser.rewrite import parse_query_extended

    targets = {
        key: canonical_key(parse_query_extended(sql, catalogs[key[0]]))
        for key, sql in workload.targets.items()
    }
    outcome = {}
    verified = {}
    for (schema, qid, final_sql), index in phase.finals.items():
        catalog = catalogs[schema]
        try:
            final = canonical_key(parse_query_extended(final_sql, catalog))
        except ReproError:
            verified[index] = False
            continue
        target = targets[(schema, qid)]
        key = (schema, qid, final)
        if key not in outcome:
            outcome[key] = final == target or (
                differential_check(final, target, catalog) is None
            )
        verified[index] = outcome[key]
    return verified


def rendered_reports(phase, workload):
    """Entry -> the canonical-namespace hint block its session cached,
    with the counterexample its session cached when witnesses are on.

    Canonical rendering makes the digest independent of the seeded alias
    names each submission was written with.
    """
    from repro.service.session import format_report

    rendered = {}
    for sub in workload.submissions:
        if sub.key in rendered:
            continue
        session = phase.sessions[(sub.schema, sub.qid)]
        canonical, _ = session.prepare(sub.sql)
        report = session.cache.get(canonical)
        if report is None:
            rendered[sub.key] = "<not graded>"
            continue
        text = format_report(report, witness=cached_witness(session, canonical))
        if workload.witness and not report.all_passed:
            # A wrong answer's search must have run; "none found" is a
            # recorded outcome, a missing cache entry is not.
            if session.cache.get(("witness", canonical)) is None:
                text += "\n<witness not searched>"
        rendered[sub.key] = text
    return rendered


def cached_witness(session, canonical):
    """The session's cached witness for ``canonical``, or None when the
    search found none or never ran."""
    from repro.service.session import _NO_WITNESS

    entry = session.cache.get(("witness", canonical))
    return None if entry is None or entry == _NO_WITNESS else entry


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------


def setup_payload(workload):
    return json.dumps(
        [[schema, sql] for (schema, _), sql in sorted(workload.targets.items())]
    )


def setup_samples(payload, count):
    """``count`` set-up times, each from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py")],
            input=payload, capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def setup_time(samples):
    """The median set-up sample.

    Samples are spread across the run (before the grading and after every
    pass), so the median is taken over the machine's fast and slow
    stretches alike; the fastest sample depends on whether a run happened
    to catch a fast one.
    """
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    import layers
    import workloads
    from repro.obs import TRACER

    conditions = run_conditions()
    began = time.perf_counter()
    reference = workloads.reference_corpus()
    workload = workloads.build(name, seed, reference)
    input_s = time.perf_counter() - began
    catalogs = reference.catalogs
    conditions.update(
        workload=name, seed=seed, submissions=len(workload.submissions),
        input_sha256=workload.input_hash(), input_s=round(input_s, 3),
    )
    problems = []

    payload = setup_payload(workload)
    samples = setup_samples(payload, SETUP_PER_POINT)
    phase_seconds = seconds / 2 if trace else seconds
    plain = run_phase(
        workload, catalogs, phase_seconds,
        after_pass=lambda: samples.extend(
            setup_samples(payload, SETUP_PER_POINT)),
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = setup_time(samples)

    traced = None
    if trace:
        recorder = layers.Recorder()
        uninstall = layers.install(recorder)
        try:
            traced = run_phase(workload, catalogs, phase_seconds, recorder)
        finally:
            uninstall()
        silent = layers.silent_targets(recorder, name)
        if silent:
            problems.append("wrappers that never fired: " + ", ".join(silent))
        if traced.errors:
            problems.append(f"traced phase: {len(traced.errors)} failed "
                            f"grade(s); first: {traced.errors[0]}")

    verified = verify_finals(plain, workload, catalogs)
    e2e = end_to_end(plain, workload, verified)
    digest = hint_digest(rendered_reports(plain, workload))
    expected = json.loads((HERE / "expected.json").read_text()).get(name)
    if digest != expected:
        problems.append(f"hint digest {digest} != expected {expected}")
    if traced and hint_digest(rendered_reports(traced, workload)) != digest:
        problems.append("traced phase graded differently from the plain one")
    if plain.errors:
        problems.append(f"{len(plain.errors)} failed grade(s); first: "
                        f"{plain.errors[0]}")
    if e2e["verified_rate"][0] != 1.0:
        problems.append(f"verified_rate {e2e['verified_rate'][0]:.4f} < 1")
    if TRACER.enabled:
        problems.append("the program's own TRACER was on")
    n = len(plain.latencies)
    sampled = len(latency_sample(plain, workload)[0])
    if (reportable_percentile(sampled) or 0) < 90:
        problems.append(f"only {sampled} latencies: p90 has < {MIN_BEYOND} "
                        "beyond it")

    if trace:
        metrics = layers.layer_metrics(recorder, traced.solver_stats)
        traced_n = len(traced.latencies)
        hits = sum(traced.cached)
        metrics["service.cache.hit_rate"] = (hits / traced_n, "ratio")
        metrics["service.cache.misses"] = (traced_n - hits, "count")
        metrics["tracing.overhead"] = (
            end_to_end(traced, workload, {})["grades_per_s"][0]
            - e2e["grades_per_s"][0], "1/s")
    else:
        metrics = dict(e2e)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        del metrics["failed_rate"]  # always 0 when correct: "failed" carries it

    slowest = sorted(zip(plain.latencies, plain.indices), reverse=True)[:5]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    emitted = {key: unit for key, (_, unit) in metrics.items()}
    if emitted != declared:
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(emitted.items()) ^ set(declared.items()))}")

    conditions.update(
        slowest=[[workload.submissions[index].key, round(lat * 1000, 1)]
                 for lat, index in slowest],
        passes=plain.passes, pass_walls_s=plain.pass_walls, grades=n,
        chunk_medians_ms=[round(x * 1000, 4) for x in plain.chunk_medians],
        unscaled_p50_ms=round(
            percentile(sorted(plain.latencies), 50) * 1000, 3),
        setup_samples_s=[round(x, 4) for x in samples],
        hint_digest=digest, cache_hit_rate=round(sum(plain.cached) / n, 4),
        reportable_percentile=reportable_percentile(n),
    )
    print(f"# conditions {json.dumps(conditions, sort_keys=True)}")
    for key, (value, unit) in sorted(e2e.items()):
        print(f"# e2e {key:<16} {value:>14.6g} {unit}")
    if trace:
        for key, (value, unit) in sorted(metrics.items()):
            print(f"# layer {key:<36} {value:>14.6g} {unit}")
    print(f"# hint digest {'ok' if digest == expected else 'MISMATCH'} {digest}")
    for problem in problems:
        print(f"# FAIL {problem}")
    result = {
        "correct": not problems,
        "attempted": n,
        "failed": plain.ok.count(False),
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args):
    """Every workload in its own process; prints each one's report."""
    status = 0
    summary = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[name] = None
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
