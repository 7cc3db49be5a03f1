"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ----------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [(10, None), (19, None), (20, 50), (99, 50), (100, 90), (199, 90),
     (200, 95), (999, 95), (1000, 99), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert run.reportable_percentile(count) == expected


def test_typical_latency_is_each_submissions_median_scaled_grade():
    phase = run.Phase()
    # Three passes over submissions 0-1, in different orders.
    phase.indices = [0, 1, 1, 0, 0, 1]
    phase.scaled = [0.5, 0.2, 0.9, 0.7, 0.6, 0.1]
    assert run.typical_latencies(phase) == {0: 0.6, 1: 0.2}


def test_scale_divides_out_the_local_chunk_time():
    ref = speed.REFERENCE_CHUNK_S
    # The machine runs at half speed from grade 3 on: chunks take 2x.
    chunks = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    latencies = [0.010, 0.010, 0.010, 0.015, 0.020, 0.020, 0.020]
    # Grade i uses chunks i-2 .. i+3: the ones just before and after it
    # and two more on either side.
    assert speed.WINDOW == 2
    scaled = speed.scale(latencies, chunks)
    assert scaled == pytest.approx([0.010, 0.010, 0.010, 0.010, 0.010,
                                    0.010, 0.010])
    assert speed.scale([0.010], [ref, 3 * ref]) == pytest.approx([0.005])
    with pytest.raises(ValueError):
        speed.scale(latencies, chunks[:-1])


def test_chunk_is_fixed_work():
    assert speed.chunk() == speed.chunk()
    assert speed.time_chunk() > 0


def test_pass_count_is_fixed_work_for_the_time_budget(reference):
    wide = workloads.build("wide-where", 0, reference)
    narrow = workloads.build("narrow-tutor", 0, reference)
    assert wide.pass_count(30) == 2 and narrow.pass_count(30) == 2
    assert wide.pass_count(15) == 1 and narrow.pass_count(15) == 1
    assert wide.pass_count(1) == 1


# -- self time ------------------------------------------------------------


def test_self_time_on_nested_span_tree():
    # a[0,10] holds b[1,4] (which holds c[2,3]) and b[5,9].
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    own = layers.self_times(spans)
    assert own == {"a": 3.0, "b": 6.0, "c": 1.0}
    assert sum(own.values()) == 10.0  # self times partition the root
    assert layers.inclusive_times(spans) == {"a": 10.0, "b": 7.0, "c": 1.0}


def test_overlapping_children_are_covered_once():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 6.0, 0, None],
             ["c", 4.0, 8.0, 0, None]]
    assert layers.self_times(spans)["a"] == 3.0


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    def outer(x):
        return module.inner(x) + module.outer_again(x)

    def outer_again(x):
        return 0 if x > 5 else module.outer(x + 10) * 0

    module.inner, module.outer, module.outer_again = inner, outer, outer_again
    module.unused = lambda: None
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_wrappers_record_outermost_spans_and_restore(fake_module):
    name = fake_module.__name__
    targets = (
        ("outer", name, "outer", ("w",)),
        ("outer", name, "outer_again", ("w",)),
        ("inner", name, "inner", ("w",)),
        ("unused", name, "unused", ("w",)),
    )
    original = fake_module.outer
    recorder = layers.Recorder()
    uninstall = layers.install(recorder, targets)
    try:
        fake_module.outer(1)  # inactive: nothing recorded
        assert recorder.spans == []
        recorder.active = True
        assert fake_module.outer(1) == 2
        with pytest.raises(ValueError):
            fake_module.inner(-1)
    finally:
        uninstall()
    assert fake_module.outer is original
    # outer -> inner, outer_again -> outer(11) -> inner: the nested "outer"
    # calls are one layer, so only the outermost one opens a span.
    assert [s[0] for s in recorder.spans] == ["outer", "inner", "inner",
                                              "inner"]
    assert recorder.spans[1][3] == 0 and recorder.spans[2][3] == 0
    assert recorder.spans[3][4] == "ValueError"
    assert layers.silent_targets(recorder, "w", targets) == [f"{name}:unused"]
    assert layers.silent_targets(recorder, "other", targets) == []


def test_every_layer_target_resolves():
    recorder = layers.Recorder()
    layers.install(recorder)()


# -- workload determinism -------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    return workloads.reference_corpus()


def test_same_seed_same_inputs(reference):
    a = workloads.build("wide-where", 5, reference)
    b = workloads.build("wide-where", 5, reference)
    assert a.submissions == b.submissions
    assert a.order(0) == b.order(0)
    assert a.input_hash() == b.input_hash()


def test_other_seed_other_inputs_same_problems(reference):
    a = workloads.build("wide-where", 5, reference)
    b = workloads.build("wide-where", 6, reference)
    assert [s.sql for s in a.submissions] != [s.sql for s in b.submissions]
    assert a.order(0) != b.order(0)
    assert a.input_hash() != b.input_hash()
    assert [s.key for s in a.submissions] == [s.key for s in b.submissions]


def test_rendered_variants_are_the_reference_problems(reference):
    from repro.service.cache import canonical_key
    from repro.sqlparser.rewrite import parse_query_extended

    entries = {e.seed: e for e in reference.entries}
    workload = workloads.build("wide-where", 3, reference)
    for sub in workload.submissions[:40]:
        catalog = reference.catalogs[sub.schema]
        original = entries[sub.key].wrong_sql
        assert canonical_key(parse_query_extended(sub.sql, catalog)) == (
            canonical_key(parse_query_extended(original, catalog))
        )


def test_pass_order_keeps_each_assignment_in_corpus_order(reference):
    workload = workloads.build("wide-where", 2, reference)
    order = workload.order(1)
    assert sorted(order) == list(range(len(workload.submissions)))
    seen = {}
    for index in order:
        sub = workload.submissions[index]
        key = (sub.schema, sub.qid)
        assert index > seen.get(key, -1)
        seen[key] = index


def test_wide_where_selection(reference):
    tail = workloads.wide_tail()
    workload = workloads.build("wide-where", 0, reference)
    keys = {s.key for s in workload.submissions}
    assert not keys & tail
    wide_entries = [
        e for e in reference.entries if (e.schema, e.qid) in reference.wide
    ]
    assert len(keys) == len(wide_entries) - len(tail) >= 100
