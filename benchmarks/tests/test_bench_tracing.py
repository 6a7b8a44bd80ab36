import json
import math
from pathlib import Path

import pytest

import tracing
import workloads
from tracing import Tracer, nesting_violations, self_times, step_growth

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_is_duration_minus_children():
    spans = [  # (id, parent, layer, start, end), recorded children first
        (2, 1, "text.levenshtein", 1.5, 2.0),
        (3, 1, "text.levenshtein", 2.5, 3.5),
        (1, 0, "kg.relation_search", 1.0, 4.0),
        (4, 0, "rollout.dispatch", 5.0, 6.0),
        (0, -1, "rollout.run", 0.0, 10.0),
        (5, -1, "evaluate.report", 11.0, 12.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(0.5) and selfs[3] == pytest.approx(1.0)
    assert selfs[0] == pytest.approx(6.0)
    assert sum(selfs[i] for i in range(5)) == pytest.approx(10.0)
    assert nesting_violations(spans) == 0


def test_nesting_violations_find_overlaps_and_escapes():
    spans = [
        (1, 0, "kg.relation_search", 1.0, 4.0),
        (2, 0, "rollout.dispatch", 3.0, 5.0),  # starts before its sibling ended
        (3, 0, "rollout.dispatch", 9.0, 11.0),  # ends after its parent
        (4, 7, "text.levenshtein", 1.0, 2.0),  # parent was never recorded
        (0, -1, "rollout.run", 0.0, 10.0),
    ]
    assert nesting_violations(spans) == 3


def test_step_growth_compares_last_tenth_with_first_tenth():
    starts = [float(i * i) for i in range(50)]  # step i lasts 2i + 1
    spans = [(i + 1, 0, "policies.oracle.next_segment", s, s + 0.1) for i, s in enumerate(starts)]
    spans.append((0, -1, "rollout.run", 0.0, 50.0 * 50.0))
    short = [(100 + i, 99, "policies.oracle.next_segment", float(i), i + 0.1) for i in range(10)]
    spans += short + [(99, -1, "rollout.run", 0.0, 10.0)]  # too short to count
    assert step_growth(spans, ("policies.oracle.next_segment",)) == pytest.approx((91 + 93 + 95 + 97 + 99) / 25)


def test_wrapped_calls_nest_and_restore():
    class Box:
        def outer(self, n):
            return self.inner(n) + self.inner(n)

        def inner(self, n):
            return n * 2

    original = Box.__dict__["outer"], Box.__dict__["inner"]
    tracer = Tracer()
    tracer.patch(Box, "outer", "a.outer")
    tracer.patch(Box, "inner", "a.inner", lambda args, result: {"value": result})
    assert Box().outer(3) == 12
    tracer.uninstall()
    assert (Box.__dict__["outer"], Box.__dict__["inner"]) == original
    (i1, p1, n1, *_), (i2, p2, n2, *_), (i0, p0, n0, *_) = tracer.spans
    assert (n0, p0) == ("a.outer", -1)
    assert (n1, p1) == (n2, p2) == ("a.inner", i0)
    assert tracer.counts["a.inner.value"] == 12
    selfs = self_times(tracer.spans)
    start, end = tracer.spans[2][3:]
    assert math.isclose(sum(selfs.values()), end - start)


def test_install_covers_every_layer_and_uninstall_restores(tmp_path):
    from kgqa_env import kg, rollout

    before = (kg.levenshtein, rollout.parse_trajectory, kg.KnowledgeGraph.__dict__["relation_search"])
    tracer = Tracer()
    tracer.install()
    assert kg.levenshtein is not before[0] and rollout.parse_trajectory is not before[1]
    tracer.uninstall()
    assert (kg.levenshtein, rollout.parse_trajectory, kg.KnowledgeGraph.__dict__["relation_search"]) == before


def test_tail_percentile_leaves_ten_beyond():
    assert tracing.tail_percentile(1000) == 99
    assert tracing.tail_percentile(100) == 90
    assert tracing.beyond(42, 75) == 10
    assert tracing.percentile([3, 1, 2], 50) == 2


def test_benchmark_json_lists_what_a_traced_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.layer_metric_names()
    assert [m["name"] for m in bench["per_layer"]] == names
    assert all(m["unit"] == workloads.unit_of(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SPECS)
