"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from mmtrack import ftcnd  # noqa: E402
from spans import Span, Tracer, busy_time, covered_time, self_times  # noqa: E402
from speed import PROBE_REF_S, SpeedReference  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("sim.loop", 0.0, 10.0, -1, "r"),      # 0
        Span("pomptc.a", 1.0, 4.0, 0, "r"),        # 1
        Span("kinematics.fk", 2.0, 3.0, 1, "r"),   # 2
        Span("ftcnd.solve", 5.0, 9.0, 0, "r"),     # 3
        # overlaps its sibling and runs past its parent: only [9, 10]
        # is new cover for span 0
        Span("ftcnd.solve", 8.0, 11.0, 0, "r"),    # 4
        Span("dynamics.terms", 6.0, 7.0, 3, "r"),  # 5
        Span("dynamics.fwd", 6.5, 6.75, 5, "r"),   # 6
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 5.0, 2.0, 1.0, 3.0, 3.0, 0.75, 0.25])
    idx = range(len(spans))
    assert busy_time(spans, idx, "ftcnd") == pytest.approx(7.0)
    # a nested span of the same layer is not counted twice
    assert busy_time(spans, idx, "dynamics") == pytest.approx(1.0)
    assert covered_time(0.0, 1.0, []) == 0.0


def test_speed_scaling_on_synthetic_probes():
    speed = SpeedReference(half_window=0)
    # probes at [1, 2] and [5, 6]: the first ran at half the reference
    # speed, the second at the reference speed
    speed.starts = [1.0, 5.0]
    speed.ends = [1.0 + 2 * PROBE_REF_S, 5.0 + PROBE_REF_S]
    first_end = speed.ends[0]
    assert list(speed.factors()) == pytest.approx([0.5, 1.0])
    # [0, 1] takes the first probe's factor, the stretch after the
    # first probe the second's, and time past the last probe the last's
    assert speed.scaled(0.0, 1.0) == pytest.approx(0.5)
    assert speed.scaled(0.0, 8.0) == pytest.approx(
        0.5 + (5.0 - first_end) + (8.0 - speed.ends[1]))
    # an interval inside a probe has no length
    assert speed.scaled(1.0, first_end) == 0.0


def test_patched_attributes_are_restored():
    original = ftcnd.solve
    tracer = Tracer()
    with tracer.patched(workloads.TRACE_TARGETS):
        assert ftcnd.solve is not original
    assert ftcnd.solve is original


def test_traced_episode_writes_identical_trace_csv(tmp_path):
    name = "base_sinusoid"
    cfg, _ = workloads.CLOSED_LOOPS[name]
    text = (ROOT / "configs" / cfg).read_text(encoding="utf-8")
    q0, _ = workloads.variant_inputs(name, 1)
    model, params, script = workloads.load_closed_loop(text, q0, 0.03)
    outputs = {}
    for traced in (False, True):
        out = tmp_path / f"trace{int(traced)}"
        out.mkdir()
        tracer = Tracer()
        targets = workloads.TRACE_TARGETS if traced else []
        with tracer.patched(targets):
            workloads.run_episode(model, params, script, out, tracer)
        outputs[traced] = (out / "trace.csv").read_bytes()
        names = {s.name for s in tracer.spans}
        if traced:
            assert {"ftcnd.solve", "dynamics.tau_b", "nftsm.control_torque",
                    "sim.to_csv"} <= names
    assert outputs[True] == outputs[False]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_qp_batch_shapes_cover_the_stated_sizes():
    sizes = [mp * nu for mp, nu, _ in workloads.qp_shapes()]
    assert min(sizes) == 2 and max(sizes) == 40
    assert workloads.qp_shapes().count((7, 5, 5)) >= 20
    assert all(n >= nu for _, nu, n in workloads.qp_shapes())


def test_variant_zero_is_the_shipped_config():
    q0, duration = workloads.variant_inputs("nominal_static", 0)
    assert duration == 2.0
    assert list(q0) == [0.0, -0.78, 0.0, -2.35, 0.0, 1.57, 0.78]
    q1, _ = workloads.variant_inputs("nominal_static", 1)
    assert 0 < max(abs(q1 - q0)) <= workloads.VARIANT_SPREAD
