"""Self-tests of the benchmark's own arithmetic (no ``repro`` needed).

    python3 -m pytest e2ebench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402


# -- calibration scaling --------------------------------------------------

def test_calibrated_scales_by_reference_over_run_speed():
    # host twice as slow as the reference: raw seconds halve.
    assert stats.calibrated(4.0, 0.5) == pytest.approx(2.0)
    # with a CPU split only the CPU part scales; waits stay as measured.
    assert stats.calibrated(4.0, 0.5, cpu_s=3.0) == pytest.approx(2.5)
    # CPU time above wall (side-by-side processes) counts as all-CPU.
    assert stats.calibrated(4.0, 0.5, cpu_s=6.0) == pytest.approx(2.0)


def test_metrics_and_record_use_the_run_factor():
    clock = run.Clock(0.04)
    clock.points += [0.04, 0.04]
    units = [{"raw_s": 6.0}, {"raw_s": 2.0}, {"raw_s": 4.0}]
    # C_REF = 0.02 over c_run = 0.04: every unit halves.
    assert clock.factor() == pytest.approx(run.calib.C_REF / 0.04)
    assert [clock.calibrated(u) for u in units] == pytest.approx(
        [3.0, 1.0, 2.0])
    assert run.median_cal(clock, units) == pytest.approx(2.0)
    serve = [{"raw_s": 4.0, "cpu_s": 2.0}, {"raw_s": 2.0, "cpu_s": 2.0}]
    assert run._stream_factor(clock, serve) == pytest.approx(4.0 / 6.0)


def test_calibration_disagreement_rule():
    assert not stats.calibration_disagrees(0.014, 0.024)
    assert stats.calibration_disagrees(0.010, 0.021)
    assert stats.calibration_disagrees(0.021, 0.010)


def test_run_speed_is_the_mean_of_every_point():
    clock = run.Clock(0.02)
    clock.points += [0.02, 0.05]
    assert clock.c_run() == pytest.approx(0.03)
    assert clock.factor() == pytest.approx(run.calib.C_REF / 0.03)


def test_disagreeing_unit_is_rerun_and_counted(monkeypatch):
    samples = iter([0.045, 0.044])
    monkeypatch.setattr(run.calib, "sample", lambda: next(samples))
    clock = run.Clock(0.02)
    seen = []
    record, value = clock.unit("u", lambda attempt: attempt,
                               account=lambda v, r: seen.append(v))
    assert value == 1 and record["attempt"] == 1
    assert clock.reruns == 1
    assert seen == [0, 1]            # the dropped attempt is accounted too
    assert len(clock.records) == 2 and clock.records[0]["rerun"]
    assert clock.points == [0.02, 0.045, 0.044]


def test_predictions_cover_exactly_the_per_layer_metrics():
    predictions = json.loads((run.HERE / "PREDICTIONS.json").read_text())
    assert set(predictions["per_layer"]) == set(run.per_layer_units())


# -- which percentile is reported -----------------------------------------

@pytest.mark.parametrize("n,p,ok", [
    (200, 95, True), (199, 95, False), (240, 95, True),
    (20, 50, True), (19, 50, False), (1000, 99, True), (999, 99, False),
    (0, 50, False),
])
def test_percentile_needs_ten_samples_beyond(n, p, ok):
    assert stats.reportable(n, p) is ok


def test_percentile_is_a_measured_value():
    values = list(range(1, 201))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 50) == 100
    assert stats.percentile(values, 95) == 190
    assert stats.samples_beyond(200, 95) == 10


# -- error_rate numerators and denominators -------------------------------

def test_error_rate_counts():
    assert stats.error_rate(0, 5) == 0.0
    assert stats.error_rate(1, 4) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(3, 2)


def test_each_operation_counts_once_and_fails_on_any_problem():
    r = run.Run("bundle", 0, run.Clock(0.04))
    r.op([], "regen0")
    r.op(["fig04.csv differs", "missing fig05.txt"], "regen1")
    r.op([], "regen2")
    assert (r.attempted, r.failed) == (3, 1)
    assert stats.error_rate(r.failed, r.attempted) == pytest.approx(1 / 3)
    assert len(r.problems) == 2


# -- self time on a synthetic span tree -----------------------------------
# (id, name, start, end, parent, attrs)
TREE = [
    (1, "root", 0.0, 10.0, 0, None),
    (2, "a", 1.0, 4.0, 1, None),
    (3, "b", 5.0, 8.0, 1, None),
    (4, "a.leaf", 2.0, 3.0, 2, None),
    (5, "b", 6.0, 7.0, 3, None),
]


def test_self_time_subtracts_children():
    selfs = stats.self_times(TREE)
    assert selfs == pytest.approx({1: 4.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [(1, "p", 0.0, 10.0, 0, None),
             (2, "c", 1.0, 4.0, 1, None),
             (3, "c", 3.0, 6.0, 1, None),
             (4, "c", 9.0, 12.0, 1, None)]   # leaves its parent
    assert stats.self_times(spans)[1] == pytest.approx(10 - 5 - 1)


def test_ledger_rows_close_to_wall():
    led = stats.ledger(TREE, wall_s=12.0)
    assert led["rows"] == pytest.approx(
        {"root": 4.0, "a": 2.0, "b": 3.0, "a.leaf": 1.0})
    assert led["unattributed_s"] == pytest.approx(2.0)
    assert led["residual_s"] == pytest.approx(0.0)
    total = sum(led["rows"].values()) + led["unattributed_s"] \
        + led["residual_s"]
    assert total == pytest.approx(12.0)


def test_ledger_residual_shows_overlapping_siblings():
    spans = [(1, "p", 0.0, 10.0, 0, None),
             (2, "c", 1.0, 4.0, 1, None),
             (3, "d", 3.0, 6.0, 1, None)]
    led = stats.ledger(spans, wall_s=10.0)
    # c and d overlap on [3, 4]: their selves sum to 6 in 5 s of cover.
    assert led["residual_s"] == pytest.approx(-1.0)


def test_inclusive_skips_nested_same_layer():
    assert stats.inclusive(TREE, "b") == (1, pytest.approx(3.0))
    assert stats.inclusive(TREE, "a") == (1, pytest.approx(3.0))


def test_daemon_spans_graft_under_the_client_span_they_overlap():
    client = [("service.http.submit", 0.0, 1.0, {"job": "j1"}),
              ("service.http.wait", 1.0, 5.0, {"job": "j1"}),
              ("service.http.result", 5.0, 6.0, {"job": "j1"})]
    daemon = [(2, "sim.sm", 0.5, 3.0, 1, None),
              (1, "service.manager.job", 0.5, 4.5, 0, {"job": "j1"}),
              (4, "sim.sm", 10.5, 10.6, 3, None),
              (3, "service.journal", 10.0, 11.0, 0, {"job": "j9"})]
    spans = run._graft(client, daemon)
    by_name = {s[1]: s for s in spans}
    job, sm = by_name["service.manager.job"], by_name["sim.sm"]
    assert job[4] == 2                          # under wait, clipped to it
    assert (job[2], job[3]) == (1.0, 4.5)
    assert sm[4] == job[0] and (sm[2], sm[3]) == (1.0, 3.0)
    # no client waited for j9: its subtree is left out entirely.
    assert "service.journal" not in by_name and len(spans) == 5
    led = stats.ledger(spans, wall_s=6.0)
    assert led["rows"]["service.http.wait"] == pytest.approx(0.5)
    assert led["rows"]["service.manager.job"] == pytest.approx(1.5)
    assert led["residual_s"] == pytest.approx(0.0)
    assert led["unattributed_s"] == pytest.approx(0.0)


# -- the serve-mix stream ---------------------------------------------------

APPS = {"rodinia": [f"r{i}" for i in range(20)],
        "altis": [f"a{i}" for i in range(20)]}


def test_batches_cover_every_pair_once():
    batches = run.plan_batches(7, APPS)
    pairs = [p for batch in batches for client in batch for p in client]
    assert len(pairs) == len(set(pairs)) == 2 * 20 * len(run.GPUS)
    assert run.plan_batches(7, APPS) == batches


def test_client_stream_orders_dependents_after_their_origin():
    pairs = run.plan_batches(3, APPS)[0][0]
    stream = run.client_stream(pairs, random.Random(5))
    kinds = [k for k, _ in stream]
    assert kinds.count("fresh") == kinds.count("relevel") \
        == kinds.count("repeat") == len(pairs)
    seen: set = set()
    for kind, spec in stream:
        key = tuple(sorted(spec.items()))
        base = (spec["suite"], spec["app"], spec["gpu"], spec["seed"])
        if kind == "fresh":
            seen.add(base)
            seen.add(key)
        elif kind == "relevel":
            assert base in seen
            seen.add(key)
        else:
            assert key in seen
