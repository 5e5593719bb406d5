"""Tests of the benchmark's own code, on workloads small enough to run in seconds."""

import json
from pathlib import Path

import pytest

import harness
import hostprobe
import tracing
from tgss import bench, invpot, solvers

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY_LINEAR = harness.Workload(
    "tiny-linear", "linear-diag", 40, 1e-2, solvers.METHODS, {}, (0,), 1e-1,
    harness.stripes_below("land"))
TINY_1D = harness.Workload(
    "tiny-1d", "invpot1d", 32, 1e-3, ("land", "tgss-nes", "tgss-dbts"),
    {"eta": 0.1, "tau": 2.8, "c_F": 0.1}, (0, 4), 0.5, lambda ks: [])


def test_printed_metrics_are_declared():
    end_to_end = harness.untraced_run(TINY_LINEAR, seed=3, seconds=0.3).metrics
    per_layer = harness.traced_run(TINY_LINEAR, seed=3).metrics
    assert set(end_to_end) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in {**end_to_end, **per_layer}.items())


def test_max_iters_stop_counts_as_failed():
    wl = harness.Workload("capped", "linear-diag", 40, 1e-2, ("land",),
                          {"max_iters": 3}, (0,), 1e-1, lambda ks: [])
    result = harness.untraced_run(wl, seed=0, seconds=0.1)
    assert result.failed == len(result.solves) > 0
    assert result.metrics["ok_runs"][0] == 0.0
    assert all("stopped by max_iters" in line for line in result.report["failures"])


def test_failure_keeps_full_exception_type_and_message(monkeypatch):
    real_run = solvers.run

    def failing_run(method, *args, **kwargs):
        if method == "tgss-nes":
            raise RuntimeError("projection broke at k=3")
        return real_run(method, *args, **kwargs)

    monkeypatch.setattr(bench, "run", failing_run)
    monkeypatch.setattr(solvers, "run", failing_run)
    result = harness.untraced_run(TINY_LINEAR, seed=0, seconds=0.1)
    failed = [s for s in result.solves if s.failures]
    assert failed and all(s.method == "tgss-nes" for s in failed)
    assert all(line.endswith("raised builtins.RuntimeError: projection broke at k=3")
               for line in result.report["failures"])


def test_traced_and_untraced_k_star_agree():
    untraced = harness.untraced_run(TINY_1D, seed=1, seconds=0.1).report["k_star"]
    traced = harness.traced_run(TINY_1D, seed=1)
    assert traced.failed == 0
    for m in TINY_1D.methods:
        assert traced.metrics[f"solvers.k_star.{m}"][0] == untraced[m] > 0


def test_land_sets_up_once_per_iteration_plus_stop():
    result = harness.traced_run(TINY_1D, seed=0)
    n_sets = len(TINY_1D.seed_offsets)
    assert result.tracer.setups["land"] == result.report["k_star"]["land"] + n_sets
    assert (result.metrics["invpot.setups_per_iter.tgss-dbts"][0]
            > result.metrics["invpot.setups_per_iter.tgss-nes"][0])


def test_tracer_restores_every_patched_name():
    before = (bench.run, bench.make_problem, solvers.norm,
              invpot.InversePotentialOperator.apply, invpot.weighted_mass)
    with tracing.Tracer().installed():
        assert bench.run is not before[0]
        assert invpot.InversePotentialOperator.apply is not before[3]
    after = (bench.run, bench.make_problem, solvers.norm,
             invpot.InversePotentialOperator.apply, invpot.weighted_mass)
    assert after == before


def test_seed_derives_noise_seeds_and_extra_data_sets():
    assert harness.WORKLOADS["invpot1d-trend"].spec(0).seeds == [0, 4, 6]
    assert harness.WORKLOADS["invpot1d-trend"].spec(5).seeds == [5, 9, 11]
    a, b = harness.extra_noise_seeds(2), harness.extra_noise_seeds(2)
    assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]


def test_host_adjustment_uses_the_probes_around_and_inside_a_task():
    host = hostprobe.HostSpeed()
    ref = hostprobe.REFERENCE_S
    host.starts, host.ends, host.values = [0.0, 2.0, 4.0], [0.1, 2.1, 4.1], [ref, 3 * ref, 5 * ref]
    assert host.adjusted(0.5, 1.5) == pytest.approx(1.0 / 2)           # probes 0 and 1
    assert host.adjusted(0.5, 1.5, 0.8) == pytest.approx(0.8 / 2)
    assert host.adjusted(0.5, 3.0) == pytest.approx((2.5 - 0.1) / 3)   # probe 1 ran inside
    assert host.adjusted(4.5, 5.0) == pytest.approx(0.5 / 5)           # no probe after it
    original = solvers.discrepancy_met
    with host.probing_in(solvers, "discrepancy_met"):
        assert solvers.discrepancy_met is not original
    assert solvers.discrepancy_met is original
