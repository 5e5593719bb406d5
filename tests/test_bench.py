"""Unit tests for the comparison harness."""

import json

import numpy as np
import pytest

from tgss.bench import (
    CSV_HEADER,
    BenchRecord,
    BenchSpec,
    MetricError,
    emit,
    make_problem,
    records_to_csv,
    records_to_json,
    relative_error,
    run_suite,
)
from tgss.numkernel import ALIGN


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which strict JSON has not."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=reject)


def small_linear_spec(**kwargs):
    base = dict(
        problem="linear-diag", mesh_n=12,
        noise_levels=[1e-3], seeds=[0],
        methods=["land", "tgss-nes"],
        config={"eta": 0.0, "tau": 2.0, "c_F": 1.0, "max_iters": 20000},
    )
    base.update(kwargs)
    return BenchSpec(**base)


class TestRelativeError:
    def test_exact(self):
        t = np.array([1.0, 2.0])
        assert relative_error(t, t) == 0.0

    def test_zero_estimate(self):
        t = np.array([3.0, 4.0])
        assert relative_error(np.zeros(2), t) == 1.0

    def test_scaling(self):
        t = np.array([1.0, -2.0, 0.5])
        assert relative_error(1.1 * t, t) == pytest.approx(0.1, abs=1e-12)

    def test_zero_truth_rejected(self):
        with pytest.raises(MetricError):
            relative_error(np.ones(2), np.zeros(2))


class TestBenchSpec:
    def test_invalid_problem(self):
        with pytest.raises(MetricError):
            BenchSpec(problem="bogus")

    def test_invalid_noise_scale(self):
        with pytest.raises(MetricError):
            BenchSpec(noise_scale="bogus")

    def test_unknown_method_rejected_before_any_solve(self):
        with pytest.raises(MetricError, match="bogus"):
            BenchSpec(methods=["land", "bogus"])

    def test_empty_methods(self):
        with pytest.raises(MetricError):
            BenchSpec(methods=[])

    @pytest.mark.parametrize("kwargs", [
        dict(noise_levels=[1e-3, -1e-3]),
        dict(noise_levels=[float("nan")]),
        dict(noise_levels=[float("inf")]),
        dict(seeds=[0, -1]),
        dict(problem_seed=-1),
    ], ids=["negative-delta", "nan-delta", "inf-delta", "negative-seed",
            "negative-problem-seed"])
    def test_bad_noise_level_or_seed_rejected(self, kwargs):
        with pytest.raises(MetricError, match="must be"):
            BenchSpec(**kwargs)

    def test_zero_noise_and_seeds_accepted(self):
        BenchSpec(noise_levels=[0.0], seeds=[0], problem_seed=0)


class TestMakeProblem:
    def test_linear_problem_deterministic(self):
        spec = small_linear_spec()
        op1, truth1, y1, x01 = make_problem(spec)
        op2, truth2, y2, x02 = make_problem(spec)
        assert np.array_equal(truth1, truth2)
        assert np.array_equal(y1, y2)
        assert np.array_equal(op1.d, op2.d)
        assert np.array_equal(x01, np.zeros(12))

    @pytest.mark.parametrize("n", (1, 40, 64, 20000))
    @pytest.mark.parametrize("problem_seed", (0, 7, 12345))
    def test_linear_problem_draws_uniform_bits_in_place(self, problem_seed, n):
        # d is drawn as a scaled random() into aligned memory; it and the
        # truth drawn after it are the bits of uniform(0.1, 1.0, n) and
        # standard_normal(n), and d is aligned, so the operator keeps it
        # without a copy.
        spec = small_linear_spec(mesh_n=n, problem_seed=problem_seed)
        op, truth, _, _ = make_problem(spec)
        rng = np.random.Generator(np.random.PCG64(problem_seed))
        assert op.d.tobytes() == rng.uniform(0.1, 1.0, n).tobytes()
        assert truth.tobytes() == rng.standard_normal(n).tobytes()
        assert op.d.ctypes.data % ALIGN == 0

    def test_problem_seed_changes_instance(self):
        a = make_problem(small_linear_spec(problem_seed=1))[1]
        b = make_problem(small_linear_spec(problem_seed=2))[1]
        assert np.any(a != b)

    def test_pde_problem_starts_from_ones(self):
        spec = BenchSpec(problem="invpot1d", mesh_n=16, methods=["land"])
        op, truth, y, x0 = make_problem(spec)
        assert np.array_equal(x0, np.ones(17))
        assert truth.shape == y.shape == (17,)


class TestRunSuite:
    def test_landweber_self_ratio(self):
        records = run_suite(small_linear_spec(methods=["land"]))
        assert len(records) == 1
        assert records[0].rate_k == 1.0
        assert records[0].stopped_by == "discrepancy"

    def test_two_seeds_two_groups(self):
        records = run_suite(small_linear_spec(seeds=[0, 1]))
        assert len(records) == 4
        assert {r.seed for r in records} == {0, 1}

    def test_rate_recomputable_from_counts(self):
        records = run_suite(small_linear_spec())
        land = next(r for r in records if r.method == "land")
        for r in records:
            assert r.rate_k == pytest.approx(r.k_star / land.k_star, rel=1e-15)

    def test_determinism_of_result_columns(self):
        spec = small_linear_spec(methods=["land", "sesop", "tgss-nes"])
        a = run_suite(spec)
        b = run_suite(spec)
        for ra, rb in zip(a, b):
            assert repr(ra.k_star) == repr(rb.k_star)
            assert repr(ra.re_final) == repr(rb.re_final)

    @staticmethod
    def _land_fails(monkeypatch):
        """Make every land run raise; the other methods run as usual."""
        from tgss import bench, solvers

        def run(method, *args, **kwargs):
            if method == "land":
                raise solvers.DivergenceError("residual norm nan is not finite at k=3")
            return solvers.run(method, *args, **kwargs)

        monkeypatch.setattr(bench, "run", run)

    def test_per_run_failure_recorded(self, monkeypatch):
        # One failing run is flagged; the suite keeps going.
        self._land_fails(monkeypatch)
        records = run_suite(small_linear_spec(methods=["land", "sesop"]))
        by_method = {r.method: r for r in records}
        assert by_method["land"].stopped_by.startswith("error:")
        assert by_method["land"].k_star == -1
        assert by_method["sesop"].stopped_by == "discrepancy"

    def test_failure_message_kept_in_json(self, monkeypatch):
        self._land_fails(monkeypatch)
        records = run_suite(small_linear_spec(methods=["land", "sesop"]))
        loaded = {d["method"]: d for d in strict_json(records_to_json(records))}
        assert loaded["land"]["error"] == (
            "DivergenceError: residual norm nan is not finite at k=3"
        )
        # A failed run's NaN time and error are written as null.
        assert loaded["land"]["wall_time_s"] is None
        assert loaded["land"]["re_final"] is None
        assert loaded["sesop"]["error"] is None
        back = {d["method"]: BenchRecord(**d) for d in strict_json(records_to_json(records))}
        assert back["land"].error == loaded["land"]["error"]
        assert back["land"].stopped_by == "error:DivergenceError"

    def test_diverging_run_recorded_as_divergence_error(self, monkeypatch):
        from tgss import bench
        from tgss.operator import DiagonalOperator

        op = DiagonalOperator(np.full(50, 3.0))
        truth = np.ones(50)
        monkeypatch.setattr(bench, "make_problem",
                            lambda spec: (op, truth, op.apply(truth), np.zeros(50)))
        spec = small_linear_spec(methods=["land"], mesh_n=50,
                                 config={"eta": 0.0, "tau": 2.0, "c_F": 3.0,
                                         "max_iters": 1000})
        with np.errstate(over="ignore", invalid="ignore"):
            [record] = run_suite(spec)
        assert record.stopped_by == "error:DivergenceError"
        assert record.k_star == -1
        assert record.error.startswith("DivergenceError: residual norm ")

    def test_norm_scaled_noise_shrinks_effective_level(self):
        from tgss.operator import add_noise

        spec = small_linear_spec(noise_scale="norm")
        _, _, y, _ = make_problem(spec)
        data_norm = add_noise(y, 1e-3 / np.sqrt(y.size), 0)
        # calibrated draw has norm close to the nominal level
        assert data_norm.delta_eff == pytest.approx(1e-3, rel=0.5)


class TestSerialization:
    def _records(self):
        return run_suite(small_linear_spec())

    def test_csv_header_exact(self):
        csv = records_to_csv([])
        assert csv == CSV_HEADER + "\n"
        assert CSV_HEADER == (
            "method,delta,seed,k_star,wall_time_s,re_final,rate_k,rate_t,stopped_by"
        )

    def test_csv_rows(self):
        records = self._records()
        lines = records_to_csv(records).strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(records) + 1
        first = lines[1].split(",")
        assert first[0] == records[0].method
        assert int(first[3]) == records[0].k_star

    def test_numpy_noise_levels_written_as_plain_floats(self):
        # A spec built in Python may hold numpy floats; the CSV must not
        # carry their repr ("np.float64(0.001)").
        spec = small_linear_spec(methods=["land"], noise_levels=list(np.array([1e-3])))
        [record] = run_suite(spec)
        cells = records_to_csv([record]).splitlines()[1].split(",")
        for name, cell in zip(CSV_HEADER.split(","), cells):
            if name not in ("method", "stopped_by"):
                float(cell)

    def test_json_round_trip(self):
        records = self._records()
        back = [BenchRecord(**d) for d in json.loads(records_to_json(records))]
        for a, b in zip(records, back):
            assert a.method == b.method
            assert a.k_star == b.k_star
            assert a.re_final == b.re_final
            assert a.rate_k == b.rate_k

    def test_json_numeric_fidelity(self):
        rec = BenchRecord(method="land", delta=1e-3, seed=0, k_star=17,
                          wall_time_s=0.123456789012345, re_final=3.14e-3,
                          rate_k=1.0, rate_t=None, stopped_by="discrepancy")
        loaded = json.loads(records_to_json([rec]))[0]
        assert loaded["wall_time_s"] == rec.wall_time_s
        assert loaded["re_final"] == rec.re_final

    def test_emit_files(self, tmp_path):
        records = self._records()
        out = str(tmp_path / "results")
        trace = str(tmp_path / "traces")
        paths = emit(records, out, ("csv", "json"), trace)
        assert f"{out}.csv" in paths and f"{out}.json" in paths
        with open(f"{out}.csv") as fh:
            assert fh.readline().strip() == CSV_HEADER
        trace_paths = [p for p in paths if "trace_" in p]
        assert len(trace_paths) == len(records)
        with open(trace_paths[0]) as fh:
            assert fh.readline().startswith("k,residual_norm,lambda")

    def test_emit_unknown_format(self, tmp_path):
        with pytest.raises(MetricError):
            emit([], str(tmp_path / "x"), ("xml",))
