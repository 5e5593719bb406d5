"""The trajectory digest: every run of perfbench's workloads against a committed record.

The runs are perfbench's three workload specs (`perfbench/harness.py`
WORKLOADS) at workload seeds 0 and 1, each on the spec's first noise draw
(`harness.make_data`, noise seed = workload seed + the spec's first
offset), with every name of METHOD_TABLE: the stripe methods at
n_directions 1, 2 and 3, the gradient methods at the spec's 2.  On
invpot2d-n48 land is left out, as perfbench leaves it out there, and so
is tpg-zero, the same method point: their 1 750 iterations would take
over half of the digest's time.  That is 116 runs.  Names that
METHOD_TABLE maps to one Method give the same run, which is computed
once and recorded under each name.

Per run, trajectory_digest.json records k_star, stopped_by, the dropped
directions, re_final, the sha256 of x_final's bytes, the type and message
of the exception a run raised, and the tie margins ||r|| / (tau delta) - 1
at k_star - 1 (the last trace row) and at k_star (the residual of
x_final).  The tests recompute every run and compare k_star, stopped_by,
the drops and the exception type exactly and re_final to RE_RTOL.  The
sha256 and the exception message are compared only where the file's
environment line, numpy, scipy and the BLAS each was built with, `cc`,
the band factor path and the CPU flags, is the host's: round-off depends
on all of them, and a stripe run amplifies it by up to 1e8 on an
inverse-potential problem.  A k_star that moves where a margin is near
zero is a discrepancy tie that round-off decided.

Each workload seed's runs are computed in a child interpreter with one
BLAS thread, as perfbench/run.py runs them: a dot over n = 20 000 rounds
differently when OpenBLAS splits it, and on two cores the split made the
lineardiag-20k runs a hundred times slower.  The two children run at
once.

A change that moves trajectories on purpose rewrites the file in the same
diff, and lists the runs that moved from this test's output:

    PYTHONPATH=src python tests/test_trajectory_digest.py --write
"""

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

import tgss
from tgss import bench, numkernel, solvers

HERE = Path(__file__).resolve().parent
DIGEST = HERE / "trajectory_digest.json"
PERFBENCH = HERE.parent / "perfbench"
WORKLOADS = ("invpot1d-trend", "invpot2d-n48", "lineardiag-20k")
SEEDS = (0, 1)
RE_RTOL = 1e-6
EXACT = ("k_star", "stopped_by", "dropped", "error_type")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> str:
    """numpy, scipy, their BLAS builds, cc, the band factor path and the CPU flags."""
    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown BLAS"

    cc = shutil.which("cc")
    cc = (subprocess.run([cc, "--version"], capture_output=True, text=True).stdout
          .splitlines()[0] if cc else "no cc")
    try:
        with open("/proc/cpuinfo") as f:
            flags = next(line for line in f if line.startswith("flags")).split(":")[1]
    except (OSError, StopIteration):
        flags = platform.processor()
    flags = hashlib.sha256(" ".join(sorted(flags.split())).encode()).hexdigest()[:16]
    factor = "kernel" if numkernel._band_cholesky else "dpbtrf"
    return (f"numpy {numpy.__version__} ({blas(numpy)}); scipy {scipy.__version__} "
            f"({blas(scipy)}); {cc}; band factor {factor}; "
            f"{platform.machine()} cpu flags sha256 {flags}")


def digest_runs(seed: int) -> list[dict]:
    """The records of one workload seed's runs."""
    sys.path.insert(0, str(PERFBENCH))
    import harness

    land = solvers.METHOD_TABLE["land"]
    records = []
    for name in WORKLOADS:
        workload = harness.WORKLOADS[name]
        spec = workload.spec(seed)
        noise_seed = spec.seeds[0]
        op, truth, y_exact, x0 = bench.make_problem(spec)
        data = harness.make_data(spec, y_exact, noise_seed)
        done = {}
        for method, point in solvers.METHOD_TABLE.items():
            if point == land and "land" not in workload.methods:
                continue
            for n_directions in (1, 2, 3) if point.stripes else (2,):
                if (point, n_directions) not in done:
                    cfg = solvers.SolverConfig(**{**spec.config, "n_directions": n_directions})
                    done[point, n_directions] = one_run(method, op, data, x0, cfg, truth)
                records.append({"workload": name, "seed": seed, "noise_seed": noise_seed,
                                "method": method, "n_directions": n_directions,
                                **done[point, n_directions]})
    return records


def one_run(method, op, data, x0, cfg, truth) -> dict:
    """One solvers.run call as a digest record."""
    record = dict.fromkeys(("k_star", "stopped_by", "dropped", "re_final", "x_sha256",
                            "error_type", "error", "margin_before", "margin_at"))
    try:
        res = solvers.run(method, op, data, x0, cfg)
    except Exception as exc:  # the digest records what a run raises
        record.update(error_type=type(exc).__name__, error=str(exc))
        return record
    tie = cfg.tau * data.delta_eff
    record.update(
        k_star=res.k_star, stopped_by=res.stopped_by, dropped=res.dropped_directions,
        re_final=bench.relative_error(res.x_final, truth),
        x_sha256=hashlib.sha256(res.x_final.tobytes()).hexdigest(),
        margin_before=res.trace[-1].residual_norm / tie - 1.0 if res.trace else None,
        margin_at=numkernel.norm(op.apply(res.x_final) - data.y_delta) / tie - 1.0)
    return record


def compute() -> dict:
    """The environment line and every run, from one child interpreter per seed."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join([str(Path(tgss.__file__).parent.parent),
                                          os.environ.get("PYTHONPATH", "")])}
    children = [subprocess.Popen([sys.executable, __file__, "--seed", str(seed)], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for seed in SEEDS]
    parts = []
    for child in children:
        out, err = child.communicate()
        assert child.returncode == 0, err
        parts.append(json.loads(out))
    return {"environment": parts[0]["environment"],
            "runs": [run for part in parts for run in part["runs"]]}


def label(run: dict) -> str:
    return (f"{run['workload']} seed {run['seed']} {run['method']} "
            f"n_directions={run['n_directions']}")


@pytest.fixture(scope="module")
def digests():
    """(committed, recomputed) digests; the runs are in the same order in both."""
    committed = json.loads(DIGEST.read_text())
    host = compute()
    assert [label(r) for r in host["runs"]] == [label(r) for r in committed["runs"]]
    return committed, host


def test_trajectories_match_the_digest(digests):
    """k_star, stopped_by, drops and exception type exactly, re_final to RE_RTOL."""
    committed, host = digests
    moved = []
    for old, new in zip(committed["runs"], host["runs"]):
        re_old, re_new = old["re_final"], new["re_final"]
        same_re = re_old == re_new or (None not in (re_old, re_new) and
                                       math.isclose(re_new, re_old, rel_tol=RE_RTOL))
        if any(old[key] != new[key] for key in EXACT) or not same_re:
            moved.append(f"{label(old)}: " + ", ".join(
                f"{key} {old[key]} -> {new[key]}"
                for key in (*EXACT, "re_final", "margin_before", "margin_at")))
    assert not moved, f"{len(moved)} runs moved:\n" + "\n".join(moved)


def test_final_iterates_have_the_digest_bits(digests):
    """x_final's sha256 and the exception message, on the digest's environment only."""
    committed, host = digests
    if host["environment"] != committed["environment"]:
        pytest.skip("x_final bits are compared only on the digest's environment: "
                    f"{committed['environment']!r}, this host {host['environment']!r}")
    moved = [f"{label(old)}: {key} {old[key]} -> {new[key]}"
             for old, new in zip(committed["runs"], host["runs"])
             for key in ("x_sha256", "error") if old[key] != new[key]]
    assert not moved, f"{len(moved)} differences:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--seed"]:
        print(json.dumps({"environment": environment(),
                          "runs": digest_runs(int(sys.argv[2]))}))
    elif sys.argv[1:] == ["--write"]:
        digest = compute()
        DIGEST.write_text(
            '{"environment": %s,\n "runs": [\n  %s\n]}\n'
            % (json.dumps(digest["environment"]),
               ",\n  ".join(json.dumps(run) for run in digest["runs"])))
        print(f"{len(digest['runs'])} runs written to {DIGEST}")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
