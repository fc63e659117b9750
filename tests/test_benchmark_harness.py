"""The benchmark harness runs on this checkout: one golden job of each kind.

Each job runs in a fresh `python -I benchmark/worker.py`, as benchmark/run.py
starts it, traced and untraced.  The worker compares the job's output digest
with benchmark/golden.json and checks oracle against closed (or dense
against ladder), so a change that alters a golden table or drops a name the
harness calls fails here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmark"

JOB_IDS = (
    "cli tc --p 3 --n 4 --k 1 --deg-max 60 --deg-min -2 --format json",
    # a deg-600 headline table, the closed table with the most wall time
    "cli tc --p 2 --n 5 --k 4 --deg-max 600 --deg-min -2 --format csv",
    # the deg-600 headline table whose closed route reaches the p=7 D/E/G families
    "cli syntomic --p 7 --n 3 --k 1 --deg-max 600 --deg-min -2 --format json",
    "cli einf --p 5 --n 2 --ell 2 --variant tate --deg-max 900 --mode closed --deg-min -900 --format json",
    # the truncated closed tally behind `tr --m`
    "cli tr --p 2 --ell 1 --m 3 --deg-max 900 --mode closed --deg-min -2 --format json",
    "tr p=3 ell=1 m=0 hi=200",
    # the heaviest TR oracle job: 15 pages up to level 7, so every TR path
    # (Tate rows, base matrices, kernels, generator torsions) runs
    "tr p=2 ell=1 m=inf hi=100",
    "syntomic-oracle p=3 n=4 k=1 window=-4..20",
    "suite_einf p=3 n_max=3 ell_max=1 deg_max=108 double_cutoff=True",
    # p=5 pages over 11 twists, each swept only on the cone of its window
    "suite_einf p=5 n_max=1 ell_max=12 deg_max=250 double_cutoff=False",
    "dense p=3 n=1 ell=0 hfp window=+-8p",
    "dense p=5 n=1 ell=2 hfp window=+-16p",
    # four stages: T_0, T_1, T_2, then U
    "dense p=2 n=3 ell=1 hfp window=+-8p",
    # the widest dense page: its spans exceed 64 columns
    "dense p=3 n=2 ell=1 tate window=+-8p",
)

# Tracer targets that name functions synlab no longer has; the tracer lists
# them as untraced, and no other name may join them.
KNOWN_UNTRACED = {
    "synlab.nygaard.EInfResult.decomposition",
    "synlab.fplinalg.solve",
    "synlab.graded.CyclicDecomposition.direct_sum",
}


def _jobs() -> dict:
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {job["id"]: job for job in workloads.all_jobs()}


def test_job_ids_cover_every_kind():
    jobs = _jobs()
    assert {jobs[i]["kind"] for i in JOB_IDS} == {"cli", "tr", "syntomic_oracle", "einf_suite", "dense"}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("job_id", JOB_IDS)
def test_worker_runs_a_golden_job(tmp_path, job_id, trace):
    spec = {"job": _jobs()[job_id], "trace": trace, "work_dir": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["id"] == job_id
    assert result["problems"] == []
    if trace:
        assert result["layers"]
        assert set(result["untraced_targets"]) <= KNOWN_UNTRACED
