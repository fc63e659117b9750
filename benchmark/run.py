"""synlab benchmark: four batch workloads, end to end or traced per layer.

    python3 benchmark/run.py --workload tables-closed --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a checkout; synlab is imported from its src/.  A run
measures set-up time (fresh interpreters importing synlab.cli and building
the parser), then repeats passes over the workload's job list until
--seconds have gone by.  Each job runs in a fresh single-threaded
interpreter, one at a time, and its output is checked on every pass.  The
last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1, where traced and untraced passes
alternate).  The lines before it record the machine, the load and every
pass.  Times are at reference speed; see speed.py and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_MIN, SETUP_MAX = 9, 31  # fresh-interpreter starts per run
SETUP_SPREAD = 0.1  # keep starting until the quartile spread is within a tenth
PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from speed import kernel_seconds\n"
    "before = kernel_seconds()\n"
    "t0 = time.perf_counter()\n"
    "import synlab.cli\n"
    "synlab.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, before, kernel_seconds())\n"
)


def spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "platform": platform.platform()}


def measure_setup(deadline: float) -> list:
    """Fresh-interpreter starts: (seconds to import synlab.cli and build the
    parser, kernel seconds before, kernel seconds after)."""

    def probe() -> list:
        out = subprocess.run([sys.executable, "-I", "-c", PROBE, SRC, HERE], capture_output=True, text=True,
                             check=True, timeout=max(1.0, deadline - time.monotonic()))
        return [float(x) for x in out.stdout.split()]

    probe()  # the first start writes the bytecode cache; users pay that once
    samples = []
    while len(samples) < SETUP_MIN or (
        len(samples) < SETUP_MAX and spread([speed.scaled(*s) for s in samples]) > SETUP_SPREAD
    ):
        samples.append(probe())
    return samples


def job_seconds(job: dict) -> float:
    return speed.scaled(job["seconds"], job["kernel_before"], job["kernel_after"])


def job_list_seconds(passes: list) -> float:
    """Time to run the whole job list at reference speed (see speed.py):
    each job's median over the passes, summed."""
    return sum(statistics.median(times) for times in zip(*([job_seconds(j) for j in p] for p in passes)))


def scaled_layers(job: dict) -> dict:
    """A traced job's layer totals with its self times at reference speed."""
    factor = job_seconds(job) / job["seconds"] if job["seconds"] else 1.0
    return {k: v * factor if k.startswith("self:") else v for k, v in job["layers"].items()}


def run_worker(job: dict, traced: bool, work_dir: str, deadline: float) -> dict:
    """Run one job in a fresh interpreter; a worker that dies is a failed job."""
    spec = json.dumps({"job": job, "trace": traced, "work_dir": work_dir})
    try:
        out = subprocess.run([sys.executable, "-I", os.path.join(HERE, "worker.py")], input=spec,
                             capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"id": job["id"], "problems": ["worker ran past the run's deadline"]}
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"id": job["id"], "problems": [f"worker exited {out.returncode}: {out.stderr.strip()[-500:]}"]}
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, specs: dict, start: float) -> dict:
    deadline = start + DEADLINE_S
    jobs = workloads.build(name, seed)
    load_before = os.getloadavg()
    setup = [] if trace else measure_setup(deadline)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_work"))
    plain, traced_passes, attempted, failed = [], [], 0, 0
    try:
        t0 = time.monotonic()
        while True:
            traced = trace and len(plain) > len(traced_passes)
            p0 = time.monotonic()
            done = [run_worker(job, traced, work_dir, deadline) for job in jobs]
            attempted += len(done)
            failed += sum(1 for j in done if j["problems"])
            print(json.dumps({"workload": name, "pass": len(plain) + len(traced_passes) + 1, "traced": traced,
                              "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in done]}), flush=True)
            if any("seconds" not in j for j in done):
                break
            (traced_passes if traced else plain).append(done)
            now = time.monotonic()
            if now - t0 >= seconds and (not trace or traced_passes):
                break
            if now + 1.5 * (now - p0) > deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "workload": name, "seed": seed, "jobs": [j["id"] for j in jobs],
        "load_before": load_before, "load_after": os.getloadavg(),
        "raw_pass_wall_s": [sum(j["seconds"] for j in p) for p in plain],
        "raw_setup_s": statistics.median(s[0] for s in setup) if setup else None,
        "setup_samples": setup,
    }), flush=True)

    values = {}
    if plain:
        values["wall_s"] = job_list_seconds(plain)
        values["peak_rss_mb"] = statistics.median(max(j["peak_rss_mb"] for j in p) for p in plain)
    if setup:
        values["setup_s"] = statistics.median(speed.scaled(*s) for s in setup)
    if traced_passes:
        per_pass = [tracer.derive(tracer.merge([scaled_layers(j) for j in p]), sum(job_seconds(j) for j in p))
                    for p in traced_passes]
        for key in per_pass[0]:
            values[key] = statistics.median(m[key] for m in per_pass)
        values["trace.wall_s"] = job_list_seconds(traced_passes)
        if plain:
            values["trace.untraced_wall_s"] = values["wall_s"]
            values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
    wanted = specs["per_layer"] if trace else specs["end_to_end"]
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in wanted.items() if m in values}
    return {"correct": failed == 0 and len(metrics) == len(wanted), "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}


def load_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "synlab", "__init__.py")):
        print(f"error: no synlab sources under {SRC}; run from the root of a synlab checkout", file=sys.stderr)
        return 2
    specs = load_specs()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    print(json.dumps({"machine": machine(), "argv": sys.argv[1:]}), flush=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        # "all" gives every workload the full time limit of a single run
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), specs,
                                     start if len(names) == 1 else time.monotonic())
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
