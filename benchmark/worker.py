"""Run one benchmark job in this fresh interpreter.

Reads {"job": {...}, "trace": bool, "work_dir": path} as JSON on stdin and
prints one JSON line: the job's time, the reference kernel's time just
before and after it (see speed.py), peak resident memory, the problems
found and, when traced, the per-layer totals.  Only the synlab calls of
the job are timed; the checks on their output run outside the timer.

Each job gets its own interpreter because a job's time depends on what ran
before it in the same process: on einf-grid, running one suite slice
first made every other slice about a fifth slower, so a seed's job order
would have moved wall_s.

A job fails on a non-zero exit or an exception, on an output digest that
differs from golden.json, on oracle != closed (or dense != ladder), and on
a cache hit that is not byte-identical to the miss before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_synlab():
    """Import synlab from the checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "synlab", "__init__.py")):
        raise SystemExit(f"no synlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import synlab

    if os.path.dirname(os.path.dirname(os.path.abspath(synlab.__file__))) != SRC:
        raise SystemExit(f"synlab imported from {synlab.__file__}, not from {SRC}")
    import synlab.cli  # noqa: F401  (loads every module the jobs use)


def digest(obj) -> str:
    if isinstance(obj, str):
        blob = obj.encode()
    else:
        blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _dims(table) -> list:
    return sorted([list(k), v] for k, v in table.entries.items() if v)


def _torsion(gens) -> list:
    return sorted([list(k), n] for k, n in Counter((tuple(g.bidegree), str(g.torsion)) for g in gens).items())


def _cli(argv) -> tuple:
    from synlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class Clock:
    """Times the synlab calls of a job; traces them too when a tracer is set."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.enabled = True
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.enabled = False
        return False


def run_job(job: dict, cache_dir: str, clock: Clock) -> tuple:
    """Run one job under `clock`: (output digest, problems found)."""
    from synlab import assembly, graded, nygaard, trkernel, verify

    kind = job["kind"]
    problems = []
    if kind == "cli":
        argv = job["argv"] + ["--cache-dir", cache_dir]
        with clock:
            miss = _cli(argv)
            hit = _cli(argv)
        for label, (rc, _out, err) in (("miss", miss), ("hit", hit)):
            if rc != 0:
                problems.append(f"{label} exited {rc}: {err.strip()[-200:]}")
        if hit[1] != miss[1]:
            problems.append("cache hit differs from the miss")
        return digest(miss[1]), problems

    if kind == "tr":
        ctx = graded.PrimeContext(job["p"])
        trunc = trkernel.TRUNC_INF if job["m"] is None else job["m"]
        window = (0, job["hi"])
        with clock:
            res = trkernel.tr_gr_module(ctx, job["ell"], trunc, window, mode="both", with_surjectivity=True)
        if not res.comparison.ok:
            problems.append(f"oracle != closed: {res.comparison.dim_mismatches[:2]} {res.comparison.torsion_mismatches[:2]}")
        if not res.surjectivity.all_surjective:
            problems.append(f"gr(phi - can) not surjective: {res.surjectivity.failures[:2]}")
        dec = res.decomposition
        out = {"dims": _dims(dec.dims(ctx, window)), "torsion": _torsion(dec.generators_in(window))}
        return digest(out), problems

    if kind == "syntomic_oracle":
        params = assembly.AssemblyParams(job["p"], job["n"], job["k"], (job["lo"], job["hi"]))
        with clock:
            table = assembly.syntomic_dims(params, mode="oracle")
        if not table.same_entries(assembly.syntomic_dims(params, mode="closed")):
            problems.append("oracle != closed")
        return digest({"dims": _dims(table), "notes": table.notes}), problems

    if kind == "einf_suite":
        with clock:
            checks = verify.suite_einf(ps=(job["p"],), n_max=job["n_max"], deg_max=job["deg_max"],
                                       ell_max=job["ell_max"], double_cutoff=job["double_cutoff"])
        problems += [c.line() for c in checks if not c.passed]
        return digest([[c.suite, c.name, c.passed, c.detail] for c in checks]), problems

    if kind == "dense":
        ctx = graded.PrimeContext(job["p"])
        variant = nygaard.Variant(job["variant"])
        window = (-job["half"], job["half"])
        cutoff = graded.geo(job["p"], 0, job["n"]) + 1
        with clock:
            dense = nygaard.run_to_einf_dense(nygaard.SSPage(ctx, job["n"], job["ell"], variant, window, cutoff), window)
        ladder = nygaard.run_to_einf(nygaard.SSPage(ctx, job["n"], job["ell"], variant, window, cutoff))
        want = sorted((tuple(c.bidegree), c.v1_torsion) for c in ladder.classes(window) if c.certified)
        got = sorted((tuple(g.bidegree), g.torsion) for g in dense if g.certified)
        if got != want:
            problems.append("dense engine != ladder engine")
        out = sorted([g.label, list(g.bidegree), str(g.torsion), g.certified] for g in dense)
        return digest(out), problems

    raise ValueError(f"unknown job kind {kind}")


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)["digests"]


def run_one(job: dict, cache_dir: str, tracer=None) -> dict:
    """Run a job between two reference-kernel timings and check its output."""
    from speed import kernel_seconds

    clock = Clock(tracer)
    kernel_before = kernel_seconds()
    try:
        dig, problems = run_job(job, cache_dir, clock)
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        dig, problems = None, [f"{type(exc).__name__}: {exc}"]
    kernel_after = kernel_seconds()
    if dig is not None and load_golden().get(job["id"]) != dig:
        problems.append("output digest differs from golden.json")
    result = {
        "id": job["id"],
        "seconds": clock.elapsed,
        "kernel_before": kernel_before,
        "kernel_after": kernel_after,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["untraced_targets"] = tracer.missing  # functions the program no longer has
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    import_synlab()
    sys.path.insert(0, HERE)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=spec["work_dir"])
    try:
        print(json.dumps(run_one(spec["job"], cache_dir, tracer)))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
