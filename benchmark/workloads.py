"""The four benchmark workloads as job lists.

A job is a JSON-ready dict with a stable "id"; golden.json maps every id a
seed can produce to the digest of its output at the seed commit.  The seed
orders the jobs.  tables-closed also draws, per command, the window bottom
and the output format from a fixed stratum; neither changes how much work
the command does (the closed route builds the same decomposition up to the
window top whatever the bottom), so every seed costs the same.
"""

from __future__ import annotations

import itertools
import random

# Window tops of tables-closed.  The closed route is superlinear in the top
# (tc_eps_dims merges one twist summand at a time), so changing a top
# changes the baseline: re-record golden.json and re-baseline together.
TABLES_CLOSED = (
    # (argv without --deg-min/--format, base --deg-min)
    ("syntomic --p 3 --n 4 --k 1 --deg-max 60", -2),
    ("tc --p 3 --n 4 --k 1 --deg-max 60", -2),
    ("ktheory --p 3 --n 4 --k 1 --deg-max 60", -2),
    ("syntomic --p 3 --n 4 --k 1 --deg-max 600", -2),
    ("tc --p 2 --n 5 --k 4 --deg-max 600", -2),
    ("ktheory --p 5 --n 4 --k 3 --deg-max 600", -2),
    ("syntomic --p 7 --n 3 --k 1 --deg-max 600", -2),
    ("tr --p 3 --ell 2 --deg-max 900 --mode closed", -2),
    ("tr --p 2 --ell 1 --m 3 --deg-max 900 --mode closed", -2),
    ("einf --p 3 --n 2 --ell 1 --variant hfp --deg-max 900 --mode closed", -2),
    ("einf --p 5 --n 2 --ell 2 --variant tate --deg-max 900 --mode closed", -900),
)
DEG_MIN_OFFSETS = (0, -2, -4)
FORMATS = ("json", "csv")

TR_PAIRS = ((2, 1), (3, 1), (3, 2))
TR_FINITE_M = (0, 1, 2, 3)
TR_FINITE_TOP = 200
TR_INF_TOP = 100

EINF_SLICES = (
    # (p, n_max, ell_max, deg_max, double_cutoff); about a second each, so
    # that the reference kernel around each job tracks the machine's speed
    (3, 3, 1, 108, True),
    (3, 2, 5, 81, True),
    (5, 1, 12, 250, False),
    (5, 2, 4, 250, False),
    (5, 3, 1, 125, False),
)

DENSE_CASES = (
    # the ladder-vs-dense test cases, then two wider pages
    (3, 1, 0, "hfp"),
    (3, 1, 1, "hfp"),
    (3, 1, 1, "tate"),
    (3, 1, 0, "muinv"),
    (2, 2, 1, "hfp"),
    (2, 1, 1, "muinv"),
    (5, 1, 2, "hfp"),
    (3, 2, 1, "tate"),
    (2, 3, 1, "hfp"),
)
DENSE_WIDE_CASES = 7  # the first seven also run at the +-16p window


def _cli_job(base: str, lo: int, fmt: str) -> dict:
    argv = base.split() + ["--deg-min", str(lo), "--format", fmt]
    return {"id": "cli " + " ".join(argv), "kind": "cli", "argv": argv}


def _tables_closed_variants():
    for base, lo in TABLES_CLOSED:
        yield [_cli_job(base, lo + off, fmt) for off, fmt in itertools.product(DEG_MIN_OFFSETS, FORMATS)]


def _tr_oracle_jobs() -> list:
    jobs = []
    for (p, ell), m in itertools.product(TR_PAIRS, TR_FINITE_M + (None,)):
        hi = TR_FINITE_TOP if m is not None else TR_INF_TOP
        jobs.append({"id": f"tr p={p} ell={ell} m={'inf' if m is None else m} hi={hi}",
                     "kind": "tr", "p": p, "ell": ell, "m": m, "hi": hi})
    jobs.append({"id": "syntomic-oracle p=3 n=4 k=1 window=-4..20",
                 "kind": "syntomic_oracle", "p": 3, "n": 4, "k": 1, "lo": -4, "hi": 20})
    return jobs


def _einf_grid_jobs() -> list:
    return [
        {"id": f"suite_einf p={p} n_max={n_max} ell_max={ell_max} deg_max={deg_max} double_cutoff={dc}",
         "kind": "einf_suite", "p": p, "n_max": n_max, "ell_max": ell_max, "deg_max": deg_max,
         "double_cutoff": dc}
        for p, n_max, ell_max, deg_max, dc in EINF_SLICES
    ]


def _dense_jobs() -> list:
    cases = [(c, 8) for c in DENSE_CASES] + [(c, 16) for c in DENSE_CASES[:DENSE_WIDE_CASES]]
    return [
        {"id": f"dense p={p} n={n} ell={ell} {variant} window=+-{w}p",
         "kind": "dense", "p": p, "n": n, "ell": ell, "variant": variant, "half": w * p}
        for (p, n, ell, variant), w in cases
    ]


WORKLOADS = ("tables-closed", "tr-oracle", "einf-grid", "dense-witness")  # why each: README.md


def build(workload: str, seed: int) -> list:
    """The job list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables-closed":
        jobs = [rng.choice(variants) for variants in _tables_closed_variants()]
    elif workload == "tr-oracle":
        jobs = _tr_oracle_jobs()
    elif workload == "einf-grid":
        jobs = _einf_grid_jobs()
    elif workload == "dense-witness":
        jobs = _dense_jobs()
    else:
        raise KeyError(workload)
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> list:
    """Every job any seed can draw, each once (what golden.json covers)."""
    jobs = [j for variants in _tables_closed_variants() for j in variants]
    return jobs + _tr_oracle_jobs() + _einf_grid_jobs() + _dense_jobs()
