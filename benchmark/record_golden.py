"""Record golden.json: the output digest of every job any seed can draw.

    python3 benchmark/record_golden.py --commit <short hash>

Run it at the commit whose outputs are the reference.  It refuses to write
if any job fails its own checks (oracle != closed, cache hit != miss, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True, help="commit the digests are taken at")
    args = ap.parse_args()
    worker.import_synlab()
    work = os.path.join(os.path.dirname(HERE), ".bench_work")
    os.makedirs(work, exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="golden-", dir=work)
    digests, bad = {}, []
    try:
        for i, job in enumerate(workloads.all_jobs()):
            dig, problems = worker.run_job(job, os.path.join(cache_root, str(i)), worker.Clock())
            if problems:
                bad.append((job["id"], problems))
            digests[job["id"]] = dig
            print(job["id"], dig[:12], "FAIL" if problems else "ok", flush=True)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    if bad:
        print(f"{len(bad)} jobs fail their checks; golden.json not written: {bad[:3]}", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"commit": args.commit, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
