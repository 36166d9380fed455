"""Record reference.json: the output of every pool entry of every workload.

    python3 bench/record_reference.py

Each pool entry runs once through the same in-process CLI path the
benchmark uses.  Bound and capacity values are deterministic; sim and drift
rows are the byte-exact outputs at their pool seeds, from which the check
also pools the statistics a row is compared with.  Re-record only when the
program's outputs are meant to change, and say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def main() -> int:
    searchlab = run.import_searchlab()
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    try:
        loop = run.Loop(searchlab, None, workdir, deadline_s=3600)
        entries = {}
        capacity = [None] * len(wl.CAPACITY_Q)
        for workload in wl.WORKLOADS:
            reqs = wl.pool_requests(workload)
            run.write_plans(reqs, workdir / "plans", f"{workload}-")
            result = loop.run([reqs], workload)
            for rec in result["records"]:
                req, got = rec["req"], rec["got"]
                if got is None:
                    print(f"pool entry failed: {req.argv}: {rec['error']}",
                          file=sys.stderr)
                    return 1
                if req.kind == "capacity":
                    capacity[req.grid[0][0]] = [c for _, _, c in got]
                else:
                    entries[req.ref_key] = got
            print(f"{workload}: {len(reqs)} pool entries in {result['wall_s']:.1f} s")
        prov = run.provenance()
        prov["default_seed"] = wl.DEFAULT_SEED
        prov["confirm_seed"] = wl.CONFIRM_SEED
        doc = {"provenance": prov, "capacity": capacity, "entries": entries}
        path = run.BENCH_DIR / "reference.json"
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
