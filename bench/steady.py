"""Steadiness mode: run workloads repeatedly and report each metric's spread.

    python3 bench/steady.py --workloads sim_posterior bounds_requests \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 25 --out steadiness.json

Each (workload, seed) pair is one run of run.py in its own process, one
after another.  For every metric the report gives the median, the first
and third quartiles (statistics.quantiles with n=4) and the spread, the
distance between the quartiles as a share of the median.  The bounds in
BENCHMARK.json are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          cwd=RUN.parent.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=wl.WORKLOADS,
                   default=list(wl.WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--out", type=Path, help="also write the summary as JSON")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    summary = {}
    for workload in args.workloads:
        results = [one_run(workload, s, args.seconds) for s in args.seeds]
        names = results[0]["metrics"]
        summary[workload] = {
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {n: {"unit": results[0]["metrics"][n]["unit"],
                            **summarize([r["metrics"][n]["value"] for r in results])}
                        for n in names},
        }
        print(f"{workload}: {len(args.seeds)} runs, "
              f"{summary[workload]['failed']} of {summary[workload]['attempted']} "
              f"requests failed")
        for name, s in summary[workload]["metrics"].items():
            print(f"  {name:40s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds,
                                        "workloads": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
