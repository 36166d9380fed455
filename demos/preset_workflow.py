"""Plan-driven experiment workflow, end to end.

Loads the fig6 preset (resolution sweep at fixed width, with the
matching limit bounds), runs it at a reduced trial count, and prints the
rows it wrote.  Re-runs with a different worker count to show the output
bytes do not depend on parallelism.

Run:  python3 demos/preset_workflow.py
"""

import dataclasses
import tempfile
from pathlib import Path

from searchlab import load_preset, run_plan


def main():
    plan = load_preset("fig6")
    swept = {name: vals for name, vals in plan.axes if len(vals) > 1}
    print(f"preset {plan.id}: sweeps {swept}, "
          f"{plan.n_trials} trials per point (running 50 here)")
    print(f"strategies: {[s.kind for s in plan.strategies]}")
    print(f"bounds: {list(plan.bound_set)}")
    print()

    small = dataclasses.replace(plan, n_trials=50)
    with tempfile.TemporaryDirectory() as td:
        one = run_plan(small, Path(td) / "w1", workers=1)
        two = run_plan(small, Path(td) / "w2", workers=2)
        for path in one:
            print(f"--- {path.name} ---")
            print(path.read_text(), end="")
            print()
        same = all(a.read_bytes() == b.read_bytes()
                   for a, b in zip(sorted(one), sorted(two)))
        print(f"workers=1 vs workers=2 byte-identical: {same}")


if __name__ == "__main__":
    main()
