"""searchlab benchmark: closed-loop CLI workloads with end-to-end metrics
and a traced per-layer run.

    python3 bench/run.py --workload sim_posterior --seed 1712 --seconds 20 --trace 0

One client issues `searchlab.cli.main` requests in-process, each after the
previous one returned (a closed loop), with --workers 1 and outputs in a
scratch directory inside the checkout.  Before each request the package's
lru caches are emptied, as a fresh `searchlab` process would have them.
Every output is checked against reference.json.  A human-readable report
goes to stdout; its last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same rounds
twice, untraced and then traced, and reports the per-layer metrics; the
trace itself is written to .bench_trace/.  See README.md for the workloads,
the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
# Requests stop this long after the first one; a run must end within 180 s.
RUN_DEADLINE_S = 140
READY = "setup-ready"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics kept in the JSON result: every count, and the times that
# every workload produces.  Times of layers a workload bypasses would read 0
# on every run, so those are printed and traced but left out of the JSON.
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.self_s": "s",
    "plan.parse_plan.us_per_call": "us",
    "plan.run_plan.self_s": "s",
    "plan.self_s": "s",
    "plan.bytes_written": "B",
    "sim.exact_rows": "count",
    "strategies.probes_per_trial": "probes",
    "inference.update_log_probs.calls": "count",
    "inference.renormalize_log_probs.calls": "count",
    "inference.u_log_probs.calls": "count",
    "strategies.sorted_pm_mask.calls": "count",
    "strategies.random_composition_mask.calls": "count",
    "channel.psi_component.calls": "count",
    "channel.psi.calls": "count",
    "channel.solve_a_eta.calls": "count",
    "channel.solve_a_eta.misses": "count",
    "channel.bawgn_capacity.calls": "count",
    "channel.bawgn_capacity.misses": "count",
    "channel.bawgn_capacity.hit_ratio": "ratio",
    "channel.bawgn_capacity.self_s": "s",
    "channel.optimal_composition.calls": "count",
    "channel.optimal_composition.misses": "count",
    "channel.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}
CACHED = ("bawgn_capacity", "optimal_composition", "solve_a_eta")


def import_searchlab():
    """Import the package from this checkout's src/, never from elsewhere."""
    import searchlab
    if Path(searchlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"searchlab was imported from {searchlab.__file__}, "
                          f"not from {SRC}")
    import searchlab.channel
    import searchlab.cli
    return searchlab


def _package_caches(searchlab) -> dict:
    """Every lru cache of the package, by function name."""
    caches = {}
    for mod_name in ("channel", "bounds", "inference", "strategies", "sim",
                     "plan", "model"):
        module = getattr(searchlab, mod_name, None)
        for name, obj in vars(module).items() if module else ():
            if callable(getattr(obj, "cache_clear", None)) and \
                    callable(getattr(obj, "cache_info", None)):
                caches.setdefault(name, obj)
    return caches


def prepare(workload: str, seed: int, seconds: float, workdir: Path,
            rounds: int | None = None):
    """Generate the run's requests and write the plan files of its sweeps."""
    n_rounds = rounds if rounds is not None else wl.rounds_for(workload, seconds)
    schedule = wl.build_rounds(workload, seed, n_rounds)
    for r, reqs in enumerate(schedule):
        write_plans(reqs, workdir / "plans", f"{r}-")
    return schedule


def write_plans(reqs, plan_dir: Path, prefix: str) -> None:
    """Write each sweep request's plan file and point its argv at it."""
    plan_dir.mkdir(parents=True, exist_ok=True)
    for i, req in enumerate(reqs):
        if req.plan is not None:
            path = plan_dir / f"{prefix}{i}.json"
            path.write_text(json.dumps(req.plan), encoding="utf-8")
            req.argv = [*req.argv, "--plan", str(path)]


class DeadlineExceeded(BaseException):
    """Interrupts the request running when the run's time is up.  Not an
    Exception, so no handler inside the package can swallow it."""


class Loop:
    """Runs a schedule in a closed loop and keeps what the metrics need.

    Once `deadline_s` has passed since the first request, the running
    request is interrupted and every request not yet finished counts as
    failed, so a program that hangs or slows down badly still gets a result.
    """

    def __init__(self, searchlab, reference: dict | None, workdir: Path,
                 deadline_s: float = RUN_DEADLINE_S):
        self.cli_main = searchlab.cli.main
        self.caches = _package_caches(searchlab)
        self.reference = reference
        self.workdir = workdir
        self.deadline_s = deadline_s
        self.expired = False
        self.in_request = False
        self._armed = False

    def _time_up(self, signum, frame):
        self.expired = True
        if self.in_request:
            raise DeadlineExceeded()

    def _arm(self):
        if not self._armed:
            signal.signal(signal.SIGALRM, self._time_up)
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
            self._armed = True

    def run(self, schedule, phase: str, tracer: Tracer | None = None) -> dict:
        main = self.cli_main
        if tracer is not None:
            main = tracer.install()
        cache_stats = {name: [0, 0] for name in self.caches}
        records = []
        self._arm()
        try:
            start = perf_counter()
            for r, reqs in enumerate(schedule):
                for i, req in enumerate(reqs):
                    if self.expired:
                        records.append({"req": req, "latency": 0.0, "ok": False,
                                        "exact": False, "got": None, "bytes": 0,
                                        "error": "not run: run deadline reached"})
                        continue
                    records.append(self._one(main, req, f"{phase}/{r}-{i}",
                                             tracer, cache_stats))
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return {"records": records, "wall_s": wall, "cache_stats": cache_stats}

    def _one(self, main, req, request_id, tracer, cache_stats) -> dict:
        for cache in self.caches.values():
            cache.cache_clear()
        out_dir = self.workdir / request_id
        argv = req.argv if req.kind == "drift" else [*req.argv, "--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request_id = request_id
        error = ""
        t0 = perf_counter()
        try:
            self.in_request = True
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
        except SystemExit as exc:  # argparse rejecting the request
            rc, error = exc.code, stderr.getvalue().strip()
        except Exception as exc:  # a traceback is a failed request
            rc, error = None, f"{type(exc).__name__}: {exc}"
        except DeadlineExceeded:
            rc, error = None, "interrupted: run deadline reached"
        finally:
            self.in_request = False
        latency = perf_counter() - t0
        for name, cache in self.caches.items():
            info = cache.cache_info()
            cache_stats[name][0] += info.hits
            cache_stats[name][1] += info.misses
        got, ok, exact = None, False, False
        if rc == 0:
            try:
                got = wl.read_output(req, out_dir, stdout.getvalue())
                if self.reference is None:  # recording the reference
                    ok = True
                else:
                    ok, exact, error = wl.check_output(req, got, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        elif not error:
            error = f"exit code {rc}: {stderr.getvalue().strip()}"
        return {"req": req, "latency": latency, "ok": ok, "exact": exact,
                "error": error, "got": got,
                "bytes": wl.bytes_written(out_dir)}


def _quantile(values, q: float) -> float:
    """The q-quantile, linear between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _probes(rec) -> float:
    if rec["req"].kind == "sim":
        return rec["got"]["mean_tau"] * rec["req"].work
    if rec["req"].kind == "drift":
        return rec["got"]["n_steps"]
    return 0.0


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """(metrics for the JSON result, workload metrics for the report)."""
    records = result["records"]
    good = [r for r in records if r["ok"]]
    gated = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": result["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {}
    sims = [r for r in good if r["req"].kind == "sim"]
    probing = [r for r in good if r["req"].kind in ("sim", "drift")]
    if sims:
        report["trials_per_s"] = (sum(r["req"].work for r in sims)
                                  / sum(r["latency"] for r in sims), "1/s")
        report["probes_per_s"] = (sum(_probes(r) for r in probing)
                                  / sum(r["latency"] for r in probing), "1/s")
        for m in wl.SIM_SIZES:
            sized = [r for r in probing if r["req"].size == m]
            report[f"probes_per_s.M{m}"] = (
                sum(_probes(r) for r in sized) / sum(r["latency"] for r in sized),
                "1/s")
    reports = [r["latency"] * 1e3 for r in records if r["req"].kind == "bounds"]
    if reports:
        report["report_ms_p50"] = (_quantile(reports, 0.5), "ms")
        report["report_ms_p90"] = (_quantile(reports, 0.9), "ms")
        report["report_count"] = (len(reports), "count")
    caps = [r for r in good if r["req"].kind == "capacity"]
    if caps:
        report["capacity_evals_per_s"] = (sum(r["req"].work for r in caps)
                                          / sum(r["latency"] for r in caps), "1/s")
    report["fail_rate"] = ((len(records) - len(good)) / len(records), "ratio")
    return gated, report


# What the traced run reports for each boundary, grouped by layer.
TRACED_FIELDS = (
    ("inference.update_log_probs", ("calls", "us_per_call", "self_s")),
    ("inference.renormalize_log_probs", ("calls", "us_per_call")),
    ("inference.u_log_probs", ("calls", "us_per_call")),
    ("strategies.sorted_pm_mask", ("calls", "us_per_call")),
    ("strategies.random_composition_mask", ("calls", "us_per_call")),
    ("strategies.run_strategy", ("calls", "self_s")),
    ("sim.trial_seed_for", ("calls", "us_per_call")),
    ("sim.run_single_trial", ("calls", "self_s")),
    ("sim.run_trials", ("calls", "self_s")),
    ("sim.drift_probe", ("calls", "self_s")),
    ("channel.psi_component", ("calls", "us_per_call", "self_s")),
    ("channel.psi", ("calls", "self_s")),
    ("channel.solve_a_eta", ("calls", "self_s")),
    ("channel.bawgn_capacity", ("calls", "us_per_call", "self_s")),
    ("channel.optimal_composition", ("calls", "self_s")),
    ("bounds.adaptivity_gain_lower_bound", ("calls", "self_s")),
    ("bounds.adaptive_upper_bound", ("calls", "self_s")),
    ("bounds.general_f_bounds", ("calls", "self_s")),
    ("bounds.nonadaptive_lower_bound", ("calls", "self_s")),
    ("plan.parse_plan", ("calls", "us_per_call")),
    ("plan.run_plan", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
LAYERS = ("cli", "plan", "sim", "strategies", "inference", "channel", "bounds")


def per_layer(tracer: Tracer, traced: dict, untraced: dict) -> tuple[dict, dict]:
    """(metrics for the JSON result, all per-layer metrics for the report)."""
    totals = tracer.totals()
    m: dict[str, float] = {}
    for name, fields in TRACED_FIELDS:
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "self_s": self_s,
                  "us_per_call": busy / calls * 1e6 if calls else 0.0}
        for field in fields:
            m[f"{name}.{field}"] = values[field]
    for name in CACHED:
        hits, misses = traced["cache_stats"].get(name, (0, 0))
        m[f"channel.{name}.misses"] = misses
        m[f"channel.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    records = traced["records"]
    trials = sum(r["req"].work for r in records if r["req"].kind == "sim")
    sim_probes = sum(_probes(r) for r in records
                     if r["req"].kind == "sim" and r["got"] is not None)
    m["strategies.probes_per_trial"] = sim_probes / trials if trials else 0.0
    m["sim.exact_rows"] = sum(1 for r in records if r["exact"])
    m["sim.rows"] = sum(1 for r in records if r["req"].kind in ("sim", "drift"))
    m["plan.bytes_written"] = sum(r["bytes"] for r in records)

    layers = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in totals.items():
        layers[name.split(".", 1)[0]] += self_s
    for layer, self_s in layers.items():
        m[f"{layer}.self_s"] = self_s
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.unattributed_s"] = traced["wall_s"] - sum(layers.values())
    m["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    order = {layer: i for i, layer in enumerate((*LAYERS, "trace"))}
    report = dict(sorted(m.items(), key=lambda kv: order[kv[0].split(".", 1)[0]]))
    return {k: m[k] for k in PER_LAYER_UNITS}, report


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def measure_setup(workload: str, seed: int, seconds: float) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    searchlab and generated the workload's plans, SETUP_SAMPLES times."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = ""
            if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            if line != READY:
                proc.kill()
            proc.stdout.read()
            rc = proc.wait()
        if line != READY or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit code {rc})")
        samples.append(elapsed)
    return samples


def provenance() -> dict:
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "commit": commit}


def _print_metrics(title: str, metrics: dict, units) -> None:
    print(title)
    for name, value in metrics.items():
        unit = units(name)
        print(f"  {name:44s} {value:>16.6g} {unit}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="sizes the run: rounds = seconds / nominal round time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.setup_probe:
            import_searchlab()
            prepare(args.workload, args.seed, args.seconds, workdir)
            print(READY, flush=True)
            return 0
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    try:
        searchlab = import_searchlab()
    except ImportError as exc:
        print(f"error: cannot import searchlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    reference = wl.load_reference(args.reference)
    loop = Loop(searchlab, reference, workdir)
    prov = provenance()
    print(f"searchlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    if args.trace:
        n = max(1, wl.rounds_for(args.workload, args.seconds / 2))
        schedule = prepare(args.workload, args.seed, args.seconds, workdir, n)
        untraced = loop.run(schedule, "untraced")
        tracer = Tracer()
        traced = loop.run(schedule, "traced", tracer)
        metrics, report = per_layer(tracer, traced, untraced)
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload,
                                          "seed": args.seed, **tracer.dump()}),
                              encoding="utf-8")
        result = {"records": untraced["records"] + traced["records"]}
        print(f"rounds {n} per phase, {len(traced['records'])} requests; "
              f"trace written to {trace_path.relative_to(ROOT)}")
        _print_metrics("per-layer metrics (traced run)", report, _unit)
    else:
        setup = measure_setup(args.workload, args.seed, args.seconds)
        schedule = prepare(args.workload, args.seed, args.seconds, workdir)
        result = loop.run(schedule, "run")
        metrics, report = end_to_end(result, setup)
        print(f"rounds {len(schedule)}, {len(result['records'])} requests; "
              f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)}")
        _print_metrics("end-to-end metrics (gated in BENCHMARK.json)", metrics,
                       END_TO_END_UNITS.get)
        _print_metrics("workload metrics", {k: v for k, (v, _) in report.items()},
                       lambda k: report[k][1])

    failed = [r for r in result["records"] if not r["ok"]]
    for r in failed[:10]:
        print(f"FAILED {' '.join(r['req'].argv[:6])} ...: {r['error']}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not failed,
        "attempted": len(result["records"]),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
