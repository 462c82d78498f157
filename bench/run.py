"""Benchmark harness for nlclt.

    python3 bench/run.py --workload pde-oracle --seed 0 --seconds 36 --trace 0

Runs one workload (see ``workloads.py``) in this process, closed loop: one
client runs the ops of a pass back to back and starts the next pass when
the last one ends, until ``--seconds`` are used (at least two passes).  Most
ops are ``nlclt.cli.main(argv)`` calls, so parsing, validation and CSV
writing are timed; the rest are library calls.  Every op is checked
against its exact target at the acceptance suite's tolerances, and every
CSV is hashed and compared with the first pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs one
traced pass and the single-threaded figures baseline, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every check passed.

The speed of a shared host drifts by up to 2x over tens of seconds, and
that drift, not the program, would set the spread of raw pass walls.  So a
harness-owned reference kernel is timed before and after every op, and
``norm_wall_s`` scales each op's wall by ``REF_NOMINAL_S`` over the
reference seconds around it: seconds at a fixed machine speed.  The raw
walls are printed and kept in the run record.  Run records (and, traced, the spans) go to
``bench/out/``.

Set-up is timed in fresh interpreters, so it includes importing numpy and
the package: this process, and child processes started one before each
pass (at least ``SETUP_PROBES``), each import ``nlclt``, build the CLI
parser and run the workload's warm-up op; ``setup_s`` is the median.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("pde-oracle", "dp-converge", "density-mc")
SETUP_PROBES = 6
MIN_PASSES = 2
FIGURE_BASELINE_REPEATS = 3
NEAR_MISS = 0.5  # report checks that use at least this share of their tolerance
# about the median reference_s() on a 2-vCPU x86-64 VM (0.0066 to 0.013 s
# seen); it sets only the scale of norm_wall_s
REF_NOMINAL_S = 0.01

MODULES = ("numerics", "densities", "classical", "martingale", "sublinear",
           "measure_dp", "cli", "csvio")

# per-layer metrics: (span name, work counts, derived rate)
LAYERS = (
    ("numerics.std_normal_cdf_arr", ("elements",), ("ns_per_element", "elements")),
    ("numerics.erfcx_arr", ("elements",), ("ns_per_element", "elements")),
    ("numerics.quad_integrate", ("evals",), ("evals_per_call", "evals")),
    ("densities.chen_epstein_pdf", ("elements",), ("ns_per_element", "elements")),
    ("densities.cez_pdf", ("elements",), ("ns_per_element", "elements")),
    ("densities.emit_density_curve", (), None),
    ("densities.density_normalization", (), None),
    ("classical.simulate_clt_distance", (), None),
    ("classical.binomial_standardized_prob", (), None),
    ("martingale.hall_convergence_check", (), None),
    ("martingale.brown_ratios", (), None),
    ("martingale.mcleish_product_mean", (), None),
    ("martingale.levy_condition_terms", (), None),
    ("sublinear.solve_g_heat", ("grid_points",), None),
    ("sublinear.solve_g_expectation", ("grid_points",), None),
    ("sublinear.tree_value_oracle", ("cell_steps",), ("ns_per_cell_step", "cell_steps")),
    ("measure_dp.sup_expectation_dp", ("cells", "policy_bytes"), ("ns_per_cell", "cells")),
    ("measure_dp.policy_simulate", ("path_steps",), ("ns_per_path_step", "path_steps")),
    ("measure_dp.convergence_experiment", (), None),
    ("cli.main", ("failures",), None),
    ("csvio.render_csv", ("bytes",), ("ns_per_byte", "bytes")),
    ("csvio.write_csv_atomic", ("bytes",), ("ns_per_byte", "bytes")),
)
BYTE_COUNTS = {"policy_bytes", "bytes"}


def layer_metric_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name, counts, rate in LAYERS:
        units[f"{name}.calls"] = "count"
        for count in counts:
            units[f"{name}.{count}"] = "B" if count in BYTE_COUNTS else "count"
        units[f"{name}.self_s"] = "s"
        if rate is not None:
            units[f"{name}.{rate[0]}"] = "ns" if rate[0].startswith("ns_") else "count"
    units["cli.figures.threads1_s"] = "s"
    units["cli.figures.auto_s"] = "s"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.share"] = "ratio"
    units.update({"trace.spans": "count", "trace.pass_s": "s", "trace.glue_s": "s",
                  "trace.overhead_s": "s"})
    return units


END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "max_abs_err": "1", "xcheck_gap": "1"}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_package():
    """Import nlclt from this checkout's src/, never from elsewhere."""
    if not (SRC / "nlclt" / "cli.py").is_file():
        raise SystemExit(f"bench: no nlclt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlclt.cli
    if Path(nlclt.__file__).resolve().parent != SRC / "nlclt":
        raise SystemExit(f"bench: imported nlclt from {nlclt.__file__}, not {SRC}")
    return nlclt.cli


def setup_once(workload: str, work: Path) -> float:
    """Import, build the parser, run the warm-up op; seconds taken."""
    start = time.perf_counter()
    cli = import_package()
    cli.build_parser()
    from workloads import WARMUP_ARGV
    code = cli.main([a.format(work=work) for a in WARMUP_ARGV[workload]])
    if code != 0:
        raise SystemExit(f"bench: warm-up op exited with {code}")
    return time.perf_counter() - start


def probe_setups(workload: str, count: int) -> list:
    """Set-up seconds measured in fresh child processes, one at a time."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def reference_work() -> float:
    """Fixed work shared by no program code: a small-array numpy stencil and
    a scalar Python loop, the two kinds of work the workloads do."""
    u = np.linspace(-1.0, 1.0, 2001) ** 2
    for _ in range(250):
        d2 = np.zeros_like(u)
        d2[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        u = u + 0.1 * np.where(d2 >= 0.0, 2.0 * d2, 0.5 * d2)
    total = 0.0
    for i in range(1, 25000):
        total += math.exp(-1.0 / i)
    return float(u[1000]) + total


def reference_s() -> float:
    """Seconds of reference_work() now: the faster of two runs."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return min(times)


def file_hash(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Runner:
    """Runs passes of one batch of ops and keeps their results."""

    def __init__(self, ops, work: Path):
        self.ops = ops
        self.work = work
        self.first_hashes = None
        self.check_cache = {}
        self.attempted = 0
        self.failures = []

    def run_op(self, op):
        failure = wall = None
        checks = []
        hashes = ()
        start = time.perf_counter()
        try:
            result = op.run(str(self.work))
            wall = time.perf_counter() - start
            hashes = tuple(file_hash(self.work / f) for f in op.files)
            key = (op.name, hashes)
            if op.files and key in self.check_cache:
                checks = self.check_cache[key]
            else:
                checks = op.check(result, str(self.work))
                if op.files:
                    self.check_cache[key] = checks
        except Exception as exc:  # an op failure is reported, not fatal
            wall = wall if wall is not None else time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            failure = f"{type(exc).__name__}: {exc}"
        for label, _, value, tol in checks:
            if not value <= tol:
                failure = failure or f"check {label}: {value:.3e} > {tol:.3e}"
        return {"op": op.name, "wall_s": wall, "checks": checks, "hashes": hashes,
                "failure": failure}

    def run_pass(self, label: str) -> dict:
        records = []
        ref_before = reference_s()
        for op in self.ops:
            record = self.run_op(op)
            ref_after = reference_s()
            record["ref_s"] = 0.5 * (ref_before + ref_after)
            record["norm_wall_s"] = record["wall_s"] * REF_NOMINAL_S / record["ref_s"]
            records.append(record)
            ref_before = ref_after
        hashes = {r["op"]: r["hashes"] for r in records}
        if self.first_hashes is None:
            self.first_hashes = hashes
        for r in records:
            if r["failure"] is None and r["hashes"] != self.first_hashes[r["op"]]:
                r["failure"] = "CSV bytes differ from the first pass"
            self.attempted += 1
            if r["failure"] is not None:
                self.failures.append(f"{label} {r['op']}: {r['failure']}")
        return {"label": label, "wall_s": sum(r["wall_s"] for r in records),
                "norm_wall_s": sum(r["norm_wall_s"] for r in records), "ops": records}

    def run_for(self, seconds: float, between=lambda: None) -> list:
        """Passes until ``seconds`` are used; ``between`` runs before each."""
        passes = []
        start = time.perf_counter()
        while True:
            between()
            passes.append(self.run_pass(f"pass{len(passes) + 1}"))
            elapsed = time.perf_counter() - start
            # stop when one more pass, at the mean cost so far, would overrun
            if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
                return passes


def worst(passes, kind: str) -> float:
    return max(value for p in passes for r in p["ops"]
               for _, k, value, _ in r["checks"] if k == kind)


def op_records(ops, passes) -> list:
    """One row per op: {layer, size, wall_s, repeats, error, target, ...}."""
    rows = []
    for i, op in enumerate(ops):
        runs = [p["ops"][i] for p in passes]
        checks = runs[0]["checks"]
        errors = [v for _, k, v, _ in checks if k == "err"]
        gaps = [v for _, k, v, _ in checks if k == "gap"]
        rows.append({"op": op.name, "layer": op.layer, "size": op.size,
                     "wall_s": statistics.median(r["wall_s"] for r in runs),
                     "walls_s": [r["wall_s"] for r in runs],
                     "norm_wall_s": statistics.median(r["norm_wall_s"] for r in runs),
                     "ref_s": [r["ref_s"] for r in runs],
                     "repeats": len(runs),
                     "error": max(errors) if errors else None,
                     "gap": max(gaps) if gaps else None,
                     "target": op.target,
                     "checks": [{"label": c[0], "kind": c[1], "value": c[2], "tol": c[3]}
                                for c in checks]})
    return rows


def near_misses(passes) -> list:
    seen = {}
    for p in passes:
        for r in p["ops"]:
            for label, _, value, tol in r["checks"]:
                if tol > 0 and value >= NEAR_MISS * tol:
                    seen[(r["op"], label)] = (value, tol)
    return [f"{op}.{label}: {value:.3e} of tolerance {tol:.3e} ({value / tol:.0%})"
            for (op, label), (value, tol) in sorted(seen.items())]


def tail_note(walls) -> str:
    """The highest percentile with at least ten passes beyond it."""
    n = len(walls)
    if n < 11:
        return f"no tail percentile: {n} passes, a tail needs at least 11"
    share = (n - 10) / n
    value = sorted(walls)[n - 11]
    return f"p{100 * share:.0f} = {value:.4f} s over {n} passes"


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def figures_baseline(work: Path) -> dict:
    """figures with NLCLT_THREADS=1 and unset, alternating; median seconds."""
    from nlclt import cli
    from workloads import figures_argv
    times = {"threads1_s": [], "auto_s": []}
    for _ in range(FIGURE_BASELINE_REPEATS):
        for key, threads in (("threads1_s", "1"), ("auto_s", None)):
            if threads is None:
                os.environ.pop("NLCLT_THREADS", None)
            else:
                os.environ["NLCLT_THREADS"] = threads
            try:
                start = time.perf_counter()
                code = cli.main(figures_argv(str(work / "figures_baseline")))
                times[key].append(time.perf_counter() - start)
            finally:
                os.environ.pop("NLCLT_THREADS", None)
            if code != 0:
                raise RuntimeError(f"figures baseline exited with {code}")
    return {k: statistics.median(v) for k, v in times.items()}


def layer_metrics(tracer, traced_wall: float, untraced_median: float,
                  baseline: dict) -> dict:
    from spans import self_times
    own, covered = self_times(tracer.spans)
    by_name, by_module = {}, dict.fromkeys(MODULES, 0.0)
    for span, seconds in zip(tracer.spans, own):
        by_name[span.name] = by_name.get(span.name, 0.0) + seconds
        module = span.name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + seconds
    values = {}
    for name, counts, rate in LAYERS:
        got = tracer.counts.get(name, {})
        values[f"{name}.calls"] = got.get("calls", 0)
        for count in counts:
            values[f"{name}.{count}"] = got.get(count, 0)
        values[f"{name}.self_s"] = by_name.get(name, 0.0)
        if rate is not None:
            metric, base = rate
            amount = got.get(base, 0)
            if metric.startswith("ns_"):
                values[f"{name}.{metric}"] = 1e9 * by_name.get(name, 0.0) / amount if amount else 0.0
            else:
                calls = got.get("calls", 0)
                values[f"{name}.{metric}"] = amount / calls if calls else 0.0
    values["cli.figures.threads1_s"] = baseline["threads1_s"]
    values["cli.figures.auto_s"] = baseline["auto_s"]
    for module in MODULES:
        values[f"{module}.self_s"] = by_module[module]
        values[f"{module}.share"] = by_module[module] / traced_wall
    values["trace.spans"] = len(tracer.spans)
    values["trace.pass_s"] = traced_wall
    values["trace.glue_s"] = traced_wall - covered
    values["trace.overhead_s"] = traced_wall - untraced_median
    return values


def machine_facts(threads_env) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "caches": caches,
            "NLCLT_THREADS": threads_env if threads_env is not None else "unset"}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    threads_env = os.environ.pop("NLCLT_THREADS", None)  # auto threads in every pass
    sys.path.insert(0, str(BENCH_DIR))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(f"{setup_once(args.workload, work):.6f}")
            return 0
        setups = [setup_once(args.workload, work)]
        from workloads import build_ops, describe
        ops = build_ops(args.workload, args.seed)
        runner = Runner(ops, work)
        # probes between passes sample the machine over the whole run
        passes = runner.run_for(args.seconds,
                                lambda: setups.extend(probe_setups(args.workload, 1)))
        setups += probe_setups(args.workload, max(0, SETUP_PROBES + 1 - len(setups)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [p["wall_s"] for p in passes]
        norm_walls = [p["norm_wall_s"] for p in passes]
        untraced_median = statistics.median(walls)
        record = {"workload": args.workload, "seed": args.seed,
                  "machine": machine_facts(threads_env), "inputs": describe(ops),
                  "setup_s": setups, "pass_walls_s": walls,
                  "pass_norm_walls_s": norm_walls}
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_pass("traced")
            finally:
                tracer.uninstall()
            baseline = figures_baseline(work)
            metrics = layer_metrics(tracer, traced["wall_s"], untraced_median, baseline)
            units = layer_metric_units()
            with open(OUT_DIR / f"{run_id}-spans.json", "w", encoding="utf-8") as handle:
                json.dump([vars(s) for s in tracer.spans], handle)
        else:
            metrics = {"norm_wall_s": statistics.median(norm_walls),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": peak_rss_mb, "max_abs_err": worst(passes, "err"),
                       "xcheck_gap": worst(passes, "gap")}
            units = END_TO_END_UNITS
        record.update({"ops": op_records(ops, passes), "metrics": metrics,
                       "failures": runner.failures})
        with open(OUT_DIR / f"{run_id}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)

        print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
              f"{runner.attempted} ops, {len(runner.failures)} failed "
              f"(fail_ratio {len(runner.failures) / runner.attempted:.3g})")
        print(f"wall_s median {untraced_median:.4f} s; {tail_note(walls)}")
        print(f"norm_wall_s median {statistics.median(norm_walls):.4f} s; "
              f"{tail_note(norm_walls)}")
        for row in record["ops"]:
            print(f"  {row['op']:<24} {row['layer']:<10} size {row['size']:<8} "
                  f"wall {row['wall_s']:.4f} s  norm {row['norm_wall_s']:.4f} s  "
                  f"error {row['error']}  gap {row['gap']}")
        for line in near_misses(passes):
            print(f"near-miss {line}")
        for line in runner.failures:
            print(f"FAILED {line}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        correct = not runner.failures
        print(json.dumps({
            "correct": correct, "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
