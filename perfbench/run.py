"""Benchmark of unsharp_spin: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload ks-peres --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` an invocation times ``setup_s`` over fresh
interpreters, then runs the workload as a single-client closed loop over
two fresh worker processes that take turns on the same inputs: one on the
library in ``src/``, one on the frozen copy in ``perfbench/seed_src``.
Latency and throughput are reported as ratios of the two (see
seed_src/README.md), the raw times are printed too.  With ``--trace 1``
one worker alternates untraced and traced operations on the library in
``src/`` and the per-layer metrics come from the traced ones.  Every
output of the library in ``src/`` is checked.  BLAS/OpenMP threads are
pinned to 1 everywhere.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
every workload briefly in both modes and checks the metric names, that
nothing failed, and that tracing left every wrapped function as it found
it.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Pinned before numpy is imported here too: with default OpenBLAS threads a
# small eigensolve right after a large brute-force enumeration stalled for
# hundreds of milliseconds on a 2-CPU machine.
os.environ.update(THREAD_PINS)

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
SEED_SRC = BENCH_DIR / "seed_src"
SETUP_PROBES = 8  # before the loop, and as many again after it
TIME_LIMIT_S = 170.0  # an invocation must end within 180 s
TAIL_MIN_BEYOND = 10  # a percentile is reported only with this many samples above it

END_TO_END = {
    "setup_s": "s",
    "op_p50_vs_seed": "ratio",
    "ops_per_s_vs_seed": "ratio",
    "peak_rss_mb": "MB",
}
# Per-layer metrics carried in the result line: counts for every traced
# function, and self time for the two that every workload runs.  The
# self time of every span is printed in the traced run's table.
LAYER_COUNTERS = (
    "ks_solver.canonicalize_and_dedupe.vectors_in",
    "ks_solver.canonicalize_and_dedupe.rays_out",
    "ks_solver.build_graph.pairs",
    "ks_solver.build_graph.tripods",
    "ks_solver.solve_coloring.nodes",
    "ks_solver.solve_coloring.max_depth",
    "formats.dumps_report.bytes",
)
LAYER_TIMES = ("ks_solver.build_graph.self_ms", "ks_solver.solve_coloring.self_ms")

# the layer each workload was chosen to stress: (label, numerator spans,
# denominator span, minimum share of the denominator's inclusive time)
STRESS = {
    "ks-peres": ("geometry share of ks_pipeline", ("ks_solver.eigenray_set", "ks_solver.build_graph"), "ks_solver.ks_pipeline", None),
    "ks-random": ("geometry share of ks_pipeline", ("ks_solver.eigenray_set", "ks_solver.build_graph"), "ks_solver.ks_pipeline", 0.8),
    "ks-count": ("solve_coloring share of the operation", ("ks_solver.solve_coloring",), "op", 0.8),
    "verify": ("quadrature share of the suite", ("unsharp_povm.effects", "misalignment.sphere_integral_matrix"), "verify.run_verification", 0.5),
}


def layer_metric_units() -> dict[str, str]:
    from tracer import span_names

    units = {f"{name}.calls": "count" for name in span_names()}
    units.update({name: "count" for name in LAYER_COUNTERS})
    units.update({name: "ms" for name in LAYER_TIMES})
    units["trace.overhead_frac"] = "ratio"
    return units


def child_env(src: Path) -> dict[str, str]:
    """Environment of a worker importing ``unsharp_spin`` from ``src``."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git (which
    would read configuration outside the checkout)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_PINS,
    }


def measure_setup(env: dict, deadline: float, warm: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line, once
    per probe; with ``warm`` an unmeasured probe first writes the bytecode
    caches."""
    times = []
    for probe in range(SETUP_PROBES + warm):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--setup-probe"],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        if probe or not warm:
            times.append(t1 - t0)
    return times


def run_traced(workload: str, seed: int, seconds: float, env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True,
        env=env,
        cwd=ROOT,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_pairs(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """The closed loop over two lockstep workers, the library in ``src/``
    ("live") and the frozen copy ("seed"): operation k runs on both, in an
    order that alternates with k, until ``seconds`` have passed.  Both
    workers are pinned to the same CPU, so that contention on one CPU
    cannot favour one side.  Returns per-side operation times and the
    workers' final reports."""
    sides = {"live": ROOT / "src", "seed": SEED_SRC}
    cpu = str(min(os.sched_getaffinity(0)))
    procs = {
        side: subprocess.Popen(
            [sys.executable, str(WORKER), "--serve", "--workload", workload, "--seed", str(seed), "--cpu", cpu],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(src),
            cwd=ROOT,
            text=True,
        )
        for side, src in sides.items()
    }
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), lambda: [p.kill() for p in procs.values()])
    watchdog.start()
    try:
        times = {side: [] for side in sides}
        start = time.monotonic()
        k = 0
        while True:
            for side in ("live", "seed") if k % 2 == 0 else ("seed", "live"):
                proc = procs[side]
                proc.stdin.write(f"{k}\n")
                proc.stdin.flush()
                reply = json.loads(proc.stdout.readline())
                if side == "seed" and not reply["ok"]:
                    raise RuntimeError(f"the seed copy failed operation {k}")
                times[side].append(reply["ms"])
            k += 1
            pair_s = (times["live"][-1] + times["seed"][-1]) / 1e3
            if time.monotonic() - start + pair_s > seconds:
                break
        reports = {}
        for side, proc in procs.items():
            out, _ = proc.communicate("\n", timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(f"{side} worker exited with {proc.returncode}")
            reports[side] = json.loads(out)
    finally:
        watchdog.cancel()
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return {"times_ms": times, **reports["live"]}


def tail(times: list[float]) -> str:
    n = len(times)
    if n * 0.1 < TAIL_MIN_BEYOND:
        return f"unresolved (n={n}; p90 needs n >= {10 * TAIL_MIN_BEYOND})"
    return f"{statistics.quantiles(times, n=10)[8]:.6g} ms (n={n}, {n - int(n * 0.9)} beyond)"


def end_to_end(worker: dict, setup_times: list[float], out) -> dict[str, float]:
    live, seed = worker["times_ms"]["live"], worker["times_ms"]["seed"]
    out.write(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}\n")
    out.write(f"op_p50_ms = {statistics.median(live):.6g} ms (seed copy {statistics.median(seed):.6g} ms), n={len(live)} pairs\n")
    out.write(f"op_p90_ms = {tail(live)}\n")
    out.write(f"ops_per_s = {len(live) / sum(live) * 1e3:.6g} 1/s of operation time (seed copy {len(seed) / sum(seed) * 1e3:.6g})\n")
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_vs_seed": statistics.median(a / b for a, b in zip(live, seed)),
        "ops_per_s_vs_seed": sum(seed) / sum(live),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
    }


def per_layer(workload: str, worker: dict, out) -> dict[str, float]:
    """Per-operation layer metrics from the traced operations; prints the
    full span table as it goes."""
    from tracer import check_span_names, span_names

    trace = worker["trace"]
    summary, counts = trace["summary"], trace["counts"]
    traced = [t for t, flag in zip(worker["times_ms"], worker["traced"]) if flag]
    plain = [t for t, flag in zip(worker["times_ms"], worker["traced"]) if not flag]
    n = len(traced)

    def stat(name, key):
        return summary.get(name, {}).get(key, 0) / n

    metrics = {f"{name}.calls": stat(name, "calls") for name in span_names()}
    metrics.update({name: counts.get(name, 0) / n for name in LAYER_COUNTERS})
    metrics.update({name: stat(name.rsplit(".", 1)[0], "self_ns") / 1e6 for name in LAYER_TIMES})
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0

    out.write(f"traced operations: {n} (and {len(plain)} untraced, paired on the same inputs)\n")
    out.write(f"tracing restored every binding: {trace['restored']} ({trace['bindings']} bindings wrapped)\n")
    out.write(f"{'span':44s} {'calls/op':>10s} {'self ms/op':>12s} {'incl ms/op':>12s}\n")
    for name in ["op"] + span_names() + check_span_names():
        if name in summary:
            out.write(
                f"{name:44s} {stat(name, 'calls'):10.2f} {stat(name, 'self_ns') / 1e6:12.4f} "
                f"{stat(name, 'total_ns') / 1e6:12.4f}\n"
            )
    vectors_in = counts.get("ks_solver.canonicalize_and_dedupe.vectors_in", 0)
    if vectors_in:
        ratio = counts.get("ks_solver.canonicalize_and_dedupe.rays_out", 0) / vectors_in
        out.write(f"ks_solver.dedupe.kept_ratio = {ratio:.4f} (rays out / vectors in)\n")
    label, parts, whole, minimum = STRESS[workload]
    denominator = summary.get(whole, {}).get("total_ns", 0)
    if denominator:
        share = sum(summary.get(p, {}).get("total_ns", 0) for p in parts) / denominator
        verdict = "" if minimum is None else (" meets" if share >= minimum else " BELOW") + f" the {minimum:.0%} aim"
        out.write(f"stress: {label} = {share:.3f}{verdict}\n")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int, out=sys.stdout) -> tuple[dict, dict]:
    """One benchmark invocation; returns (result line, worker output)."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = child_env(ROOT / "src")
    out.write(f"workload {workload} seed {seed} seconds {seconds} trace {trace}\n")
    out.write(f"env {json.dumps(environment(), sort_keys=True)}\n")
    if trace:
        worker = run_traced(workload, seed, seconds, env, deadline)
    else:
        # probes on both sides of the loop, as the machine's speed drifts
        setup_times = measure_setup(env, deadline, warm=True)
        worker = run_pairs(workload, seed, seconds, deadline)
        setup_times += measure_setup(env, deadline, warm=False)

    ok, notes = workloads.gate(workload, seed, worker["records"], worker["first_text"])
    attempted, failed = len(worker["records"]), ok.count(False)
    for note in notes[:20]:
        out.write(f"gate: {note}\n")
    out.write(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)\n")

    if trace:
        metrics = per_layer(workload, worker, out)
        units = layer_metric_units()
    else:
        metrics = end_to_end(worker, setup_times, out)
        units = END_TO_END
    for name, unit in units.items():
        out.write(f"{name} = {metrics[name]:.6g} {unit}\n")
    out.write(f"invocation wall time {time.monotonic() - started:.1f} s\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, worker


def smoke(seconds: float) -> int:
    """Every workload, briefly, in both modes: metric names match
    BENCHMARK.json, nothing fails, and tracing restores every binding."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, worker = run(workload, 1, seconds, trace, out=sys.stderr)
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            where = f"{workload} trace {trace}"
            found = []
            if set(result["metrics"]) != wanted:
                found.append(f"metrics {sorted(set(result['metrics']) ^ wanted)} differ")
            if result["failed"] or not result["correct"]:
                found.append(f"{result['failed']} of {result['attempted']} operations failed")
            if trace and not (worker["trace"]["restored"] and worker["trace"]["bindings"] > 0):
                found.append("tracing did not restore every wrapped binding")
            print(f"smoke {where}: {'; '.join(found) or 'ok'}", flush=True)
            problems += found
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short run of every workload in both modes")
    args = parser.parse_args()

    if not (ROOT / "src" / "unsharp_spin" / "__init__.py").is_file():
        print(f"error: no src/unsharp_spin under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke(min(args.seconds, 1.0))
    if not args.workload:
        parser.error("--workload is required")
    result, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
