"""One workload in a fresh process.

``--serve``: lockstep mode for end-to-end runs.  run.py starts two of
these, one on the library in ``src/`` and one on the frozen copy in
``perfbench/seed_src``, and sends each operation index to both in turn, so
together they form a single-client closed loop: the next operation starts
when the previous one returns.  There is no warm-up: a command-line user
pays first-call costs on every invocation, and the median absorbs the one
slower first operation.

Without ``--serve`` (traced runs): operations come in pairs on the same
input, one untraced and one traced, alternating which goes first; the
tracer is installed around each traced operation only and removed after
it.  The loop stops at a pair boundary before an operation that would
likely end past ``--seconds``.

``--setup-probe`` imports the package, loads the fixtures and prints
``ready``.  run.py sets the thread pins and PYTHONPATH; by hand, from the
repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/worker.py \\
        --workload ks-peres --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import workloads


class Outputs:
    """Compact records of one worker's outputs, for the gate in run.py."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []
        self.first_text = None  # the first report, kept whole

    def add(self, k: int, output, error) -> None:
        if error is not None:
            self.records.append({"input": k, "error": error})
            return
        self.records.append(workloads.summarize(self.workload, k, output))
        if self.first_text is None and isinstance(output, str):
            self.first_text = output


def attempt(workload: str, ctx: dict, item, span=None):
    """Run and time one operation: (output, error text or None, ms)."""
    t0 = time.perf_counter()
    try:
        with span or contextlib.nullcontext():
            output, error = workloads.operate(workload, ctx, item), None
    except Exception as exc:  # an operation failure is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, error, (time.perf_counter() - t0) * 1e3


def serve(workload: str, ctx: dict, inputs) -> int:
    """Lockstep mode: for each line ``k`` on stdin run operation k and
    answer with one JSON line; on an empty line print the records and the
    peak RSS, and exit.  run.py drives two of these in turns."""
    outputs = Outputs(workload)
    for line in sys.stdin:
        if not line.strip():
            break
        k = int(line)
        output, error, ms = attempt(workload, ctx, inputs.get(k))
        outputs.add(k, output, error)
        print(json.dumps({"ms": ms, "ok": error is None}), flush=True)
    json.dump(
        {
            "records": outputs.records,
            "first_text": outputs.first_text,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
        sys.stdout,
    )
    return 0


def traced_loop(workload: str, ctx: dict, inputs, seconds: float) -> int:
    """Pairs of one untraced and one traced operation on the same input,
    alternating which goes first, until ``seconds`` have passed; prints
    the times, records and span summary as one JSON object."""
    from tracer import Tracer

    tracer = Tracer()
    outputs = Outputs(workload)
    times_ms, traced_flags = [], []
    restored, bindings = True, 0
    ops = 0
    deadline = time.perf_counter() + seconds
    while True:
        k, second = divmod(ops, 2)
        traced = bool(second) != bool(k % 2)
        item = inputs.get(k)
        if traced:
            bindings = tracer.install()
        output, error, ms = attempt(workload, ctx, item, tracer.span("op") if traced else None)
        if traced:
            tracer.uninstall()
            restored = restored and tracer.restored()
        times_ms.append(ms)
        traced_flags.append(traced)
        outputs.add(k, output, error)
        ops += 1
        if ops % 2 == 0 and time.perf_counter() + ms / 1e3 > deadline:
            break
    json.dump(
        {
            "times_ms": times_ms,
            "traced": traced_flags,
            "records": outputs.records,
            "first_text": outputs.first_text,
            "trace": {
                "summary": tracer.summary(),
                "counts": dict(tracer.counts),
                "restored": restored,
                "bindings": bindings,
            },
        },
        sys.stdout,
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--serve", action="store_true")
    parser.add_argument("--cpu", type=int, help="run only on this CPU")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    ctx = workloads.setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    inputs = workloads.Inputs(args.workload, args.seed)
    if args.serve:
        return serve(args.workload, ctx, inputs)
    return traced_loop(args.workload, ctx, inputs, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
