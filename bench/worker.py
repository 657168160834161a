"""One benchmark process: import sylvester, warm up, report ready, then run.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It prints ``ready``
once the import and one warm-up command of the workload are done (the parent
times spawn-to-ready as set-up), then one JSON line with the samples of the
``stdlib`` calibration kernel (``calibrate.py``) taken right before and right
after set-up, which the parent rescales set-up by.  Then, unless ``--mode
setup``, it drives the workload as a single closed-loop caller of
``sylvester.cli.main`` and prints one JSON line with what it measured.

Modes:
  setup  stop after ready;
  run    untraced, whole blocks until ``--seconds`` have passed, with
         calibration samples taken between operations;
  trace  a fixed number of operations untraced and as many traced, then the
         Monte Carlo phase replay; spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import calibrate
import workloads

# blocks per pass in trace mode
TRACE_BLOCKS = {"exact": 3, "mc": 1, "certify": 1}

# The calibration kernel each workload's times are rescaled by, and how it
# is interleaved: one stdlib sample every EXACT_CALIBRATE_EVERY exact
# commands (about 10% of the time), and NUMPY_SAMPLES_PER_OP numpy samples
# before each mc or certify operation and at the end of each block.
KERNEL = {"exact": "stdlib", "mc": "numpy", "certify": "numpy"}
EXACT_CALIBRATE_EVERY = 4
NUMPY_SAMPLES_PER_OP = 3
# stdlib samples taken right before set-up, and as many right after
SETUP_CALIBRATION_SAMPLES = 15


def call_cli(main, argv: list[str]) -> tuple[int | None, str]:
    """Run one command in-process; (exit code or None if it raised, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc(file=sys.__stderr__)
            rc = None
    return rc, out.getvalue()


class Caller:
    """Runs operations through ``main``, timing and checking each one."""

    def __init__(self, workload: str, main, refs: workloads.References):
        self.workload = workload
        self.main = main
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        # None until an operation passes; then whether its corruptions all failed
        self.selftest_rejected: bool | None = None

    def run(self, op: dict) -> tuple[float, list, bool]:
        """(seconds, (exit code, stdout) per command, whether the check passed)."""
        start = perf_counter()
        results = [call_cli(self.main, argv) for argv in op["cmds"]]
        elapsed = perf_counter() - start
        self.attempted += 1
        ok = workloads.check(self.workload, op, results, self.refs)
        self.failed += not ok
        if ok and self.selftest_rejected is None:
            self.selftest_rejected = self.selftest(op, results)
        return elapsed, results, ok

    def selftest(self, op: dict, results: list) -> bool:
        """Corrupted copies of a correct result must each fail the check."""
        variants = list(workloads.corruptions(self.workload, results))
        return bool(variants) and not any(
            workloads.check(self.workload, op, bad, self.refs) for bad in variants)


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy in use, when it exposes one."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": blas_threads(),
        "sylvester_threads_env": os.environ.get("SYLVESTER_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_mode(caller: Caller, args) -> dict:
    """Whole blocks until ``--seconds`` have passed.

    A block holds (case, seconds) per operation, and per operation the
    calibration samples taken right before it, plus those taken after the
    block's last operation.
    """
    kernel = KERNEL[args.workload]
    every, per_op = ((EXACT_CALIBRATE_EVERY, 1) if kernel == "stdlib"
                     else (1, NUMPY_SAMPLES_PER_OP))
    calibration = calibrate.Calibration(kernel)
    calibration.sample()  # first call of the kernel in this process: untimed
    calibration.take()
    blocks = []
    start = perf_counter()
    for ops in workloads.blocks(args.workload, args.seed):
        timed, samples = [], []
        for i, op in enumerate(ops):
            if i % every == 0:
                calibration.sample(per_op)
            samples.append(calibration.take())
            timed.append((op["case"], caller.run(op)[0]))
        calibration.sample(per_op)
        samples.append(calibration.take())
        blocks.append({"ops": timed, "calibration": samples})
        if perf_counter() - start >= args.seconds:
            break
    return {"blocks": blocks, "kernel": kernel, "peak_rss_mb": peak_rss_mb()}


def trace_ops(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """Two disjoint, equally sized operation lists: untraced, then traced."""
    stream = workloads.blocks(workload, seed)
    n = TRACE_BLOCKS[workload]
    return tuple([op for _ in range(n) for op in next(stream)] for _ in range(2))


def trace_mode(caller: Caller, args) -> dict:
    # imported here so set-up imports only what a user's command imports
    import replay
    import tracing
    from sylvester import cli, montecarlo
    from sylvester.exactnum import PiPolynomial

    untraced_ops, traced_ops = trace_ops(args.workload, args.seed)
    untraced_s = sum(caller.run(op)[0] for op in untraced_ops)

    tracer = tracing.Tracer()
    caller.main = tracer.wrap(tracing.MAIN, cli.main)
    tracer.install(cli, PiPolynomial)
    traced_s = 0.0
    decisions = {name: (0, 0.0) for name in workloads.SCENARIOS}
    try:
        for op_id, op in enumerate(traced_ops):
            tracer.op = op_id
            elapsed, results, ok = caller.run(op)
            traced_s += elapsed
            if args.workload == "certify" and ok:
                decisions[op["case"]] = workloads.decision_record(results[0][1])
    finally:
        tracer.uninstall()
        caller.main = cli.main
    tracer.dump(args.spans)

    layers = tracing.layer_metrics(tracer.spans)
    layers["trace.overhead"] = traced_s / untraced_s
    for name, (samples, margin) in decisions.items():
        layers[f"certify.{name}.samples_drawn"] = samples
        layers[f"certify.{name}.decision_margin"] = margin

    mc_layers, replayed, mismatched = replay.replay_metrics(
        montecarlo, args.seed % 2**63, os.cpu_count() or 1)
    layers.update(mc_layers)
    return {"layers": layers, "traced_ops": len(traced_ops),
            "replayed_chunks": replayed, "replay_mismatches": mismatched}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="where trace mode writes its spans")
    args = parser.parse_args()

    # set-up is bracketed by calibration samples; the parent subtracts the
    # time of those taken before ``ready`` from what it measures
    setup_calibration = calibrate.Calibration("stdlib")
    start = perf_counter()
    setup_calibration.sample(SETUP_CALIBRATION_SAMPLES)
    before_s = perf_counter() - start

    from sylvester.cli import main as cli_main

    call_cli(cli_main, workloads.WARMUP[args.workload])
    print("ready", flush=True)
    setup_calibration.sample(SETUP_CALIBRATION_SAMPLES)
    print(json.dumps({"before_s": before_s, "samples": setup_calibration.take()}),
          flush=True)
    if args.mode == "setup":
        return 0

    caller = Caller(args.workload, cli_main, workloads.References())
    body = run_mode(caller, args) if args.mode == "run" else trace_mode(caller, args)
    body.update(attempted=caller.attempted, failed=caller.failed,
                selftest=caller.selftest_rejected, record=run_record())
    print(json.dumps(body), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
