"""Benchmark of the sylvester command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {exact,mc,certify} --seed N --seconds S --trace {0,1}

Workloads (one closed-loop caller each, in a fresh interpreter, driving
``sylvester.cli.main`` in-process; see ``workloads.py``):

  exact    the grid of distinct exact-path commands (every supported
           body/fixed pair, d <= 12, k <= 40, 12 and 30 digits, plus table1
           and both qscans) in seeded order, walked once at most;
  mc       fixed-n ``mc`` (n = 10^6) over five cases, in whole rounds;
  certify  the three ``counterexample`` scenarios at n = 2*10^6, in whole rounds.

A run is cut into blocks: a block of about 200 exact commands, or one round
of mc or certify.  Latency and throughput are taken within each block and
reported as their median over the run's blocks.

Every time is rescaled by a calibration kernel run in the same process,
interleaved with the work (``calibrate.py``): the stdlib kernel for set-up
and ``exact``, the numpy kernel for ``mc`` and ``certify``.  Each time is so
reported as if the machine ran at the speed at which the kernel takes its
reference time: the drift in speed of a shared host cancels out, a change
to the program does not.

``--trace 0`` reports the end-to-end metrics:

  setup_s      spawn to ready: interpreter start, ``import sylvester`` and one
               warm-up command of the workload, less the calibration samples
               taken before the import; median of SETUP_SAMPLES spawns;
  peak_rss_mb  peak resident set of the process that ran the workload;
  cmd_ms_p50, cmd_ms_p90
               latency of one operation (an mc case with a closed form also
               runs ``exact`` for its reference, inside the same operation);
  cmds_per_s   operations completed per second of operation time.

Per-case latencies and medians, the same figures before rescaling, the
calibration medians, the set-up samples and ``error_rate`` (failed checks
over attempted operations) are in the report on stderr.

``--trace 1`` reports the per-layer metrics: import time by package from
``-X importtime``, span-derived cli/moments/exactnum figures, certification
margins, and the Monte Carlo phase replay (``replay.py``), which runs in
every traced run whatever the workload.  A layer a workload does not reach
reports zero counts (the certify figures outside ``certify``); on ``mc`` the
moments and exactnum figures come from the two reference ``exact`` commands.
Spans go to ``.bench_out/``.

``repeat.py`` runs several seeds and summarises each metric's spread;
``baseline.json`` holds that summary for the commit the benchmark was added
on.  The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a human-readable report and the run record go
to stderr.  SYLVESTER_THREADS is removed from the environment, so what is
measured is the defaults users get.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
PACKAGE = ROOT / "src" / "sylvester" / "__init__.py"

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# every run must end well inside the 180 s a run is allowed
DEADLINE_S = 170.0
IMPORT_PACKAGES = ("scipy", "numpy", "mpmath")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SYLVESTER_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A ``worker.py`` process; timed from spawn until it prints ``ready``."""

    def __init__(self, args, mode: str, deadline: float, extra: list[str] = ()):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
               *extra]
        self.mode = mode
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdout=subprocess.PIPE)
        try:
            line = self._readline()
            if line != "ready":
                raise BenchError(f"worker did not get ready (said {line!r})")
            ready_s = perf_counter() - start
            calibration = json.loads(self._readline())
            self.raw_setup_s = ready_s - calibration["before_s"]
            self.kernel_s = statistics.median(calibration["samples"])
            self.setup_s = self.raw_setup_s * calibrate.factor("stdlib", calibration["samples"])
        except BaseException:
            self.close()
            raise

    def _readline(self) -> str:
        remaining = self.deadline - monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            raise BenchError("worker timed out")
        return self.proc.stdout.readline().strip()

    def result(self) -> dict | None:
        """The worker's JSON line (None in set-up mode), once it has exited cleanly."""
        try:
            line = self._readline() if self.mode != "setup" else ""
            if self.proc.wait(timeout=max(1.0, self.deadline - monotonic())) != 0:
                raise BenchError(f"worker failed with exit code {self.proc.returncode}")
            if self.mode == "setup":
                return None
            if not line:
                raise BenchError("worker printed no result")
            return json.loads(line)
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest values.

    The inclusive method never reaches past the largest value, which matters
    for an mc or certify block of three to five operations.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def block_figures(ms: list[float]) -> tuple[float, float, float]:
    """(p50, p90, operations per second) of one block's latencies in ms."""
    return statistics.median(ms), percentile(ms, 90), len(ms) / (sum(ms) / 1e3)


def op_factors(kernel: str, samples: list[list[float]]) -> list[float]:
    """Per operation of a block, the factor its time is rescaled by.

    ``samples[i]`` are the kernel samples taken right before operation i, and
    the last entry those taken after the block.  A Monte Carlo operation
    lasts long enough to be rescaled by the samples on either side of it; an
    exact command is not, so every command of an exact block is rescaled by
    all of the block's samples.
    """
    if kernel == "stdlib":
        return [calibrate.factor(kernel, sum(samples, []))] * (len(samples) - 1)
    return [calibrate.factor(kernel, before + after)
            for before, after in zip(samples, samples[1:])]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    workers = []
    for _ in range(SETUP_SAMPLES - 1):
        worker = Worker(args, "setup", deadline)
        workers.append(worker)
        worker.result()
    worker = Worker(args, "run", deadline)
    workers.append(worker)
    body = worker.result()
    kernel = body.pop("kernel")
    blocks, figures, raw_figures, factors = [], [], [], []
    for block in body.pop("blocks"):
        ms = [s * 1e3 for _, s in block["ops"]]
        f = op_factors(kernel, block["calibration"])
        blocks.append(block["ops"])
        factors.append(f)
        figures.append(block_figures([m * g for m, g in zip(ms, f)]))
        raw_figures.append(block_figures(ms))
    # Each figure is the median over blocks of that figure within a block, so
    # a few seconds of interference from elsewhere on the machine move it
    # only if they cover half the run.
    p50, p90, rate = (statistics.median(col) for col in zip(*figures))
    metrics = {
        "setup_s": (statistics.median(w.setup_s for w in workers), "s"),
        "peak_rss_mb": (body["peak_rss_mb"], "MB"),
        "cmd_ms_p50": (p50, "ms"),
        "cmd_ms_p90": (p90, "ms"),
        "cmds_per_s": (rate, "1/s"),
    }
    by_case: dict[str, list[float]] = {}
    for ops, f in zip(blocks, factors):
        for (case, seconds), g in zip(ops, f):
            by_case.setdefault(case, []).append(seconds * 1e3 * g)
    body.update(blocks=len(blocks), operations=sum(map(len, blocks)),
                case_ms_p50={c: statistics.median(v) for c, v in by_case.items()},
                case_ms={c: v for c, v in by_case.items() if c != "exact"},
                setup_samples_s=[w.setup_s for w in workers],
                calibration={
                    "setup_kernel_ms": [w.kernel_s * 1e3 for w in workers],
                    "kernel": kernel,
                    "factor_per_block": [statistics.median(f) for f in factors],
                },
                unscaled={
                    "setup_s": statistics.median(w.raw_setup_s for w in workers),
                    **dict(zip(("cmd_ms_p50", "cmd_ms_p90", "cmds_per_s"),
                               (statistics.median(col) for col in zip(*raw_figures)))),
                })
    return metrics, body


def import_profile() -> dict[str, float]:
    """``import sylvester`` in a fresh process under ``-X importtime``.

    ``import.total_ms`` is the cumulative time of the ``sylvester`` import;
    each package's figure sums the self time of its own modules.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sylvester"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError("import sylvester failed:\n" + proc.stderr[-2000:])
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    total_us = None
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
        if not self_us.isdigit():
            continue
        top = name.split(".")[0]
        if top in totals:
            totals[top] += int(self_us)
        if name == "sylvester":
            total_us = int(cumulative_us)
    if total_us is None:
        raise BenchError("no importtime line for sylvester")
    return {"import.total_ms": total_us / 1e3,
            **{f"import.{pkg}_ms": us / 1e3 for pkg, us in totals.items()}}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    profiles = [import_profile() for _ in range(IMPORT_SAMPLES)]
    metrics = {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    body = Worker(args, "trace", deadline, ["--spans", str(spans)]).result()
    metrics.update(body.pop("layers"))
    body["attempted"] += body["replayed_chunks"]
    body["failed"] += body["replay_mismatches"]
    body["spans_file"] = str(spans.relative_to(ROOT))
    return {k: (v, layer_unit(k)) for k, v in metrics.items()}, body


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("msimplices_per_s_w1", "M/s"),
                         ("msimplices_per_s_wN", "M/s"), ("bytes_per_simplex", "B"),
                         ("max_digits", "digits"), ("decision_margin", "ratio"),
                         ("scaling_eff", "ratio"), ("overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so every worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not PACKAGE.is_file():
        print(f"bench: no sylvester package at {PACKAGE.relative_to(ROOT)}; "
              "run from the root of a sylvester checkout", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    try:
        metrics, body = (per_layer if args.trace else end_to_end)(args, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    body["record"]["git_commit"] = git_commit()
    if body["selftest"] is False:
        print("bench: self-test failed: a corrupted output was not counted as failed",
              file=sys.stderr)
        return 1
    attempted, failed = body.pop("attempted"), body.pop("failed")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "error_rate": failed / attempted, **body}
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
