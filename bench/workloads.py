"""The benchmark's workloads: seeded command lists and the checks on their output.

Every operation is a list of ``sylvester`` command lines (argv lists without
the program name).  The workload seed fixes the order of the exact grid and
the Monte Carlo seeds; the program only ever sees the generated argv.

Checks count, they never raise: a failed check is one failed operation and the
run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("exact", "mc", "certify")

DATA_DIR = Path(__file__).resolve().parent / "data"
DIGESTS_FILE = DATA_DIR / "exact_digests.json"
MC_REFERENCE_FILE = DATA_DIR / "mc_reference.json"

# The exact grid: every supported body/fixed pair with d <= 12 and k <= 40.
EXACT_DIGITS = (12, 30)
MAX_D = 12
MAX_K = 40

# Operations per block of the exact workload; blocks are the unit the
# end-to-end figures are taken over (see run.py).
EXACT_BLOCK = 200

# Fixed-n Monte Carlo: n is large enough that sampling, not set-up, dominates,
# and it spans several chunks so a parallel default would be used.
MC_N = 1_000_000
# Far above what any scenario needs to be decided: the surplus is the room an
# early-stopping rule has to save.
CERTIFY_N = 2_000_000

# case -> (mc flags, exact command for the same query or None).  The exact
# command gives the reference the estimate is checked against; where there is
# no closed form the reference is a recorded high-n estimate.
MC_CASES = {
    "halfball-d3": (["--body", "halfball", "--d", "3", "--k", "1"], None),
    "halfball-d4": (["--body", "halfball", "--d", "4", "--k", "1"], None),
    "ball-d3-origin": (
        ["--body", "ball", "--fixed", "origin", "--d", "3", "--k", "2"],
        ["exact", "--body", "ball", "--fixed", "origin", "--d", "3", "--k", "2",
         "--digits", "12"],
    ),
    "tetra-facet": (["--body", "tetrahedron", "--fixed", "facet_centroid", "--k", "1"], None),
    "triangle": (
        ["--body", "triangle", "--k", "3"],
        ["exact", "--body", "triangle", "--k", "3", "--digits", "12"],
    ),
}

SCENARIOS = ("halfball-d3", "tetra-d3", "halfball-d4-k1")

# Estimates must lie within this many combined standard errors of their
# reference.  Wide on purpose: a false alarm needs a >8-sigma draw.
MC_TOLERANCE_SE = 8.0

# One command of the workload's own kind, small enough to be cheap; run once
# before the process reports ready, so set-up covers the same code path.
WARMUP = {
    "exact": ["exact", "--body", "ball", "--d", "3", "--k", "2", "--digits", "20"],
    "mc": ["mc", "--body", "halfball", "--d", "3", "--n", "10000", "--seed", "1"],
    "certify": ["counterexample", "tetra-d3", "--n", "10000", "--seed", "1"],
}


def exact_grid() -> list[list[str]]:
    """Every distinct command of the ``exact`` workload, in canonical order."""
    cmds = []
    for digits in map(str, EXACT_DIGITS):
        for k in map(str, range(MAX_K + 1)):
            for body in ("interval", "triangle"):
                cmds.append(["exact", "--body", body, "--k", k, "--digits", digits])
            cmds.append(["exact", "--body", "triangle", "--fixed", "edge_midpoint",
                         "--k", k, "--digits", digits])
            for d in map(str, range(1, MAX_D + 1)):
                for body, fixed in (("ball", "none"), ("ball", "origin"),
                                    ("halfball", "origin")):
                    cmds.append(["exact", "--body", body, "--fixed", fixed,
                                 "--d", d, "--k", k, "--digits", digits])
        cmds.append(["exact", "--body", "tetrahedron", "--k", "1", "--digits", digits])
    cmds += [["table1"], ["qscan", "--d", "2"], ["qscan", "--d", "3"]]
    return cmds


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def exact_blocks(seed: int) -> list[list[dict]]:
    """The exact grid in seeded order, cut into blocks of near-equal size."""
    grid = exact_grid()
    random.Random(seed).shuffle(grid)
    n = -(-len(grid) // EXACT_BLOCK)
    cuts = [len(grid) * i // n for i in range(n + 1)]
    return [[{"case": "exact", "cmds": [argv]} for argv in grid[a:b]]
            for a, b in zip(cuts, cuts[1:])]


def mc_round(rng: random.Random) -> list[dict]:
    ops = []
    for case, (flags, exact_cmd) in MC_CASES.items():
        argv = ["mc", *flags, "--n", str(MC_N), "--seed", str(rng.getrandbits(63))]
        ops.append({"case": case, "cmds": [argv] + ([exact_cmd] if exact_cmd else [])})
    return ops


def certify_round(rng: random.Random) -> list[dict]:
    return [
        {"case": name, "cmds": [["counterexample", name, "--n", str(CERTIFY_N),
                                 "--seed", str(rng.getrandbits(63))]]}
        for name in SCENARIOS
    ]


def blocks(workload: str, seed: int):
    """Yield the workload's operations block by block.

    An ``exact`` block is a random sample of the grid, and the grid is walked
    once at most, so every query a run times is distinct.  An ``mc`` or
    ``certify`` block is a round holding every case once, so whole blocks
    keep the mix fixed.
    """
    if workload == "exact":
        yield from exact_blocks(seed)
        return
    make = mc_round if workload == "mc" else certify_round
    rng = random.Random(seed)
    while True:
        yield make(rng)


class References:
    """Reference data captured from the program at the benchmark's first commit."""

    def __init__(self):
        self.digests = json.loads(DIGESTS_FILE.read_text())
        self.mc = json.loads(MC_REFERENCE_FILE.read_text())


def _json_line(stdout: str) -> dict:
    (line,) = stdout.strip().splitlines()
    return json.loads(line)


def decision_record(stdout: str) -> tuple[int, float]:
    """(samples drawn, decision margin) from a ``counterexample`` record.

    The margin is the gap between the two sides' centres divided by the sum
    of their confidence-interval half-widths: above 1 the verdict is decided.
    """
    verdict = _json_line(stdout)["verdict"]
    samples, centres, half_width = 0, [], 0.0
    for side in (verdict["lhs"], verdict["rhs"]):
        if side["type"] == "exact":
            centres.append(float(side["decimal"]))
        else:
            est = side["estimate"]
            samples += est["n"]
            centres.append(est["mean"])
            half_width += (est["ci_high"] - est["ci_low"]) / 2.0
    return samples, abs(centres[0] - centres[1]) / half_width


def check(workload: str, op: dict, results: list[tuple[int | None, str]],
          refs: References) -> bool:
    """True when every command of ``op`` exited 0 with correct output.

    ``results`` holds (exit code, stdout) per command.  Any malformed output
    is a failed check, not an error of the benchmark.
    """
    if any(rc != 0 for rc, _ in results):
        return False
    try:
        if workload == "exact":
            (argv,), ((_, out),) = op["cmds"], results
            return refs.digests.get(command_key(argv)) == digest(out)
        if workload == "mc":
            return _check_mc(op, results, refs)
        record = _json_line(results[0][1])
        return record["certified"] is True and record["scenario"] == op["case"]
    except (ValueError, KeyError, TypeError):
        return False


def _check_mc(op: dict, results, refs: References) -> bool:
    est = _json_line(results[0][1])
    if est["n"] != MC_N:
        return False
    if len(op["cmds"]) > 1:
        exact_argv, (_, exact_out) = op["cmds"][1], results[1]
        if refs.digests.get(command_key(exact_argv)) != digest(exact_out):
            return False
        ref_mean, ref_se = float(_json_line(exact_out)["decimal"]), 0.0
    else:
        ref = refs.mc[op["case"]]
        ref_mean, ref_se = ref["mean"], ref["std_error"]
    tolerance = MC_TOLERANCE_SE * math.hypot(est["std_error"], ref_se)
    return abs(est["mean"] - ref_mean) <= tolerance


def corruptions(workload: str, results: list[tuple[int | None, str]]):
    """Variants of a correct result that every check must reject.

    Used by the self-test: a nonzero exit, and a stdout whose content is
    wrong in the way that matters for the workload.
    """
    (rc, out), rest = results[0], results[1:]
    yield [(1, out), *rest]
    if workload == "exact":
        # any changed byte must change the digest
        body = out.rstrip("\n")
        yield [(rc, body[:-1] + ("0" if body[-1] != "0" else "1") + "\n"), *rest]
        return
    record = _json_line(out)
    if workload == "mc":
        record["mean"] = record["mean"] * 2.0
    else:
        record["certified"] = False
    yield [(rc, json.dumps(record, sort_keys=True) + "\n"), *rest]
