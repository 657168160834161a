"""Capture the reference data the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/capture.py

Writes ``data/exact_digests.json`` (a digest of the stdout of every command of
the exact grid) and ``data/mc_reference.json`` (high-n estimates, with their
standard errors, for the mc cases that have no closed form).  Run it only when
a change to the program's output is deliberate: the digests define "same
output" for the exact workload.
"""

from __future__ import annotations

import json
import os

import workloads
from worker import call_cli

REFERENCE_N = 10_000_000
REFERENCE_SEED = 20160127


def main() -> None:
    from sylvester.cli import main as cli_main

    digests = {}
    for argv in workloads.exact_grid():
        rc, out = call_cli(cli_main, argv)
        if rc != 0:
            raise SystemExit(f"{workloads.command_key(argv)} exited {rc}")
        digests[workloads.command_key(argv)] = workloads.digest(out)

    # worker count changes wall time only, never the estimate
    os.environ["SYLVESTER_THREADS"] = str(os.cpu_count() or 1)
    references = {}
    for case, (flags, exact_cmd) in workloads.MC_CASES.items():
        if exact_cmd is not None:
            continue
        argv = ["mc", *flags, "--n", str(REFERENCE_N), "--seed", str(REFERENCE_SEED)]
        rc, out = call_cli(cli_main, argv)
        if rc != 0:
            raise SystemExit(f"{workloads.command_key(argv)} exited {rc}")
        est = json.loads(out)
        references[case] = {"mean": est["mean"], "std_error": est["std_error"],
                            "n": est["n"], "seed": REFERENCE_SEED}

    workloads.DATA_DIR.mkdir(exist_ok=True)
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    workloads.MC_REFERENCE_FILE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
