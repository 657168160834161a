"""Byte-identity of every exact-path command of the benchmark grid.

The benchmark's ``exact`` workload (``bench/workloads.py``) checks each
command's stdout against a digest recorded in ``bench/data/exact_digests.json``.
This test runs the same grid in-process and compares with the same digests,
so a change to any exact, ``table1`` or ``qscan`` output fails the suite and
not only the benchmark.  Both files are only read.
"""

import contextlib
import io
import json

from sylvester.cli import main

import bench_source


def test_every_exact_grid_stdout_matches_its_recorded_digest():
    workloads = bench_source.load("workloads")
    digests = json.loads(workloads.DIGESTS_FILE.read_text())
    grid = workloads.exact_grid()
    assert len(grid) == 3203
    wrong = []
    for argv in grid:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        key = workloads.command_key(argv)
        if code != 0 or digests.get(key) != workloads.digest(out.getvalue()):
            wrong.append(key)
    assert not wrong, f"{len(wrong)} commands differ, first: {wrong[:5]}"
