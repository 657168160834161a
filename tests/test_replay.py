"""The benchmark's Monte Carlo phase replay matches the program bit for bit.

``bench/replay.py`` rebuilds a chunk phase by phase, from its own Philox key
through the module's ``_sample_batch``, to time each layer.  Its figures
describe the code users run only while its result equals ``_chunk_stats``;
the traced benchmark counts a mismatch as a failure, and this test catches one
in the suite.  The replay is only read.
"""

import pytest

import sylvester.montecarlo as mc
from sylvester import DEFAULT_CHUNK

import bench_source

replay = bench_source.load("replay")
CASES = replay.cases(mc)

# the default chunk, and the tail chunk of an n = 10^6 run
SIZES = (DEFAULT_CHUNK, 10**6 % DEFAULT_CHUNK)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", CASES)
def test_replayed_chunk_equals_chunk_stats(case, size):
    body, fixed, k = CASES[case]
    for seed, index in ((301, 0), (7, 30)):
        stats = replay.replay_chunk(mc, body, fixed, k, seed, index, size)[0]
        assert stats == mc._chunk_stats(body, fixed, k, seed, index, size)
