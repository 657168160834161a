"""Monte Carlo phase replay: one chunk split into sample, diff, det and reduce.

The replay runs the module's own ``_sample_batch``, the vertex differences,
``_batched_abs_det`` and the power/mean/M2 step with the same Philox key as
``_chunk_stats``, and its result must equal ``_chunk_stats`` bit for bit;
otherwise the phase split would not describe the code users run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from math import factorial
from time import perf_counter, perf_counter_ns

import numpy as np

PHASES = ("sample", "diff", "det", "reduce")
CHUNK = 250_000
# chunks merged by one run of the mc workload (10^6 samples)
RUN_CHUNKS = 4
MERGE_REPEATS = 1000


def cases(mc) -> dict:
    """(body, fixed, k) of each case of ``workloads.MC_CASES``, as program objects."""
    origin3 = mc.FixedPoint((0.0, 0.0, 0.0))
    return {
        "halfball-d3": (mc.HalfBall(3), mc.NO_FIXED_POINT, 1),
        "halfball-d4": (mc.HalfBall(4), mc.NO_FIXED_POINT, 1),
        "ball-d3-origin": (mc.Ball(3), origin3, 2),
        "tetra-facet": (mc.unit_volume_tetrahedron(), mc.tetrahedron_facet_centroid(), 1),
        "triangle": (mc.unit_area_triangle(), mc.NO_FIXED_POINT, 3),
    }


def replay_chunk(mc, body, fixed, k: int, seed: int, index: int, size: int):
    """``_chunk_stats`` phase by phase: (stats, seconds per phase, bytes per simplex)."""
    t0 = perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    d = body.dimension
    if isinstance(fixed, mc.FixedPoint):
        pts = mc._sample_batch(body, rng, size, d)
        t1 = perf_counter()
        vecs = pts - fixed.array()
    else:
        pts = mc._sample_batch(body, rng, size, d + 1)
        t1 = perf_counter()
        vecs = pts[:, 1:, :] - pts[:, :1, :]
    t2 = perf_counter()
    vols = mc._batched_abs_det(vecs) / factorial(d)
    t3 = perf_counter()
    x = np.ones(size) if k == 0 else vols**k
    mean = float(x.mean())
    dev2 = (x - mean) ** 2
    m2 = float(dev2.sum())
    t4 = perf_counter()
    # computed from the shapes of the arrays each phase returns; the sampler's
    # own temporaries are not visible here, so this is a lower bound
    nbytes = pts.nbytes + vecs.nbytes + vols.nbytes + x.nbytes + dev2.nbytes
    return (size, mean, m2), (t1 - t0, t2 - t1, t3 - t2, t4 - t3), nbytes / size


def replay_metrics(mc, seed: int, workers: int) -> tuple[dict[str, float], int, int]:
    """Per-case phase times at 1 worker, throughput at 1 and ``workers`` workers.

    Returns (metrics, chunks replayed, chunks that did not match
    ``_chunk_stats`` bit for bit).
    """
    metrics: dict[str, float] = {}
    replayed = mismatched = 0
    total_w1 = total_wn = 0.0
    for case, (body, fixed, k) in cases(mc).items():
        reference = [mc._chunk_stats(body, fixed, k, seed, i, CHUNK) for i in range(workers)]

        stats, phases, bytes_per = replay_chunk(mc, body, fixed, k, seed, 0, CHUNK)
        replayed += 1
        mismatched += stats != reference[0]
        for name, sec in zip(PHASES, phases):
            metrics[f"montecarlo.{case}.{name}_ms"] = sec * 1e3
        w1 = sum(phases)
        metrics[f"montecarlo.{case}.msimplices_per_s_w1"] = CHUNK / w1 / 1e6
        metrics[f"montecarlo.{case}.bytes_per_simplex"] = bytes_per

        start = perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parallel = list(pool.map(
                lambda i: replay_chunk(mc, body, fixed, k, seed, i, CHUNK)[0],
                range(workers)))
        wn = perf_counter() - start
        replayed += workers
        mismatched += sum(got != want for got, want in zip(parallel, reference))
        metrics[f"montecarlo.{case}.msimplices_per_s_wN"] = workers * CHUNK / wn / 1e6
        total_w1 += workers * w1
        total_wn += wn

    parts = [stats] * RUN_CHUNKS
    start = perf_counter_ns()
    for _ in range(MERGE_REPEATS):
        reduce(mc._merge, parts)
    metrics["montecarlo.merge_us"] = (perf_counter_ns() - start) / MERGE_REPEATS / 1e3
    # throughput gained by N workers over N times one worker, all cases pooled
    metrics["montecarlo.scaling_eff"] = total_w1 / total_wn / workers
    return metrics, replayed, mismatched
