import json
import math
import os
import threading
from concurrent.futures import Future
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from sylvester.exactnum import PiPolynomial
from sylvester.moments import (
    ball_fixed_moment,
    ball_moment,
    halfball_fixed_moment,
    tetrahedron_moment_k1,
    triangle_midpoint_moment,
    triangle_moment,
)
from sylvester.montecarlo import (
    DEFAULT_CHUNK,
    Ball,
    EstimatorConfig,
    ExactSide,
    FixedPoint,
    HalfBall,
    INCONCLUSIVE,
    Interval,
    LHS_GREATER,
    NO_FIXED_POINT,
    RHS_GREATER,
    Simplex,
    certify_counterexample,
    estimate_moment,
    make_config,
    simplex_volume,
    tetrahedron_facet_centroid,
    triangle_edge_midpoint,
    unit_area_triangle,
    unit_volume_tetrahedron,
)

from oracles import halfball_first_coordinate_mean, uniform_interval_abs_moment

F = Fraction


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array(seed, dtype=np.uint64)))


def _derived_rng(key):
    """The generator _sample_batch draws from when handed ``_rng(key)``."""
    seed = np.random.SeedSequence(_rng(key).bit_generator.random_raw(2))
    return np.random.Generator(np.random.SFC64(seed))


# ---------------------------------------------------------------------------
# geometry


def test_simplex_volume_basic():
    assert simplex_volume([(0, 0), (1, 0), (0, 1)]) == 0.5
    assert simplex_volume([(0, 0), (1, 1), (2, 2)]) == 0.0
    assert simplex_volume(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ) == pytest.approx(1 / 6)
    assert simplex_volume([(0,), (3,)]) == 3.0


def test_batched_abs_det_d4_matches_lapack():
    from sylvester.montecarlo import _batched_abs_det

    rng = _rng(21)
    scaled = rng.standard_normal((20_000, 4, 4)) * rng.uniform(0.1, 10.0, (20_000, 4, 1))
    # last row a random combination of the others plus a perturbation of 1e-9
    base = rng.standard_normal((20_000, 3, 4))
    last = np.einsum("nj,nji->ni", rng.standard_normal((20_000, 3)), base)
    last += 1e-9 * rng.standard_normal((20_000, 4))
    near_singular = np.concatenate([base, last[:, None, :]], axis=1)
    for vecs in (scaled, near_singular):
        got = _batched_abs_det(vecs)
        want = np.abs(np.linalg.det(vecs))
        # both are backward stable: errors are a few ulps of the Hadamard bound
        hadamard = np.prod(np.linalg.norm(vecs, axis=-1), axis=-1)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * hadamard)


def _regular_simplex(d):
    """d+1 unit vectors in R^d with pairwise inner products -1/d."""
    e = np.eye(d + 1) - 1.0 / (d + 1)
    basis = np.linalg.svd(e)[2][:d]  # an orthonormal basis of the hyperplane sum x = 0
    pts = e @ basis.T
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_hadamard_range_is_never_exceeded(d):
    from sylvester.montecarlo import _batched_abs_det, _sample_batch

    bound = Ball(d).max_simplex_volume()
    assert HalfBall(d).max_simplex_volume() == bound
    assert bound == 2 ** ((d + 1) / 2) / math.factorial(d)
    rng = _rng([31, d])
    inside = _sample_batch(Ball(d), rng, 20_000, d + 1)
    on_sphere = rng.standard_normal((20_000, d + 1, d))
    on_sphere /= np.linalg.norm(on_sphere, axis=-1, keepdims=True)
    regular = _regular_simplex(d)[None]
    for pts in (inside, on_sphere, regular):
        vols = _batched_abs_det(pts[:, 1:] - pts[:, :1]) / math.factorial(d)
        assert np.all(vols <= bound)
    regular_volume = simplex_volume(regular[0])
    assert regular_volume == pytest.approx(
        (d + 1) ** ((d + 1) / 2) / (math.factorial(d) * d ** (d / 2)))
    assert regular_volume <= bound


def test_max_simplex_volume_of_the_other_bodies():
    assert Interval(2.5).max_simplex_volume() == 2.5
    tetra = unit_volume_tetrahedron()
    assert tetra.max_simplex_volume() == tetra.volume()


def test_simplex_volume_shape_errors():
    with pytest.raises(ValueError):
        simplex_volume([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        simplex_volume([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_body_volumes():
    assert Interval(2.5).volume() == 2.5
    assert Ball(2).volume() == pytest.approx(math.pi)
    assert Ball(3).volume() == pytest.approx(4 * math.pi / 3)
    assert HalfBall(3).volume() == pytest.approx(2 * math.pi / 3)
    assert unit_area_triangle().volume() == pytest.approx(1.0)
    assert unit_volume_tetrahedron().volume() == pytest.approx(1.0)


def test_body_validation():
    with pytest.raises(ValueError):
        Interval(0.0)
    with pytest.raises(ValueError):
        Ball(0)
    with pytest.raises(ValueError):
        HalfBall(-1)
    assert HalfBall(3) != Ball(3)
    assert HalfBall(3).to_json_dict()["kind"] != Ball(3).to_json_dict()["kind"]
    with pytest.raises(ValueError):
        Simplex(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))


def test_membership():
    ball = Ball(3)
    assert ball.contains((0, 0, 0))
    assert ball.contains((1, 0, 0))
    assert not ball.contains((1.1, 0, 0))
    half = HalfBall(3)
    assert half.contains((0, 0, 0))
    assert half.contains((0.5, 0.5, 0))
    assert not half.contains((-0.5, 0, 0))
    assert ball.contains((-0.5, 0, 0))
    assert not half.contains((0.5, 0))
    tri = unit_area_triangle()
    assert tri.contains(triangle_edge_midpoint().array())
    assert not tri.contains((2.0, 2.0))
    assert Interval(2.0).contains((1.5,))
    assert not Interval(2.0).contains((2.5,))


def test_canonical_fixed_points_lie_in_bodies():
    assert unit_area_triangle().contains(triangle_edge_midpoint().array())
    assert unit_volume_tetrahedron().contains(tetrahedron_facet_centroid().array())


# ---------------------------------------------------------------------------
# sampling distributions


def test_ball_d1_sample_mean_is_centered():
    from sylvester.montecarlo import _sample_batch

    samples = _sample_batch(Ball(1), _rng(11), 1_000_000, 1)[:, 0, 0]
    assert -0.004 <= samples.mean() <= 0.004
    assert np.all(np.abs(samples) <= 1.0)


def test_simplex_sample_mean_is_centroid():
    from sylvester.montecarlo import _sample_batch

    rng = _rng(12)
    n = 1_000_000
    tri = Simplex(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    pts = _sample_batch(tri, rng, n, 1)[:, 0, :]
    se = pts.std(axis=0, ddof=1) / math.sqrt(n)
    for j in range(2):
        assert abs(pts[:, j].mean() - 1 / 3) < 4 * se[j]
    # every sample stays inside the triangle
    assert np.all(pts >= 0)
    assert np.all(pts.sum(axis=1) <= 1 + 1e-12)


def test_halfball_first_coordinate_mean_matches_quadrature():
    from sylvester.montecarlo import _sample_batch

    oracle = halfball_first_coordinate_mean(3)
    assert oracle == pytest.approx(3 / 8, abs=1e-10)
    rng = _rng(13)
    n = 1_000_000
    pts = _sample_batch(HalfBall(3), rng, n, 1)[:, 0, :]
    x1 = pts[:, 0]
    se = x1.std(ddof=1) / math.sqrt(n)
    assert abs(x1.mean() - oracle) < 4 * se
    assert np.all(x1 >= 0)
    assert np.all((pts**2).sum(axis=1) <= 1 + 1e-12)


def test_ball_samples_inside_unit_ball():
    from sylvester.montecarlo import _sample_batch

    pts = _sample_batch(Ball(4), _rng(14), 100_000, 1)[:, 0, :]
    r2 = (pts**2).sum(axis=1)
    assert np.all(r2 <= 1 + 1e-12)
    # radial cdf of r^d is uniform: mean of r^4 should be ~1/2
    assert abs((r2**2).mean() - 0.5) < 0.005


@pytest.mark.parametrize("body", [Ball(1), Ball(3), HalfBall(3), HalfBall(4), Ball(6)],
                         ids=repr)
def test_ball_sampler_matches_normalized_gaussian_formula(body):
    from sylvester.montecarlo import _sample_batch

    n, m, d = 20_000, body.d + 1, body.d
    pts = _sample_batch(body, _rng([17, 3]), n, m)
    # reference: the same draws, from the SFC64 seeded by the first 128 bits of
    # the same Philox key, in the same (m, d, n) order, as x / |x| * u^(1/d)
    rng = _derived_rng([17, 3])
    x = rng.standard_normal((m, d, n))
    u = rng.random((m, n))
    want = x / np.linalg.norm(x, axis=1, keepdims=True) * u[:, None, :] ** (1.0 / d)
    want = want.transpose(2, 0, 1)
    if isinstance(body, HalfBall):
        want[..., 0] = np.abs(want[..., 0])
    assert pts.shape == (n, m, d)
    assert np.max(np.abs(pts - want)) <= 1e-15
    assert all(body.contains(p) for p in pts.reshape(-1, d)[:2_000])
    assert np.all((pts**2).sum(axis=-1) <= 1 + 1e-12)
    if isinstance(body, HalfBall):
        assert np.all(pts[..., 0] >= 0)


def test_interval_sampling_range():
    from sylvester.montecarlo import _sample_batch

    pts = _sample_batch(Interval(2.0), _rng(15), 100_000, 2)
    assert pts.shape == (100_000, 2, 1)
    assert pts.min() >= 0.0
    assert pts.max() <= 2.0
    # E|X - Y| on [-1,1] scaled: check the fixed-vertex oracle on [-1,1]
    assert uniform_interval_abs_moment(1) == pytest.approx(0.5, abs=1e-12)


# every body kind, with and without a fixed vertex
LAYOUT_CASES = {
    "interval": (Interval(2.0), NO_FIXED_POINT),
    "ball": (Ball(3), NO_FIXED_POINT),
    "ball-origin": (Ball(3), FixedPoint((0.0, 0.0, 0.0))),
    "halfball": (HalfBall(4), NO_FIXED_POINT),
    "triangle": (unit_area_triangle(), NO_FIXED_POINT),
    "tetra-facet": (unit_volume_tetrahedron(), tetrahedron_facet_centroid()),
}


@pytest.mark.parametrize("body, fixed", LAYOUT_CASES.values(), ids=LAYOUT_CASES)
def test_chunks_are_coordinate_major(monkeypatch, body, fixed):
    import sylvester.montecarlo as mc

    d = body.dimension
    m = d if isinstance(fixed, FixedPoint) else d + 1
    pts = mc._sample_batch(body, _rng([5, 0]), 1_000, m)
    assert pts.shape == (1_000, m, d)
    assert pts.transpose(1, 2, 0).flags.c_contiguous
    # the vertex differences _chunk_stats hands to the determinant
    seen = []
    det = mc._batched_abs_det
    monkeypatch.setattr(mc, "_batched_abs_det", lambda vecs: seen.append(vecs) or det(vecs))
    mc._chunk_stats(body, fixed, 1, 5, 0, 1_000)
    (vecs,) = seen
    assert vecs.shape == (1_000, d, d)
    assert vecs.transpose(1, 2, 0).flags.c_contiguous


@pytest.mark.parametrize("body, fixed", LAYOUT_CASES.values(), ids=LAYOUT_CASES)
def test_the_draws_are_a_function_of_the_philox_key(body, fixed):
    import sylvester.montecarlo as mc

    m = body.dimension + 1

    def draws(key):
        return mc._sample_batch(body, _rng(key), 1_000, m)

    same = draws([41, 6])
    assert np.array_equal(same, draws([41, 6]))
    # another seed or another chunk index changes every draw
    for key in ([42, 6], [41, 7]):
        assert not np.any(draws(key) == same)


def test_seeds_above_2_63_key_distinct_chunks():
    from sylvester.montecarlo import _chunk_stats

    seeds = (0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    stats = {_chunk_stats(Ball(3), NO_FIXED_POINT, 1, seed, 0, 1_000) for seed in seeds}
    assert len(stats) == len(seeds)


def test_derived_sfc64_seeds_are_distinct():
    from sylvester.montecarlo import _draw_generator

    states = set()
    for seed in (0, 8, 2**64 - 1):
        for index in range(2_000):
            state = _draw_generator(_rng([seed, index])).bit_generator.state["state"]
            states.add(tuple(state["state"].tolist()))
    assert len(states) == 3 * 2_000


# ---------------------------------------------------------------------------
# estimator mechanics


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(k=-1, n_samples=10)
    with pytest.raises(ValueError):
        EstimatorConfig(k=1, n_samples=0)
    with pytest.raises(ValueError):
        EstimatorConfig(k=1, n_samples=10, chunk_size=20)
    with pytest.raises(ValueError):
        EstimatorConfig(k=1, n_samples=10, chunk_size=0)
    with pytest.raises(ValueError):
        EstimatorConfig(k=1, n_samples=10, chunk_size=5, confidence=1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(k=1, n_samples=10, chunk_size=5, seed=-1)
    cfg = make_config(k=1, n_samples=10, chunk_size=1_000_000)
    assert cfg.chunk_size == 10


def test_estimate_moment_zeroth_moment_is_exact():
    cfg = make_config(k=0, n_samples=50_000, seed=5)
    est = estimate_moment(unit_area_triangle(), triangle_edge_midpoint(), cfg)
    assert est.mean == 1.0
    assert est.variance == 0.0
    assert est.std_error == 0.0
    assert est.ci_low == est.ci_high == 1.0


def test_estimate_moment_determinism_same_config():
    cfg = make_config(k=1, n_samples=120_000, seed=99, chunk_size=17_000)
    a = estimate_moment(Ball(2), NO_FIXED_POINT, cfg)
    b = estimate_moment(Ball(2), NO_FIXED_POINT, cfg)
    assert (a.mean, a.variance, a.std_error) == (b.mean, b.variance, b.std_error)


def test_estimate_moment_determinism_across_workers():
    cfg = make_config(k=2, n_samples=150_000, seed=7, chunk_size=20_000)
    serial = estimate_moment(HalfBall(3), NO_FIXED_POINT, cfg, workers=1)
    threaded = estimate_moment(HalfBall(3), NO_FIXED_POINT, cfg, workers=4)
    assert serial.mean == threaded.mean
    assert serial.variance == threaded.variance
    assert serial.ci_low == threaded.ci_low


@pytest.mark.parametrize("body, fixed, k", [
    (unit_volume_tetrahedron(), tetrahedron_facet_centroid(), 1),
    (unit_area_triangle(), NO_FIXED_POINT, 3),
    (Interval(2.0), NO_FIXED_POINT, 2),
], ids=["tetra-facet", "triangle", "interval"])
def test_estimate_moment_determinism_across_workers_beyond_balls(body, fixed, k):
    # the simplex sampler runs a BLAS matmul inside each worker thread
    cfg = make_config(k=k, n_samples=150_000, seed=7, chunk_size=20_000)
    serial = estimate_moment(body, fixed, cfg, workers=1)
    threaded = estimate_moment(body, fixed, cfg, workers=4)
    assert serial.mean == threaded.mean
    assert serial.variance == threaded.variance
    assert serial.ci_low == threaded.ci_low


def test_chunk_bytes_are_bounded_by_the_config_and_body():
    from sylvester.montecarlo import MAX_CHUNK_BYTES, _jobs

    cfg = make_config(k=1, n_samples=10**6)
    assert cfg.chunk_size == DEFAULT_CHUNK
    assert len(_jobs(Ball(15), NO_FIXED_POINT, cfg)) == -(-10**6 // DEFAULT_CHUNK)
    # 2^26 // (17*16*8) and 2^26 // (50*50*8)
    for body, fixed, largest in [(Ball(16), NO_FIXED_POINT, 30_840),
                                 (Ball(50), FixedPoint((0.0,) * 50), 3_355)]:
        message = f"limit of {MAX_CHUNK_BYTES} bytes; the largest chunk that fits is {largest}"
        for workers in (1, 4):
            with pytest.raises(ValueError, match=message):
                estimate_moment(body, fixed, cfg, workers=workers)
        with pytest.raises(ValueError, match=message):
            certify_counterexample((body, fixed, 1), PiPolynomial.from_rational(1), cfg)
        _jobs(body, fixed, make_config(k=1, n_samples=10**6, chunk_size=largest))
        with pytest.raises(ValueError, match=message):
            _jobs(body, fixed, make_config(k=1, n_samples=10**6, chunk_size=largest + 1))


def test_estimate_moment_env_thread_cap(monkeypatch):
    monkeypatch.setenv("SYLVESTER_THREADS", "3")
    cfg = make_config(k=1, n_samples=60_000, seed=3, chunk_size=10_000)
    env_run = estimate_moment(Ball(2), NO_FIXED_POINT, cfg)
    monkeypatch.delenv("SYLVESTER_THREADS")
    plain = estimate_moment(Ball(2), NO_FIXED_POINT, cfg)
    assert env_run.mean == plain.mean


def test_worker_count_defaults_to_core_count(monkeypatch):
    from sylvester.montecarlo import _resolve_workers

    monkeypatch.delenv("SYLVESTER_THREADS", raising=False)
    assert _resolve_workers(None) == (os.cpu_count() or 1)
    monkeypatch.setenv("SYLVESTER_THREADS", "3")
    assert _resolve_workers(None) == 3
    assert _resolve_workers(2) == 2
    monkeypatch.setenv("SYLVESTER_THREADS", "0")
    assert _resolve_workers(None) == 1


def test_bad_thread_count_is_a_value_error(monkeypatch):
    monkeypatch.setenv("SYLVESTER_THREADS", "abc")
    cfg = make_config(k=1, n_samples=1_000, seed=3)
    with pytest.raises(ValueError, match="SYLVESTER_THREADS"):
        estimate_moment(Ball(2), NO_FIXED_POINT, cfg)
    with pytest.raises(ValueError, match="SYLVESTER_THREADS"):
        certify_counterexample((Ball(2), NO_FIXED_POINT, 1), PiPolynomial.from_rational(1), cfg)


def test_pool_is_capped_at_chunk_count(monkeypatch):
    import sylvester.montecarlo as mc

    seen = []

    class RecordingExecutor:
        """Stands in for ThreadPoolExecutor: records max_workers, runs serially."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setenv("SYLVESTER_THREADS", "100000")
    cfg = make_config(k=1, n_samples=3_000, seed=3, chunk_size=1_000)
    capped = estimate_moment(Ball(2), NO_FIXED_POINT, cfg)
    cores = os.cpu_count() or 1
    pools = [min(3, cores)] if cores > 1 else []
    assert seen == pools
    # one chunk needs no pool at all
    estimate_moment(Ball(2), NO_FIXED_POINT, make_config(k=1, n_samples=1_000, seed=3))
    assert seen == pools
    assert capped.mean == estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=1).mean
    # more chunks than cores: one thread per core
    many = make_config(k=1, n_samples=(cores + 2) * 100, seed=3, chunk_size=100)
    estimate_moment(Ball(2), NO_FIXED_POINT, many)
    assert seen == pools + ([cores] if cores > 1 else [])


def test_default_chunk_is_two_to_the_fifteenth():
    assert DEFAULT_CHUNK == 2**15
    assert EstimatorConfig(k=1, n_samples=10**6).chunk_size == DEFAULT_CHUNK
    assert make_config(k=1, n_samples=10**6).chunk_size == DEFAULT_CHUNK


def test_estimate_rejects_fixed_point_outside():
    cfg = make_config(k=1, n_samples=1000)
    with pytest.raises(ValueError):
        estimate_moment(Ball(2), FixedPoint((3.0, 0.0)), cfg)
    with pytest.raises(ValueError):
        estimate_moment(Ball(2), FixedPoint((0.0, 0.0, 0.0)), cfg)


def test_estimate_interval_matches_exact():
    cfg = make_config(k=1, n_samples=400_000, seed=21)
    est = estimate_moment(Interval(1.0), NO_FIXED_POINT, cfg)
    assert abs(est.mean - 1 / 3) < 4 * est.std_error
    assert est.std_error == pytest.approx(math.sqrt(est.variance / est.n))
    assert est.ci_low < est.mean < est.ci_high


def test_clt_scaling_on_interval():
    # quadrupling the sample count should halve the standard error
    for seed in (1, 2):
        small = estimate_moment(
            Interval(1.0), NO_FIXED_POINT, make_config(k=1, n_samples=50_000, seed=seed)
        )
        large = estimate_moment(
            Interval(1.0), NO_FIXED_POINT,
            make_config(k=1, n_samples=200_000, seed=seed + 100),
        )
        ratio = large.std_error / small.std_error
        assert 0.38 <= ratio <= 0.65


def test_affine_invariance_of_normalized_moments():
    # same normalized moments for two triangles of different shape
    cfg = make_config(k=2, n_samples=400_000, seed=31)
    std = Simplex(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    skew = Simplex(((0.0, 0.0), (2.0, 0.0), (1.0, 3.0)))
    est_std = estimate_moment(std, NO_FIXED_POINT, cfg)
    cfg2 = make_config(k=2, n_samples=400_000, seed=32)
    est_skew = estimate_moment(skew, NO_FIXED_POINT, cfg2)
    norm_std = est_std.mean / std.volume() ** 2
    norm_skew = est_skew.mean / skew.volume() ** 2
    se = math.hypot(est_std.std_error / std.volume() ** 2,
                    est_skew.std_error / skew.volume() ** 2)
    assert abs(norm_std - norm_skew) < 4 * se


def test_halfball_center_estimate_matches_ball_center():
    # reflection symmetry: fixed-center moments agree between ball and half-ball
    for d, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        origin = FixedPoint((0.0,) * d)
        cfg_half = make_config(k=k, n_samples=300_000, seed=40 + d + 10 * k)
        cfg_ball = make_config(k=k, n_samples=300_000, seed=140 + d + 10 * k)
        est_half = estimate_moment(HalfBall(d), origin, cfg_half)
        est_ball = estimate_moment(Ball(d), origin, cfg_ball)
        se = math.hypot(est_half.std_error, est_ball.std_error)
        assert abs(est_half.mean - est_ball.mean) < 4 * se


def test_ellipsoid_minimality_direction():
    # normalized triangle moments strictly exceed the normalized disk moments
    for k in (1, 2):
        cfg = make_config(k=k, n_samples=400_000, seed=50 + k)
        est = estimate_moment(unit_area_triangle(), NO_FIXED_POINT, cfg)
        disk_normalized = (ball_moment(2, k) / PiPolynomial({2: 1}) ** k).to_float()
        assert est.ci_low > disk_normalized


# ---------------------------------------------------------------------------
# certification


def test_certify_exact_vs_exact_unequal():
    cfg = make_config(k=1, n_samples=1000)
    verdict = certify_counterexample(
        triangle_moment(1), triangle_midpoint_moment(1), cfg
    )
    # 1/12 < 5/54
    assert verdict.relation == RHS_GREATER
    assert verdict.confidence == 0.99


def test_certify_exact_vs_exact_equal_is_inconclusive():
    cfg = make_config(k=2, n_samples=1000)
    verdict = certify_counterexample(
        triangle_moment(2), triangle_midpoint_moment(2), cfg
    )
    assert verdict.relation == INCONCLUSIVE


def test_certify_estimate_vs_exact():
    cfg = make_config(k=1, n_samples=300_000, seed=77)
    verdict = certify_counterexample(
        (HalfBall(3), NO_FIXED_POINT, 1),
        ball_fixed_moment(3, 1),
        cfg,
    )
    assert verdict.relation == LHS_GREATER
    data = verdict.to_json_dict()
    assert data["lhs"]["type"] == "estimate"
    assert data["rhs"]["type"] == "exact"
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("value", [
    halfball_fixed_moment(3, 1),
    ball_fixed_moment(4, 1),
    tetrahedron_moment_k1(),
], ids=["halfball-d3-origin", "ball-d4-origin", "tetrahedron"])
def test_exact_side_bounds_enclose_the_value(value):
    # the comparand is irrational, so no double equals it: both bounds must be
    # rounded outward from the certified enclosure, one ulp or so apart
    lo, hi = ExactSide(value).bounds()
    enc_lo, enc_hi = value.evaluate_interval(30)
    assert Fraction(lo) <= enc_lo
    assert enc_hi <= Fraction(hi)
    assert hi - lo <= 2 * math.ulp(hi)


def test_certify_two_estimates_inconclusive_for_equal_targets():
    # same quantity on both sides: cannot separate, must stay inconclusive
    cfg = make_config(k=1, n_samples=50_000, seed=123)
    verdict = certify_counterexample(
        (Ball(2), NO_FIXED_POINT, 1),
        (Ball(2), NO_FIXED_POINT, 1),
        cfg,
    )
    assert verdict.relation == INCONCLUSIVE


def _binomial_upper(trials: int, p: float, tail: float = 1e-6) -> int:
    """Smallest m with P(Binomial(trials, p) > m) <= tail."""
    total = 0.0
    for m in range(trials + 1):
        total += math.comb(trials, m) * p**m * (1 - p) ** (trials - m)
        if 1.0 - total <= tail:
            return m
    return trials


def test_confidence_sequence_coverage_audit():
    """Time-uniform coverage of the sequence on bodies with known moments.

    100 frozen seeds per case, 16 chunks of 128 samples, checked after every
    chunk at confidence 0.8 (so a miss is common enough to count): a run
    misses when any checked interval excludes the exact value, and that may
    happen in at most a fraction delta = 0.2 of runs, up to a binomial margin.
    The CLT interval at 99%, from one 16-sample chunk, is recorded beside it:
    at k = 3 it misses far more often than 1%.
    """
    from sylvester.montecarlo import EstimatedSide, _chunk_stats

    origin = FixedPoint((0.0, 0.0, 0.0))
    cases = {f"ball-d3-origin k={k}": (Ball(3), origin, k, ball_fixed_moment(3, k))
             for k in (1, 2, 3)}
    cases["triangle k=3"] = (unit_area_triangle(), NO_FIXED_POINT, 3, triangle_moment(3))
    runs, delta = 100, 0.2
    z = NormalDist().inv_cdf(0.995)
    report = []
    for name, (body, fixed, k, value) in cases.items():
        exact = value.to_float()
        misses = clt_misses = 0
        for seed in range(runs):
            cfg = make_config(k=k, n_samples=16 * 128, seed=seed, chunk_size=128,
                              confidence=1 - delta)
            sequence = EstimatedSide(body, fixed, cfg, delta)
            missed = False
            for job in sequence.jobs:
                sequence.add(_chunk_stats(*job))
                lo, hi = sequence.bounds()
                missed |= not lo <= exact <= hi
            misses += missed
            n, mean, m2 = _chunk_stats(body, fixed, k, 10**6 + seed, 0, 16)
            half = z * math.sqrt(m2 / (n - 1) / n)
            clt_misses += not mean - half <= exact <= mean + half
        report.append(f"{name}: sequence {misses}/{runs}, CLT 99% at n=16 {clt_misses}/{runs}")
        assert misses <= _binomial_upper(runs, delta), report
        if k == 3:
            assert clt_misses > _binomial_upper(runs, 0.01), report
    print("; ".join(report))


def test_chunk_stream_fold_equals_index_order_merge():
    from sylvester.montecarlo import _EMPTY, _chunk_stats, _chunk_stream, _jobs, _merge

    cfg = make_config(k=2, n_samples=23_000, seed=41, chunk_size=1_000)
    jobs = _jobs(HalfBall(3), NO_FIXED_POINT, cfg)
    want = _chunk_stats(*jobs[0])
    for job in jobs[1:]:
        want = _merge(want, _chunk_stats(*job))
    for workers in (1, 2, 3):
        stream = list(_chunk_stream(jobs, workers))
        assert stream == [_chunk_stats(*job) for job in jobs]
        folded = _EMPTY
        for part in stream:
            folded = _merge(folded, part)
        assert folded == want
    est = estimate_moment(HalfBall(3), NO_FIXED_POINT, cfg, workers=2)
    n, mean, m2 = want
    assert (est.n, est.mean, est.variance) == (n, mean, m2 / (n - 1))


def test_closing_the_chunk_stream_cancels_what_has_not_started(monkeypatch):
    import sylvester.montecarlo as mc

    started = []
    gate = threading.Event()
    real = mc._chunk_stats

    def gated(*job):
        started.append(job[4])
        if job[4] >= 3:
            gate.wait(timeout=10)
        return real(*job)

    monkeypatch.setattr(mc, "_chunk_stats", gated)
    jobs = mc._jobs(Ball(2), NO_FIXED_POINT, make_config(k=1, n_samples=20_000,
                                                           seed=5, chunk_size=1_000))
    workers = 2
    stream = mc._chunk_stream(jobs, workers)
    assert next(stream) == real(*jobs[0])
    stream.close()
    # the first chunk starts with only workers - 1 others beside it
    assert sorted(started) == list(range(len(started)))
    assert 1 <= len(started) <= workers

    started.clear()
    stream = mc._chunk_stream(jobs, workers)
    assert [next(stream) for _ in range(3)] == [real(*job) for job in jobs[:3]]
    # chunks 3 to 5 are now in flight; the gate holds both threads on
    # chunks 3 and 4, so chunk 5 has not started when the stream is closed,
    # and must never start
    opener = threading.Timer(0.5, gate.set)
    opener.start()
    stream.close()
    opener.join()
    assert sorted(started) == list(range(len(started)))
    assert 3 <= len(started) <= 5


def test_certification_stops_at_the_first_decided_chunk():
    from sylvester.montecarlo import EstimatedSide, _chunk_stats

    cfg = make_config(k=1, n_samples=1_000_000, seed=8, chunk_size=4_096)
    exact = ball_fixed_moment(4, 1)
    verdict = certify_counterexample((HalfBall(4), NO_FIXED_POINT, 1), exact, cfg)
    assert verdict.relation == LHS_GREATER
    est = verdict.lhs.estimate
    assert est.n == 3 * 4_096  # at this seed
    assert est.config.n_samples == 1_000_000
    # the sequence replayed by hand is undecided after chunks 0 and 1
    _, exact_hi = ExactSide(exact).bounds()
    sequence = EstimatedSide(HalfBall(4), NO_FIXED_POINT, cfg, verdict.lhs.alpha)
    for job in sequence.jobs[:3]:
        sequence.add(_chunk_stats(*job))
        decided = sequence.bounds()[0] > exact_hi
        assert decided == (sequence.stats[0] == est.n)
    assert sequence.bounds() == verdict.lhs.bounds()
    trace = verdict.trace_dict()
    assert trace["lhs"] == {"samples": est.n, "chunks": 3, "budget": 1_000_000,
                            "alpha": verdict.lhs.alpha, "range": verdict.lhs.value_range,
                            "stop": "decided"}
    assert trace["margin"] > 1.0
    assert "rhs" not in trace


def test_inconclusive_certification_spends_the_budget():
    cfg = make_config(k=1, n_samples=5_000, seed=2, chunk_size=1_000)
    verdict = certify_counterexample((Ball(2), NO_FIXED_POINT, 1),
                                     (Ball(2), NO_FIXED_POINT, 1), cfg)
    assert verdict.relation == INCONCLUSIVE
    trace = verdict.trace_dict()
    for name in ("lhs", "rhs"):
        side = getattr(verdict, name)
        assert side.estimate.n == 5_000
        assert trace[name]["stop"] == "budget"
        assert trace[name]["chunks"] == 5
    assert trace["margin"] < 1.0
    assert verdict.lhs.estimate.config.seed == 2
    assert verdict.rhs.estimate.config.seed == 3


@pytest.mark.parametrize("confidence", [0.99, 0.9])
def test_alpha_is_split_over_the_estimated_sides(confidence):
    cfg = make_config(k=1, n_samples=2_000, seed=1, chunk_size=1_000, confidence=confidence)
    one = certify_counterexample((Ball(3), NO_FIXED_POINT, 1), ball_moment(3, 1), cfg)
    two = certify_counterexample((Ball(3), NO_FIXED_POINT, 1), (Ball(3), NO_FIXED_POINT, 1), cfg)
    assert one.confidence == two.confidence == confidence
    assert one.lhs.alpha == pytest.approx(1 - confidence)
    assert two.lhs.alpha == two.rhs.alpha == pytest.approx((1 - confidence) / 2)
    assert two.lhs.alpha + two.rhs.alpha == pytest.approx(1 - confidence)


def test_verdict_n_is_whole_chunks_and_the_same_at_any_worker_count():
    cfg = make_config(k=1, n_samples=600_000, seed=12, chunk_size=DEFAULT_CHUNK)
    sides = ((HalfBall(3), NO_FIXED_POINT, 1), halfball_fixed_moment(3, 1))
    serial = certify_counterexample(*sides, cfg, workers=1)
    threaded = certify_counterexample(*sides, cfg, workers=2)
    assert serial.relation == threaded.relation == LHS_GREATER
    assert serial.to_json_dict() == threaded.to_json_dict()
    n = serial.lhs.estimate.n
    assert n % DEFAULT_CHUNK == 0 and 0 < n < 600_000


def test_stitched_boundary_constants():
    import mpmath

    from sylvester.montecarlo import _ZETA_S, _S, _stitched_boundary

    assert _ZETA_S == pytest.approx(float(mpmath.zeta(_S)), rel=1e-14)
    # flat below m = c^2, then increasing, and wider for a smaller alpha
    assert _stitched_boundary(0.0, 0.5, 0.01) == _stitched_boundary(0.25, 0.5, 0.01)
    assert _stitched_boundary(10.0, 0.5, 0.01) < _stitched_boundary(20.0, 0.5, 0.01)
    assert _stitched_boundary(10.0, 0.5, 0.01) < _stitched_boundary(10.0, 0.5, 0.001)


# ---------------------------------------------------------------------------
# serialization


def test_estimate_json_echoes_config():
    cfg = make_config(k=3, n_samples=10_000, seed=9, chunk_size=2_500,
                      confidence=0.95)
    est = estimate_moment(Ball(2), FixedPoint((0.0, 0.0)), cfg)
    data = est.to_json_dict()
    for key in ("mean", "variance", "std_error", "ci_low", "ci_high", "n",
                "k", "n_samples", "seed", "chunk_size", "confidence",
                "body", "fixed"):
        assert key in data
    assert data["n"] == data["n_samples"] == 10_000
    assert data["seed"] == 9
    assert data["body"] == {"kind": "ball", "d": 2}
    assert data["fixed"] == {"kind": "point", "coords": [0.0, 0.0]}
    assert json.loads(json.dumps(data)) == data
