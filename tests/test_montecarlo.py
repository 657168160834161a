import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from fractions import Fraction
from functools import partial
from itertools import islice
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sylvester.exactnum import PI, PiPolynomial
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

from sylvester.montecarlo import _chunk_stats as _real_chunk_stats

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
    # Hadamard's inequality with the first column scaled by 1/sqrt(d), rounded
    # up by a relative 2^-40 so that it stays a range ...
    assert bound == (math.sqrt(d + 1) * ((d + 1) / d) ** (d / 2) / math.factorial(d)
                     * (1 + 2.0**-40))
    # ... and below its unscaled form 2^((d+1)/2) / d! from d = 2 on
    assert bound <= 2 ** ((d + 1) / 2) / math.factorial(d) * (1 + 1e-12)
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
    # the regular simplex attains the bound
    assert regular_volume <= bound
    assert regular_volume == pytest.approx(bound, rel=1e-12)


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
    # a NaN vertex gives volume NaN, which no comparison with 0 rejects
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="simplex vertices must be finite"):
            Simplex(((0.0, 0.0), (1.0, 0.0), (bad, 1.0)))


def test_what_a_double_cannot_hold_is_rejected():
    # the interval length is stored as a double, and must be a positive finite one
    assert Interval(Fraction(3, 2)) == Interval(1.5)
    assert type(Interval(Fraction(3, 2)).length) is float
    for length in (float("inf"), float("nan"), Fraction(10**400), Fraction(1, 10**400)):
        with pytest.raises(ValueError, match="positive finite double"):
            Interval(length)
    # 171! overflows a double, so no volume in d = 171 can be computed
    cfg = make_config(k=1, n_samples=100)
    message = "sampling needs d <= 170, got 171"
    with pytest.raises(ValueError, match=message):
        estimate_moment(Ball(171), NO_FIXED_POINT, cfg)
    with pytest.raises(ValueError, match=message):
        certify_counterexample((Ball(171), NO_FIXED_POINT, 1), PiPolynomial.from_rational(1), cfg)
    assert estimate_moment(Ball(170), NO_FIXED_POINT, make_config(k=0, n_samples=2)).mean == 1.0
    # nor a volume computed, nor a simplex made, in d = 171
    corners = [(0.0,) * 171] + [tuple(float(i == j) for j in range(171)) for i in range(171)]
    message = "a simplex volume needs d <= 170, got 171"
    for volume in (lambda: simplex_volume(corners), lambda: Simplex(corners)):
        with pytest.raises(ValueError, match=message):
            volume()
    corners = [(0.0,) * 170] + [tuple(float(i == j) for j in range(170)) for i in range(170)]
    assert simplex_volume(corners) == pytest.approx(1 / math.factorial(170))
    # the range R^k of a certification side must be a positive finite double
    for length in (1e200, 1e-200):
        with pytest.raises(ValueError, match="is not a positive finite double"):
            certify_counterexample((Interval(length), NO_FIXED_POINT, 2),
                                   PiPolynomial.from_rational(1), cfg)


def test_an_estimate_whose_squares_underflow_is_rejected():
    # V^400 in the unit 3-ball is about 1e-204: every squared deviation
    # underflows, and M2 = 0 would give a zero-width interval
    with pytest.raises(ValueError, match="squared deviations of V\\^400 underflow"):
        estimate_moment(Ball(3), NO_FIXED_POINT, make_config(k=400, n_samples=1_000))
    # one sample has M2 = 0 by definition, and V^0 = 1 has no deviation at all
    assert estimate_moment(Ball(3), NO_FIXED_POINT, make_config(k=400, n_samples=1)).n == 1
    assert estimate_moment(Ball(3), NO_FIXED_POINT,
                           make_config(k=0, n_samples=1_000)).variance == 0.0


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
    # a point of the wrong shape lies in no body: a scalar, or a vector of
    # another length
    for body, wrong in ((ball, (0.5, 0.0)), (half, (0.5, 0.0, 0.0, 0.0)), (tri, (0.5,)),
                        (Interval(2.0), (1.0, 2.0))):
        assert not body.contains(wrong)
        assert not body.contains(0.5)


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


def _normalized_gaussian_points(rng, n, m, d, half):
    """Points x / |x| * u^(1/d) from normals x and uniforms u, in (n, m, d),
    drawn per block of _BLOCK // m columns: the block's (m, d, w) normals,
    then its (m, w) uniforms."""
    from sylvester.montecarlo import _BLOCK

    width = max(1, _BLOCK // m)
    blocks = []
    for i in range(0, n, width):
        w = min(width, n - i)
        x = rng.standard_normal((m, d, w))
        u = rng.random((m, w))
        blocks.append(x / np.linalg.norm(x, axis=1, keepdims=True) * u[:, None, :] ** (1.0 / d))
    pts = np.concatenate(blocks, axis=2).transpose(2, 0, 1)
    if half:
        pts[..., 0] = np.abs(pts[..., 0])
    return pts


def _ks_distance(a, b):
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return np.max(np.abs(fa - fb))


@pytest.mark.parametrize("body", [Ball(1), HalfBall(2), Ball(6),
                                  HalfBall(3), HalfBall(4)], ids=repr)
def test_ball_sampler_matches_normalized_gaussian_formula(body):
    from sylvester.montecarlo import _sample_batch

    n, m, d = 20_000, body.d + 1, body.d
    half = isinstance(body, HalfBall)
    pts = _sample_batch(body, _rng([17, 3]), n, m)
    if d not in (3, 4):
        # balls in d != 3, 4 draw normals: the reference is the same draws,
        # from the SFC64 seeded by the first 128 bits of the same Philox key,
        # in the same blocks (n = 20,000 ends in a partial one for every m)
        want = _normalized_gaussian_points(_derived_rng([17, 3]), n, m, d, half)
        assert np.max(np.abs(pts - want)) <= 1e-15
    else:
        # d = 3, 4 draw uniforms only, so they match the formula in law: each
        # coordinate and |x|^2 against the formula's from an unrelated key, by
        # the two-sample KS bound at level 1e-6 (about 0.013 for 80,000 points
        # a side when d = 3)
        want = _normalized_gaussian_points(_derived_rng([29, 5]), n, m, d, half)
        a, b = pts.reshape(-1, d), want.reshape(-1, d)
        size = len(a)
        bound = math.sqrt(-math.log(1e-6 / 2) / 2) * math.sqrt(2 / size)
        columns = [(a[:, k], b[:, k]) for k in range(d)]
        columns.append(((a**2).sum(axis=1), (b**2).sum(axis=1)))
        for x, y in columns:
            assert _ks_distance(x, y) < bound
    assert pts.shape == (n, m, d)
    assert all(body.contains(p) for p in pts.reshape(-1, d)[:2_000])
    assert np.all((pts**2).sum(axis=-1) <= 1 + 1e-12)
    if half:
        assert np.all(pts[..., 0] >= 0)


# The uniform-only samplers, rebuilt from the same SFC64 draws by formulas
# written apart from the module's: rejection by a boolean mask, the sphere
# point and radius as plain expressions, the simplex point from the sorted
# uniforms' spacings as barycentric weights.  Only the draw schedule is the
# module's: blocks of _BLOCK // m columns, each drawing its radii first and
# then its disk rounds of _disk_candidates(need) candidate pairs.


def _disk_reference(rng, count):
    from sylvester.montecarlo import _disk_candidates

    pts = np.empty((0, 2))
    while len(pts) < count:
        need = count - len(pts)
        cand = 2.0 * rng.random((2, _disk_candidates(need))).T - 1.0
        r2 = (cand**2).sum(axis=1)
        pts = np.concatenate([pts, cand[(0.0 < r2) & (r2 < 1.0)][:need]])
    return pts[:, 0], pts[:, 1], (pts**2).sum(axis=1)


def _ball_block_reference(d, rng, m, w):
    u = rng.random(m * w)
    a, b, s = _disk_reference(rng, m * w)
    if d == 3:
        x = np.stack([2 * a * np.sqrt(1 - s), 2 * b * np.sqrt(1 - s), 1 - 2 * s]) * u ** (1 / 3)
    else:
        c, e, t = _disk_reference(rng, m * w)
        x = np.stack([a, b, c * np.sqrt((1 - s) / t), e * np.sqrt((1 - s) / t)]) * u ** 0.25
    return x.reshape(d, m, w).transpose(1, 0, 2)


def _simplex_block_reference(verts, rng, m, w):
    d = verts.shape[1]
    s = np.sort(rng.random((m, d, w)), axis=1)
    weights = np.diff(s, axis=1, prepend=0.0, append=1.0)  # (m, d+1, w)
    return np.einsum("mjw,jc->mcw", weights, verts)


def _uniform_sampler_reference(body, rng, n, m):
    from sylvester.montecarlo import _BLOCK

    d = body.dimension
    width = max(1, _BLOCK // m)
    want = np.empty((m, d, n))
    for i in range(0, n, width):
        w = min(width, n - i)
        if isinstance(body, Ball):
            want[:, :, i:i + w] = _ball_block_reference(d, rng, m, w)
        else:
            want[:, :, i:i + w] = _simplex_block_reference(body.vertex_array(), rng, m, w)
    if isinstance(body, HalfBall):
        want[:, 0] = np.abs(want[:, 0])
    return want.transpose(2, 0, 1)


# a segment and a skewed 4-simplex: no CLI command samples either, and np.sort
# orders their uniforms where the triangle and tetrahedron use a min/max network;
# an interval is drawn as the segment between its length and 0
SEGMENT = Simplex(((0.5,), (2.0,)))
SIMPLEX_D4 = Simplex(((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.5, 2.0, 0.0, 0.0),
                      (0.0, 1.0, 1.5, 0.0), (0.5, 0.5, 0.5, 1.0)))

UNIFORM_SAMPLED = [Ball(3), HalfBall(3), Ball(4), HalfBall(4), Interval(2.0),
                   SEGMENT, unit_area_triangle(), unit_volume_tetrahedron(), SIMPLEX_D4]


def _sampled_id(body):
    return repr(body) if isinstance(body, (Ball, Interval)) else f"simplex-d{body.dimension}"


@pytest.mark.parametrize("body", UNIFORM_SAMPLED, ids=_sampled_id)
@pytest.mark.parametrize("n", [1, 20_000])
def test_uniform_samplers_match_a_reference_from_the_same_draws(body, n):
    # n = 20,000 ends in a partial block for every m (the width is _BLOCK // m)
    from sylvester.montecarlo import _BLOCK, _sample_batch

    d = body.dimension
    for m in (d, d + 1):
        assert n == 1 or n % (_BLOCK // m) != 0
        pts = _sample_batch(body, _rng([17, 3]), n, m)
        want = _uniform_sampler_reference(body, _derived_rng([17, 3]), n, m)
        assert pts.shape == (n, m, d)
        assert pts.transpose(1, 2, 0).flags.c_contiguous
        # the two sides round differently, by an ulp or two
        assert np.max(np.abs(pts - want)) <= 1e-15
        assert all(body.contains(p) for p in pts.reshape(-1, d)[:2_000])
        if isinstance(body, Ball):
            assert np.all((pts**2).sum(axis=-1) <= 1 + 1e-12)
        if isinstance(body, HalfBall):
            assert np.all(pts[..., 0] >= 0)


@pytest.mark.parametrize("body", [Interval(2.0), Interval(3.7e-5), SEGMENT], ids=repr)
def test_a_segment_block_has_the_bits_of_the_1x1_matmul(body):
    # a segment's point is its one edge times its uniform, plus the last
    # vertex: bit for bit the stacked 1 x 1 matmul of the other simplices, at
    # every block shape _sample_batch fills (whole and partial, m = 1 and 2)
    from sylvester.montecarlo import _BLOCK, _fill_simplex

    verts = body.vertex_array()
    for m in (1, 2):
        for w in (_BLOCK // m, 20_000 % (_BLOCK // m), 1):
            block = np.empty((m, 1, w))
            _fill_simplex(verts, _derived_rng([5, m]), block)
            want = np.matmul((verts[:-1] - verts[1:]).T, _derived_rng([5, m]).random((m, 1, w)))
            want += verts[-1][:, None]
            assert block.tobytes() == want.tobytes()


class _CornerFirst:
    """The derived generator, except that its first round of disk candidates
    holds the centre (0, 0), which is refused, then (-1/2, 1/2), which is
    kept, and corners of the square after it, which are refused: the round
    yields one point, and a second round tops the block up."""

    def __init__(self, key):
        self.rng = _derived_rng(key)
        self.calls = 0

    def random(self, size):
        u = self.rng.random(size)
        self.calls += 1
        if self.calls == 2:  # the block's radii come first
            u[:, 0] = 0.5
            u[:, 1] = (0.25, 0.75)
            u[:, 2:] = 0.999
        return u


@pytest.mark.parametrize("body", [Ball(3), HalfBall(4)], ids=repr)
def test_a_short_disk_round_is_topped_up(monkeypatch, body):
    import sylvester.montecarlo as mc

    d, n, m = body.d, 3_000, body.d + 1
    stub = _CornerFirst([23, 1])
    monkeypatch.setattr(mc, "_draw_generator", lambda rng: stub)
    pts = mc._sample_batch(body, _rng([23, 1]), n, m)
    # one block; d = 4 draws a second disk after the first is topped up
    assert stub.calls == (3 if d == 3 else 4)
    want = _uniform_sampler_reference(body, _CornerFirst([23, 1]), n, m)
    assert np.max(np.abs(pts - want)) <= 1e-15
    assert np.all((pts**2).sum(axis=-1) <= 1 + 1e-12)
    # the first point is built from the one candidate kept, (-1/2, 1/2)
    r = _CornerFirst([23, 1]).random((m, n))[0, 0] ** (1 / d)
    if d == 3:
        want_first = np.array([-np.sqrt(0.5), np.sqrt(0.5), 0.0]) * r
    else:  # x_1 = |-1/2| r in the half-ball; (x_3, x_4) come from the second disk
        want_first = np.array([0.5, 0.5]) * r
    assert np.max(np.abs(pts[0, 0, :len(want_first)] - want_first)) <= 1e-15


def _moment_z(samples, exact):
    """Distance of the sample mean from the exact value, in standard errors."""
    return abs(samples.mean() - exact) / (samples.std(ddof=1) / math.sqrt(len(samples)))


@pytest.mark.parametrize("body", [Ball(3), HalfBall(3), Ball(4), HalfBall(4)], ids=repr)
def test_uniform_ball_samplers_have_the_exact_moments(body):
    from sylvester.montecarlo import _sample_batch

    d, n = body.d, 200_000
    pts = _sample_batch(body, _rng([29, d]), n, 2).reshape(-1, d)
    r2 = (pts**2).sum(axis=1)
    # r^d is uniform on [0, 1]
    assert _moment_z(r2 ** (d / 2), 0.5) < 5
    for i in range(d):
        assert _moment_z(pts[:, i] ** 2, 1 / (d + 2)) < 5
    first = 0.0
    if isinstance(body, HalfBall):
        first = {3: 3 / 8, 4: 16 / (15 * math.pi)}[d]
        assert halfball_first_coordinate_mean(d) == pytest.approx(first, abs=1e-10)
    assert _moment_z(pts[:, 0], first) < 5
    for i in range(1, d):
        assert _moment_z(pts[:, i], 0.0) < 5


@pytest.mark.parametrize("body", [SEGMENT, unit_area_triangle(), unit_volume_tetrahedron(),
                                  SIMPLEX_D4], ids=_sampled_id)
def test_uniform_simplex_samplers_have_the_exact_moments(body):
    from oracles import reference_simplex_centroid_covariance
    from sylvester.montecarlo import _sample_batch

    d, n = body.dimension, 200_000
    pts = _sample_batch(body, _rng([31, d]), n, 2).reshape(-1, d)
    verts = body.vertex_array()
    # the body is v_0 + A conv(0, e_1, ..., e_d), A's columns v_i - v_0
    a = (verts[1:] - verts[0]).T
    mean, cov = reference_simplex_centroid_covariance(d)
    mu = verts[0] + a @ np.array(mean, dtype=float)
    sigma = a @ np.array(cov, dtype=float) @ a.T
    for i in range(d):
        assert _moment_z(pts[:, i], mu[i]) < 5
        for j in range(i, d):
            assert _moment_z((pts[:, i] - mu[i]) * (pts[:, j] - mu[j]), sigma[i, j]) < 5


def test_sampler_temporaries_scale_with_the_block_not_the_chunk():
    import tracemalloc

    from sylvester.montecarlo import _sample_batch

    # one body per fill: the simplex's (the interval's too), the normal draws
    # (d = 1, 2, 6) and the 3- and 4-ball's disks
    for body in (Interval(2.0), Ball(1), HalfBall(2), Ball(6), unit_volume_tetrahedron(),
                 HalfBall(4)):
        m = body.dimension + 1
        _sample_batch(body, _rng([3, 0]), 100, m)  # numpy's one-time allocations
        for n in (2**15, 2**17):
            tracemalloc.start()
            try:
                pts = _sample_batch(body, _rng([3, 1]), n, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a block's temporaries are at most about 1.5 MB (HalfBall(4)); a
            # fill of the whole chunk took an (m, n) array or more beside the points
            assert peak - pts.nbytes <= 2 * 2**20, (body, n)


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


def test_a_reset_keying_generator_gives_the_words_of_a_fresh_philox():
    # _keyed resets one generator per thread in place; whatever it drew
    # before, its first raw words are those of Philox(key=[seed, index])
    from sylvester.montecarlo import _keyed

    for seed in (0, 1, 2**63 + 5, 2**64 - 1):
        for index in (0, 1, 2, 31, 2**40, 2**64 - 1):
            rng = _keyed(seed, index)
            assert np.array_equal(rng.bit_generator.random_raw(6),
                                  _rng([seed, index]).bit_generator.random_raw(6))
            rng.integers(0, 2**32, dtype=np.uint32)  # leaves a half-used word behind
            rng.random(3)
    assert _keyed(5, 3) is _keyed(6, 4)  # one generator, reset in place
    # another thread has its own
    other = []
    thread = threading.Thread(target=lambda: other.append(_keyed(5, 3)))
    thread.start()
    thread.join(timeout=60)
    assert other and other[0] is not _keyed(5, 3)
    assert np.array_equal(other[0].bit_generator.random_raw(4),
                          _rng([5, 3]).bit_generator.random_raw(4))


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


@pytest.mark.parametrize("config", [
    EstimatorConfig(k=1, n_samples=10, chunk_size=10),
    make_config(k=3, n_samples=2_000_000, seed=2**64 - 1, chunk_size=4096, confidence=0.9),
])
def test_config_record_is_asdicts(config):
    record = config.to_json_dict()
    assert record == asdict(config)
    assert list(record) == list(asdict(config))
    assert [type(v) for v in record.values()] == [type(v) for v in asdict(config).values()]


def test_exact_side_record_is_built_once_and_cannot_be_changed_by_a_caller():
    value = PiPolynomial({0: Fraction(13, 720), 4: Fraction(-1, 15015)})
    side = ExactSide(value)
    expected = {"type": "exact",
                "value": {"terms": [{"h": 0, "num": "13", "den": "720"},
                                    {"h": 4, "num": "-1", "den": "15015"}]},
                "decimal": value.to_decimal(12)}
    record = side.to_json_dict()
    assert record == expected
    record["decimal"] = "0"
    record["value"]["terms"][0]["num"] = "0"
    record["value"]["terms"].clear()
    assert side.to_json_dict() == ExactSide(value).to_json_dict() == expected


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
    from sylvester.montecarlo import MAX_CHUNK_BYTES, _check_run, _job

    cfg = make_config(k=1, n_samples=10**6)
    assert cfg.chunk_size == DEFAULT_CHUNK
    _check_run(Ball(15), NO_FIXED_POINT, cfg)
    chunks = -(-10**6 // DEFAULT_CHUNK)
    sizes = [_job(Ball(15), NO_FIXED_POINT, cfg, i)[5] for i in range(chunks)]
    assert sum(sizes) == 10**6 and min(sizes) > 0
    # 2^26 // (17*16*8) and 2^26 // (50*50*8)
    for body, fixed, largest in [(Ball(16), NO_FIXED_POINT, 30_840),
                                 (Ball(50), FixedPoint((0.0,) * 50), 3_355)]:
        message = f"limit of {MAX_CHUNK_BYTES} bytes; the largest chunk that fits is {largest}"
        for workers in (1, 4):
            with pytest.raises(ValueError, match=message):
                estimate_moment(body, fixed, cfg, workers=workers)
        with pytest.raises(ValueError, match=message):
            certify_counterexample((body, fixed, 1), PiPolynomial.from_rational(1), cfg)
        _check_run(body, fixed, make_config(k=1, n_samples=10**6, chunk_size=largest))
        with pytest.raises(ValueError, match=message):
            _check_run(body, fixed, make_config(k=1, n_samples=10**6, chunk_size=largest + 1))


def test_a_budget_costs_nothing_until_its_chunks_are_drawn():
    from sylvester.montecarlo import _job, _ramp

    # about 5 * 10^11 chunks: a list of them would not fit in memory
    variate = object()
    jobs = _ramp(Ball(3), NO_FIXED_POINT, make_config(k=1, n_samples=10**15), variate, None)
    assert next(jobs) == (Ball(3), NO_FIXED_POINT, 1, 0, 0, 1_024, variate, None)
    # an estimate's equal chunks, each computed from its index alone; the
    # budget caps the last
    cfg = make_config(k=2, n_samples=2_500, seed=9, chunk_size=1_000)
    tail = [_job(Ball(3), NO_FIXED_POINT, cfg, i) for i in range(3)]
    assert [job[:2] for job in tail] == [(Ball(3), NO_FIXED_POINT)] * 3
    assert [job[2:] for job in tail] == [(2, 9, 0, 1_000), (2, 9, 1, 1_000), (2, 9, 2, 500)]
    # a certification's jobs take chunk / 32, then chunk / 16 each
    assert [job[4:6] for job in islice(jobs, 3)] == [
        (1, DEFAULT_CHUNK // 16), (2, DEFAULT_CHUNK // 16), (3, DEFAULT_CHUNK // 16)]
    # at least one simplex a chunk, and the budget caps the last
    short = _ramp(Ball(3), NO_FIXED_POINT, make_config(k=1, n_samples=10, chunk_size=10),
                  None, None)
    assert [job[5] for job in short] == [1] * 10
    short = _ramp(Ball(3), NO_FIXED_POINT, make_config(k=1, n_samples=70, chunk_size=70),
                  None, None)
    assert [job[5] for job in short] == [2] + [4] * 17


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
    # a certification runs in the caller's thread and does not read the variable
    verdict = certify_counterexample((Ball(2), NO_FIXED_POINT, 1),
                                     PiPolynomial.from_rational(1), cfg)
    assert verdict.relation == RHS_GREATER


def test_pool_is_capped_at_chunk_count(monkeypatch):
    # a run has min(workers, cores, chunks) helpers, or none where that is 1;
    # a run of the caller alone builds no team and keeps the kept one, which
    # another count replaces
    import sylvester.montecarlo as mc

    built, real = [], mc._Team
    monkeypatch.setattr(mc, "_Team", lambda helpers: built.append(helpers) or real(helpers))
    mc._drop_team()
    monkeypatch.setenv("SYLVESTER_THREADS", "100000")
    cfg = make_config(k=1, n_samples=3_000, seed=3, chunk_size=1_000)
    capped = estimate_moment(Ball(2), NO_FIXED_POINT, cfg)
    cores = os.cpu_count() or 1
    helpers = [min(3, cores)] if cores > 1 else []
    assert built == helpers
    team = mc._TEAM
    assert (team is None) == (cores == 1)
    # one chunk needs no helper, nor does one worker; neither touches the team
    estimate_moment(Ball(2), NO_FIXED_POINT, make_config(k=1, n_samples=1_000, seed=3))
    assert capped == estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=1)
    assert built == helpers and mc._TEAM is team
    # more chunks than cores: one helper per core
    many = make_config(k=1, n_samples=(cores + 2) * 100, seed=3, chunk_size=100)
    estimate_moment(Ball(2), NO_FIXED_POINT, many)
    assert built[len(helpers):] == ([cores] if cores > 3 else [])
    assert mc._TEAM is None or len(mc._TEAM.helpers) == cores


def test_default_chunk_is_two_to_the_fifteenth():
    assert DEFAULT_CHUNK == 2**15
    assert EstimatorConfig(k=1, n_samples=10**6).chunk_size == DEFAULT_CHUNK
    assert make_config(k=1, n_samples=10**6).chunk_size == DEFAULT_CHUNK


def test_estimate_rejects_fixed_point_outside():
    # the check is cached per (body, fixed) pair, a failed check is not: it raises every time
    cfg = make_config(k=1, n_samples=1000)
    for _ in range(2):
        with pytest.raises(ValueError, match="lies outside the body"):
            estimate_moment(Ball(2), FixedPoint((3.0, 0.0)), cfg)
        with pytest.raises(ValueError, match="dimension does not match"):
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


def test_certify_exact_vs_exact_closer_than_doubles_tell():
    # each pair shares its enclosing doubles, yet the values differ
    cfg = make_config(k=1, n_samples=1000)
    one = PiPolynomial.one()
    above_one = PiPolynomial.from_rational(1 + Fraction(1, 10**30))
    above_pi = PiPolynomial.from_rational(Fraction("3.14159265358979323846264338328"))
    for larger, smaller in ((above_one, one), (above_pi, PI)):
        assert ExactSide(larger).bounds()[0] <= ExactSide(smaller).bounds()[1]
        assert certify_counterexample(larger, smaller, cfg).relation == LHS_GREATER
        assert certify_counterexample(smaller, larger, cfg).relation == RHS_GREATER


def test_two_exact_sides_have_no_margin():
    # the relation is a certified sign, not a statistic: no margin, and no
    # estimated side to trace
    cfg = make_config(k=1, n_samples=1000)
    above_one = PiPolynomial.from_rational(1 + Fraction(1, 10**30))
    unequal = certify_counterexample(above_one, PiPolynomial.one(), cfg)
    equal = certify_counterexample(triangle_moment(2), triangle_midpoint_moment(2), cfg)
    assert (unequal.relation, equal.relation) == (LHS_GREATER, INCONCLUSIVE)
    assert unequal.trace_dict() == equal.trace_dict() == {"margin": None}


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

    100 frozen seeds per case, a budget of 16 x 128 samples in the ramp of a
    certification (a chunk of 4, then 255 of 8, then a tail of 4: 257
    chunks), checked after every chunk at confidence 0.8 (so a miss is common
    enough to count): a run
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


def test_control_variate_coverage_audit():
    """The same audit for the bounded control-variate sequence.

    Pairs whose E V^k and E V^(2k) are both exact, with the frozen seeds,
    budget, ramp and confidence 0.8 of the audit above.
    """
    from sylvester.montecarlo import EstimatedSide, _chunk_stats

    origin = FixedPoint((0.0, 0.0, 0.0))
    cases = {
        "ball-d3-origin k=1": (Ball(3), origin, 1, ball_fixed_moment(3, 1),
                               ball_fixed_moment(3, 2)),
        "ball-d3 k=1": (Ball(3), NO_FIXED_POINT, 1, ball_moment(3, 1), ball_moment(3, 2)),
        "triangle k=1": (unit_area_triangle(), NO_FIXED_POINT, 1, triangle_moment(1),
                         triangle_moment(2)),
    }
    runs, delta = 100, 0.2
    report = []
    for name, (body, fixed, k, value, second) in cases.items():
        exact = value.to_float()
        misses = 0
        for seed in range(runs):
            cfg = make_config(k=k, n_samples=16 * 128, seed=seed, chunk_size=128,
                              confidence=1 - delta)
            sequence = EstimatedSide(body, fixed, cfg, delta, second)
            assert sequence.value_range < sequence.moment_range / 3.99
            missed = False
            for job in sequence.jobs:
                sequence.add(_chunk_stats(*job))
                lo, hi = sequence.bounds()
                missed |= not lo <= exact <= hi
            misses += missed
        report.append(f"{name}: control variate {misses}/{runs}")
        assert misses <= _binomial_upper(runs, delta), report
    print("; ".join(report))


def test_betting_test_coverage_audit():
    """The betting test at the boundary null: the exact side is the true value.

    Pairs whose E V^k and E V^(2k) are both exact, with the frozen seeds,
    budget, ramp and confidence 0.8 of the audits above.  Every certified
    relation, in either direction, is false; the two tests together may
    certify in at most a fraction delta = 0.2 of runs, up to a binomial
    margin.
    """
    origin = FixedPoint((0.0, 0.0, 0.0))
    cases = {
        "ball-d3-origin k=1": (Ball(3), origin, 1, ball_fixed_moment(3, 1),
                               ball_fixed_moment(3, 2)),
        "ball-d3 k=1": (Ball(3), NO_FIXED_POINT, 1, ball_moment(3, 1), ball_moment(3, 2)),
        "triangle k=1": (unit_area_triangle(), NO_FIXED_POINT, 1, triangle_moment(1),
                         triangle_moment(2)),
    }
    runs, delta = 100, 0.2
    report = []
    for name, (body, fixed, k, value, second) in cases.items():
        false = 0
        for seed in range(runs):
            cfg = make_config(k=k, n_samples=16 * 128, seed=seed, chunk_size=128,
                              confidence=1 - delta)
            verdict = certify_counterexample((body, fixed, k, second), value, cfg)
            assert verdict.lhs.test.threshold == pytest.approx(math.log(2 / delta))
            false += verdict.relation != INCONCLUSIVE
        report.append(f"{name}: betting test {false}/{runs}")
        assert false <= _binomial_upper(runs, delta), report
    print("; ".join(report))


# pairs whose E V, E V^2 and E V^4 are all exact
QUARTIC_CASES = {
    "ball-d3-origin k=1": (Ball(3), FixedPoint((0.0, 0.0, 0.0)), 1, ball_fixed_moment(3, 1),
                           ball_fixed_moment(3, 2), ball_fixed_moment(3, 4)),
    "ball-d3 k=1": (Ball(3), NO_FIXED_POINT, 1, ball_moment(3, 1), ball_moment(3, 2),
                    ball_moment(3, 4)),
    "triangle k=1": (unit_area_triangle(), NO_FIXED_POINT, 1, triangle_moment(1),
                     triangle_moment(2), triangle_moment(4)),
}


def test_quartic_betting_test_coverage_audit():
    """The boundary-null audit of the betting test for sides on the quartic
    control variate, with the frozen seeds, budget, ramp and confidence 0.8
    of the audits above: the two tests together may certify in at most a
    fraction delta = 0.2 of runs, up to a binomial margin."""
    from sylvester.montecarlo import _quartic_variate

    runs, delta = 100, 0.2
    report = []
    for name, (body, fixed, k, value, second, fourth) in QUARTIC_CASES.items():
        false = 0
        for seed in range(runs):
            cfg = make_config(k=k, n_samples=16 * 128, seed=seed, chunk_size=128,
                              confidence=1 - delta)
            verdict = certify_counterexample((body, fixed, k, second, fourth), value, cfg)
            assert verdict.lhs.variate.func is _quartic_variate
            false += verdict.relation != INCONCLUSIVE
        report.append(f"{name}: quartic betting test {false}/{runs}")
        assert false <= _binomial_upper(runs, delta), report
    print("; ".join(report))


def test_chunk0_mixture_coverage_audit():
    """The boundary-null audit of the chunk-0 stake mixture alone.

    A budget of 4,096 samples in chunks of 4,096, so chunk 0 of the ramp has
    128, 200 frozen seeds and confidence 0.8, for each pair of QUARTIC_CASES
    sampled three ways: plainly as V^k, as the (-1, 0) control variate and as
    the quartic one.  Every certified relation is false; those decided at
    chunk 0, where only the mixture bets, may happen in at most a fraction
    delta = 0.2 of runs, up to a binomial margin.
    """
    runs, delta = 200, 0.2
    report = []
    for name, (body, fixed, k, value, second, fourth) in QUARTIC_CASES.items():
        for form, moments in (("plain", ()), ("(-1, 0)", (second,)),
                              ("quartic", (second, fourth))):
            false = 0
            for seed in range(runs):
                cfg = make_config(k=k, n_samples=4_096, seed=seed, chunk_size=4_096,
                                  confidence=1 - delta)
                verdict = certify_counterexample((body, fixed, k, *moments), value, cfg)
                at_chunk0 = verdict.lhs.chunks == 1
                assert verdict.lhs.estimate.n == 128 or not at_chunk0
                false += verdict.relation != INCONCLUSIVE and at_chunk0
            report.append(f"{name} {form}: chunk-0 decisions {false}/{runs}")
            assert false <= _binomial_upper(runs, delta), report
    print("; ".join(report))


def test_paired_betting_test_coverage_audit():
    """The boundary-null audit of the betting test for a paired side.

    The free 3-half-ball at k = 2, whose draws each stand for their
    eight-simplex orbit under the half-turn, sampled plainly and on the
    (-1, 0) row with its exact E V^4, against its exact E V^2: 200 frozen
    seeds at confidence 0.8, in chunks of 128 (a budget of 2,048) and in
    chunks of 4,096 (a budget of 4,096, so chunk 0 has 128 samples).  Every
    certified relation is false; the two tests together may certify in at
    most a fraction delta = 0.2 of runs, up to a binomial margin.
    """
    from sylvester.moments import MomentQuery, exact_moment

    value, fourth = (exact_moment(MomentQuery(3, k, "halfball")) for k in (2, 4))
    runs, delta = 200, 0.2
    report = []
    for form, moments in (("plain", ()), ("(-1, 0)", (fourth,))):
        for chunk, budget in ((128, 2_048), (4_096, 4_096)):
            false = 0
            for seed in range(runs):
                cfg = make_config(k=2, n_samples=budget, seed=seed, chunk_size=chunk,
                                  confidence=1 - delta)
                verdict = certify_counterexample((HalfBall(3), NO_FIXED_POINT, 2, *moments),
                                                 value, cfg)
                assert verdict.lhs.partner is not None
                false += verdict.relation != INCONCLUSIVE
            report.append(f"{form} chunk {chunk}: paired betting test {false}/{runs}")
            assert false <= _binomial_upper(runs, delta), report
    print("; ".join(report))


@settings(max_examples=300, deadline=None)
@given(c=st.floats(2.0**-60, 2.0**60), m_frac=st.floats(2.0**-20, 1.0),
       up=st.booleans(), n=st.integers(1, 2**15), gap_frac=st.floats(-1.0, 1.0),
       m2_frac=st.floats(0.0, 1.0))
def test_chunk0_mixture_term_is_finite_and_bracketed(c, m_frac, up, n, gap_frac, m2_frac):
    # for any chunk stats, |gap| up to the range and M2 up to n c^2, the
    # chunk-0 term is finite and in [-log 5, the largest track's bound]
    from sylvester.montecarlo import _CHUNK0_STAKES, _MAX_STAKE, _chunk0_growth, _growth, _psi

    m = c * m_frac
    sign, span = (1.0, m) if up else (-1.0, c - m)
    chunk = (n, m + gap_frac * c, m2_frac * n * c * c)
    term = _chunk0_growth(sign, m, span, chunk)[0]
    if span == 0.0:
        assert term == 0.0
        return
    stakes = [f * _MAX_STAKE / span for f in _CHUNK0_STAKES]
    bounds = [_growth(stake, _psi(math.nextafter(stake * span, math.inf)), sign, m, chunk)[0]
              for stake in stakes]
    assert math.isfinite(term)
    assert -math.log(5) * (1 + 2**-50) <= term <= max(bounds)


def _exact_growth(stake, psi, sign, m, chunk):
    """_growth's bound at m, in exact arithmetic on the doubles it is given,
    and the sum of its terms' sizes."""
    n, mean, m2 = chunk
    stake, psi, gap = F(stake), F(psi), F(mean) - F(m)
    gain, loss = stake * int(sign) * n * gap, psi * stake * stake * (F(m2) + n * gap * gap)
    return gain - loss, abs(gain) + loss


@settings(max_examples=300, deadline=None)
@given(c=st.floats(2.0**-30, 1.0), m_frac=st.floats(0.0, 1.0), up=st.booleans(),
       n=st.integers(1, 2**15), mean_frac=st.floats(0.0, 1.0), m2_frac=st.floats(0.0, 1.0),
       stake_frac=st.floats(0.0, 1.0), x_frac=st.floats(0.0, 1.0))
def test_the_growth_form_is_the_bound_on_the_valid_side(c, m_frac, up, n, mean_frac, m2_frac,
                                                        stake_frac, x_frac):
    # A + B x - C x^2 is the bound at m - sign x: at the target (x = 0) and at
    # any x >= 0 up to the range, within a relative 1e-9 of its terms (and
    # 2^-1000, for what underflows)
    from sylvester.montecarlo import _MAX_STAKE, _growth, _psi

    m, mean, sign = c * m_frac, c * mean_frac, 1.0 if up else -1.0
    chunk = (n, mean, m2_frac * n * mean * (c - mean))
    stake = stake_frac * _MAX_STAKE / c
    psi = _psi(stake * c)
    a, b, curve = _growth(stake, psi, sign, m, chunk)
    _, size = _exact_growth(stake, psi, sign, m, chunk)
    x = F(x_frac * c)
    for at, value in ((0, a), (x, a + b * float(x) - curve * float(x) ** 2)):
        exact, _ = _exact_growth(stake, psi, sign, F(m) - int(sign) * at, chunk)
        scale = size + abs(F(b)) * at + F(curve) * at * at
        assert abs(F(value) - exact) <= F(1, 10**9) * scale + F(1, 2**1000)


@settings(max_examples=200, deadline=None)
@given(target=st.one_of(st.none(), st.floats(0.02, 0.98)),
       stats=st.lists(st.tuples(st.integers(1, 4_096), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=6))
def test_each_end_of_the_sequence_is_the_edge_or_where_a_track_reaches_the_threshold(target,
                                                                                   stats):
    # recomputed directly from the bets each test placed, per chunk-0 track:
    # at each end that is not the range edge the best track's bound, less
    # log K, reaches the threshold, and at no mean between the test's target
    # and the end does any track's (so the end is the near root, not the far
    # one); a decided test's end is the exact side's double
    from sylvester import montecarlo
    from sylvester.montecarlo import _LOG_TRACKS, EstimatedSide, _growth

    exact = None if target is None else ExactSide(PiPolynomial.from_rational(F(target)))
    side = EstimatedSide(Interval(), NO_FIXED_POINT, make_config(k=1, n_samples=1), 0.01,
                         exact=exact)
    test = side.test
    chunks = [(n, mean, m2_frac * n * mean * (1.0 - mean)) for n, mean, m2_frac in stats]
    calls = []  # the (stake, psi, sign, m, chunk) of every bet placed
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(montecarlo, "_growth", lambda *bet: calls.append(bet) or _growth(*bet))
        side.add(chunks[0])
        tracks = len(calls)  # chunk 0's, per track
        for chunk in chunks[1:]:
            side.add(chunk)
    tolerance = 1e-9

    def best(sign, m):
        bounds = [_growth(stake, psi, sign, m, chunk)[0] for stake, psi, s, _, chunk in calls]
        signs = [s for _, _, s, _, _ in calls]
        first = [b for b, s in zip(bounds[:tracks], signs) if s == sign]
        rest = sum(b for b, s in zip(bounds[tracks:], signs[tracks:]) if s == sign)
        return max(first) + rest - _LOG_TRACKS

    for i, ((sign, m, _), end, edge) in enumerate(zip(test.tests, side.bounds(),
                                                      (0.0, side.moment_range))):
        if exact is not None and test.log_wealth[i] >= test.threshold:
            assert end == exact.bounds()[1 - i]
            continue
        if end != edge:
            assert best(sign, end) >= test.threshold - tolerance
        # walking out from the target, no mean short of the end is rejected
        short = [m + (end - m) * step / 32 for step in range(32)] + [end + (m - end) * 1e-6]
        assert all(best(sign, point) < test.threshold + tolerance for point in short)


def test_quartic_control_variate_coverage_audit():
    """The sequence's coverage audit for sides on the quartic control variate."""
    from sylvester.montecarlo import EstimatedSide, _chunk_stats

    runs, delta = 100, 0.2
    report = []
    for name, (body, fixed, k, value, second, fourth) in QUARTIC_CASES.items():
        exact = value.to_float()
        misses = 0
        for seed in range(runs):
            cfg = make_config(k=k, n_samples=16 * 128, seed=seed, chunk_size=128,
                              confidence=1 - delta)
            sequence = EstimatedSide(body, fixed, cfg, delta, second, fourth)
            assert sequence.value_range < sequence.moment_range * 0.1353
            missed = False
            for job in sequence.jobs:
                sequence.add(_chunk_stats(*job))
                lo, hi = sequence.bounds()
                missed |= not lo <= exact <= hi
            misses += missed
        report.append(f"{name}: quartic control variate {misses}/{runs}")
        assert misses <= _binomial_upper(runs, delta), report
    print("; ".join(report))


def _quartic_proof_bracket(a, b):
    """A rational bracket [p, q] of the first root of f' = 1 + 2a t + 4b t^3,
    by bisection from [1/4, 1/3]."""
    def slope(t):
        return 1 + 2 * a * t + 4 * b * t**3

    p, q = F(1, 4), F(1, 3)
    assert slope(p) > 0 > slope(q)
    while q - p > F(1, 2**30):
        mid = (p + q) / 2
        p, q = (mid, q) if slope(mid) > 0 else (p, mid)
    return p, q, slope


def test_quartic_coefficients_bound_the_range_in_exact_arithmetic():
    # the two facts the range proof of EstimatedSide rests on, for the doubles (a, b)
    from sylvester.montecarlo import _QUARTIC_A, _QUARTIC_B, _QUARTIC_TOP

    a, b = F(_QUARTIC_A), F(_QUARTIC_B)
    top = 1 + a + b
    assert F(_QUARTIC_TOP) == top and F(0.13524) < top < F(0.13525)
    # near the minimax pair
    assert abs(a + F(1.9303)) < F(1, 10**4) and abs(b - F(1.06554)) < F(1, 10**4)
    # g(t) = 1 + a t + b t^3 >= 2^-40 for t >= 0: its minimum 1 + (2a/3) t*,
    # at t*^2 = -a / (3b), is >= delta exactly when 4|a|^3 <= 27 b (1 - delta)^2
    delta = F(1, 2**40)
    assert 4 * (-a) ** 3 <= 27 * b * (1 - delta) ** 2
    # f(t) = t g(t) <= 1 + a + b on [0, 1]: f' is decreasing on [0, q] (f'' =
    # 2a + 12b t^2 < 0 at q, and f'' rises), positive at p and negative at q,
    # so f rises on [0, p], stays below f(p) + (q - p) f'(p) on [p, q], and
    # on [q, 1] has no interior maximum (f' is convex and has one more root)
    p, q, slope = _quartic_proof_bracket(a, b)
    assert 2 * a + 12 * b * q * q < 0 and slope(p) > 0 > slope(q)
    f = lambda t: t + a * t**2 + b * t**4  # noqa: E731
    assert f(p) + (q - p) * slope(p) <= top
    assert top - f(p) < F(2, 10**9)  # the interior maximum is that close to f(1)


RANGE_BODIES = [
    (Ball(2), 1), (Ball(3), 1), (HalfBall(3), 1), (HalfBall(4), 1),
    (unit_volume_tetrahedron(), 1), (unit_area_triangle(), 1), (Ball(3), 2), (Interval(2.5), 3),
]


# each body on both rows (a, b) of the control variate: the quartic, given
# E V^(2k) and E V^(4k), and (-1, 0), given E V^(2k) only
@pytest.mark.parametrize("body, k, quartic", [
    pytest.param(body, k, quartic, id=f"body{i}-{k}" + ("" if quartic else "-quadratic"))
    for quartic in (True, False) for i, (body, k) in enumerate(RANGE_BODIES)
])
def test_quartic_range_is_never_exceeded(body, k, quartic):
    from sylvester.montecarlo import (_QUARTIC_A, _QUARTIC_B, _QUARTIC_TOP, EstimatedSide,
                                      _batched_abs_det, _quartic_variate, _sample_batch)

    side = EstimatedSide(body, NO_FIXED_POINT, make_config(k=k, n_samples=1), 0.01,
                         *(PiPolynomial.one(),) * (2 if quartic else 1))
    a, b, top = (_QUARTIC_A, _QUARTIC_B, _QUARTIC_TOP) if quartic else (-1.0, 0.0, 0.25)
    r, c, variate = side.moment_range, side.value_range, side.variate
    assert variate.func is _quartic_variate and variate.keywords == {"r": r, "a": a, "b": b}
    assert c == r * top * (1 + 2.0**-40)
    fa, fb, fr = F(a), F(b), F(r)
    # the computed sample against its exact value at t = 0, at each interior
    # extremum and at t = 1: each within a relative 2^-46 of R top, and in [0, c]
    ts = (0.0, 0.5, 1.0)
    if quartic:
        p = float(_quartic_proof_bracket(fa, fb)[0])
        t_min = math.sqrt(-a / (3 * b))
        ts = (0.0, p, t_min, 1.0)
    for t in ts:
        x = r * t if t < 1.0 else r
        y = variate(np.array([x]))[0]
        tx = F(x) / fr
        exact = F(x) * (1 + fa * tx + fb * tx**3)
        assert 0.0 <= y <= c
        assert abs(F(y) - exact) <= fr * F(top) * F(1, 2**46)
    assert variate(np.array([0.0]))[0] == 0.0
    if quartic:
        # near the top at t = 1 and at the interior maximum, near 0 at t*
        at_ends = variate(np.array([r, r * p]))
        assert np.all(at_ends >= c * (1 - 2.0**-26))
        assert 0.0 <= variate(np.array([r * t_min]))[0] <= r * 1e-9
    else:
        # 0 at t = 1, and near the top at t = 1/2 and its neighbours
        assert variate(np.array([r]))[0] == 0.0
        half = r / 2
        at_half = variate(np.array([math.nextafter(half, 0.0), half, math.nextafter(half, r)]))
        assert np.all(at_half <= c) and np.all(at_half >= c * (1 - 2.0**-39))
    # and so does every sampled volume
    d = body.dimension
    pts = _sample_batch(body, _rng([37, 10 * d + k]), 20_000, d + 1)
    x = (_batched_abs_det(pts[:, 1:] - pts[:, :1]) / math.factorial(d)) ** k
    y = variate(x)
    assert np.all(y >= 0.0) and np.all(y <= c)


def test_quartic_side_shift_bounds_estimate_and_trace():
    from sylvester.montecarlo import (_QUARTIC_A, _QUARTIC_B, EstimatedSide, _chunk_stats,
                                      _quartic_variate)

    origin = FixedPoint((0.0,) * 3)
    second, fourth = ball_fixed_moment(3, 2), ball_fixed_moment(3, 4)
    cfg = make_config(k=1, n_samples=50_000, seed=6, chunk_size=4_096)
    quadratic = EstimatedSide(Ball(3), origin, cfg, 0.01, second)
    side = EstimatedSide(Ball(3), origin, cfg, 0.01, second, fourth)
    assert side.value_range < quadratic.value_range * 0.55
    # the shift encloses -(a E V^2 / R + b E V^4 / R^3) at every end of the enclosures
    a, b, r = F(_QUARTIC_A), F(_QUARTIC_B), F(side.moment_range)
    for s2 in second.evaluate_interval(30):
        for s4 in fourth.evaluate_interval(30):
            assert F(side.shift[0]) <= -(a * s2 / r + b * s4 / r**3) <= F(side.shift[1])
    assert 0 < side.shift[1] - side.shift[0] < 1e-15
    # the same keys and sizes, with the quartic in place of the quadratic
    for q_job, job in zip(quadratic.jobs, side.jobs):
        assert job[:6] == q_job[:6] and job[6:] == (side.variate, None)
        assert side.variate.func is _quartic_variate
        quadratic.add(_chunk_stats(*q_job))
        side.add(_chunk_stats(*job))
    assert side.stats[0] == 50_000
    lo, hi = side.bounds()
    assert lo < ball_fixed_moment(3, 1).to_float() < hi
    # narrower than the quadratic's on the same draws
    assert hi - lo < quadratic.bounds()[1] - quadratic.bounds()[0]
    est = side.estimate
    assert est.mean == side.stats[1] + (side.shift[0] + side.shift[1]) / 2
    assert (est.ci_low, est.ci_high) == (lo, hi)
    trace = side.trace_dict()
    assert trace["sample"] == "V^k(1+t(a+b*t^2)),t=V^k/R^k" and "beta" not in trace
    assert (trace["a"], trace["b"], trace["range"]) == (_QUARTIC_A, _QUARTIC_B, side.value_range)
    with pytest.raises(ValueError, match="needs E V"):
        EstimatedSide(Ball(3), origin, cfg, 0.01, fourth_moment=fourth)
    # R^2 = 1e-310 is a subnormal double
    with pytest.raises(ValueError, match="below the normal doubles"):
        EstimatedSide(Interval(1e-155), NO_FIXED_POINT, make_config(k=2, n_samples=10), 0.01,
                      PiPolynomial.one(), PiPolynomial.one())


@pytest.mark.parametrize("d, body_kind, fixed_kind", [
    (3, "halfball", "none"), (4, "halfball", "none"),
    (3, "tetrahedron", "none"), (3, "tetrahedron", "facet_centroid"),
])
def test_new_fourth_moments_agree_with_a_frozen_estimate(d, body_kind, fixed_kind):
    from sylvester.moments import MomentQuery, exact_moment

    query = MomentQuery(d, 4, body_kind, fixed_kind)
    body, fixed = query.sampler()
    est = estimate_moment(body, fixed, make_config(k=4, n_samples=2_000_000, seed=2_718))
    assert abs(est.mean - exact_moment(query).to_float()) <= 5 * est.std_error


@pytest.mark.parametrize("d, body_kind, fixed_kind", [
    (3, "halfball", "none"), (4, "halfball", "none"),
    (3, "tetrahedron", "none"), (3, "tetrahedron", "facet_centroid"),
])
def test_new_second_moments_agree_with_a_frozen_estimate(d, body_kind, fixed_kind):
    from sylvester.moments import MomentQuery, exact_moment

    query = MomentQuery(d, 2, body_kind, fixed_kind)
    body, fixed = query.sampler()
    est = estimate_moment(body, fixed, make_config(k=2, n_samples=400_000, seed=2_718))
    assert abs(est.mean - exact_moment(query).to_float()) <= 5 * est.std_error


def _clear_query_caches():
    from sylvester import montecarlo

    for helper in (montecarlo._shift, montecarlo._exact_bounds, montecarlo._exact_decimal,
                   montecarlo._betting_tests, montecarlo._chunk0_bets):
        helper.cache_clear()


def test_a_certification_encloses_each_exact_value_once(monkeypatch):
    # the exact side's enclosure and the control variate's shift are each
    # computed once per process, not after every chunk, nor on every run
    from sylvester.moments import MomentQuery, exact_moment

    _clear_query_caches()
    calls = []
    real = PiPolynomial.evaluate_interval

    def counted(self, digits):
        calls.append(self)
        return real(self, digits)

    monkeypatch.setattr(PiPolynomial, "evaluate_interval", counted)
    second = exact_moment(MomentQuery(3, 2, "halfball"))
    cfg = make_config(k=1, n_samples=1_000_000, seed=3)
    verdict = certify_counterexample((HalfBall(3), NO_FIXED_POINT, 1, second),
                                     halfball_fixed_moment(3, 1), cfg)
    assert verdict.relation == LHS_GREATER and verdict.lhs.chunks > 3
    # the shift -(a E V^2 / R) at (a, b) = (-1, 0), then the exact side
    assert calls == [second / F(verdict.lhs.moment_range), halfball_fixed_moment(3, 1)]
    verdict.trace_dict()
    verdict.lhs.estimate
    assert len(calls) == 2
    verdict.to_json_dict()  # the exact side's decimal, computed once too
    first_run = len(calls)
    # a second certification of the same query, at another seed, encloses nothing
    again = certify_counterexample((HalfBall(3), NO_FIXED_POINT, 1, second),
                                   halfball_fixed_moment(3, 1), replace(cfg, seed=4))
    assert again.relation == LHS_GREATER
    again.trace_dict()
    again.to_json_dict()
    assert len(calls) == first_run


def test_control_variate_side_bounds_and_estimate():
    from sylvester.montecarlo import EstimatedSide, _chunk_stats

    second = ball_fixed_moment(3, 2)
    cfg = make_config(k=1, n_samples=50_000, seed=6, chunk_size=4_096)
    plain = EstimatedSide(Ball(3), FixedPoint((0.0,) * 3), cfg, 0.01)
    side = EstimatedSide(Ball(3), FixedPoint((0.0,) * 3), cfg, 0.01, second)
    assert side.bounds() == plain.bounds() == (0.0, side.moment_range)
    # the same keys and sizes, with the control variate
    for job, cv_job in zip(plain.jobs, side.jobs):
        assert cv_job[:6] == job[:6] and cv_job[6:] == (side.variate, None)
        assert job[6:] == (None, None)
        plain.add(_chunk_stats(*job))
        side.add(_chunk_stats(*cv_job))
    assert side.stats[0] == plain.stats[0] == 50_000
    # the row (a, b) = (-1, 0): the shift encloses E V^2 / R
    assert side.variate.keywords == {"r": side.moment_range, "a": -1.0, "b": 0.0}
    assert side.value_range == side.moment_range * 0.25 * (1 + 2.0**-40)
    shift_lo, shift_hi = side.shift
    assert F(shift_lo) <= second.evaluate_interval(30)[0] / F(side.moment_range)
    assert second.evaluate_interval(30)[1] / F(side.moment_range) <= F(shift_hi)
    lo, hi = side.bounds()
    assert lo < ball_fixed_moment(3, 1).to_float() < hi
    # narrower than the plain sequence on the same draws
    plain_lo, plain_hi = plain.bounds()
    assert hi - lo < plain_hi - plain_lo
    est = side.estimate
    assert est.mean == side.stats[1] + (shift_lo + shift_hi) / 2
    assert (est.ci_low, est.ci_high) == (lo, hi)
    trace = side.trace_dict()
    assert trace["sample"] == "V^k(1+t(a+b*t^2)),t=V^k/R^k" and "beta" not in trace
    assert (trace["a"], trace["b"], trace["range"]) == (-1.0, 0.0, side.value_range)
    assert "sample" not in plain.trace_dict()


def _orbit(points):
    """The eight simplices of a free draw's orbit in the 3-half-ball: points 1,
    2 and 3 each turned or not by rho, which negates coordinates 1 and 2."""
    orbit = []
    for s in range(8):
        turned = [list(p) for p in points]
        for i in (1, 2, 3):
            if s >> (i - 1) & 1:
                turned[i][1], turned[i][2] = -turned[i][1], -turned[i][2]
        orbit.append(turned)
    return orbit


@pytest.mark.parametrize("moments", [0, 1, 2], ids=["plain", "(-1, 0)", "quartic"])
def test_an_orbit_chunk_is_the_mean_over_each_draws_eight_half_turns(moments):
    # the free 3-half-ball's side turns every draw (p0, p1, p2, p3) into the
    # eight simplices (p0, rho^s1 p1, rho^s2 p2, rho^s3 p3); the reference
    # recomputes each sample by hand from the same points, one simplex_volume
    # at a time
    from sylvester.moments import MomentQuery, exact_moment
    from sylvester.montecarlo import EstimatedSide, _chunk_stats, _sample_batch

    exact = [exact_moment(MomentQuery(3, order, "halfball")) for order in (2, 4)][:moments]
    cfg = make_config(k=1, n_samples=4_096, seed=29, chunk_size=4_096)
    side = EstimatedSide(HalfBall(3), NO_FIXED_POINT, cfg, 0.01, *exact)
    job = next(side.jobs)
    assert job[6:] == (side.variate, side.partner) and side.partner is not None
    assert side.trace_dict()["partner"] == (
        "(p0,rho^s1(p1),rho^s2(p2),rho^s3(p3)),s in {0,1}^3,rho=diag(1,-1,-1)")
    n, mean, m2 = _chunk_stats(*job)
    assert n == job[5] == 128

    def sample(points):
        x = simplex_volume(points)
        if side.variate is None:
            return x
        r, a, b = (side.variate.keywords[key] for key in "rab")
        t = x / r
        return x * (1.0 + t * (a + b * (t * t)))

    pts = _sample_batch(HalfBall(3), _rng([29, 0]), n, 4)
    ys = [math.fsum(map(sample, _orbit(p))) / 8 for p in pts.tolist()]
    ref_mean = math.fsum(ys) / n
    ref_m2 = math.fsum((y - ref_mean) ** 2 for y in ys)
    # within a few ulps: the volumes come from another form, the sums run in
    # another order
    assert mean == pytest.approx(ref_mean, rel=2.0**-50, abs=0)
    assert m2 == pytest.approx(ref_m2, rel=2.0**-50, abs=0)
    # every sample is in the side's range; without the orbit, the chunk is
    # the drawn simplex's alone
    assert 0.0 <= min(ys) and max(ys) <= side.value_range
    single = _chunk_stats(*job[:6], side.variate)
    assert single[1] != mean
    assert single[1] == pytest.approx(math.fsum(map(sample, pts.tolist())) / n,
                                      rel=2.0**-50, abs=0)


@settings(max_examples=300, deadline=None)
@given(c=st.floats(2.0**-1000, 1.0), fracs=st.lists(st.floats(0.0, 1.0), min_size=8,
                                                      max_size=8))
def test_the_tree_mean_of_eight_values_in_the_range_stays_in_it(c, fracs):
    # the orbit's sample, for any eight doubles in [0, c], lies in [0, c];
    # eight values of c give exactly c
    from sylvester.montecarlo import _tree_mean

    y = np.array([[min(f * c, c)] for f in fracs])
    assert 0.0 <= _tree_mean(y)[0] <= c
    assert _tree_mean(np.full((8, 1), c))[0] == c


@pytest.mark.parametrize("body, fixed", [
    (HalfBall(4), NO_FIXED_POINT), (HalfBall(3), FixedPoint((0.0, 0.0, 0.0))),
    (Ball(3), NO_FIXED_POINT), (unit_volume_tetrahedron(), tetrahedron_facet_centroid()),
    (Interval(), NO_FIXED_POINT),
])
def test_only_the_free_3_half_ball_is_paired(body, fixed):
    # its jobs keep their arguments, and its trace names no partner
    from sylvester.montecarlo import EstimatedSide, _ramp

    cfg = make_config(k=1, n_samples=5_000, seed=2)
    side = EstimatedSide(body, fixed, cfg, 0.01)
    assert side.partner is None
    assert list(side.jobs) == list(_ramp(body, fixed, cfg, None, None))
    assert "partner" not in side.trace_dict()


def test_a_side_picks_an_orbit_only_on_the_free_3_half_ball():
    # over every supported (body, fixed vertex) pair, free and fixed, at each
    # d it takes up to 6
    from sylvester.moments import SUPPORT, MomentQuery
    from sylvester.montecarlo import EstimatedSide

    cfg = make_config(k=1, n_samples=5_000, seed=2)
    picked = []
    for (body, fixed), row in SUPPORT.items():
        for d in ([row.d] if row.d is not None else range(1, 7)):
            side = EstimatedSide(*MomentQuery(d, 1, body, fixed).sampler(), cfg, 0.01)
            if side.partner is not None:
                picked.append((body, fixed, d, side.partner))
    assert picked == [("halfball", "none", 3, (
        "(p0,rho^s1(p1),rho^s2(p2),rho^s3(p3)),s in {0,1}^3,rho=diag(1,-1,-1)"))]


def test_a_certification_builds_one_betting_test_per_estimated_side(monkeypatch):
    # against the exact side when there is one, on either side of the
    # relation; on its own range when both sides are estimated
    from sylvester import montecarlo

    built = []

    class CountingTest(montecarlo.BettingTest):
        def __init__(self, side, exact=None):
            super().__init__(side, exact)
            built.append(self)

    monkeypatch.setattr(montecarlo, "BettingTest", CountingTest)
    free, fixed = (HalfBall(3), NO_FIXED_POINT, 1), (HalfBall(3), FixedPoint((0.0,) * 3), 1)
    value = halfball_fixed_moment(3, 1)
    cfg = make_config(k=1, n_samples=20_000, seed=0)
    for lhs, rhs in ((free, value), (value, free), (free, fixed)):
        built.clear()
        verdict = certify_counterexample(lhs, rhs, cfg)
        sides = (verdict.lhs, verdict.rhs)
        estimated = [side for side in sides if isinstance(side, montecarlo.EstimatedSide)]
        exact = next((side for side in sides if isinstance(side, ExactSide)), None)
        assert len(built) == len(estimated)
        assert all(test is side.test and test.exact is exact
                   for test, side in zip(built, estimated))


_FRACTIONS = {4: "a quarter", 8: "an eighth", 16: "a sixteenth", 32: "a thirty-second"}


def test_readme_states_the_ramp_and_the_orbit_the_code_runs():
    # README's ramp sentences name the default chunk's sizes and the fraction
    # of --chunk the ramp rises to, as does counterexample's --chunk help, and
    # README's trace schema the orbit's name
    from sylvester.cli import COMMAND_PARSERS
    from sylvester.montecarlo import EstimatedSide, _ramp

    text = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    cfg = make_config(k=1, n_samples=10**9)
    first, steady, third = (job[5] for job in
                            islice(_ramp(HalfBall(3), NO_FIXED_POINT, cfg, None, None), 3))
    assert third == steady and DEFAULT_CHUNK // steady in _FRACTIONS
    size = r"(\d{1,3}(?:,\d{3})*)"
    stated = re.findall(rf"at the default chunk {size},? (?:and )?then {size} each", text)
    assert stated and set(stated) == {(f"{first:,}", f"{steady:,}")}
    ramp = r"ramps? (?:its chunks )?up to (an? [a-z-]+) of it"
    fractions = re.findall(ramp, text)
    assert fractions and set(fractions) == {_FRACTIONS[DEFAULT_CHUNK // steady]}
    helped = " ".join(COMMAND_PARSERS["counterexample"].format_help().split())
    assert re.findall(ramp, helped) == [_FRACTIONS[DEFAULT_CHUNK // steady]]
    partner = EstimatedSide(HalfBall(3), NO_FIXED_POINT, cfg, 0.01).trace_dict()["partner"]
    assert f'`"{partner}"`' in text


@pytest.mark.parametrize("body, fixed, k, control_variate", [
    (HalfBall(3), NO_FIXED_POINT, 1, False),
    (HalfBall(3), NO_FIXED_POINT, 1, True),
    (unit_volume_tetrahedron(), tetrahedron_facet_centroid(), 1, True),
    (Ball(2), FixedPoint((0.0, 0.0)), 3, False),
], ids=["halfball-d3", "halfball-d3-cv", "tetra-facet-cv", "disk-origin-k3"])
def test_log_growth_bounds_the_log_wealth_of_the_samples(body, fixed, k, control_variate):
    # for a chunk's samples, m on either side of their mean and stakes up to
    # the cap, the bound from (n, mean, M2) is at most sum log1p(stake z_i)
    from sylvester.montecarlo import (_MAX_STAKE, EstimatedSide, _batched_abs_det, _growth, _psi,
                                      _sample_batch)

    side = EstimatedSide(body, fixed, make_config(k=k, n_samples=1), 0.01,
                         *((PiPolynomial.one(),) if control_variate else ()))
    d = body.dimension
    if isinstance(fixed, FixedPoint):
        vecs = _sample_batch(body, _rng([11, d + k]), 2_048, d) - fixed.array()
    else:
        pts = _sample_batch(body, _rng([11, d + k]), 2_048, d + 1)
        vecs = pts[:, 1:] - pts[:, :1]
    y = (_batched_abs_det(vecs) / math.factorial(d)) ** k
    if control_variate:
        y = side.variate(y)
    mean = float(y.mean())
    chunk = (len(y), mean, float(((y - mean) ** 2).sum()))
    c = side.value_range
    for m in (mean * 0.5, mean * 0.97, mean, mean * 1.03, mean * 2.0):
        for sign, span in ((1.0, m), (-1.0, c - m)):
            z = sign * (y - m)
            assert z.min() >= -span
            for stake in (_MAX_STAKE / span / 8, _MAX_STAKE / span / 2, _MAX_STAKE / span):
                psi = _psi(math.nextafter(stake * span, math.inf))
                assert _growth(stake, psi, sign, m, chunk)[0] <= float(np.log1p(stake * z).sum())


def test_betting_test_bounds_are_rounded_against_it():
    # upper and lower are the exact side's doubles moved by the shift, and
    # rounded outward; the down test's span is rounded up; psi is rounded up
    from sylvester.montecarlo import BettingTest, EstimatedSide, _psi
    from sylvester.moments import MomentQuery, exact_moment

    cases = [
        (HalfBall(3), NO_FIXED_POINT, exact_moment(MomentQuery(3, 2, "halfball")),
         halfball_fixed_moment(3, 1)),
        (unit_volume_tetrahedron(), tetrahedron_facet_centroid(),
         exact_moment(MomentQuery(3, 2, "tetrahedron", "facet_centroid")),
         tetrahedron_moment_k1()),
        (HalfBall(4), NO_FIXED_POINT, None, ball_fixed_moment(4, 1)),
    ]
    for body, fixed, second, value in cases:
        side = EstimatedSide(body, fixed, make_config(k=1, n_samples=1), 0.01,
                             *(() if second is None else (second,)))
        test = BettingTest(side, ExactSide(value))
        value_lo, value_hi = value.evaluate_interval(30)
        second_lo, second_hi = (second.evaluate_interval(30) if second is not None
                                else (F(0), F(0)))
        # the shift is E V^2 / R on the row (a, b) = (-1, 0), else 0
        inverse_range = 1 / F(side.moment_range)
        assert F(test.upper) >= value_hi - inverse_range * second_lo
        assert F(test.lower) <= value_lo - inverse_range * second_hi
        # and each is its double difference rounded outward
        (lo, hi), (shift_lo, shift_hi) = ExactSide(value).bounds(), side.shift
        assert F(test.upper) >= F(hi) - F(shift_lo)
        assert F(test.lower) <= F(lo) - F(shift_hi)
        (_, upper, up_span), (_, lower, down_span) = test.tests
        assert (upper, lower, up_span) == (test.upper, test.lower, test.upper)
        assert F(down_span) >= F(side.value_range) - F(test.lower)
        assert test.threshold == pytest.approx(math.log(200.0))
    # psi(b) = sum_{n >= 0} b^n / (n + 2) lies in [partial, partial + tail]
    for b in [0.0, 2.0**-30, 1e-3, 0.1, 0.25, 1 / 3, 0.5, math.nextafter(0.5, 1.0), 0.6]:
        fb = F(b)
        partial = sum(fb**n / (n + 2) for n in range(80))
        tail = fb**80 / (82 * (1 - fb))
        assert partial + tail <= F(_psi(b)) <= partial * (1 + F(1, 2**38))
    assert _psi(0.5) == pytest.approx((math.log(2.0) - 0.5) / 0.25, rel=1e-11)


def test_control_variate_needs_a_finite_inverse_range():
    from sylvester.montecarlo import EstimatedSide

    # R^2 = 1e-310 is a subnormal double, and so is the range R^2 / 4
    with pytest.raises(ValueError, match="below the normal doubles"):
        EstimatedSide(Interval(1e-155), NO_FIXED_POINT, make_config(k=2, n_samples=10), 0.01,
                      PiPolynomial.one())
    EstimatedSide(Interval(1e-155), NO_FIXED_POINT, make_config(k=2, n_samples=10), 0.01)
    # R^2 = 2^-1020 gives the least normal double, 2^-1022, as R^2 / 4
    side = EstimatedSide(Interval(2.0**-510), NO_FIXED_POINT, make_config(k=2, n_samples=10),
                         0.01, PiPolynomial.one())
    assert side.value_range == 2.0**-1022 * (1 + 2.0**-40)


def test_a_run_is_the_index_order_merge_of_its_chunks(monkeypatch):
    # at 1, 2 and 3 workers: three cores are claimed so that three helpers
    # run on any host, for these few small chunks
    import sylvester.montecarlo as mc
    from sylvester.montecarlo import _EMPTY, _chunk_stats, _job, _merge

    cfg = make_config(k=2, n_samples=23_000, seed=41, chunk_size=1_000)
    want = _EMPTY
    for i in range(23):
        want = _merge(want, _chunk_stats(*_job(HalfBall(3), NO_FIXED_POINT, cfg, i)))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for workers in (1, 2, 3):
        assert mc._run(HalfBall(3), NO_FIXED_POINT, cfg, workers) == want
        if workers > 1:
            assert len(mc._TEAM.helpers) == workers
    est = estimate_moment(HalfBall(3), NO_FIXED_POINT, cfg, workers=2)
    n, mean, m2 = want
    assert (est.n, est.mean, est.variance) == (n, mean, m2 / (n - 1))


@pytest.mark.parametrize("workers", [2, 4])
def test_a_decided_certification_waits_for_little_speculative_work(monkeypatch, workers):
    # a certification forks no helper and starts no chunk past the deciding one
    import sylvester.montecarlo as mc

    started, threads = [], set()
    real = mc._chunk_stats

    def recording(*job):
        started.append(job[4])
        threads.add(threading.get_ident())
        return real(*job)

    def no_team(helpers):
        raise AssertionError("a certification built a team")

    monkeypatch.setattr(mc, "_chunk_stats", recording)
    monkeypatch.setattr(mc, "_Team", no_team)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)  # a team of `workers`, were one built
    monkeypatch.setenv("SYLVESTER_THREADS", str(workers))
    cfg = make_config(k=1, n_samples=1_000_000, seed=8, chunk_size=4_096)
    verdict = certify_counterexample((HalfBall(4), NO_FIXED_POINT, 1),
                                     ball_fixed_moment(4, 1), cfg)
    # chunk 2 decides at this seed; see test_certification_stops_at_the_first_decided_chunk
    assert verdict.relation == LHS_GREATER
    assert verdict.trace_dict()["lhs"]["chunks"] == 3
    assert started == list(range(3))
    assert threads == {threading.get_ident()}


# ---------------------------------------------------------------------------
# the kept team: no test here runs more processes than cores, except where
# it says so

needs_two_cores = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                     reason="a helper needs a second core to run on")
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")

_POOL_CFG = make_config(k=1, n_samples=4_000, seed=3, chunk_size=1_000)
_POOL_MC = ["mc", "--body", "ball", "--d", "3", "--n", "4000", "--chunk", "1000", "--seed", "3"]
_DIED = "a Monte Carlo worker process died, so the run was stopped; the next run starts new workers"


def _alive(pid):
    """Whether ``pid`` runs: a zombie, whose parent is gone and which is
    left for init to reap, does not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def _workers():
    """The pids of this process's helpers."""
    import multiprocessing

    return sorted(p.pid for p in multiprocessing.active_children())


@needs_two_cores
def test_the_pool_is_kept_for_the_process_and_replaced_at_another_count(monkeypatch):
    import sylvester.montecarlo as mc

    serial = estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=1)
    mc._drop_team()
    assert _workers() == []
    assert estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=2) == serial
    team, helpers = mc._TEAM, _workers()
    assert len(helpers) == 2 and team.pid == os.getpid()
    # a second run forks nothing, nor does a run of the caller alone
    assert estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=2) == serial
    assert estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=1) == serial
    assert mc._TEAM is team and _workers() == helpers
    # another count stops the old helpers before forking its own (three
    # cores claimed: three helpers for a few small chunks)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=3) == serial
    assert mc._TEAM is not team and len(mc._TEAM.helpers) == 3
    assert len(_workers()) == 3 and not set(helpers) & set(_workers())
    mc._drop_team()
    assert mc._TEAM is None and _workers() == []


@needs_two_cores
def test_a_dead_worker_fails_the_run_in_one_line_and_the_next_run_forks_anew(
        monkeypatch, capsys):
    import sylvester.montecarlo as mc
    from sylvester.cli import main

    serial = estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=1)
    caller = os.getpid()

    def dying(*job):  # a helper dies at the first chunk it takes
        if os.getpid() != caller:
            os._exit(9)
        return _real_chunk_stats(*job)

    mc._drop_team()  # so that the helpers forked next run `dying`
    monkeypatch.setenv("SYLVESTER_THREADS", "2")
    monkeypatch.setattr(mc, "_chunk_stats", dying)
    capsys.readouterr()
    assert main(_POOL_MC) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[1:] == [f"error: {_DIED}"]
    assert mc._TEAM is None and _workers() == []
    monkeypatch.setattr(mc, "_chunk_stats", _real_chunk_stats)
    assert estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG) == serial
    assert len(_workers()) == 2


@needs_two_cores
def test_a_helper_that_dies_mid_run_fails_the_run(monkeypatch):
    # the owner of chunk 0 exits as it starts its fifth of the forty chunks,
    # chunk 8, having answered 0, 2, 4 and 6: the caller merges chunks 0-7,
    # then the run fails and leaves no helper
    import sylvester.montecarlo as mc

    caller, taken, merged, real = os.getpid(), [], [], mc._merge

    def dies_at_its_fifth_chunk(*job):
        if os.getpid() != caller:
            taken.append(job[4])  # in the helper's own copy of the list
            if taken[0] == 0 and len(taken) == 5:
                os._exit(9)
        return _real_chunk_stats(*job)

    def merge(a, b):  # the index of each chunk the caller merges
        merged.append(a[0] // 1_000)
        return real(a, b)

    mc._drop_team()  # so that the helpers forked next run `dies_at_its_fifth_chunk`
    monkeypatch.setattr(mc, "_chunk_stats", dies_at_its_fifth_chunk)
    monkeypatch.setattr(mc, "_merge", merge)
    failures = []

    def run():
        try:
            estimate_moment(Ball(3), NO_FIXED_POINT,
                            make_config(k=1, n_samples=40_000, seed=3, chunk_size=1_000),
                            workers=2)
        except ChildProcessError as exc:
            failures.append(str(exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert failures == [_DIED]
    assert merged == list(range(8))
    assert mc._TEAM is None and _workers() == []


@needs_two_cores
@needs_proc
def test_an_interrupted_run_leaves_no_helper_computing(monkeypatch):
    import sylvester.montecarlo as mc

    serial = estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=1)
    seen, real = {}, mc._merge

    def interrupted(a, b):
        # Ctrl-C in the caller as it merges chunk 2, while its helpers compute
        if a[0] == 2_000:
            seen.update(pids=[helper.pid for helper in mc._TEAM.helpers])
            raise KeyboardInterrupt
        return real(a, b)

    mc._drop_team()
    monkeypatch.setattr(mc, "_merge", interrupted)
    with pytest.raises(KeyboardInterrupt):
        estimate_moment(Ball(3), NO_FIXED_POINT,
                        make_config(k=1, n_samples=400_000, seed=3, chunk_size=1_000),
                        workers=2)
    assert len(seen["pids"]) == 2
    assert mc._TEAM is None and _workers() == []
    assert not any(_alive(pid) for pid in seen["pids"])
    monkeypatch.setattr(mc, "_merge", real)
    assert estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=2) == serial
    assert len(_workers()) == 2


@needs_two_cores
def test_a_slow_helper_gives_the_serial_bits_and_leaves_no_answer_unread(monkeypatch):
    # every tenth chunk is slow, so the other helper runs ahead of the
    # caller's merges; each chunk is still merged once, in index order
    import sylvester.montecarlo as mc

    cfg = make_config(k=1, n_samples=40_000, seed=5, chunk_size=500)
    serial = estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=1)
    caller, real, merged = os.getpid(), mc._merge, []

    def slow(*job):
        if os.getpid() != caller and job[4] % 10 == 0:
            time.sleep(0.05)
        return _real_chunk_stats(*job)

    def merge(a, b):  # the index of each chunk the caller merges
        merged.append(a[0] // 500)
        return real(a, b)

    mc._drop_team()  # so that the helpers forked next run `slow`
    monkeypatch.setattr(mc, "_chunk_stats", slow)
    monkeypatch.setattr(mc, "_merge", merge)
    assert estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=2) == serial
    assert merged == list(range(80))
    # the run ended with every answer read: no helper computes between runs
    assert not any(link.poll(0.1) for link in mc._TEAM.links)
    mc._drop_team()


@needs_two_cores
def test_each_chunk_is_sent_to_its_one_owner_also_when_a_helper_is_slow(monkeypatch):
    # a run sends helper h of H one message, naming its share range(h,
    # chunks, H), and the caller reads chunk i from helper i % H, in a run
    # at an even pace and in one whose chunk-0 helper is slow at each of
    # its chunks
    import sylvester.montecarlo as mc
    from multiprocessing.connection import Connection

    cfg = make_config(k=1, n_samples=40_000, seed=5, chunk_size=500)
    serial = estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=1)
    caller, slowed, taken = os.getpid(), [False], []
    real_send, real_recv, sent, read = Connection.send, Connection.recv, [], []

    def send(link, message):
        if os.getpid() == caller:
            sent.append((link, message))
        return real_send(link, message)

    def recv(link):
        if os.getpid() == caller:
            read.append(link)
        return real_recv(link)

    def paced(*job):
        if os.getpid() != caller:
            taken.append(job[4])  # in the helper's own copy of the list
            if slowed[0] and taken[0] == 0:
                time.sleep(0.01)
        return _real_chunk_stats(*job)

    monkeypatch.setattr(mc, "_chunk_stats", paced)
    monkeypatch.setattr(Connection, "send", send)
    monkeypatch.setattr(Connection, "recv", recv)
    for slow in (False, True):
        mc._drop_team()  # so that the helpers forked next see `slowed` as it is now
        slowed[0] = slow
        sent.clear()
        read.clear()
        assert estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=2) == serial
        links = mc._TEAM.links
        assert len(links) == 2
        for h, link in enumerate(links):
            messages = [message for to, message in sent if to is link]
            assert len(messages) == 1 and messages[0][3] == range(h, 80, 2), slow
        assert read == [links[i % 2] for i in range(80)], slow
    mc._drop_team()


@needs_two_cores
def test_a_helper_blocked_on_its_full_pipe_gives_the_serial_bits_and_stops(monkeypatch, capfd):
    # the owner of chunk 0 sleeps 1 s at it, while the other helper answers
    # its 12,500 tiny chunks: its pipe holds a few hundred answers, so it
    # waits in send until the caller reads chunk 1.  The run gives the
    # serial bits; a Ctrl-C as the caller merges chunk 0, with that helper
    # still blocked, stops both helpers without a traceback
    import sylvester.montecarlo as mc

    cfg = make_config(k=1, n_samples=200_000, seed=3, chunk_size=8)
    serial = estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=1)
    caller, real = os.getpid(), mc._merge

    def slow_first(*job):
        if os.getpid() != caller and job[4] == 0:
            time.sleep(1.0)
        return _real_chunk_stats(*job)

    def interrupted(a, b):
        if a[0] == 0:
            assert mc._TEAM.links[1].poll()  # answers wait on the other pipe
            raise KeyboardInterrupt
        return real(a, b)

    mc._drop_team()  # so that the helpers forked next run `slow_first`
    monkeypatch.setattr(mc, "_chunk_stats", slow_first)
    assert estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=2) == serial
    mc._drop_team()
    monkeypatch.setattr(mc, "_merge", interrupted)
    with pytest.raises(KeyboardInterrupt):
        estimate_moment(Ball(2), NO_FIXED_POINT, cfg, workers=2)
    assert mc._TEAM is None and _workers() == []
    assert "Traceback" not in capfd.readouterr().err


@needs_two_cores
@needs_proc
def test_a_helper_that_dies_while_the_caller_waits_on_another_fails_the_run(monkeypatch):
    # the owner of chunk 1 dies at it while the owner of chunk 0 still
    # computes that: the caller reads chunk 1 only after chunk 0, and the
    # run still fails, and leaves no helper alive
    import sylvester.montecarlo as mc

    caller, failures, teams, real = os.getpid(), [], [], mc._Team

    def slow_or_dying(*job):
        if os.getpid() != caller:
            if job[4] == 0:
                time.sleep(1.0)
            elif job[4] == 1:
                os._exit(9)
        return _real_chunk_stats(*job)

    def run():
        try:
            estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=2)
        except ChildProcessError as exc:
            failures.append(str(exc))

    mc._drop_team()  # so that the helpers forked next run `slow_or_dying`
    monkeypatch.setattr(mc, "_chunk_stats", slow_or_dying)
    monkeypatch.setattr(mc, "_Team", lambda helpers: teams.append(real(helpers)) or teams[-1])
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert failures == [_DIED]
    assert mc._TEAM is None and _workers() == []
    assert len(teams) == 1 and not any(_alive(helper.pid) for helper in teams[0].helpers)


def _race(runs, timeout=60.0):
    """Each of ``runs`` in a thread of its own, all at once, with the switch
    interval shortened; their results and exceptions, all within ``timeout``
    seconds."""
    results, errors = [], []

    def target(run):
        try:
            results.append(run())
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(run,), daemon=True) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    deadline = time.monotonic() + timeout
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


@needs_two_cores
def test_threads_that_run_at_once_share_one_pool_and_get_the_same_bits():
    # four threads, none of them the main thread, race to fork the team
    import sylvester.montecarlo as mc

    serial = estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=1)
    mc._drop_team()
    results, errors = _race([lambda: estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG,
                                                     workers=2)] * 4)
    assert errors == [] and results == [serial] * 4
    # one team was forked, and the main thread shares it
    assert mc._TEAM.pid == os.getpid() and len(_workers()) == 2
    team = mc._TEAM
    assert estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=2) == serial
    assert mc._TEAM is team


def test_threads_at_two_worker_counts_get_the_serial_bits(monkeypatch):
    # each run takes the team in turn, and forks its own count's if the
    # last run's differs; three cores are claimed so that 2 and 3 workers
    # differ on any host
    import sylvester.montecarlo as mc

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = estimate_moment(Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=1)
    runs = [partial(estimate_moment, Ball(3), NO_FIXED_POINT, _POOL_CFG, workers=2 + i % 2)
            for i in range(6)]
    results, errors = _race(runs)
    assert errors == [] and results == [serial] * 6
    mc._drop_team()


_POOL_RUN = """\
import contextlib, io, multiprocessing, sys, time
from sylvester.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(code, *sorted(p.pid for p in multiprocessing.active_children()), flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""


def _pool_run(how):
    env = dict(os.environ, SYLVESTER_THREADS="2")
    return subprocess.Popen([sys.executable, "-c", _POOL_RUN, how, *_POOL_MC],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)


def _gone(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(_alive(pid) for pid in pids)


@needs_two_cores
@needs_proc
def test_a_process_that_exits_leaves_no_worker_behind():
    proc = _pool_run("exit")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    code, *workers = map(int, out.split())
    assert code == 0 and len(workers) == 2
    assert not any(_alive(pid) for pid in workers)


@needs_two_cores
@needs_proc
def test_a_killed_process_leaves_no_worker_behind():
    proc = _pool_run("wait")
    code, *workers = map(int, proc.stdout.readline().split())
    assert code == 0 and len(workers) == 2
    assert all(_alive(pid) for pid in workers)
    proc.kill()  # no clean-up runs in it
    proc.wait(timeout=60)
    try:
        assert _gone(workers)
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
        proc.stderr.close()


_FORKED_HOST = """\
import os
import sylvester.montecarlo as mc
from sylvester.montecarlo import NO_FIXED_POINT, Ball, estimate_moment, make_config
cfg = make_config(k=1, n_samples=4_000, seed=3, chunk_size=1_000)
want = estimate_moment(Ball(3), NO_FIXED_POINT, cfg, workers=1)
assert estimate_moment(Ball(3), NO_FIXED_POINT, cfg, workers=2) == want
team = mc._TEAM
child = os.fork()
if child == 0:  # the team object is inherited, its helper is not
    ok = estimate_moment(Ball(3), NO_FIXED_POINT, cfg, workers=2) == want
    ok = ok and mc._TEAM is not team and len(mc._TEAM.helpers) == 2
    mc._drop_team()
    os._exit(0 if ok else 1)
assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
assert estimate_moment(Ball(3), NO_FIXED_POINT, cfg, workers=2) == want
assert mc._TEAM is team and all(helper.is_alive() for helper in team.helpers)
print("ok")
"""


@needs_two_cores
def test_a_forked_host_builds_a_pool_of_its_own():
    # two teams of two helpers each: the parent's, and the forked child's
    proc = subprocess.run([sys.executable, "-c", _FORKED_HOST], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_only_a_sampling_run_with_two_workers_loads_the_pool():
    # exact loads no montecarlo; a certification neither forks a helper nor
    # imports multiprocessing
    script = """\
import contextlib, io, sys
from sylvester.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["exact", "--body", "ball", "--d", "3", "--k", "2"])
    print("sylvester.montecarlo" in sys.modules, file=sys.stderr)
    main(["counterexample", "tetra-d3", "--n", "100000"])
    import sylvester.montecarlo as mc
    print("multiprocessing" in sys.modules, mc._TEAM, file=sys.stderr)
    main(sys.argv[1:])
print("multiprocessing" in sys.modules, mc._TEAM is not None)
"""
    env = dict(os.environ, SYLVESTER_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", script, *_POOL_MC], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("{")]
    assert lines == ["False", "False None"]
    pooled = (os.cpu_count() or 1) > 1
    assert proc.stdout == f"{pooled} {pooled}\n"


@needs_two_cores
def test_an_mc_run_leaves_no_thread_behind():
    # the caller starts no thread and imports no executor; its two helpers
    # are processes
    script = """\
import contextlib, io, multiprocessing, sys, threading
from sylvester.cli import main
before = threading.active_count()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, threading.active_count() - before, len(multiprocessing.active_children()),
      "concurrent.futures" in sys.modules)
"""
    env = dict(os.environ, SYLVESTER_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", script, *_POOL_MC], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0 0 2 False\n"), proc.stderr


def test_certification_stops_at_the_first_decided_chunk():
    from sylvester.montecarlo import EstimatedSide, _chunk_stats

    cfg = make_config(k=1, n_samples=1_000_000, seed=8, chunk_size=4_096)
    exact = ball_fixed_moment(4, 1)
    verdict = certify_counterexample((HalfBall(4), NO_FIXED_POINT, 1), exact, cfg)
    assert verdict.relation == LHS_GREATER
    est = verdict.lhs.estimate
    # at this seed, chunks 0 to 2: the ramp's 128 + 256 + 256
    assert est.n == 640
    assert est.config.n_samples == 1_000_000
    # the up test's wealth replayed by hand, on z = V - m for m the exact
    # side's upper double, is below log(2 / alpha) after chunks 0 and 1
    _, m = ExactSide(exact).bounds()
    sequence = EstimatedSide(HalfBall(4), NO_FIXED_POINT, cfg, verdict.lhs.alpha)
    # before its first chunk the sequence is the whole range, and has no estimate
    assert sequence.bounds() == (0.0, sequence.value_range)
    assert sequence.trace_dict()["samples"] == 0
    for read in (lambda: sequence.estimate, sequence.to_json_dict):
        with pytest.raises(ValueError, match="no chunk has been added"):
            read()
    threshold = math.log(2 / verdict.lhs.alpha)

    def growth(stake, n, mean, m2):
        b = stake * m
        psi = (-math.log1p(-b) - b) / b**2 if b > 0 else 0.5
        return stake * n * (mean - m) - psi * stake**2 * (m2 + n * (mean - m) ** 2)

    log_wealth = 0.0
    for j, job in enumerate(islice(sequence.jobs, 3)):
        n, mean, m2 = chunk = _chunk_stats(*job)
        if j == 0:  # the mean wealth of five tracks that stake f / 2m on chunk 0
            tracks = [growth(f * 0.5 / m, n, mean, m2) for f in (0.0, 0.05, 0.1, 0.2, 0.4)]
            log_wealth = math.log(sum(math.exp(t) for t in tracks) / 5)
        else:  # then one stake, from the merged chunks before it, for every track
            prior_n, prior_mean, prior_m2 = sequence.stats
            g = prior_mean - m
            assert g > 0  # at this seed; else the stake would be 0
            stake = min(g / (prior_m2 / prior_n + g * g), 0.5 / m)
            log_wealth += growth(stake, n, mean, m2)
        sequence.add(chunk)
        assert (log_wealth >= threshold) == (sequence.stats[0] == est.n)
    assert est.ci_low == m  # the decided up test's end: the exact side's upper double
    # the same wealth, up to psi and b rounded up
    assert verdict.lhs.test.log_wealth[0] == pytest.approx(log_wealth, rel=1e-10)
    trace = verdict.trace_dict()
    assert trace["lhs"] == {"samples": est.n, "chunks": 3, "budget": 1_000_000,
                            "alpha": verdict.lhs.alpha, "range": verdict.lhs.value_range,
                            "log_wealth": verdict.lhs.test.log_wealth[0],
                            "threshold": threshold, "chunk0_stakes": [0.0, 0.05, 0.1, 0.2, 0.4],
                            "stop": "decided"}
    assert trace["margin"] == trace["lhs"]["log_wealth"] / threshold > 1.0
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
        # 31, then 62 eighty times and a tail of 9
        assert trace[name]["chunks"] == 82
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


def test_verdict_n_is_whole_chunks_and_the_same_at_any_worker_count(monkeypatch):
    cfg = make_config(k=1, n_samples=600_000, seed=12, chunk_size=DEFAULT_CHUNK)
    sides = ((HalfBall(3), NO_FIXED_POINT, 1), halfball_fixed_moment(3, 1))
    monkeypatch.setenv("SYLVESTER_THREADS", "1")
    serial = certify_counterexample(*sides, cfg)
    monkeypatch.setenv("SYLVESTER_THREADS", "2")
    threaded = certify_counterexample(*sides, cfg)
    assert serial.relation == threaded.relation == LHS_GREATER
    assert serial.to_json_dict() == threaded.to_json_dict()
    n = serial.lhs.estimate.n
    # whole chunks: the ramp's 1,024 samples, then 2^11 each
    assert (n + DEFAULT_CHUNK // 32) % (DEFAULT_CHUNK // 16) == 0 and 0 < n < 600_000


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
