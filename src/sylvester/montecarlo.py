"""Uniform sampling in convex bodies and streaming moment estimation.

Estimates E[V^k], where V is the volume of the simplex spanned by d+1
independent uniform points in a body (or by d points plus one fixed vertex).
Sampling is exact and rejection-free:

* balls: isotropic direction (normalized standard normals) times U^(1/d);
* half-balls: a ball sample with the first coordinate replaced by |x_1| (the
  half-ball is the unit ball cut by {x_1 >= 0});
* simplices: barycentric weights from normalized standard exponentials;
* intervals: an affine image of a unit uniform.

Reproducibility: chunk i of a run is keyed by numpy's counter-based
Philox4x64 with key = [seed, i].  128 bits drawn from it seed, through numpy's
SeedSequence, an SFC64 generator, and every draw of the chunk comes from that
SFC64, which draws normals, uniforms and exponentials faster than Philox.
Chunk accumulators are merged pairwise in index order with the standard
two-sample mean/M2 combination, so a given :class:`EstimatorConfig` yields
bit-identical results at any thread count.  Chunks run on ``os.cpu_count()``
threads, or on fewer when SYLVESTER_THREADS or the ``workers`` argument asks
for fewer.

Layout: a chunk's points are drawn coordinate-major, into one (m, d, n)
buffer for n simplices of m points, and handed on as its (n, m, d) transposed
view.  Each coordinate of each point is so one contiguous vector of n values,
and numpy keeps that layout through the vertex differences, the closed-form
determinants (d <= 4), the power and the reduction.  The points array,
chunk_size x m x d doubles, is held on every thread at once, with the vertex
differences nearly as large; a config whose points array exceeds
:data:`MAX_CHUNK_BYTES` (2^26 bytes) is rejected with ValueError.  The
default chunk of 2^15 simplices fits for d <= 15.

Certification is sequential: each estimated side is a time-uniform
empirical-Bernstein confidence sequence, tested after every chunk, and the
run stops at the first chunk that decides the relation.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import reduce
from itertools import chain, islice, repeat
from math import factorial, inf, log, nextafter, sqrt
from statistics import NormalDist
from typing import Sequence, Union

import numpy as np

from . import DEFAULT_CHUNK
from .exactnum import PiPolynomial, kappa

_MEMBERSHIP_TOL = 1e-9

#: Largest points array of one chunk, in bytes (chunk x m x d doubles).  Every
#: worker thread holds one at a time, with its vertex differences beside it.
MAX_CHUNK_BYTES = 2**26


# ---------------------------------------------------------------------------
# bodies


@dataclass(frozen=True)
class Interval:
    """The segment [0, length] in R^1."""

    length: float = 1.0

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"interval length must be positive, got {self.length}")

    @property
    def dimension(self) -> int:
        return 1

    def volume(self) -> float:
        return float(self.length)

    def max_simplex_volume(self) -> float:
        """Largest volume of a simplex with vertices in the body: its length."""
        return float(self.length)

    def contains(self, point) -> bool:
        (x,) = np.asarray(point, dtype=float)
        return -_MEMBERSHIP_TOL <= x <= self.length + _MEMBERSHIP_TOL

    def to_json_dict(self) -> dict:
        return {"kind": "interval", "length": float(self.length)}


def _hadamard_bound(d: int) -> float:
    """An upper bound on the volume of a simplex with vertices in the unit d-ball.

    The volume is |det A| / d!, where A is the (d+1)x(d+1) matrix with rows
    (1, x_i).  Each row has norm at most sqrt(2), so by Hadamard's inequality
    |det A| <= 2^((d+1)/2).
    """
    return 2.0 ** ((d + 1) / 2) / factorial(d)


@dataclass(frozen=True)
class Ball:
    """The closed unit ball in R^d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"ball dimension must be >= 1, got {self.d}")

    @property
    def dimension(self) -> int:
        return self.d

    def volume(self) -> float:
        return kappa(self.d).to_float()

    def max_simplex_volume(self) -> float:
        return _hadamard_bound(self.d)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return p.shape == (self.d,) and float(p @ p) <= 1.0 + _MEMBERSHIP_TOL

    def to_json_dict(self) -> dict:
        return {"kind": "ball", "d": self.d}


class HalfBall(Ball):
    """The unit ball in R^d intersected with the half-space {x_1 >= 0}.

    The origin is the center of the flat base, and lies on the boundary.
    """

    def volume(self) -> float:
        return super().volume() / 2.0

    def contains(self, point) -> bool:
        return super().contains(point) and float(point[0]) >= -_MEMBERSHIP_TOL

    def to_json_dict(self) -> dict:
        return {"kind": "halfball", "d": self.d}


@dataclass(frozen=True)
class Simplex:
    """A nondegenerate simplex given by d+1 vertices in R^d."""

    vertices: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        verts = tuple(tuple(float(c) for c in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        d = len(verts) - 1
        if d < 1 or any(len(v) != d for v in verts):
            raise ValueError("a simplex in R^d needs d+1 vertices of length d")
        if self.volume() <= 0.0:
            raise ValueError("simplex vertices are affinely dependent")

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def volume(self) -> float:
        verts = np.asarray(self.vertices, dtype=float)
        vecs = verts[1:] - verts[0]
        return abs(float(np.linalg.det(vecs))) / factorial(self.dimension)

    def max_simplex_volume(self) -> float:
        """A simplex inside a simplex has at most its volume."""
        return self.volume()

    def contains(self, point) -> bool:
        verts = self.vertex_array()
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dimension,):
            return False
        lam = np.linalg.solve((verts[1:] - verts[0]).T, p - verts[0])
        return bool(
            np.all(lam >= -_MEMBERSHIP_TOL) and lam.sum() <= 1.0 + _MEMBERSHIP_TOL
        )

    def to_json_dict(self) -> dict:
        return {"kind": "simplex", "vertices": [list(v) for v in self.vertices]}


Body = Union[Interval, Ball, HalfBall, Simplex]


# ---------------------------------------------------------------------------
# fixed vertex


@dataclass(frozen=True)
class NoFixedPoint:
    def to_json_dict(self) -> dict:
        return {"kind": "none"}


@dataclass(frozen=True)
class FixedPoint:
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def to_json_dict(self) -> dict:
        return {"kind": "point", "coords": list(self.coords)}


FixedPointSpec = Union[NoFixedPoint, FixedPoint]

NO_FIXED_POINT = NoFixedPoint()


# ---------------------------------------------------------------------------
# canonical bodies used by the support table (moments.SUPPORT) and the tests

_SQRT2 = sqrt(2.0)
_CBRT6 = 6.0 ** (1.0 / 3.0)


def unit_area_triangle() -> Simplex:
    """Right triangle with legs sqrt(2) on the axes; area exactly 1."""
    return Simplex(((0.0, 0.0), (_SQRT2, 0.0), (0.0, _SQRT2)))


def triangle_edge_midpoint() -> FixedPoint:
    """Midpoint of the hypotenuse of :func:`unit_area_triangle`."""
    return FixedPoint((_SQRT2 / 2.0, _SQRT2 / 2.0))


def unit_volume_tetrahedron() -> Simplex:
    """Corner tetrahedron with legs 6^(1/3) on the axes; volume exactly 1."""
    c = _CBRT6
    return Simplex(((0.0, 0.0, 0.0), (c, 0.0, 0.0), (0.0, c, 0.0), (0.0, 0.0, c)))


def tetrahedron_facet_centroid() -> FixedPoint:
    """Centroid of the facet of :func:`unit_volume_tetrahedron` opposite the corner."""
    c = _CBRT6 / 3.0
    return FixedPoint((c, c, c))


# ---------------------------------------------------------------------------
# sampling

def _draw_generator(key_rng: np.random.Generator) -> np.random.Generator:
    """The SFC64 generator seeded, through SeedSequence, by 128 bits of ``key_rng``."""
    seed = np.random.SeedSequence(key_rng.bit_generator.random_raw(2))
    return np.random.Generator(np.random.SFC64(seed))


def _sample_batch(body: Body, rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n independent m-tuples of uniform points in the body, shape (n, m, d).

    ``rng`` is the chunk's keyed Philox generator.  128 bits of it seed the
    SFC64 generator (:func:`_draw_generator`) that every draw here comes from.
    The array is the transposed view of a coordinate-major (m, d, n) buffer
    (see the module docstring).
    """
    rng = _draw_generator(rng)
    if isinstance(body, Interval):
        x = rng.random((m, 1, n))
        x *= body.length
        return x.transpose(2, 0, 1)
    if isinstance(body, Ball):
        d = body.d
        x = rng.standard_normal((m, d, n))
        r = rng.random((m, n)) ** (1.0 / d)
        r /= np.sqrt(np.einsum("mdn,mdn->mn", x, x))
        x *= r[:, None, :]
        if isinstance(body, HalfBall):
            np.abs(x[:, 0], out=x[:, 0])
        return x.transpose(2, 0, 1)
    if isinstance(body, Simplex):
        verts = body.vertex_array()
        e = rng.standard_exponential((m, len(verts), n))
        e /= e.sum(axis=1, keepdims=True)
        return (verts.T @ e).transpose(2, 0, 1)
    raise TypeError(f"cannot sample in {body!r}")


def _batched_abs_det(vecs: np.ndarray) -> np.ndarray:
    d = vecs.shape[-1]
    if d == 1:
        return np.abs(vecs[:, 0, 0])
    if d == 2:
        a = vecs[:, 0]
        b = vecs[:, 1]
        return np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    if d == 3:
        a, b, c = vecs[:, 0], vecs[:, 1], vecs[:, 2]
        return np.abs(
            a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
            - a[:, 1] * (b[:, 0] * c[:, 2] - b[:, 2] * c[:, 0])
            + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        )
    if d == 4:
        # Laplace expansion along the first two rows: 2x2 minors of rows 0-1
        # times the complementary 2x2 minors of rows 2-3
        a, b, c, e = vecs[:, 0], vecs[:, 1], vecs[:, 2], vecs[:, 3]

        def minor(u, v, i, j):
            return u[:, i] * v[:, j] - u[:, j] * v[:, i]

        return np.abs(
            minor(a, b, 0, 1) * minor(c, e, 2, 3)
            - minor(a, b, 0, 2) * minor(c, e, 1, 3)
            + minor(a, b, 0, 3) * minor(c, e, 1, 2)
            + minor(a, b, 1, 2) * minor(c, e, 0, 3)
            - minor(a, b, 1, 3) * minor(c, e, 0, 2)
            + minor(a, b, 2, 3) * minor(c, e, 0, 1)
        )
    return np.abs(np.linalg.det(vecs))


def simplex_volume(points: Sequence[Sequence[float]]) -> float:
    """Volume of the simplex spanned by d+1 points in R^d: |det| / d!."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 1:
        raise ValueError(
            f"expected d+1 points in R^d, got array of shape {pts.shape}"
        )
    d = pts.shape[1]
    vecs = (pts[1:] - pts[0])[None, :, :]
    return float(_batched_abs_det(vecs)[0]) / factorial(d)


# ---------------------------------------------------------------------------
# streaming estimation


@dataclass(frozen=True)
class EstimatorConfig:
    """Full determinism contract for one estimation run."""

    k: int
    n_samples: int
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK
    confidence: float = 0.99

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("moment order k must be >= 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 1 <= self.chunk_size <= self.n_samples:
            raise ValueError("need 1 <= chunk_size <= n_samples")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")

    def to_json_dict(self) -> dict:
        return asdict(self)


def make_config(k: int, n_samples: int, seed: int = 0, chunk_size: int = DEFAULT_CHUNK,
                confidence: float = 0.99) -> EstimatorConfig:
    """EstimatorConfig with the chunk size clamped to the sample count."""
    return EstimatorConfig(
        k=k,
        n_samples=n_samples,
        seed=seed,
        chunk_size=min(chunk_size, n_samples),
        confidence=confidence,
    )


@dataclass(frozen=True)
class MomentEstimate:
    """Streaming estimate of E[V^k] with a confidence interval.

    From :func:`estimate_moment` the interval is the normal approximation;
    on a certification side it is the confidence sequence at the stop.
    """

    mean: float
    variance: float
    std_error: float
    ci_low: float
    ci_high: float
    n: int
    config: EstimatorConfig
    body: Body
    fixed: FixedPointSpec

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n": self.n,
            "body": self.body.to_json_dict(),
            "fixed": self.fixed.to_json_dict(),
            **self.config.to_json_dict(),
        }


def _chunk_sizes(n: int, chunk: int) -> list[int]:
    sizes = [chunk] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk)
    return sizes


def _chunk_stats(body: Body, fixed: FixedPointSpec, k: int, seed: int,
                 index: int, size: int) -> tuple[int, float, float]:
    # an explicit uint64 key: a list holding a seed >= 2^63 would pass through float64
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    d = body.dimension
    if isinstance(fixed, FixedPoint):
        pts = _sample_batch(body, rng, size, d)
        vecs = pts - fixed.array()
    else:
        pts = _sample_batch(body, rng, size, d + 1)
        vecs = pts[:, 1:, :] - pts[:, :1, :]
    del pts
    vols = _batched_abs_det(vecs) / factorial(d)
    x = np.ones(size) if k == 0 else vols**k
    mean = float(x.mean())
    m2 = float(((x - mean) ** 2).sum())
    return size, mean, m2


_EMPTY = (0, 0.0, 0.0)


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    # two-sample mean/M2 combination; exact when either side is empty
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    frac = nb / n
    return n, ma + delta * frac, sa + sb + delta * delta * na * frac


def _resolve_workers(workers: int | None) -> int:
    """``workers``, else SYLVESTER_THREADS, else the core count; at least 1."""
    if workers is None:
        raw = os.environ.get("SYLVESTER_THREADS")
        try:
            workers = (os.cpu_count() or 1) if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"SYLVESTER_THREADS must be an integer, got {raw!r}") from None
    return max(1, workers)


def _chunk_stream(jobs: list[tuple], workers: int):
    """``_chunk_stats(*job)`` for each job, yielded in job order.

    ``workers`` chunks are in flight at first, and one more after each chunk
    yielded, up to 2 x ``workers``: a caller that stops after a chunk or two
    leaves little speculative work behind, and a long run keeps every thread
    busy.  Closing the generator cancels the chunks not yet started and waits
    for those running.  The pool has at most one thread per core and per
    job: numpy-bound chunks gain nothing from more threads than cores, and
    each thread holds a chunk's arrays.
    """
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        for job in jobs:
            yield _chunk_stats(*job)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        todo = iter(jobs)
        pending = deque()
        try:
            for depth in chain(range(workers, 2 * workers), repeat(2 * workers)):
                for job in islice(todo, depth - len(pending)):
                    pending.append(pool.submit(_chunk_stats, *job))
                if not pending:
                    return
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _check_fixed(body: Body, fixed: FixedPointSpec) -> None:
    if isinstance(fixed, FixedPoint):
        if len(fixed.coords) != body.dimension:
            raise ValueError("fixed point dimension does not match the body")
        if not body.contains(fixed.array()):
            raise ValueError(f"fixed point {fixed.coords} lies outside the body")


def _jobs(body: Body, fixed: FixedPointSpec, config: EstimatorConfig) -> list[tuple]:
    d = body.dimension
    point_bytes = (d if isinstance(fixed, FixedPoint) else d + 1) * d * 8
    if config.chunk_size * point_bytes > MAX_CHUNK_BYTES:
        raise ValueError(
            f"a chunk of {config.chunk_size} simplices in dimension {d} needs "
            f"{config.chunk_size * point_bytes} bytes of points, above the limit of "
            f"{MAX_CHUNK_BYTES} bytes; the largest chunk that fits is "
            f"{MAX_CHUNK_BYTES // point_bytes} (--chunk)")
    sizes = _chunk_sizes(config.n_samples, config.chunk_size)
    return [(body, fixed, config.k, config.seed, i, size) for i, size in enumerate(sizes)]


def estimate_moment(body: Body, fixed: FixedPointSpec, config: EstimatorConfig,
                    workers: int | None = None) -> MomentEstimate:
    """Estimate E[V^k] over ``config.n_samples`` i.i.d. random simplices.

    Deterministic in ``config`` alone: worker count (``workers`` argument,
    else the SYLVESTER_THREADS environment variable, else ``os.cpu_count()``)
    only changes wall time.
    """
    _check_fixed(body, fixed)
    stream = _chunk_stream(_jobs(body, fixed, config), _resolve_workers(workers))
    # merging into the empty accumulator is exact, so this is the index-order
    # fold of the chunk stats
    return _estimate(reduce(_merge, stream, _EMPTY), config, body, fixed)


def _estimate(stats: tuple[int, float, float], config: EstimatorConfig, body: Body,
              fixed: FixedPointSpec, ci: tuple[float, float] | None = None) -> MomentEstimate:
    """The estimate from merged chunk stats; ``ci`` defaults to the normal approximation."""
    n, mean, m2 = stats
    variance = m2 / (n - 1) if n > 1 else 0.0
    std_error = sqrt(variance / n)
    if ci is None:
        z = NormalDist().inv_cdf(0.5 + config.confidence / 2.0)
        ci = (mean - z * std_error, mean + z * std_error)
    return MomentEstimate(mean=mean, variance=variance, std_error=std_error,
                          ci_low=ci[0], ci_high=ci[1], n=n, config=config,
                          body=body, fixed=fixed)


# ---------------------------------------------------------------------------
# statistical certification of strict inequalities


@dataclass(frozen=True)
class ExactSide:
    """An exact comparand; its confidence interval has zero width."""

    value: PiPolynomial

    def bounds(self) -> tuple[float, float]:
        """Doubles enclosing the value: its certified enclosure, rounded outward."""
        lo, hi = self.value.evaluate_interval(30)
        f_lo, f_hi = float(lo), float(hi)
        if f_lo > lo:
            f_lo = nextafter(f_lo, -inf)
        if f_hi < hi:
            f_hi = nextafter(f_hi, inf)
        return f_lo, f_hi

    def to_json_dict(self) -> dict:
        return {
            "type": "exact",
            "value": self.value.to_json_dict(),
            "decimal": self.value.to_decimal(12),
        }


#: Relations a verdict can certify.
LHS_GREATER = "lhs>rhs"
RHS_GREATER = "rhs>lhs"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CounterexampleVerdict:
    """Outcome of comparing two moment quantities at a confidence level."""

    lhs: ExactSide | EstimatedSide
    rhs: ExactSide | EstimatedSide
    relation: str
    confidence: float

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
            "relation": self.relation,
            "confidence": self.confidence,
        }

    def trace_dict(self) -> dict:
        """How the certification ended.

        Per estimated side: the samples and chunks used, the budget, alpha,
        the range R and the stop reason (``decided`` or ``budget``).  The
        margin is the gap between the two intervals' centres over the sum of
        their half-widths; it exceeds 1 exactly when the relation is decided.
        """
        (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = self.lhs.bounds(), self.rhs.bounds()
        half_widths = (lhs_hi - lhs_lo + rhs_hi - rhs_lo) / 2.0
        gap = abs(lhs_lo + lhs_hi - rhs_lo - rhs_hi) / 2.0
        record = {"margin": gap / half_widths if half_widths > 0 else None}
        stop = "budget" if self.relation == INCONCLUSIVE else "decided"
        for name, side in (("lhs", self.lhs), ("rhs", self.rhs)):
            if isinstance(side, EstimatedSide):
                record[name] = {**side.trace_dict(), "stop": stop}
        return record


MomentSpec = Union[PiPolynomial, tuple]

# The polynomial stitched boundary of Howard, Ramdas, McAuliffe & Sekhon,
# "Time-uniform, nonparametric, nonasymptotic confidence sequences",
# Ann. Statist. 49 (2021), with eta = 2 and s = 1.4; _ZETA_S is zeta(1.4).
_ETA = 2.0
_S = 1.4
_ZETA_S = 3.10554727797758
_K1 = (_ETA**0.25 + _ETA**-0.25) / sqrt(2.0)
_K2 = (sqrt(_ETA) + 1.0) / 2.0


def _stitched_boundary(v: float, c: float, alpha: float) -> float:
    """u(v) such that a sub-gamma process with scale ``c`` and variance
    process V_t exceeds u(V_t) at some time with probability at most
    ``alpha``; the boundary is flat below m = c^2."""
    m = c * c
    v = max(v, m)
    ell = _S * log(log(_ETA * v / m)) + log(_ZETA_S / (alpha * log(_ETA) ** _S))
    linear = _K2 * c * ell
    return sqrt(_K1 * _K1 * v * ell + linear * linear) + linear


class EstimatedSide:
    """A comparand backed by Monte Carlo samples: an empirical-Bernstein
    confidence sequence, which errs at any time with probability at most
    ``alpha``.

    Samples V^k lie in [0, R], R = ``value_range`` = (largest simplex volume in
    the body)^k.  Chunk j is predicted by p_j, the mean of the chunks before it
    clipped to [0, R] (0 for chunk 0).  Then sum(x_i - mu) is sub-exponential,
    hence sub-gamma, with scale R and variance process V = sum (x_i - p_j)^2
    (Howard et al. 2021), and V grows by M2_j + n_j (mean_j - p_j)^2, exactly
    from the chunk's (n, mean, M2).  Each tail gets ``alpha / 2``.
    """

    def __init__(self, body: Body, fixed: FixedPointSpec, config: EstimatorConfig,
                 alpha: float):
        _check_fixed(body, fixed)
        self.body, self.fixed, self.config, self.alpha = body, fixed, config, alpha
        self.value_range = body.max_simplex_volume() ** config.k
        self.jobs = _jobs(body, fixed, config)
        self.stats = _EMPTY
        self.variance_process = 0.0

    def add(self, chunk: tuple[int, float, float]) -> None:
        n, mean, m2 = chunk
        predicted = min(max(self.stats[1], 0.0), self.value_range)
        self.variance_process += m2 + n * (mean - predicted) ** 2
        self.stats = _merge(self.stats, chunk)

    def bounds(self) -> tuple[float, float]:
        n, mean, _ = self.stats
        half = _stitched_boundary(self.variance_process, self.value_range, self.alpha / 2) / n
        return max(mean - half, 0.0), min(mean + half, self.value_range)

    @property
    def estimate(self) -> MomentEstimate:
        """The estimate so far; its CI is the confidence sequence's."""
        return _estimate(self.stats, self.config, self.body, self.fixed, self.bounds())

    def to_json_dict(self) -> dict:
        return {"type": "estimate", "estimate": self.estimate.to_json_dict()}

    def trace_dict(self) -> dict:
        n = self.stats[0]
        return {
            "samples": n,
            "chunks": -(-n // self.config.chunk_size),
            "budget": self.config.n_samples,
            "alpha": self.alpha,
            "range": self.value_range,
        }


def _relation(lhs, rhs) -> str:
    lhs_lo, lhs_hi = lhs.bounds()
    rhs_lo, rhs_hi = rhs.bounds()
    if lhs_lo > rhs_hi:
        return LHS_GREATER
    if rhs_lo > lhs_hi:
        return RHS_GREATER
    return INCONCLUSIVE


def certify_counterexample(lhs: MomentSpec, rhs: MomentSpec,
                           config: EstimatorConfig,
                           workers: int | None = None) -> CounterexampleVerdict:
    """Compare two moment quantities, each exact or estimated, and stop as
    soon as the comparison is decided.

    A side is either an exact :class:`PiPolynomial` or a (body, fixed, k)
    triple estimated with ``config`` (the right side, when estimated, uses
    seed+1 so both sides are independent); ``config.n_samples`` is each
    estimated side's budget.  Each estimated side is a confidence sequence
    that errs with probability at most (1 - confidence) / (number of
    estimated sides).  The sides draw chunk i in turn, and after each chunk
    index the verdict certifies a strict inequality when one side's bounds
    clear the other's; the run stops there.  So a certified relation holds
    with probability at least ``config.confidence``, wherever the run stops.
    If the budget runs out first, the verdict is inconclusive.
    """
    workers = _resolve_workers(workers)
    specs = (lhs, rhs)
    n_estimated = sum(not isinstance(spec, PiPolynomial) for spec in specs)
    alpha = (1.0 - config.confidence) / max(n_estimated, 1)
    sides = []
    for offset, spec in enumerate(specs):
        if isinstance(spec, PiPolynomial):
            sides.append(ExactSide(spec))
        else:
            body, fixed, k = spec
            side_config = replace(config, k=k, seed=(config.seed + offset) % 2**64)
            sides.append(EstimatedSide(body, fixed, side_config, alpha))
    running = [side for side in sides if isinstance(side, EstimatedSide)]
    relation = INCONCLUSIVE if running else _relation(*sides)
    jobs = [job for index in zip(*(side.jobs for side in running)) for job in index]
    stream = _chunk_stream(jobs, workers)
    try:
        # one chunk of each estimated side per index
        for chunks in zip(*[stream] * len(running)):
            for side, chunk in zip(running, chunks):
                side.add(chunk)
            relation = _relation(*sides)
            if relation != INCONCLUSIVE:
                break
    finally:
        stream.close()
    return CounterexampleVerdict(
        lhs=sides[0], rhs=sides[1], relation=relation, confidence=config.confidence
    )
