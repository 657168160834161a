"""Uniform sampling in convex bodies and streaming moment estimation.

Estimates E[V^k], where V is the volume of the simplex spanned by d+1
independent uniform points in a body (or by d points plus one fixed vertex).
Sampling is exact and rejection-free:

* balls: isotropic direction (normalized standard normals) times U^(1/d);
* half-balls: a ball sample with the first coordinate replaced by |x_1| (the
  half-ball is the unit ball cut by {x_1 >= 0});
* simplices: barycentric weights from normalized standard exponentials;
* intervals: an affine image of a unit uniform.

Reproducibility: the generator is Philox4x64 (numpy), a counter-based RNG.
Chunk i of a run uses key = [seed, i], and chunk accumulators are merged
pairwise in index order with the standard two-sample mean/M2 combination, so a
given :class:`EstimatorConfig` yields bit-identical results at any thread
count.  Chunks run on ``os.cpu_count()`` threads unless SYLVESTER_THREADS or
the ``workers`` argument says otherwise; the default chunk of 2^15 simplices
keeps each thread's arrays a few megabytes in size.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import factorial, inf, nextafter, sqrt
from statistics import NormalDist
from typing import Sequence, Union

import numpy as np

from .exactnum import PiPolynomial, kappa

_MEMBERSHIP_TOL = 1e-9

#: Simplices per chunk unless a config says otherwise.
DEFAULT_CHUNK = 2**15


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

    def contains(self, point) -> bool:
        (x,) = np.asarray(point, dtype=float)
        return -_MEMBERSHIP_TOL <= x <= self.length + _MEMBERSHIP_TOL

    def to_json_dict(self) -> dict:
        return {"kind": "interval", "length": float(self.length)}


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

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return p.shape == (self.d,) and float(p @ p) <= 1.0 + _MEMBERSHIP_TOL

    def to_json_dict(self) -> dict:
        return {"kind": "ball", "d": self.d}


@dataclass(frozen=True)
class HalfBall:
    """The unit ball in R^d intersected with the half-space {x_1 >= 0}.

    The origin is the center of the flat base, and lies on the boundary.
    """

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"half-ball dimension must be >= 1, got {self.d}")

    @property
    def dimension(self) -> int:
        return self.d

    def volume(self) -> float:
        return kappa(self.d).to_float() / 2.0

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return (
            p.shape == (self.d,)
            and float(p @ p) <= 1.0 + _MEMBERSHIP_TOL
            and p[0] >= -_MEMBERSHIP_TOL
        )

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

def _sample_batch(body: Body, rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n independent m-tuples of uniform points in the body, shape (n, m, d)."""
    if isinstance(body, Interval):
        return (rng.random((n, m, 1)) * body.length).astype(float)
    if isinstance(body, Ball) or isinstance(body, HalfBall):
        d = body.d
        x = rng.standard_normal((n, m, d))
        r = rng.random((n, m)) ** (1.0 / d)
        r /= np.sqrt(np.einsum("nmi,nmi->nm", x, x))
        x *= r[..., None]
        if isinstance(body, HalfBall):
            np.abs(x[..., 0], out=x[..., 0])
        return x
    if isinstance(body, Simplex):
        verts = body.vertex_array()
        e = rng.standard_exponential((n, m, len(verts)))
        w = e / e.sum(axis=-1, keepdims=True)
        return w @ verts
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
        return {
            "k": self.k,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "confidence": self.confidence,
        }


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
    """Streaming estimate of E[V^k] with a normal-approximation CI."""

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
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    d = body.dimension
    if isinstance(fixed, FixedPoint):
        pts = _sample_batch(body, rng, size, d)
        vecs = pts - fixed.array()
    else:
        pts = _sample_batch(body, rng, size, d + 1)
        vecs = pts[:, 1:, :] - pts[:, :1, :]
    vols = _batched_abs_det(vecs) / factorial(d)
    x = np.ones(size) if k == 0 else vols**k
    mean = float(x.mean())
    m2 = float(((x - mean) ** 2).sum())
    return size, mean, m2


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


def estimate_moment(body: Body, fixed: FixedPointSpec, config: EstimatorConfig,
                    workers: int | None = None) -> MomentEstimate:
    """Estimate E[V^k] over ``config.n_samples`` i.i.d. random simplices.

    Deterministic in ``config`` alone: worker count (``workers`` argument,
    else the SYLVESTER_THREADS environment variable, else ``os.cpu_count()``)
    only changes wall time.
    """
    if isinstance(fixed, FixedPoint):
        if len(fixed.coords) != body.dimension:
            raise ValueError("fixed point dimension does not match the body")
        if not body.contains(fixed.array()):
            raise ValueError(f"fixed point {fixed.coords} lies outside the body")
    sizes = _chunk_sizes(config.n_samples, config.chunk_size)
    jobs = [
        (body, fixed, config.k, config.seed, i, size)
        for i, size in enumerate(sizes)
    ]
    n_workers = min(_resolve_workers(workers), len(jobs))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(lambda j: _chunk_stats(*j), jobs))
    else:
        results = [_chunk_stats(*j) for j in jobs]
    total = results[0]
    for part in results[1:]:
        total = _merge(total, part)
    n, mean, m2 = total
    variance = m2 / (n - 1) if n > 1 else 0.0
    std_error = sqrt(variance / n)
    z = NormalDist().inv_cdf(0.5 + config.confidence / 2.0)
    return MomentEstimate(
        mean=mean,
        variance=variance,
        std_error=std_error,
        ci_low=mean - z * std_error,
        ci_high=mean + z * std_error,
        n=n,
        config=config,
        body=body,
        fixed=fixed,
    )


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


@dataclass(frozen=True)
class EstimatedSide:
    """A comparand backed by a finished Monte Carlo estimate."""

    estimate: MomentEstimate

    def bounds(self) -> tuple[float, float]:
        return self.estimate.ci_low, self.estimate.ci_high

    def to_json_dict(self) -> dict:
        return {"type": "estimate", "estimate": self.estimate.to_json_dict()}


ComparisonSide = Union[ExactSide, EstimatedSide]

#: Relations a verdict can certify.
LHS_GREATER = "lhs>rhs"
RHS_GREATER = "rhs>lhs"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CounterexampleVerdict:
    """Outcome of comparing two moment quantities at a confidence level."""

    lhs: ComparisonSide
    rhs: ComparisonSide
    relation: str
    confidence: float

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
            "relation": self.relation,
            "confidence": self.confidence,
        }


MomentSpec = Union[PiPolynomial, tuple]


def _resolve_side(spec: MomentSpec, config: EstimatorConfig, seed_offset: int,
                  workers: int) -> ComparisonSide:
    if isinstance(spec, PiPolynomial):
        return ExactSide(spec)
    body, fixed, k = spec
    side_config = replace(
        config,
        k=k,
        seed=(config.seed + seed_offset) % 2**64,
    )
    return EstimatedSide(estimate_moment(body, fixed, side_config, workers=workers))


def certify_counterexample(lhs: MomentSpec, rhs: MomentSpec,
                           config: EstimatorConfig,
                           workers: int | None = None) -> CounterexampleVerdict:
    """Compare two moment quantities, each exact or estimated.

    A side is either an exact :class:`PiPolynomial` or a (body, fixed, k)
    triple estimated with ``config`` (the right side, when estimated, uses
    seed+1 so both sides are independent).  The verdict certifies a strict
    inequality only when one side's confidence bound clears the other's.
    """
    workers = _resolve_workers(workers)
    lhs_side = _resolve_side(lhs, config, 0, workers)
    rhs_side = _resolve_side(rhs, config, 1, workers)
    lhs_lo, lhs_hi = lhs_side.bounds()
    rhs_lo, rhs_hi = rhs_side.bounds()
    if lhs_lo > rhs_hi:
        relation = LHS_GREATER
    elif rhs_lo > lhs_hi:
        relation = RHS_GREATER
    else:
        relation = INCONCLUSIVE
    return CounterexampleVerdict(
        lhs=lhs_side, rhs=rhs_side, relation=relation, confidence=config.confidence
    )
