"""Uniform sampling in convex bodies and streaming moment estimation.

Estimates E[V^k], where V is the volume of the simplex spanned by d+1
independent uniform points in a body (or by d points plus one fixed vertex).
Sampling is exact in distribution:

* balls in d = 3 and 4, from uniforms alone: a point of the sphere built
  from one uniform point of the unit disk (d = 3) or two (d = 4) (Marsaglia,
  Ann. Math. Statist. 43, 1972), the disk points drawn by rejection from the
  square, times the radius U^(1/d);
* balls in other d: isotropic direction (normalized standard normals) times
  U^(1/d), the normals drawn before the radii;
* half-balls: a ball sample with the first coordinate replaced by |x_1| (the
  half-ball is the unit ball cut by {x_1 >= 0});
* simplices, from uniforms alone: the spacings of d sorted uniforms as
  barycentric weights (Devroye, Non-Uniform Random Variate Generation, 1986,
  ch. V);
* intervals: as the simplex with vertices length and 0, so a point is the
  length times a uniform.

Every sampler fills a chunk in blocks of :data:`_BLOCK` points, whose
temporaries fit in cache whatever the chunk size; a uniform costs a
fraction of a normal.

Reproducibility: chunk i of a run is keyed by numpy's counter-based
Philox4x64 with key = [seed, i].  128 bits drawn from it seed, through numpy's
SeedSequence, an SFC64 generator, and every draw of the chunk comes from that
SFC64, which draws normals and uniforms faster than Philox.
Chunk accumulators are merged pairwise in index order with the standard
two-sample mean/M2 combination, so a given :class:`EstimatorConfig` yields
bit-identical results at any worker count.  ``estimate_moment`` computes
its chunks in ``os.cpu_count()`` helper processes forked beside the caller,
or in fewer when SYLVESTER_THREADS (a process count, under its old name) or
the ``workers`` argument asks for fewer, or in the caller alone when that
is one.  Each chunk has one owner, helper i mod H of H: the caller sends
each helper the range of its chunks in one message, the helper answers
them in order as it computes them, and the caller reads the answers back
in index order as it merges them (:class:`_Team`).  The helpers are
forked at the first run that needs them, and kept for the process
(:func:`_run`): a second run pays no fork, and the helpers share the
parent's pages copy-on-write.  A process forked from the host forks
helpers of its own; the threads of one process take turns on its helpers.
Processes, not threads: two threads scaled at 0.61 on the benchmark's
``mc`` cases, as the GIL changes hands between numpy calls on 2^14-point
blocks, and two processes at 0.75 (BENCH_25.json).

Layout: a chunk's points are drawn coordinate-major, into one (m, d, n)
buffer for n simplices of m points, and handed on as its (n, m, d) transposed
view.  Each coordinate of each point is so one contiguous vector of n values,
and numpy keeps that layout through the vertex differences, the closed-form
determinants (d <= 4), the power and the reduction.  The points array,
chunk_size x m x d doubles, is held in every process at once, with the vertex
differences nearly as large; a config whose points array exceeds
:data:`MAX_CHUNK_BYTES` (2^26 bytes) is rejected with ValueError.  The
default chunk of 2^15 simplices fits for d <= 15.

Certification is sequential, and stops at the first chunk that decides the
relation.  When one side is exact, as in every CLI scenario, the estimated
side runs two mirrored one-sided tests by betting against the exact value
(:class:`BettingTest`): a wealth that grows with each chunk that lies on one
side of it, valid at any stopping time by Ville's inequality.  Chunk 0 has
no prior to stake by, so each test bets on it with a fixed mixture of
stakes, and a run can be decided by its first chunk.  The same stakes
test every mean beyond the exact value too, so the means that neither test
rejects form a confidence sequence, which is the interval a side reports: a
decided run's excludes the exact value.  Two estimated sides run the same
tests with no exact value, staking by a plug-in rule, and compare their
sequences; two exact sides, their certified sign.  A chunk's
job is computed only when the chunk is drawn, so the part of a budget a run
does not use costs nothing.  Its chunks ramp from a small first chunk up to
a fraction of the configured size, so a run's samples, and its time, grow in
small steps with the samples that decide it.  They run one after another in
the caller's thread, so a decided run has drawn exactly the chunks it used:
such runs stop after a few small chunks, where helpers cost more than they
save.  ``estimate_moment`` uses equal chunks.  A side whose E V^(2k) is
known exactly is sampled as the bounded control variate
V^k (1 + t (a + b t^2)), t = V^k / R^k, instead of V^k, where R^k bounds V^k
(:class:`EstimatedSide`): the same draws, in a narrower range.  With E V^(4k)
exact too, (a, b) is near the minimax pair and the range is 0.1352 R^k;
else (a, b) = (-1, 0) and the range is R^k / 4.  A side on the free
3-half-ball turns each draw (p0, p1, p2, p3) into its orbit under the
half-turn rho that negates coordinates 1 and 2, the eight simplices
(p0, rho^s1 p1, rho^s2 p2, rho^s3 p3), and samples the tree mean of the
eight values: one sample per draw still, in the same range, at 0.39x the
variance.  ``estimate_moment`` never takes an orbit.

Every exact constant of a query (a shift, an exact side's enclosure and
decimal, the betting tests' bounds and their chunk-0 psi values) is
computed once per process, by ``functools.cache`` helpers keyed by the
query's exact values and doubles; so are the check that a fixed vertex lies
in its body and the body's range, keyed by the frozen body and vertex.  The
CLI builds each query's exact values once too, so each cache holds an entry
per query (per test for the psi values, which are keyed by span).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial
from math import ceil, exp, factorial, inf, isfinite, isqrt, log, log1p, nextafter, sqrt
from statistics import NormalDist
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from . import DEFAULT_CHUNK
from .exactnum import PiPolynomial, kappa

_MEMBERSHIP_TOL = 1e-9

#: Largest points array of one chunk, in bytes (chunk x m x d doubles).  Every
#: process working on a run holds one at a time, with its vertex differences
#: beside it.
MAX_CHUNK_BYTES = 2**26


# ---------------------------------------------------------------------------
# bodies


#: The free 3-half-ball's orbit, as a certification's trace names it: a draw
#: (p0, p1, p2, p3) stands for the eight simplices (p0, rho^s1 p1, rho^s2 p2,
#: rho^s3 p3), s in {0, 1}^3, for rho the half-turn about the x_1 axis, which
#: negates coordinates 1 and 2 (0-indexed; coordinate 0 is the |x| axis) and
#: maps the half-ball onto itself (see EstimatedSide).
_HALF_TURN_ORBIT = "(p0,rho^s1(p1),rho^s2(p2),rho^s3(p3)),s in {0,1}^3,rho=diag(1,-1,-1)"


@dataclass(frozen=True)
class Interval:
    """The segment [0, length] in R^1; the length is stored as a double."""

    length: float = 1.0

    def __post_init__(self):
        try:
            length = float(self.length)
        except OverflowError:  # an int or Fraction beyond the double range
            length = inf
        if not 0.0 < length < inf:
            raise ValueError(f"interval length must be a positive finite double, got {length}")
        object.__setattr__(self, "length", length)

    @property
    def dimension(self) -> int:
        return 1

    def volume(self) -> float:
        return self.length

    def max_simplex_volume(self) -> float:
        """Largest volume of a simplex with vertices in the body: its length."""
        return self.length

    def vertex_array(self) -> np.ndarray:
        """The segment as the 1-simplex with vertices length and 0."""
        return np.array([[self.length], [0.0]])

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return p.shape == (1,) and -_MEMBERSHIP_TOL <= p[0] <= self.length + _MEMBERSHIP_TOL

    def to_json_dict(self) -> dict:
        return {"kind": "interval", "length": self.length}


def _factorial(d: int, what: str) -> int:
    """d!, which a volume in R^d divides by; ValueError when it overflows a double."""
    if d > 170:  # the double range: 170! < 2^1024 < 171!
        raise ValueError(f"{what} needs d <= 170, got {d}: "
                         f"a volume divides by d!, and {d}! overflows a double")
    return factorial(d)


def _hadamard_bound(d: int) -> float:
    """The largest volume of a simplex with vertices in the unit d-ball.

    The volume is |det A| / d!, where A is the (d+1)x(d+1) matrix with rows
    (1, x_i).  Scaling A's first column by a scales det A by a, and the rows
    (a, x_i) have norm at most sqrt(a^2 + 1), so by Hadamard's inequality
    |det A| <= (a^2 + 1)^((d+1)/2) / a.  At a^2 = 1/d this is
    sqrt(d+1) ((d+1)/d)^(d/2), the |det A| of the regular simplex inscribed
    in the sphere, so the bound is attained.  It is rounded up by a relative
    2^-40, far above the rounding error of computing it, so that no computed
    volume exceeds it.
    """
    bound = sqrt(d + 1) * ((d + 1) / d) ** (d / 2) / _factorial(d, "a ball's range")
    return bound * (1.0 + 2.0**-40)


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
        if not all(isfinite(c) for v in verts for c in v):
            raise ValueError(f"simplex vertices must be finite, got {verts}")
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
        return abs(float(np.linalg.det(vecs))) / _factorial(self.dimension, "a simplex volume")

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
# canonical bodies, the samplers of moments' body and fixed-vertex kinds
# (moments._BODIES, moments._FIXED) and of the tests

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

#: Each thread's chunk-keying generator (see _keyed).
_KEYING = threading.local()
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)


def _keyed(seed: int, index: int) -> np.random.Generator:
    """A Philox4x64 generator at counter 0 with key [seed, index]: the bits of
    ``Philox(key=...)``, which builds, and discards, a SeedSequence from OS
    entropy on every call.  This resets one generator per thread in place
    instead (about 2.4 against 12 us a chunk)."""
    rng = getattr(_KEYING, "rng", None)
    if rng is None:
        rng = _KEYING.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        # an explicit uint64 key: a list holding a seed >= 2^63 would pass through float64
        "state": {"counter": _PHILOX_ZEROS, "key": np.array([seed, index], dtype=np.uint64)},
        "buffer": _PHILOX_ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _draw_generator(key_rng: np.random.Generator) -> np.random.Generator:
    """The SFC64 generator seeded, through SeedSequence, by 128 bits of ``key_rng``."""
    seed = np.random.SeedSequence(key_rng.bit_generator.random_raw(2))
    return np.random.Generator(np.random.SFC64(seed))


#: Points per block of the samplers below.  A block's temporaries, a few
#: arrays of this many doubles (and d times as many normals in a d-ball
#: drawn from normals), fit in a 2 MB L2 cache whatever the chunk size.  One
#: fill of a whole 2^15-simplex chunk instead ran the benchmark's ``mc``
#: commands about 12% slower, in 19% more peak memory (BENCH_19.json).
_BLOCK = 2**14

#: Acceptance rate of a point of the square [-1, 1]^2 into the unit disk.
_DISK_ACCEPT = np.pi / 4.0


def _disk_candidates(need: int) -> int:
    """Candidates drawn for ``need`` disk points: the expected count plus a
    margin of about 5 standard deviations, so that a top-up round is rare."""
    return int(need / _DISK_ACCEPT) + 3 * isqrt(need) + 8


def _disk(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` points uniform in the unit disk, as (a, b, s = a^2 + b^2).

    Rejection from the square [-1, 1]^2: a round draws its candidates' two
    coordinates as one (2, k) array of uniforms u, each mapped to 2u - 1,
    and keeps, in order, the first that satisfy 0 < s < 1; a short round is
    topped up by another.  Excluding s = 0 changes nothing in distribution
    and lets a caller divide by s.
    """
    parts, need = [], count
    while need > 0:
        u = rng.random((2, _disk_candidates(need)))
        u *= 2.0
        u -= 1.0
        r2 = u[0] * u[0]
        r2 += u[1] * u[1]
        parts.append(np.compress((r2 < 1.0) & (r2 > 0.0), u, axis=1)[:, :need])
        need -= parts[-1].shape[1]
    a, b = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    s = a * a
    s += b * b
    return a, b, s


def _fill_ball3(rng: np.random.Generator, out: np.ndarray) -> None:
    """Uniform points in the unit 3-ball into the (m, 3, w) block ``out``.

    A disk point (a, b), s = a^2 + b^2, gives the point
    (2a sqrt(1 - s), 2b sqrt(1 - s), 1 - 2s) of the sphere (Marsaglia 1972),
    scaled by the radius U^(1/3).  Draws: the m*w radii, then the disk.
    """
    m, _, w = out.shape
    r = np.cbrt(rng.random((m, w)))
    a, b, s = (v.reshape(m, w) for v in _disk(rng, m * w))
    f = 1.0 - s
    np.sqrt(f, out=f)
    f *= 2.0
    f *= r
    np.multiply(a, f, out=out[:, 0])
    np.multiply(b, f, out=out[:, 1])
    s *= -2.0
    s += 1.0
    np.multiply(s, r, out=out[:, 2])


def _fill_ball4(rng: np.random.Generator, out: np.ndarray) -> None:
    """Uniform points in the unit 4-ball into the (m, 4, w) block ``out``.

    Two disk points p and q, s = |p|^2 and t = |q|^2 > 0, give the point
    (p, q sqrt((1 - s) / t)) of the sphere S^3 (Marsaglia 1972), scaled by
    the radius U^(1/4).  Draws: the m*w radii, then p's disk, then q's.
    """
    m, _, w = out.shape
    r = np.sqrt(np.sqrt(rng.random((m, w))))
    a, b, s = (v.reshape(m, w) for v in _disk(rng, m * w))
    c, e, t = (v.reshape(m, w) for v in _disk(rng, m * w))
    np.multiply(a, r, out=out[:, 0])
    np.multiply(b, r, out=out[:, 1])
    f = 1.0 - s
    f /= t
    np.sqrt(f, out=f)
    f *= r
    np.multiply(c, f, out=out[:, 2])
    np.multiply(e, f, out=out[:, 3])


def _fill_ball(rng: np.random.Generator, out: np.ndarray) -> None:
    """Uniform points in the unit d-ball, for any d, into the (m, d, w) block
    ``out``: an isotropic direction, normalized standard normals, scaled by
    the radius U^(1/d).  Draws: the m*d*w normals, then the m*w radii.
    """
    m, d, w = out.shape
    x = rng.standard_normal((m, d, w))
    r = rng.random((m, w)) ** (1.0 / d)
    r /= np.sqrt(np.einsum("mdn,mdn->mn", x, x))
    np.multiply(x, r[:, None, :], out=out)


#: Min/max networks that sort d = 1, 2 and 3 values; other d use np.sort.
_SORTING_NETWORKS = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}


def _fill_simplex(verts: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> None:
    """Uniform points in the simplex with vertices ``verts`` into the (m, d, w)
    block ``out``.

    The spacings of d sorted uniforms s_1 <= ... <= s_d are uniform
    barycentric weights (Devroye 1986, ch. V), so the point is
    v_d + sum_j s_j (v_(j-1) - v_j).  The uniforms are sorted by a min/max
    network for d = 2, 3, else by np.sort.  A segment (d = 1) has one edge,
    so its point is the product of that edge and its uniform, the double the
    1 x 1 matmul gives at a fraction of its cost.  Draws: one (m, d, w) array
    of uniforms.
    """
    m, d, w = out.shape
    u = rng.random((m, d, w))
    if d not in _SORTING_NETWORKS:
        u.sort(axis=1)
    for i, j in _SORTING_NETWORKS.get(d, ()):
        lo = np.minimum(u[:, i], u[:, j])
        np.maximum(u[:, i], u[:, j], out=u[:, j])
        u[:, i] = lo
    if d == 1:
        np.multiply(u, verts[0] - verts[1], out=out)
    else:
        np.matmul((verts[:-1] - verts[1:]).T, u, out=out)
    out += verts[-1][:, None]


def _sample_batch(body: Body, rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n independent m-tuples of uniform points in the body, shape (n, m, d).

    ``rng`` is the chunk's keyed Philox generator.  128 bits of it seed the
    SFC64 generator (:func:`_draw_generator`) that every draw here comes from.
    The array is the transposed view of a coordinate-major (m, d, n) buffer
    (see the module docstring), filled by the body's sampler straight into
    the buffer, one block of the columns i (all m points of each) at a time,
    so that a block holds at most :data:`_BLOCK` points.  A half-ball's block
    is its ball's, with the first coordinate folded to |x_1|.
    """
    rng = _draw_generator(rng)
    if isinstance(body, Ball):
        fill = {3: _fill_ball3, 4: _fill_ball4}.get(body.d, _fill_ball)
    else:  # a simplex, or an interval as the segment [0, length]
        fill = partial(_fill_simplex, body.vertex_array())
    x = np.empty((m, body.dimension, n))
    width = max(1, _BLOCK // m)
    for i in range(0, n, width):
        block = x[:, :, i:i + width]
        fill(rng, block)
        if isinstance(body, HalfBall):
            np.abs(block[:, 0], out=block[:, 0])
    return x.transpose(2, 0, 1)


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
    return float(_batched_abs_det(vecs)[0]) / _factorial(d, "a simplex volume")


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
        # dataclasses.asdict's record, built directly: asdict deep-copies each field
        return {"k": self.k, "n_samples": self.n_samples, "seed": self.seed,
                "chunk_size": self.chunk_size, "confidence": self.confidence}


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
    on a certification side it is the betting tests' confidence sequence at
    the stop (:meth:`BettingTest.bounds`).
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


def _chunk_stats(body: Body, fixed: FixedPointSpec, k: int, seed: int, index: int, size: int,
                 variate: Callable[[np.ndarray], np.ndarray] | None = None,
                 partner: str | None = None) -> tuple[int, float, float]:
    """(size, mean, M2) of the chunk's samples x = V^k, or with ``variate`` of
    the bounded control-variate samples it maps x to in place.  With
    ``partner``, the orbit an :class:`EstimatedSide` picks for the free
    3-half-ball, a draw's sample is the tree mean of its orbit's eight."""
    rng = _keyed(seed, index)
    d = body.dimension
    if isinstance(fixed, FixedPoint):
        pts = _sample_batch(body, rng, size, d)
        vecs = pts - fixed.array()
    else:
        pts = _sample_batch(body, rng, size, d + 1)
        vecs = pts[:, 1:, :] - pts[:, :1, :] if partner is None else _orbit_dets(pts)
    del pts
    # a moment beyond the double range gives inf or nan here, which the
    # estimate rejects from the merged stats
    with np.errstate(over="ignore", invalid="ignore"):
        if partner is None:
            x = _samples(_batched_abs_det(vecs) / factorial(d), k, variate)
        else:  # vecs holds the orbit's determinants, one row per simplex
            x = _tree_mean(_samples(np.abs(vecs, out=vecs) / factorial(d), k, variate))
        mean = float(x.mean())
        m2 = float(((x - mean) ** 2).sum())
    return size, mean, m2


def _pm(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u + v, u - v), stacked on a new first axis."""
    out = np.empty((2,) + np.broadcast_shapes(u.shape, v.shape))
    np.add(u, v, out=out[0])
    np.subtract(u, v, out=out[1])
    return out


def _orbit_dets(pts: np.ndarray) -> np.ndarray:
    """The determinants, up to sign, of the 4x4 matrices with rows
    (1, x_i, y_i, z_i) of the eight simplices (p0, rho^s1 p1, rho^s2 p2,
    rho^s3 p3) of each free draw of the 3-half-ball (:data:`_HALF_TURN_ORBIT`),
    for ``pts`` of shape (n, 4, 3): shape (8, n), one row per s.

    A Laplace expansion along the columns (1, x) and (y, z) writes the
    determinant as the sum of six products P_kl = +-(x_j - x_i)(y_k z_l - y_l z_k),
    one per pair of rows {k, l} and its complement {i, j}, the expansion's
    sign folded into the order of i and j.  rho negates y and z, so rho^s_k
    on row k turns P_kl into (-1)^(s_k + s_l) P_kl and leaves x alone: with
    e_k = (-1)^(s_k), e_0 = 1, D_s = sum e_k e_l P_kl.  Only |D_s| is used,
    so each D_s may be computed as e1 D_s, which shares its partial sums as
    C0 + e3 C1 for C0 = P01 + f (P02 + e1 P12) and C1 = (P13 + e1 P03) + f P23,
    f = e1 e2: rows 4 s3 + 2 (s1 xor s2) + s1.
    """
    x, y, z = pts.transpose(2, 1, 0)  # each (4, n): row i is point i's coordinate

    def product(i, j, k, l):
        p = y[k] * z[l]
        p -= y[l] * z[k]
        p *= x[j] - x[i]
        return p

    p01, p02, p03 = product(2, 3, 0, 1), product(3, 1, 0, 2), product(1, 2, 0, 3)
    p12, p13, p23 = product(0, 3, 1, 2), product(2, 0, 1, 3), product(0, 1, 2, 3)
    c0 = _pm(p01, _pm(p02, p12))  # [f, e1]
    c1 = _pm(_pm(p13, p03), p23)
    return _pm(c0, c1).reshape(8, -1)


def _tree_mean(y: np.ndarray) -> np.ndarray:
    """0.125 (((y0 + y1) + (y2 + y3)) + ((y4 + y5) + (y6 + y7))) of the eight
    rows of ``y``: the orbit's mean, in [0, c] when every y_i is (see
    :class:`EstimatedSide`)."""
    for _ in range(3):
        y = y[0::2] + y[1::2]
    return y[0] * 0.125


def _samples(vols: np.ndarray, k: int,
             variate: Callable[[np.ndarray], np.ndarray] | None) -> np.ndarray:
    """V^k for the volumes ``vols``, or the control variate of it."""
    x = vols**k
    return x if variate is None else variate(x)


#: The quartic control variate's (a, b), near the minimax pair
#: (-1.930299, 1.065541): t (1 + a t + b t^3) then has the least range,
#: [0, 1 + a + b], over t in [0, 1] (see EstimatedSide).
_QUARTIC_A, _QUARTIC_B = -1.93029937, 1.06554117
#: 1 + a + b, exactly: both sums are exact in doubles (Sterbenz).
_QUARTIC_TOP = 1.0 + _QUARTIC_A + _QUARTIC_B


def _quartic_variate(x: np.ndarray, r: float, a: float, b: float) -> np.ndarray:
    """x (1 + t (a + b t^2)) for t = x / r, computed in place as
    fl(x fl(1 + fl(t fl(a + fl(b fl(t t)))))), with t = fl(x / r).

    For 0 <= x <= r and each row (a, b) of :class:`EstimatedSide` this lies
    in [0, r top], top the maximum of t (1 + a t + b t^3) on [0, 1], up to a
    relative 2^-46.
    """
    t = x / r
    g = t * t
    g *= b
    g += a
    g *= t
    g += 1.0
    x *= g
    return x


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
    """``workers``, else SYLVESTER_THREADS, else the core count; at least 1:
    the number of processes that compute a run's chunks."""
    if workers is None:
        raw = os.environ.get("SYLVESTER_THREADS")
        try:
            workers = (os.cpu_count() or 1) if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"SYLVESTER_THREADS must be an integer, got {raw!r}") from None
    return max(1, workers)


_DIED = ("a Monte Carlo worker process died, so the run was stopped; "
         "the next run starts new workers")


class _Team:
    """``helpers`` forked helper processes, which compute the chunks of one
    run at a time while the caller merges them.

    Each chunk has one owner: of H helpers, helper h computes chunks h,
    h + H, h + 2H, ...  The caller sends each helper one message per run,
    the run and the range of the chunks it owns; a helper computes chunk i
    from i alone (:func:`_job`), so no job list is built, and a range pickles
    in a few bytes however large the budget.  It answers each chunk of its
    share in order with its stats, unprompted, so an answer needs no index.
    The caller reads chunk i from its owner's pipe in index order and merges
    it.  A helper that runs ahead waits on its full pipe, behind the answer
    the caller reads next of it, so the answers waiting are bounded by the
    pipes' kernel buffers.  A helper's share is fixed, so a slower helper is
    not relieved by the others.  A run ends when every chunk is merged, and
    a share ends with the run's last chunk, so no helper computes between
    runs.  Only a helper holds its end of its pipe, so a helper that dies
    reads as the end of its pipe, at the latest when the caller reaches its
    next chunk, and fails the run with ChildProcessError.
    """

    def __init__(self, helpers: int):
        self.pid, self.links, self.helpers = os.getpid(), [], []
        import multiprocessing

        context = multiprocessing.get_context("fork")
        for _ in range(helpers):
            link, end = context.Pipe()
            helper = context.Process(target=_help, args=(end,), daemon=True)
            helper.start()
            end.close()
            self.links.append(link)
            self.helpers.append(helper)

    def run(self, body: Body, fixed: FixedPointSpec, config: EstimatorConfig,
            chunks: int) -> tuple[int, float, float]:
        """The index-order fold of the ``chunks`` chunk stats of the run."""
        links, stats = self.links, _EMPTY
        try:
            for h, link in enumerate(links):
                link.send((body, fixed, config, range(h, chunks, len(links))))
            for i in range(chunks):
                stats = _merge(stats, links[i % len(links)].recv())
        except (EOFError, OSError):  # a helper that died, in this run or before it
            raise ChildProcessError(_DIED) from None
        return stats


def _help(link) -> None:
    """A helper's life: :func:`_worker_init`, then the caller's runs until it
    closes the team: each is answered with the stats of every chunk of the
    helper's share, in index order."""
    _worker_init()
    while True:
        try:
            body, fixed, config, share = link.recv()
        except EOFError:  # the caller closed the team
            return
        for i in share:
            link.send(_chunk_stats(*_job(body, fixed, config, i)))


#: The kept team, or None before the first run with a helper; guarded by
#: _TEAM_LOCK, which a run holds throughout, so the runs of a process's
#: threads take turns.
_TEAM = None
_TEAM_LOCK = threading.RLock()


def _run(body: Body, fixed: FixedPointSpec, config: EstimatorConfig,
         workers: int) -> tuple[int, float, float]:
    """The index-order fold of the run's chunk stats, computed by H =
    ``min(workers, cores, chunks)`` helpers (:class:`_Team`), chunk i by
    helper i mod H, which is sent its whole share in one message, or, where
    H is 1, by the caller alone, which computes and folds the chunks in
    index order itself and builds no team: numpy-bound chunks gain nothing
    from more processes than cores, and each holds a chunk's arrays.

    The caller computes no chunk beside helpers.  On a 2-vCPU host that was
    as fast (637 against 648 ms for the five benchmark cases in process),
    and it leaves the caller's own numpy work as it was: after computing
    chunks beside one helper, the caller ran the benchmark's numpy
    calibration kernel about 20% faster, which inflated every ``mc`` time
    the benchmark reported by as much (BENCH_30.json).

    The helpers are forked at the first run that needs them and kept for the
    process: a second run pays no fork, and the helpers share the parent's
    pages copy-on-write.  A run at another count stops them and forks its
    own, so at most one team is alive; a run of the caller alone keeps it.
    The team is keyed by pid: a process forked from the host inherits the
    object but none of its helpers, and forks its own.  Any exception in the
    run, an interrupt or a dead helper, stops the helpers, those still
    working through their shares too, so no stale result reaches the next
    run, which forks anew.
    """
    global _TEAM
    chunks = -(-config.n_samples // config.chunk_size)
    helpers = min(workers, os.cpu_count() or 1, chunks)
    if helpers == 1:
        stats = _EMPTY
        for i in range(chunks):
            stats = _merge(stats, _chunk_stats(*_job(body, fixed, config, i)))
        return stats
    with _TEAM_LOCK:
        try:
            if _TEAM is None or (_TEAM.pid, len(_TEAM.helpers)) != (os.getpid(), helpers):
                _drop_team()
                _TEAM = _Team(helpers)
            return _TEAM.run(body, fixed, config, chunks)
        except BaseException:
            _drop_team()
            raise


def _drop_team() -> None:
    """Stop the kept team's helpers, if this process forked them, and forget it."""
    global _TEAM
    with _TEAM_LOCK:
        if _TEAM is not None and _TEAM.pid == os.getpid():
            for link, helper in zip(_TEAM.links, _TEAM.helpers):
                link.close()
                helper.terminate()
                helper.join()
        _TEAM = None


def _worker_init() -> None:
    """Run in each helper as it starts: Ctrl-C is left to the parent, which
    stops the run and the team, and a thread exits the helper as soon as the
    parent is gone, killed by a signal too, so that no helper outlives it."""
    import multiprocessing
    import signal
    from multiprocessing.connection import wait

    def exit_with_parent():
        wait([multiprocessing.parent_process().sentinel])
        os._exit(1)

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=exit_with_parent, daemon=True).start()


#: A certification's chunk i has chunk_size >> max(_RAMP_FIRST - i, _RAMP_LAST)
#: simplices: chunk_size / 32 first, then chunk_size / 16 each (see _ramp).
#: The steady size is the step in which a run's samples, and its time, grow:
#: at the default chunk, 2,048-sample steps stop halfball-d3 at a median of
#: 9,216 samples, where 8,192-sample steps stop it at 15,360 (seeds 0-39,
#: --n 2000000), while each chunk's fixed cost (keying, merging, betting) is
#: paid more often.
_RAMP_FIRST, _RAMP_LAST = 5, 4


def _check_run(body: Body, fixed: FixedPointSpec, config: EstimatorConfig) -> None:
    """ValueError unless the fixed vertex lies in the body, a chunk's points
    fit in :data:`MAX_CHUNK_BYTES` and d! is a double."""
    d = body.dimension
    if isinstance(fixed, FixedPoint):
        _check_inside(body, fixed)
    point_bytes = (d if isinstance(fixed, FixedPoint) else d + 1) * d * 8
    if config.chunk_size * point_bytes > MAX_CHUNK_BYTES:
        raise ValueError(
            f"a chunk of {config.chunk_size} simplices in dimension {d} needs "
            f"{config.chunk_size * point_bytes} bytes of points, above the limit of "
            f"{MAX_CHUNK_BYTES} bytes; the largest chunk that fits is "
            f"{MAX_CHUNK_BYTES // point_bytes} (--chunk)")
    _factorial(d, "sampling")


def _job(body: Body, fixed: FixedPointSpec, config: EstimatorConfig, i: int) -> tuple:
    """The ``_chunk_stats`` arguments of chunk i of an estimate: ``min(chunk_size,
    n - i * chunk_size)`` simplices, keyed [seed, i]."""
    size = min(config.chunk_size, config.n_samples - i * config.chunk_size)
    return body, fixed, config.k, config.seed, i, size


def _ramp(body: Body, fixed: FixedPointSpec, config: EstimatorConfig,
          variate: Callable[[np.ndarray], np.ndarray] | None,
          partner: str | None) -> Iterator[tuple]:
    """The ``_chunk_stats`` arguments of a certification side's chunks, in
    index order.

    They are computed as they are drawn, so a budget costs nothing until its
    chunks are drawn.  Chunk i has ``min(chunk_size >> max(_RAMP_FIRST - i,
    _RAMP_LAST), remaining)`` simplices, at least 1, keyed [seed, i]: the
    chunks double from ``chunk_size >> _RAMP_FIRST`` up to ``chunk_size >>
    _RAMP_LAST``.  A certification is decided only at the end of a chunk, so
    the steady size sets the step in which its samples, and its time, grow
    with the samples that decide it.
    """
    drawn = i = 0
    while drawn < config.n_samples:
        size = min(max(config.chunk_size >> max(_RAMP_FIRST - i, _RAMP_LAST), 1),
                   config.n_samples - drawn)
        yield body, fixed, config.k, config.seed, i, size, variate, partner
        drawn += size
        i += 1


# A fixed vertex's membership and a body's range are constants of the frozen
# (body, fixed) pair, so each is computed once per process.
@cache
def _check_inside(body: Body, fixed: FixedPoint) -> None:
    """ValueError unless the fixed vertex is a point of the body."""
    if len(fixed.coords) != body.dimension:
        raise ValueError("fixed point dimension does not match the body")
    if not body.contains(fixed.array()):
        raise ValueError(f"fixed point {fixed.coords} lies outside the body")


@cache
def _max_simplex_volume(body: Body) -> float:
    return body.max_simplex_volume()


def estimate_moment(body: Body, fixed: FixedPointSpec, config: EstimatorConfig,
                    workers: int | None = None) -> MomentEstimate:
    """Estimate E[V^k] over ``config.n_samples`` i.i.d. random simplices.

    Deterministic in ``config`` alone: the worker count (``workers`` argument,
    else the SYLVESTER_THREADS environment variable, else ``os.cpu_count()``)
    only changes wall time: it is the number of processes that compute the
    chunks, the helpers of the process's kept team, or the caller alone at 1
    (:func:`_run`).  A helper that dies fails the run with ChildProcessError.
    """
    _check_run(body, fixed, config)
    n, mean, m2 = stats = _run(body, fixed, config, _resolve_workers(workers))
    if not (isfinite(mean) and isfinite(m2)):  # then the CI and std error are finite too
        raise ValueError(f"E[V^{config.k}] overflows a double in this body")
    # for k >= 1 the volume is continuous, so samples that all square to 0 underflowed
    if config.k > 0 and n > 1 and m2 == 0.0:
        raise ValueError(f"the squared deviations of V^{config.k} underflow a double in "
                         f"this body, so its variance and interval cannot be estimated")
    return _estimate(stats, config, body, fixed)


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


def _outward(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """Doubles enclosing [lo, hi]: each end rounded outward."""
    f_lo, f_hi = float(lo), float(hi)
    if f_lo > lo:
        f_lo = nextafter(f_lo, -inf)
    if f_hi < hi:
        f_hi = nextafter(f_hi, inf)
    return f_lo, f_hi


@dataclass(frozen=True)
class ExactSide:
    """An exact comparand; its confidence interval has zero width."""

    value: PiPolynomial

    def bounds(self) -> tuple[float, float]:
        """Doubles enclosing the value: its certified enclosure, rounded outward."""
        return _exact_bounds(self.value)

    def to_json_dict(self) -> dict:
        return {
            "type": "exact",
            "value": self.value.to_json_dict(),
            "decimal": _exact_decimal(self.value),
        }


# An exact side's value is a constant of its query, so its enclosure and its
# decimal are computed once per process.
@cache
def _exact_bounds(value: PiPolynomial) -> tuple[float, float]:
    return _outward(*value.evaluate_interval(30))


@cache
def _exact_decimal(value: PiPolynomial) -> str:
    return value.to_decimal(12)


#: Relations a verdict can certify.
LHS_GREATER = "lhs>rhs"
RHS_GREATER = "rhs>lhs"
INCONCLUSIVE = "inconclusive"

# the relation certified for the sign of lhs - rhs: 0, 1 or -1
_RELATIONS = (INCONCLUSIVE, LHS_GREATER, RHS_GREATER)


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
        the range R and the stop reason (``decided`` or ``budget``); a side
        tested against an exact one adds its larger log-wealth and the
        threshold (see :class:`BettingTest`).  The margin says how decisive
        the run was, and exceeds 1 exactly when the relation is decided: the
        log-wealth over the threshold for a tested side, and for two
        estimated sides the gap between their confidence sequences' centres
        over the sum of their half-widths.  A tested side's printed interval
        is not a margin: once decided, one of its ends is the exact side's
        double.  Two exact sides are compared by a certified
        sign, not a statistic, and have no margin (``None``).
        """
        estimated = [side for side in (self.lhs, self.rhs) if isinstance(side, EstimatedSide)]
        if not estimated:
            margin = None
        elif estimated[0].test.exact is not None:
            margin = max(estimated[0].test.log_wealth) / estimated[0].test.threshold
        else:
            (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = self.lhs.bounds(), self.rhs.bounds()
            half_widths = (lhs_hi - lhs_lo + rhs_hi - rhs_lo) / 2.0
            margin = abs(lhs_lo + lhs_hi - rhs_lo - rhs_hi) / 2.0 / half_widths
        record = {"margin": margin}
        stop = "budget" if self.relation == INCONCLUSIVE else "decided"
        for name, side in (("lhs", self.lhs), ("rhs", self.rhs)):
            if isinstance(side, EstimatedSide):
                record[name] = {**side.trace_dict(), "stop": stop}
        return record


MomentSpec = Union[PiPolynomial, tuple]

@cache
def _shift(second: PiPolynomial, fourth: PiPolynomial, moment_range: float,
           a: float, b: float) -> tuple[float, float]:
    """Doubles enclosing -(a E V^(2k) / R^k + b E V^(4k) / R^(3k)), the shift
    of :class:`EstimatedSide`'s row (a, b): a constant of the query, so
    computed once per process."""
    r = Fraction(moment_range)
    shift = -(second * (Fraction(a) / r) + fourth * (Fraction(b) / r**3))
    return _outward(*shift.evaluate_interval(30))


class EstimatedSide:
    """A comparand backed by Monte Carlo samples: two betting tests
    (:class:`BettingTest`, ``test``) that the chunks feed, whose confidence
    sequence errs at any time with probability at most ``alpha``.  Given
    ``exact``, the exact side a certification compares it with, the tests
    run against the exact value, and both decide and give the estimate's
    interval; without one, they run on the side's whole range.

    The tests run on samples Y_i in [0, c], c = ``value_range``, from each
    chunk's (n, mean, M2) alone, each tail at ``alpha / 2``.  The chunks of
    ``jobs`` ramp up to a fraction of the chunk size (see :func:`_ramp`).

    Without ``second_moment`` the samples are Y = x = V^k, c = R^k =
    ``moment_range``, where R is the largest simplex volume in the body, and
    ``shift`` is (0, 0).

    With ``second_moment``, the exact E V^(2k), the samples are the bounded
    control variate Y = x (1 + t (a + b t^2)), t = x / R^k, for a fixed row
    of doubles (a, b), and c is R^k top rounded up by a relative 2^-40, top
    the maximum of f(t) = t (1 + a t + b t^3) on [0, 1].  The row is set by
    whether ``fourth_moment``, the exact E V^(4k), is given too:

    * without it, (a, b) = (-1, 0): f(t) = t (1 - t), and top = 1/4, at
      t = 1/2;
    * with it, (a, b) = (``_QUARTIC_A``, ``_QUARTIC_B``), near the minimax
      pair: f lies in [0, 1 + a + b], about [0, 0.1352], with its maximum at
      t = 1 and, less than 2e-9 below it, at t ~ 0.2844, and its minimum 0
      at t = 0 and, about 5e-10 above it, at t ~ 0.7771; top = 1 + a + b.

    E V^k = E Y - (a E V^(2k) / R^k + b E V^(4k) / R^(3k)), and ``shift`` is
    the enclosure of that difference, one exact value, since a, b and R^k
    are rationals.  R^k top must be a normal double, else ValueError.

    Y is computed by Horner's rule (:func:`_quartic_variate`) as fl(x g),
    g = fl(1 + fl(t fl(a + fl(b fl(t t))))), with t = fl(x / R^k) in [0, 1],
    since x <= R^k and rounding is monotone, and x <= R^k t / (1 - u),
    u = 2^-53.  In a ball or half-ball x <= R^k holds because R is rounded
    up by a relative 2^-40 (:func:`_hadamard_bound`).  In a simplex R is its
    volume from ``np.linalg.det``, not rounded up, and the computed volume of
    the body's own vertices can exceed it by an ulp (``simplex_volume`` of
    :func:`unit_area_triangle`'s vertices is 1.0000000000000002, R = 1.0):
    there x <= R^k rests on the condition that no sampled simplex lies
    within about a relative 2^-52 of the whole body.  Then 0 <= Y <= c, by
    one argument per row:

    * Row (-1, 0): b fl(t t) = 0, a + 0 = -1 and t (-1) = -t are exact, so
      g = fl(1 - t), which is >= 0 for t in [0, 1], and Y >= 0.  With
      g <= (1 + u) (1 - t), Y <= (1 + u)^2 x (1 - t)
      <= (1 + u)^2 / (1 - u) R^k t (1 - t) <= (1 + u)^2 / (1 - u) R^k / 4,
      and (1 + u)^2 / (1 - u) < 1 + 2^-51 is well inside the 2^-40.
    * Row (a, b): two facts about the doubles, which the tests check in
      exact arithmetic.  First, g(t) = 1 + a t + b t^3 >= delta = 2^-40 for
      t >= 0: g is convex there, with its minimum 1 + (2a/3) t* at
      t* = sqrt(-a / (3b)), and 4 |a|^3 <= 27 b (1 - delta)^2.  Second,
      f(t) <= 1 + a + b on [0, 1]: f' = 1 + 2a t + 4b t^3 is convex for
      t >= 0 and f'(0) = 1, so f rises to a maximum at the first root of f',
      falls to a minimum at the second and rises again; f' is decreasing on
      a rational bracket [p, q] of the first root, so f <= f(p) + (q - p)
      f'(p) there, below 1 + a + b = f(1).  For t in [0, 1], |a| < 2 and
      b < 1.1, the roundings of t t and b t^2 move the computed g by less
      than 2.2u together, those of a + b t^2 and t (a + b t^2) by less than
      2u each, and that of 1 + t (a + b t^2) by less than u, so it is within
      8u of g(t) >= 2^-40 > 8u.  Hence Y >= 0, as the product of two numbers
      >= 0, and Y is at most (1 + u) x (g(t) + 8u) <= R^k (1 + u) / (1 - u)
      (f(t) + 8u t); 8u / (1 + a + b) < 60u, so Y is within a relative
      2^-46 of R^k (1 + a + b).

    A side on the free 3-half-ball picks its orbit (``partner``) under the
    half-turn rho that negates coordinates 1 and 2: it turns each draw
    (p0, p1, p2, p3) into the eight simplices (p0, rho^s1 p1, rho^s2 p2,
    rho^s3 p3), s in {0, 1}^3, whose determinants come from one
    Laplace expansion (:func:`_orbit_dets`), and its sample is the tree mean
    fl(0.125 fl(fl(fl(y0 + y1) + fl(y2 + y3)) + fl(fl(y4 + y5) + fl(y6 + y7))))
    of their eight values y_i (Y above, or V^k without ``second_moment``).
    rho maps the body onto itself and keeps the uniform measure, so each of
    the eight simplices has the draw's distribution and the sample has E Y
    as its mean: the orbit is a set of antithetic variates (Hammersley &
    Morton, Proc. Cambridge Philos. Soc. 52, 1956).  Draws are i.i.d., and
    so are the samples.  Range: c is a double with c <= R^k <= 1 (R < 0.52
    in the 3-half-ball), so 2c, 4c and 8c are exact doubles.  With each y_i
    in [0, c] and rounding monotone, the pair sums lie in [0, fl(c + c)] =
    [0, 2c], the sums of two pair sums in [0, 4c] and the whole sum in
    [0, 8c]; 0.125 (8c) = c is exact, so the sample lies in [0, c] as
    before, and eight values of c give exactly c.  The tests so hold as
    they are.  The Laplace form computes
    each volume from the raw coordinates, all in [-1, 1]: each of the six
    products is at most 4 in size and within 16u of its value, u = 2^-53,
    and the five sums behind each D_s, none above 24 in size, add at most
    64u.  So the computed |D_s| is within 160u < 2^-45 of |det|, and
    |D_s| / 6 within about 2^-47 of the volume: far under the relative
    2^-40 by which R is rounded up (R 2^-40 > 2^-42), so no computed volume
    exceeds R, as with the differences' determinant.  With the quartic
    variate the orbit's sample has 0.39x the variance of one simplex's
    (2^20 draws), at about 1.5x the cost of a 2,048-draw chunk of single
    simplices.  A side with a fixed vertex has no orbit.

    The sequence's bounds on E Y are moved by ``shift``, from
    ``evaluate_interval(30)`` with both ends rounded outward to doubles, and
    each sum is rounded outward by one ulp, so they bound E V^k with the same
    coverage.  The tests' stakes grow as the samples' variance falls, so the
    control variate decides on fewer samples.  The estimate's mean is then mean(Y)
    plus the shift's midpoint; its variance and standard error are Y's.  The
    control variate's identity holds for Y in exact arithmetic; like V^k's
    own, its computed values are off by a few units in the last place.
    """

    def __init__(self, body: Body, fixed: FixedPointSpec, config: EstimatorConfig, alpha: float,
                 second_moment: PiPolynomial | None = None,
                 fourth_moment: PiPolynomial | None = None, exact: ExactSide | None = None):
        _check_run(body, fixed, config)  # before R is computed
        self.body, self.fixed, self.config, self.alpha = body, fixed, config, alpha
        k = config.k
        try:
            self.moment_range = _max_simplex_volume(body) ** k
        except OverflowError:
            self.moment_range = inf
        if not 0.0 < self.moment_range < inf:
            raise ValueError(f"the range R^{k} of V^{k} in this body, "
                             f"{self.moment_range}, is not a positive finite double")
        self.value_range, self.shift, self.variate = self.moment_range, (0.0, 0.0), None
        if fourth_moment is not None and second_moment is None:
            raise ValueError("the quartic control variate needs E V^(2k) too")
        if second_moment is not None:
            if fourth_moment is None:
                a, b, top, fourth_moment = -1.0, 0.0, 0.25, PiPolynomial.zero()
            else:
                a, b, top = _QUARTIC_A, _QUARTIC_B, _QUARTIC_TOP
            top *= self.moment_range
            if top < 2.0**-1022:
                raise ValueError(f"the control variate's range for R^{k} = "
                                 f"{self.moment_range} is below the normal doubles")
            self.value_range = top * (1.0 + 2.0**-40)
            self.shift = _shift(second_moment, fourth_moment, self.moment_range, a, b)
            self.variate = partial(_quartic_variate, r=self.moment_range, a=a, b=b)
        # the free 3-half-ball's orbit, and no other: in d = 4 the half-turn
        # pair alone gives 0.635x the variance at 1.28-1.30x the cost of a
        # chunk, and the 4-half-ball's scenario stops at chunk 0, so it is left out
        self.partner = (_HALF_TURN_ORBIT if isinstance(body, HalfBall) and body.d == 3
                        and not isinstance(fixed, FixedPoint) else None)
        self.jobs = _ramp(body, fixed, config, self.variate, self.partner)
        self.stats = _EMPTY
        self.chunks = 0
        self.test = BettingTest(self, exact)

    def add(self, chunk: tuple[int, float, float]) -> None:
        self.test.add(self.stats, chunk)
        self.stats = _merge(self.stats, chunk)
        self.chunks += 1

    def bounds(self) -> tuple[float, float]:
        """The interval on E V^k after the chunks added so far, the betting
        tests' confidence sequence; [0, R^k] before the first."""
        return self.test.bounds()

    @property
    def estimate(self) -> MomentEstimate:
        """The estimate so far; its CI is the confidence sequence's."""
        n, mean, m2 = self.stats
        if n == 0:
            raise ValueError("no chunk has been added to this sequence yet")
        mean += (self.shift[0] + self.shift[1]) / 2.0
        return _estimate((n, mean, m2), self.config, self.body, self.fixed, self.bounds())

    def to_json_dict(self) -> dict:
        return {"type": "estimate", "estimate": self.estimate.to_json_dict()}

    def trace_dict(self) -> dict:
        record = {
            "samples": self.stats[0],
            "chunks": self.chunks,
            "budget": self.config.n_samples,
            "alpha": self.alpha,
            "range": self.value_range,
        }
        if self.variate is not None:
            record.update(sample="V^k(1+t(a+b*t^2)),t=V^k/R^k",
                          a=self.variate.keywords["a"], b=self.variate.keywords["b"])
        if self.partner is not None:
            record["partner"] = self.partner
        if self.test.exact is not None:
            record.update(log_wealth=max(self.test.log_wealth), threshold=self.test.threshold,
                          chunk0_stakes=list(_CHUNK0_STAKES))
        return record


#: A bet risks at most this fraction of the wealth on one sample (b in BettingTest).
_MAX_STAKE = 0.5

#: The chunk-0 stakes of BettingTest's mixture, as fractions f of the cap
#: b / l: fixed by hand once, before any seed was run, and not tuned.
_CHUNK0_STAKES = (0.0, 0.05, 0.1, 0.2, 0.4)
#: log K, K = len(_CHUNK0_STAKES): the mixture's log-wealth is at least its
#: best track's less this.
_LOG_TRACKS = log(len(_CHUNK0_STAKES))


def _psi(b: float) -> float:
    """psi(b) = (-log(1 - b) - b) / b^2, rounded up, for 0 <= b <= 0.6.

    For every y >= -b, log(1 + y) >= y - psi(b) y^2 (Fan, Grama & Liu 2015):
    (y - log(1 + y)) / y^2 decreases in y, and equals psi(b) at y = -b.
    psi(b) = sum_{n >= 0} b^n / (n + 2), summed here by Horner's rule to 64
    terms, so that a small b loses nothing to cancellation.  The tail left
    out is below b^64 / (66 (1 - b)), a relative 2^-50 at b = 0.6, and the
    sum of positive terms is rounded by at most a relative 200 u, u = 2^-53;
    raising it by a relative 2^-40 covers both.  psi(0) is the limit 1/2.
    """
    total = 0.0
    for n in range(65, 1, -1):
        total = total * b + 1.0 / n
    return total * (1.0 + 2.0**-40)


@cache
def _psi_step(steps: int) -> float:
    """psi(steps 2^-10), which bounds psi(b) for every b up to it, since psi
    increases: a plug-in stake's b, rounded up to such a step, takes few
    values, each computed once per process."""
    return _psi(steps / 1024.0)


def _growth(stake: float, psi: float, sign: float, m: float,
            chunk: tuple[int, float, float]) -> tuple[float, float, float]:
    """A lower bound on sum log(1 + stake z_i) over a chunk's samples, for
    z_i = sign (Y_i - m) >= -l, from the chunk's (n, mean, M2) alone, as the
    concave quadratic A + B x - C x^2 that the same bound is at m - sign x.

    y = stake z_i >= -b for b = stake l rounded up, and ``psi`` >= psi(b)
    (:func:`_psi`), so each term is at least y - psi y^2; summed, with
    sum z = sign n (mean - m) and sum z^2 = M2 + n (mean - m)^2, that is A,
    the bound at m.  B = n (stake - 2 psi stake^2 sign (mean - m)) and
    C = psi stake^2 n.  For x >= 0, sign (Y_i - (m - sign x)) = z_i + x >= -l
    still, so the bound holds there with the same psi.
    """
    n, mean, m2 = chunk
    gap = mean - m
    curve = psi * stake * stake
    return (stake * sign * n * gap - curve * (m2 + n * gap * gap),
            n * (stake - 2.0 * curve * sign * gap), curve * n)


@cache
def _chunk0_bets(span: float) -> tuple[tuple[float, float], ...]:
    """(stake, psi(b)) of each chunk-0 track for the span l: a constant of the
    query, so computed once per process.  From chunk 1 on, b depends on the
    data (but see :func:`_psi_step`)."""
    stakes = (f * _MAX_STAKE / span for f in _CHUNK0_STAKES)
    return tuple((stake, _psi(nextafter(stake * span, inf))) for stake in stakes)


def _chunk0_growth(sign: float, m: float, span: float, chunk: tuple[int, float, float],
                   ) -> tuple[float, tuple[tuple[float, float, float], ...]]:
    """A lower bound on the log of the mean, over :data:`_CHUNK0_STAKES`, of
    the wealths that staking f b / l on each of chunk 0's samples gives, and
    the :func:`_growth` form of each track's bound.

    Each track's log-wealth L_f is bounded below by its form's A, so
    log((1/K) sum_f exp(A_f)), the log-mean-exp of the bounds, bounds the
    mixture's.  It is summed from the largest bound, which is >= 0 because
    the track f = 0 adds exactly 0, so no term overflows and the result lies
    in [max_f A_f - log K, max_f A_f], K = len(_CHUNK0_STAKES).  Without a cap
    (span 0) every track stakes 0, and every form is 0.
    """
    forms = (((0.0, 0.0, 0.0),) * len(_CHUNK0_STAKES) if span == 0.0 else
             tuple(_growth(stake, psi, sign, m, chunk) for stake, psi in _chunk0_bets(span)))
    bounds = [form[0] for form in forms]
    top = max(bounds)
    return top + log(sum(exp(bound - top) for bound in bounds) / len(bounds)), forms


class BettingTest:
    """Two mirrored one-sided tests by betting of an estimated side's mean,
    each at level alpha / 2 for the side's alpha, and the confidence
    sequence on E V^k that their stakes give (:meth:`bounds`).

    The side's samples Y_i lie in [0, c], c = ``side.value_range``, and
    E V^k is E Y plus a value in ``side.shift`` ([0, 0] without a control
    variate; see :class:`EstimatedSide`).  Against an ``exact`` side,
    ``upper`` is its upper double less the shift's lower end, and ``lower``
    its lower double less the shift's upper end, each rounded outward,
    against the test.  So E Y > upper implies that E V^k exceeds the exact
    value, and E Y < lower that it falls below it.  Without one (two
    estimated sides, or a sequence alone), upper = c and lower = 0.  The up
    test bets on z_i = Y_i - upper, against H0: E Y <= upper; the down test
    on z_i = lower - Y_i, against H0: E Y >= lower.

    Chunk j >= 1 stakes lambda_j >= 0 on each of its samples, fixed by the
    chunks merged before it (Waudby-Smith & Ramdas, "Estimating means of
    bounded random variables by betting", JRSSB 86, 2024), and clipped to
    [0, b / l], where -l is the least value z can take (upper, or c - lower,
    rounded up) and b = 1/2.  Against an exact side it is the Kelly-like
    g / (s^2 + g^2), with g and s^2 the mean and variance of their z;
    without one, their predictable plug-in sqrt(2 log(2 / alpha) /
    (s^2 t log(1 + t))), t the sample count after chunk j, the same for both
    tests, with psi(b) taken at b rounded up to a multiple of 2^-10
    (:func:`_psi_step`).  Chunk 0 has no prior, so each test bets on it with a mixture of
    K = 5 tracks: track f stakes f b / l on chunk 0, for f in
    :data:`_CHUNK0_STAKES` = (0, 0.05, 0.1, 0.2, 0.4), and every track stakes
    lambda_j on chunk j >= 1.  Under H0 each sample's factor 1 + lambda z_i
    has mean at most 1 and is >= 1 - b, so each track's wealth
    W_f = prod (1 + lambda z_i) is a nonnegative supermartingale that starts
    at 1, and so is their mean W = (1/K) sum_f W_f.  By Ville's inequality W
    ever reaches 2 / alpha with probability at most alpha / 2: the test is
    valid at any stopping time.

    The stakes from chunk 1 on depend only on the merged (n, mean, M2), which
    every track shares, so W_f = W0_f W_rest, with W0_f track f's wealth
    after chunk 0, and log W = log((1/K) sum_f W0_f) + log W_rest.
    ``log_wealth`` holds, per test, a lower bound on log W that needs only
    each chunk's (n, mean, M2): for chunk 0 the log-mean-exp of the tracks'
    lower bounds (:func:`_chunk0_growth`), then :func:`_growth`'s bound per
    chunk.  The f = 0 track keeps the chunk-0 term >= -log K, which is all
    an uninformative chunk 0 costs.  A test against an exact side decides
    when its bound reaches ``threshold`` = log(2 / alpha), and so no sooner
    than the mean wealth itself.

    Every stake of the up test is at most b / l, so for every m <= upper the
    same stakes, with the same psi(b), test H0: E Y <= m (:func:`_growth`).
    On that range the wealth prod (1 + lambda (Y_i - m)) does not increase
    as m grows, so a bound that reaches the threshold at m rejects every
    mean up to m.  The down test mirrors it for m >= lower.  Each test's
    bound at m = upper - x, or lower + x, is at least the largest of its
    tracks' less log K, and each track's is one concave quadratic in x, its
    chunk-0 form plus the sum ``rest`` of the later chunks' forms: three
    running sums per test, and closed-form roots.
    """

    def __init__(self, side: EstimatedSide, exact: ExactSide | None = None):
        c = side.value_range
        self.lower, self.upper, self.tests = (
            (0.0, c, ((1.0, c, c), (-1.0, 0.0, c))) if exact is None
            else _betting_tests(exact.bounds(), side.shift, c))
        self.exact, self.shift, self.moment_range = exact, side.shift, side.moment_range
        self.threshold = log(2.0 / side.alpha)
        self.log_wealth = [0.0, 0.0]  # the up test's, then the down test's
        self.tracks = [(), ()]  # per test, each chunk-0 track's form
        self.rest = [(0.0, 0.0, 0.0)] * 2  # per test, the sum of the later chunks' forms

    def add(self, prior: tuple[int, float, float], chunk: tuple[int, float, float]) -> None:
        """Bet on ``chunk``, staking by ``prior``, the merged chunks before it."""
        for i, (sign, m, span) in enumerate(self.tests):
            if prior[0] == 0:  # chunk 0: the mixture of fixed stakes
                bound, self.tracks[i] = _chunk0_growth(sign, m, span, chunk)
                self.log_wealth[i] += bound
            elif (bet := self._bet(sign, m, span, prior, chunk[0])) is not None:
                (a, b, c), (rest_a, rest_b, rest_c) = _growth(*bet, sign, m, chunk), self.rest[i]
                self.log_wealth[i] += a
                self.rest[i] = (rest_a + a, rest_b + b, rest_c + c)

    def _bet(self, sign: float, m: float, span: float, prior: tuple[int, float, float],
             n: int) -> tuple[float, float] | None:
        """(lambda_j, psi(b)) for a chunk of ``n`` samples after ``prior``,
        or None for a stake of 0."""
        n_prior, mean_prior, m2_prior = prior
        cap = _MAX_STAKE / span if span > 0.0 else inf
        if self.exact is None:  # the plug-in; psi at b rounded up to a step
            scale = m2_prior / n_prior * (n_prior + n) * log1p(n_prior + n)
            stake = min(sqrt(2.0 * self.threshold / scale), cap) if scale > 0.0 else cap
            return stake, _psi_step(ceil(nextafter(stake * span, inf) * 1024.0))
        g = sign * (mean_prior - m)
        if g <= 0.0:
            return None
        stake = min(1.0 / (m2_prior / n_prior / g + g), cap)  # g / (variance + g^2), capped
        return stake, _psi(nextafter(stake * span, inf))

    def decision(self) -> int:
        """1 when the up test has decided (E V^k above the exact value), -1
        when the down test has, else 0."""
        up, down = self.log_wealth
        return 1 if up >= self.threshold else -1 if down >= self.threshold else 0

    def bounds(self) -> tuple[float, float]:
        """The confidence sequence on E V^k: the means that neither test has
        rejected, each end moved by its end of the shift and rounded outward.

        An end is the range edge (0 or R^k) where its test rejects no mean.
        A test that has decided against the exact side rejects every mean
        up to ``upper`` (down to ``lower``), and E V^k then lies beyond the
        exact side's upper (lower) double, since upper + the shift's lower end
        is at least that double: that double is the end.
        """
        ends = []
        for i, (sign, m, _) in enumerate(self.tests):
            if self.exact is not None and self.log_wealth[i] >= self.threshold:
                ends.append(self.exact.bounds()[1 - i])
                continue
            # x, the least distance beyond m at which a track's bound, less log K,
            # reaches the threshold: where its form A + B x - C x^2 rises through
            # it, the nearer root 2 gap / (B + sqrt(disc)); x = inf (no track's
            # does) gives the range edge
            (rest_a, rest_b, rest_c), x = self.rest[i], inf
            target = self.threshold + _LOG_TRACKS - rest_a
            for a, b, c in self.tracks[i]:
                gap, b = target - a, b + rest_b
                disc = b * b - 4.0 * (c + rest_c) * gap
                if gap <= 0.0:
                    x = 0.0
                elif b > 0.0 and disc >= 0.0:
                    x = min(x, 2.0 * gap / (b + sqrt(disc)))
            end = nextafter(m - sign * x + self.shift[i], -sign * inf)
            ends.append(max(end, 0.0) if sign > 0 else min(end, self.moment_range))
        return ends[0], ends[1]


@cache
def _betting_tests(exact: tuple[float, float], shift: tuple[float, float], value_range: float,
                   ) -> tuple[float, float, tuple[tuple[float, float, float], ...]]:
    """:class:`BettingTest`'s lower, upper and per test the sign of
    z = +-(Y - m), m, and l = -min z, rounded up: constants of the query, so
    computed once per process."""
    (lo, hi), (shift_lo, shift_hi) = exact, shift
    lower, upper = _outward(Fraction(lo) - Fraction(shift_hi), Fraction(hi) - Fraction(shift_lo))
    return lower, upper, ((1.0, upper, max(upper, 0.0)),
                          (-1.0, lower, max(nextafter(value_range - lower, inf), 0.0)))


def _relation(lhs, rhs) -> str:
    """The relation decided so far: by a tested side's :class:`BettingTest`,
    else by whether one side's bounds clear the other's."""
    for sign, side in ((1, lhs), (-1, rhs)):
        if isinstance(side, EstimatedSide) and side.test.exact is not None:
            return _RELATIONS[sign * side.test.decision()]
    lhs_lo, lhs_hi = lhs.bounds()
    rhs_lo, rhs_hi = rhs.bounds()
    if lhs_lo > rhs_hi:
        return LHS_GREATER
    if rhs_lo > lhs_hi:
        return RHS_GREATER
    return INCONCLUSIVE


def certify_counterexample(lhs: MomentSpec, rhs: MomentSpec,
                           config: EstimatorConfig) -> CounterexampleVerdict:
    """Compare two moment quantities, each exact or estimated, and stop as
    soon as the comparison is decided.

    A side is either an exact :class:`PiPolynomial` or a (body, fixed, k)
    triple estimated with ``config`` (the right side, when estimated, uses
    seed+1 so both sides are independent); ``config.n_samples`` is each
    estimated side's budget.  A fourth element, the exact E V^(2k), makes
    the side sample the bounded control variate of :class:`EstimatedSide`,
    and a fifth, the exact E V^(4k), selects its quartic row: the same
    draws, in a narrower range.  The sides draw chunk i in turn, in the
    caller's thread, and the run stops at the first chunk index after which
    the verdict certifies a strict inequality:

    * one side exact: when the estimated side's :class:`BettingTest` decides,
      in either direction; its two tests have alpha / 2 each, alpha =
      1 - confidence.  The side's interval is the tests' confidence
      sequence, so a decided run's excludes the exact value;
    * both estimated: when one side's confidence sequence, from betting tests
      of its own, clears the other's; each errs with probability at most
      alpha / 2.

    So a certified relation holds with probability at least
    ``config.confidence``, wherever the run stops.  If the budget runs out
    first, the verdict is inconclusive.  Two exact sides are compared by the
    certified sign of their difference, and equal ones are inconclusive.
    """
    specs = (lhs, rhs)
    n_estimated = sum(not isinstance(spec, PiPolynomial) for spec in specs)
    alpha = (1.0 - config.confidence) / max(n_estimated, 1)
    sides = [ExactSide(spec) if isinstance(spec, PiPolynomial) else spec for spec in specs]
    exact = next((side for side in sides if isinstance(side, ExactSide)), None)
    for offset, spec in enumerate(specs):
        if not isinstance(spec, PiPolynomial):  # tested against the exact side, if any
            body, fixed, k, *moments = spec
            side_config = replace(config, k=k, seed=(config.seed + offset) % 2**64)
            sides[offset] = EstimatedSide(body, fixed, side_config, alpha, *moments, exact=exact)
    running = [side for side in sides if isinstance(side, EstimatedSide)]
    relation = INCONCLUSIVE if running else _RELATIONS[(lhs - rhs).sign()]
    # chunk i of each estimated side per index
    for jobs in zip(*(side.jobs for side in running)):
        for side, job in zip(running, jobs):
            side.add(_chunk_stats(*job))
        relation = _relation(*sides)
        if relation != INCONCLUSIVE:
            break
    return CounterexampleVerdict(
        lhs=sides[0], rhs=sides[1], relation=relation, confidence=config.confidence
    )
