"""Exact arithmetic for rational combinations of half-integer powers of pi.

Every closed-form constant produced by this package lives in the ring

    Q[sqrt(pi), 1/sqrt(pi)] = { sum_h c_h * pi^(h/2) : c_h rational, h integer },

because the gamma function at half-integer arguments contributes exactly one
factor of sqrt(pi).  A :class:`PiPolynomial` stores the finite map h -> c_h in
canonical form (no zero coefficients), so equality of values is structural
equality of representations.

Numeric output (decimal strings, signs, comparisons) is certified with
interval arithmetic in plain integers, at a working precision that escalates
until the result is unambiguous, so no printed digit or comparison can be
wrong by rounding.  sqrt(pi) is the only irrational number involved: pi is
summed in binary fixed point from Machin's formula
16 atan(1/5) - 4 atan(1/239), with a proven count of the series' error, and
sqrt(pi) is enclosed from it by math.isqrt, rounded outward (cached per
precision).  Each term c * sqrt(pi)^h is monotone in sqrt(pi), so its ends
come from the two ends of that enclosure, chosen by the signs of c and h.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, total_ordering
from math import factorial, isqrt
from typing import Iterator, Mapping

# Rational values: arbitrary-precision numerator, positive denominator,
# gcd-reduced.  Fraction maintains exactly these invariants.
Rational = Fraction

_ZERO = Fraction(0)

#: Starting precision (significant decimal digits) for certified comparisons.
DEFAULT_COMPARISON_DIGITS = 50
#: Hard cap on escalation.  A nonzero element of the ring is a nonzero value
#: (pi is transcendental), so escalation terminates; the cap guards bugs.
MAX_COMPARISON_DIGITS = 1000


class PrecisionError(ArithmeticError):
    """Raised when a certified comparison exhausts the precision cap."""


def _atan_inv(x: int, one: int) -> tuple[int, int]:
    """(a, n) with |a - one * atan(1/x)| < n, for integers x >= 2 and one >= 1.

    Proof: atan(1/x) * one = sum_j (-1)^j t_j with t_j = one / ((2j+1) x^(2j+1)).
    For positive integers a, b, c, (a // b) // c == a // (b * c), so ``power``
    is floor(one / x^(2j+1)) and each summed term is floor(t_j), low by less
    than 1.  The loop stops at the first j = N with ``power`` 0, that is
    one < x^(2N+1), so t_N < 1; the t_j decrease, so the alternating tail from
    N is at most t_N.  N terms are summed: the error is below N + 1.
    """
    power = one // x
    total = j = 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        power //= x * x
        j += 1
    return total, j + 1


@cache
def _sqrt_pi(bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= sqrt(pi) * 2^bits <= hi and hi - lo <= 3."""
    # pi = 16 atan(1/5) - 4 atan(1/239) (Machin), summed ``guard`` bits finer
    # than 2^-bits: the error count 16 n5 + 4 n239 stays below 2^guard / 2
    guard = bits.bit_length() + 8
    one = 1 << (bits + guard)
    a5, n5 = _atan_inv(5, one)
    a239, n239 = _atan_inv(239, one)
    pi, err = 16 * a5 - 4 * a239, 16 * n5 + 4 * n239
    pi_lo = (pi - err) >> guard
    pi_hi = -(-(pi + err) >> guard)
    # pi * 4^bits lies in [pi_lo, pi_hi] * 2^bits, and isqrt(m) <= sqrt(m) < isqrt(m) + 1
    return isqrt(pi_lo << bits), isqrt(pi_hi << bits) + 1


def _term(c: Fraction, h: int, s: int, bits: int) -> tuple[int, int]:
    """c * (s / 2^bits)^h as (numerator, positive denominator)."""
    if h >= 0:
        return c.numerator * s**h, c.denominator << bits * h
    return c.numerator << bits * -h, c.denominator * s**-h


def _scaled(num: int, den: int, shift: int, up: bool) -> int:
    """num / den * 2^shift, rounded down, or up if ``up``."""
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return -(-num // den) if up else num // den


def _coerce(value) -> "PiPolynomial | None":
    if isinstance(value, PiPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return PiPolynomial({0: Fraction(value)})
    return None


@total_ordering
class PiPolynomial:
    """A number of the form sum_h coef(h) * pi^(h/2), held exactly.

    Instances are immutable and hashable; all arithmetic returns new values.
    ints and Fractions mix freely as operands.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        canon: dict[int, Fraction] = {}
        if terms:
            for h, c in terms.items():
                c = Fraction(c)
                if c:
                    h = int(h)
                    acc = canon.get(h, _ZERO) + c
                    if acc:
                        canon[h] = acc
                    else:
                        canon.pop(h, None)
        object.__setattr__(self, "_terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("PiPolynomial is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "PiPolynomial":
        return cls({0: Fraction(value)})

    @classmethod
    def zero(cls) -> "PiPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "PiPolynomial":
        return cls({0: 1})

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        """Canonical terms as a fresh dict mapping h to the coefficient of pi^(h/2)."""
        return dict(self._terms)

    def half_powers(self) -> list[int]:
        return sorted(self._terms)

    def coefficient(self, h: int) -> Fraction:
        return self._terms.get(h, _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    def to_rational(self) -> Fraction:
        """The value as a Fraction; raises if a pi power is present."""
        if not self._terms:
            return _ZERO
        if set(self._terms) == {0}:
            return self._terms[0]
        raise ValueError(f"{self} is not rational")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "PiPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for h, c in other._terms.items():
            merged[h] = merged.get(h, _ZERO) + c
        return PiPolynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "PiPolynomial":
        return PiPolynomial({h: -c for h, c in self._terms.items()})

    def __sub__(self, other) -> "PiPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PiPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "PiPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        prod: dict[int, Fraction] = {}
        for ha, ca in self._terms.items():
            for hb, cb in other._terms.items():
                h = ha + hb
                prod[h] = prod.get(h, _ZERO) + ca * cb
        return PiPolynomial(prod)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("PiPolynomial division by zero")
        if len(other._terms) != 1:
            raise ValueError("PiPolynomial division requires a single-term divisor")
        (hd, cd), = other._terms.items()
        return PiPolynomial({h - hd: c / cd for h, c in self._terms.items()})

    def __rtruediv__(self, other) -> "PiPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "PiPolynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (PiPolynomial.one() / self) ** (-n)
        result = PiPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- equality and ordering -----------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.to_rational())
        return hash(tuple(sorted(self._terms.items())))

    def sign(self) -> int:
        """Certified sign: -1, 0 or +1.

        Zero is decided structurally; otherwise interval evaluation escalates
        precision until the enclosure excludes zero.
        """
        if not self._terms:
            return 0
        if self.is_rational:
            q = self._terms[0]
            return (q > 0) - (q < 0)
        digits = DEFAULT_COMPARISON_DIGITS
        while True:
            lo, hi = self.evaluate_interval(digits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if digits >= MAX_COMPARISON_DIGITS:
                raise PrecisionError(
                    f"sign of {self} undecided at {digits} digits"
                )
            digits = min(2 * digits, MAX_COMPARISON_DIGITS)

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    # -- numeric evaluation ----------------------------------------------------

    def evaluate_interval(self, digits: int) -> tuple[Fraction, Fraction]:
        """A guaranteed enclosure [lo, hi] of the value, as exact Fractions.

        lo <= value <= hi holds unconditionally, and the width is about
        10^-(digits + 5) times the largest term.
        """
        if not self._terms:
            return (_ZERO, _ZERO)
        work = digits * 10 // 3 + 20  # bits; 10/3 > log2(10)
        # a power h multiplies the relative error of sqrt(pi) by |h|
        bits = work + max(map(abs, self._terms)).bit_length() + 4
        s_lo, s_hi = _sqrt_pi(bits)
        lows, highs = [], []
        for h, c in self._terms.items():
            # c * x^h is increasing in x > 0 exactly when c and h share a sign
            rising = (c > 0) == (h > 0)
            lows.append(_term(c, h, s_lo if rising else s_hi, bits))
            highs.append(_term(c, h, s_hi if rising else s_lo, bits))
        # round every end outward to one scale, ``work`` bits below the largest term
        shift = work - max(n.bit_length() - d.bit_length() for n, d in lows)
        unit = Fraction(2) ** -shift
        return (sum(_scaled(n, d, shift, False) for n, d in lows) * unit,
                sum(_scaled(n, d, shift, True) for n, d in highs) * unit)

    def to_decimal(self, digits: int) -> str:
        """Decimal string with the first ``digits`` significant digits certified.

        Truncates the exact decimal expansion toward zero; every printed digit
        is a true digit of the value.  Zero prints as "0." followed by
        ``digits`` zeros.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if not self._terms:
            return "0." + "0" * digits
        if self.is_rational:
            return _truncate_rational(self._terms[0], digits)
        prec = max(digits + 10, DEFAULT_COMPARISON_DIGITS)
        while True:
            lo, hi = self.evaluate_interval(prec)
            if (lo > 0) == (hi > 0) and lo != 0 and hi != 0:
                s_lo = _truncate_rational(lo, digits)
                s_hi = _truncate_rational(hi, digits)
                if s_lo == s_hi:
                    return s_lo
            if prec >= MAX_COMPARISON_DIGITS + digits:
                raise PrecisionError(
                    f"decimal expansion of {self} undecided at {prec} digits"
                )
            prec = 2 * prec

    def to_float(self) -> float:
        """Nearest double, via a 30-significant-digit certified decimal."""
        if self.is_rational:
            return float(self._terms.get(0, _ZERO))
        return float(self.to_decimal(30))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: {"terms": [{"h": int, "num": str, "den": str}]}, h ascending."""
        return {
            "terms": [
                {
                    "h": h,
                    "num": str(self._terms[h].numerator),
                    "den": str(self._terms[h].denominator),
                }
                for h in sorted(self._terms)
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PiPolynomial":
        terms = {
            int(t["h"]): Fraction(int(t["num"]), int(t["den"]))
            for t in data["terms"]
        }
        return cls(terms)

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for h in sorted(self._terms):
            c = self._terms[h]
            mag = _format_term(abs(c), h)
            if not parts:
                parts.append(mag if c > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PiPolynomial({self._terms!r})"

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._terms.items()))


def _format_term(coef: Fraction, h: int) -> str:
    if h == 0:
        return str(coef)
    if h == 2:
        p = "pi"
    elif h % 2 == 0:
        p = f"pi^{h // 2}"
    else:
        p = f"pi^({h}/2)"
    if coef == 1:
        return p
    return f"{coef}*{p}"


def _truncate_rational(q: Fraction, digits: int) -> str:
    """First ``digits`` significant digits of q, truncated toward zero."""
    if q == 0:
        return "0." + "0" * digits
    sign = "-" if q < 0 else ""
    p, d = abs(q).numerator, abs(q).denominator
    # decimal exponent e with 10^e <= p/d < 10^(e+1), from an estimate by
    # bit lengths (log10(2) ~ 0.30103) that the loops below correct
    e = (p.bit_length() - d.bit_length()) * 30103 // 100000
    while p * 10 ** max(0, -e) < d * 10 ** max(0, e):
        e -= 1
    while p * 10 ** max(0, -(e + 1)) >= d * 10 ** max(0, e + 1):
        e += 1
    shift = digits - 1 - e
    if shift >= 0:
        mant = p * 10**shift // d
    else:
        mant = p // (d * 10**-shift)
    s = str(mant)
    if e < 0:
        return f"{sign}0." + "0" * (-e - 1) + s
    if e + 1 >= digits:
        return sign + s + "0" * (e + 1 - digits)
    return sign + s[: e + 1] + "." + s[e + 1 :]


def to_decimal(value: PiPolynomial, digits: int) -> str:
    """Certified truncated decimal of ``value`` to ``digits`` significant digits."""
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"cannot render {value!r}")
    return coerced.to_decimal(digits)


PI = PiPolynomial({2: 1})
SQRT_PI = PiPolynomial({1: 1})


def pi_power(h: int) -> PiPolynomial:
    """pi^(h/2) as an exact single-term value."""
    return PiPolynomial({h: 1})


def gamma_half_parts(two_n: int) -> tuple[int, int, int]:
    """Gamma(two_n / 2) as integers (num, den, h): num / den * pi^(h/2).

    Even arguments give (two_n/2 - 1)! with h = 0.  Odd arguments give
    Gamma(m + 1/2) = (2m)! / (4^m m!) * sqrt(pi) = (2m - 1)!! / 2^m * sqrt(pi)
    with m = (two_n - 1)/2 and h = 1.  den is a power of two and the fraction
    is not reduced: products of these parts are normalised once, by the caller.
    """
    if two_n <= 0:
        raise ValueError(f"gamma_half requires a positive argument, got {two_n}")
    if two_n % 2 == 0:
        return factorial(two_n // 2 - 1), 1, 0
    m = (two_n - 1) // 2
    return factorial(2 * m) // (factorial(m) << m), 1 << m, 1


def gamma_half(two_n: int) -> PiPolynomial:
    """Gamma(two_n / 2), exact (see :func:`gamma_half_parts`)."""
    num, den, h = gamma_half_parts(two_n)
    return PiPolynomial({h: Fraction(num, den)})


def kappa(d: int) -> PiPolynomial:
    """Volume of the d-dimensional unit ball: pi^(d/2) / Gamma(1 + d/2)."""
    if d <= 0:
        raise ValueError(f"kappa requires dimension >= 1, got {d}")
    return pi_power(d) / gamma_half(d + 2)


def omega(d: int) -> PiPolynomial:
    """Surface measure of the (d-1)-sphere bounding the unit d-ball: d * kappa(d)."""
    if d <= 0:
        raise ValueError(f"omega requires dimension >= 1, got {d}")
    return kappa(d) * d
