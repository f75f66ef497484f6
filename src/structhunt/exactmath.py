"""Exact arithmetic helpers.

All threshold comparisons in this package are exact: densities and degree
bounds are Fractions, and the handful of irrational thresholds that appear
(multiples of square roots and fourth roots of rational parameters) are
compared by raising both sides to the appropriate power.  No floats ever
decide a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class MissingParameter(TypeError):
    """A required numeric parameter is absent (None where a rational is due)."""


def frac(x) -> Fraction:
    """Coerce ints, Fractions and exact strings like '3/4' to Fraction."""
    if x is None:
        raise MissingParameter("missing numeric parameter (got None)")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r; pass an exact rational" % (x,))
    raise TypeError("not an exact rational: %r" % (x,))


class RootVal:
    """An exact value of the form coef * radicand**(1/degree).

    coef and radicand are nonnegative rationals, degree is 1, 2 or 4.  This
    is just enough to express thresholds like sqrt(c)*k or c**(1/4)*k/2 and
    compare them exactly against rationals (by powering both sides).
    """

    __slots__ = ("coef", "radicand", "degree")

    def __init__(self, coef, radicand=1, degree=1):
        coef = frac(coef)
        radicand = frac(radicand)
        if coef < 0 or radicand < 0:
            raise ValueError("RootVal requires nonnegative parts")
        if degree not in (1, 2, 4):
            raise ValueError("unsupported root degree %r" % (degree,))
        if degree == 1:
            coef, radicand = coef * radicand, Fraction(1)
        self.coef = coef
        self.radicand = radicand
        self.degree = degree

    def __mul__(self, other):
        if isinstance(other, RootVal):
            if other.degree == 1:
                return RootVal(self.coef * other.coef, self.radicand, self.degree)
            if self.degree == 1:
                return RootVal(self.coef * other.coef, other.radicand, other.degree)
            if self.degree == other.degree:
                return RootVal(self.coef * other.coef,
                               self.radicand * other.radicand, self.degree)
            raise ValueError("cannot multiply mixed root degrees")
        return RootVal(self.coef * frac(other), self.radicand, self.degree)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return RootVal(self.coef / frac(other), self.radicand, self.degree)

    def sqrt(self):
        """Square root; beyond plain rationals, coef must be a perfect square."""
        if self.degree == 1:
            return sqrt_val(self.coef)
        r = _exact_sqrt(self.coef)
        if r is None:
            raise ValueError("sqrt of RootVal with non-square coef %s" % (self.coef,))
        if self.degree == 2:
            return RootVal(r, self.radicand, 4)
        raise ValueError("cannot take sqrt of a fourth root")

    def _cmp(self, other) -> int:
        """Exact three-way comparison against a rational or RootVal."""
        if isinstance(other, RootVal):
            if other.degree == 1:
                return self._cmp(other.coef)
            if self.degree == 1:
                return -other._cmp(self.coef)
            if self.degree == other.degree:
                a = self.coef ** self.degree * self.radicand
                b = other.coef ** other.degree * other.radicand
                return (a > b) - (a < b)
            # degrees 2 vs 4: raise both to the 4th power
            lo, hi = (self, other) if self.degree < other.degree else (other, self)
            a = lo.coef ** 4 * lo.radicand ** 2
            b = hi.coef ** 4 * hi.radicand
            sign = 1 if lo is self else -1
            return sign * ((a > b) - (a < b))
        v = frac(other)
        if v < 0:
            return 1  # self is nonnegative
        a = self.coef ** self.degree * self.radicand
        b = v ** self.degree
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.coef, self.radicand, self.degree))

    def __float__(self):
        return float(self.coef) * float(self.radicand) ** (1.0 / self.degree)

    def __repr__(self):
        if self.degree == 1:
            return "RootVal(%s)" % (self.coef,)
        return "RootVal(%s * %s^(1/%d))" % (self.coef, self.radicand, self.degree)


def _exact_sqrt(q: Fraction):
    """Return sqrt(q) as a Fraction if q is a perfect square, else None."""
    from math import isqrt

    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_val(x) -> RootVal:
    """Exact sqrt(x) of a nonnegative rational, as a comparable value."""
    r = _exact_sqrt(frac(x))
    if r is not None:
        return RootVal(r)
    return RootVal(1, frac(x), 2)


def root4_val(x) -> RootVal:
    """Exact x**(1/4) of a nonnegative rational, as a comparable value."""
    q = frac(x)
    r = _exact_sqrt(q)
    if r is not None:
        return sqrt_val(r)
    return RootVal(1, q, 4)


def le_frac_pow(diff, base, num: int, den: int) -> bool:
    """diff <= base**(num/den), exactly, for rational diff and base >= 0.

    Used for the fractional-power slack terms (k^0.9, n^0.9, (kn)^0.6):
    both sides are raised to the den-th power, so no floats decide.
    """
    diff = frac(diff)
    if diff <= 0:
        return True
    base = frac(base)
    return diff ** den <= base ** num


def ge_with_pow_slack(measured, wanted, slack_base, num: int, den: int,
                      slack_scale=1) -> bool:
    """measured >= wanted - slack_scale * slack_base**(num/den), exactly."""
    shortfall = frac(wanted) - frac(measured)
    scale = frac(slack_scale)
    if shortfall <= 0:
        return True
    if scale <= 0:
        return False
    return le_frac_pow(shortfall / scale, slack_base, num, den)


def floor_root(x, r: int) -> int:
    """floor(x**(1/r)) for a nonnegative rational x, exactly.

    Lets hot loops compare an integer LHS against an irrational bound with
    one precomputed integer: LHS <= x**(1/r) iff LHS <= floor_root(x, r).
    """
    x = frac(x)
    if x < 0:
        raise ValueError("negative radicand")
    hi = 1
    while hi ** r * x.denominator <= x.numerator:
        hi *= 2
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** r * x.denominator <= x.numerator:
            lo = mid
        else:
            hi = mid
    return lo


def floor_val(x) -> int:
    """floor(x) for a rational or a RootVal, exactly.

    For a RootVal c * x**(1/r) this is floor_root(c**r * x, r); an integer
    n then exceeds x exactly when n >= floor_val(x) + 1.
    """
    if isinstance(x, RootVal):
        return floor_root(x.coef ** x.degree * x.radicand, x.degree)
    x = frac(x)
    return x.numerator // x.denominator


def ceil_val(x) -> int:
    """The least integer c with cmp_ge(c, x), for a rational or a RootVal.

    Lets a degree loop test an integer against a fixed bound with one
    integer comparison: deg >= x iff deg >= ceil_val(x).
    """
    c = floor_val(x)
    return c if cmp_ge(c, x) else c + 1


def cmp_le(measured, bound) -> bool:
    """measured <= bound with mixed Fraction / RootVal operands."""
    if isinstance(bound, RootVal):
        return bound >= measured
    if isinstance(measured, RootVal):
        return measured <= bound
    return frac(measured) <= frac(bound)


def cmp_ge(measured, bound) -> bool:
    """measured >= bound with mixed Fraction / RootVal operands."""
    if isinstance(bound, RootVal):
        return bound <= measured
    if isinstance(measured, RootVal):
        return measured >= bound
    return frac(measured) >= frac(bound)
