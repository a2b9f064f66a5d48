"""Exact integer/rational arithmetic helpers.

All regime parameters (mu, c, epsilon) are carried as `Fraction`, so that
thresholds of the form ``x >= n**e`` reduce to integer comparisons and never
depend on floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce a CLI/config value to an exact Fraction.

    Strings go through Fraction's parser, so "0.2" means exactly 1/5 and
    "1/3" stays 1/3.  Floats are rejected: the caller should pass the
    decimal string instead of a binary approximation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def _floor_root(base: int, exponent) -> tuple[int, bool]:
    """(floor(base ** exponent), whether it is exact) for base, exponent >= 0.

    A log-space estimate settles the answer unless the root lies within
    its rounding error of an integer (a large root, or an exact or
    near-exact power); only then are integer powers compared.
    """
    if base < 0:
        raise ValueError("base must be non-negative")
    exponent = Fraction(exponent)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    p, q = exponent.numerator, exponent.denominator
    if base in (0, 1) or p == 0:
        return (1 if p == 0 else base), True
    log_root = p / q * math.log(base)
    # exp() overflows past e**709: estimate the leading 60 bits, then shift.
    shift = max(0, int(log_root / math.log(2)) - 60)
    k = int(math.exp(log_root - shift * math.log(2))) << shift
    slack = 1e-12 * max(1.0, log_root)
    if math.log(k) < log_root - slack and math.log(k + 1) > log_root + slack:
        return k, False
    target = base**p
    k += 1 + (k >> 30)
    while k**q <= target:
        k *= 2
    # Integer Newton steps from above stop at the floor of the root.
    while True:
        below = ((q - 1) * k + target // k ** (q - 1)) // q
        if below >= k:
            return k, k**q == target
        k = below


def ipow_floor(base: int, exponent: Fraction) -> int:
    """floor(base ** exponent), exactly, for base >= 0 and exponent >= 0."""
    return _floor_root(base, exponent)[0]


def ipow_ceil(base: int, exponent: Fraction) -> int:
    """ceil(base ** exponent), exactly, for base >= 0 and exponent >= 0."""
    k, exact = _floor_root(base, exponent)
    return k if exact else k + 1


def pow_threshold(base: int, exponent: Fraction) -> int:
    """Smallest integer t >= 1 with t >= base**exponent.

    Exponents <= 0 give threshold, since base**e <= 1 there and the
    algorithms compare positive integer degrees against it.
    """
    if exponent <= 0:
        return 1
    return ipow_ceil(base, exponent)


def exceeds_pow(value: int, coeff: int, base: int, exponent: Fraction) -> bool:
    """Exact test ``value > coeff * base**exponent`` for non-negative ints."""
    exponent = Fraction(exponent)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    p, q = exponent.numerator, exponent.denominator
    if value < 0:
        return False
    return value**q > coeff**q * base**p


def log_ceil(count: int, base: int) -> int:
    """ceil(log_base(count)) for count >= 1, base >= 2 (0 when count == 1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if base < 2:
        raise ValueError("base must be >= 2")
    rounds = 0
    reach = 1
    while reach < count:
        reach *= base
        rounds += 1
    return rounds


def harmonic(k: int) -> Fraction:
    """H_k = sum_{i=1}^{k} 1/i, exactly."""
    total = Fraction(0)
    for i in range(1, k + 1):
        total += Fraction(1, i)
    return total


def frac_str(x: Fraction) -> str:
    """Canonical rendering: "p" for integers, "p/q" otherwise."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_decimal(x: Fraction, places: int = 6) -> str:
    """Fixed-point decimal rendering (round half away from zero)."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    scale = 10**places
    scaled = x * scale
    whole = scaled.numerator // scaled.denominator
    if (scaled - whole) * 2 >= 1:
        whole += 1
    return f"{sign}{whole // scale}.{whole % scale:0{places}d}"
