"""Exact arithmetic, the package's random draws, and the collector pause.

All regime parameters (mu, c, epsilon) are carried as `Fraction`, so that
thresholds of the form ``x >= n**e`` reduce to integer comparisons and never
depend on floating point.

Every random value is drawn here from a ``random.Random``'s Mersenne Twister
core, ``getrandbits`` and ``random``.  ``below`` and ``sample`` make the calls
``Random.randrange`` and ``Random.sample`` make, so they give the same values
in the same order; outputs depend on this code, not on those methods.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from operator import neg


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
        lower = ((q - 1) * k + target // k ** (q - 1)) // q
        if lower >= k:
            return k, k**q == target
        k = lower


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


def alpha_classes(mu: Fraction, den: int) -> tuple[Fraction, int]:
    """The phase exponent alpha = mu/den (1/den at mu = 0) and the number
    ceil(1/alpha) of degree or size classes it splits [0, 1] into."""
    alpha = Fraction(mu, den) if mu > 0 else Fraction(1, den)
    return alpha, -(-alpha.denominator // alpha.numerator)


def size_class(class_lo: list[int], classes: int, size: int) -> int:
    """The class of a count ``size`` >= 1: the least ci in 1..classes with
    size >= class_lo[ci].

    class_lo[ci] is pow_threshold(base, 1 - ci*alpha) with classes*alpha
    >= 1, so class_lo[1..classes] is non-increasing and its negation is
    sorted, and class_lo[classes] = 1 stops the bisection there at the
    latest.
    """
    return bisect_left(class_lo, -size, 1, classes, key=neg)


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


def below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn as Random._randbelow draws it."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def sample(rng, population, k: int) -> list:
    """``Random.sample(population, k)``: the same picks from the same
    ``getrandbits`` calls, in both of its branches."""
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    getrandbits, picks = rng.getrandbits, [None] * k
    if n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0):
        pool = list(population)  # each pick's place takes the last unpicked item
        for i in range(k):
            j = below(getrandbits, n - i)
            picks[i] = pool[j]
            pool[j] = pool[n - i - 1]
        return picks
    bits, selected = n.bit_length(), set()
    for i in range(k):  # a repeat is redrawn as _randbelow redraws a value >= n
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        picks[i] = population[j]
    return picks


def binomial(rng, trials: int, p: float) -> int:
    """Binomial(trials, p) by geometric skip sampling: O(trials*p) expected."""
    if p <= 0 or trials <= 0:
        return 0
    if p >= 1:
        return trials
    log_q, random, log = math.log1p(-p), rng.random, math.log
    count = pos = 0
    while True:
        pos += 1 + int(log(1.0 - random()) / log_q)
        if pos > trials:
            return count
        count += 1


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector in the block; restore it after."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
