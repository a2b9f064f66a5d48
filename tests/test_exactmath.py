from fractions import Fraction

import pytest

from mpcgraph.exactmath import (
    as_fraction,
    exceeds_pow,
    frac_decimal,
    frac_str,
    harmonic,
    ipow_ceil,
    ipow_floor,
    log_ceil,
    pow_threshold,
)


def test_ipow_floor_examples():
    # floor(100^1.3) = 398, computed with the exact integer routine.
    assert ipow_floor(100, Fraction("13/10")) == 398
    assert ipow_floor(4, Fraction(1)) == 4
    assert ipow_floor(2, Fraction(0)) == 1
    assert ipow_floor(9, Fraction(1, 2)) == 3
    assert ipow_floor(10, Fraction(1, 2)) == 3
    assert ipow_ceil(10, Fraction(1, 2)) == 4
    assert ipow_ceil(9, Fraction(1, 2)) == 3


def test_ipow_matches_float_on_smooth_cases():
    for base in (2, 7, 100, 2048):
        for num, den in ((1, 5), (3, 10), (6, 5), (7, 5)):
            exact = ipow_floor(base, Fraction(num, den))
            approx = base ** (num / den)
            assert abs(exact - approx) <= 1.0


def reference_ipow_floor(base: int, exponent: Fraction) -> int:
    """The float-guess-then-step routine: exact, but it raises base to the
    numerator and its guess overflows for large bases."""
    p, q = exponent.numerator, exponent.denominator
    if base in (0, 1) or p == 0:
        return 1 if p == 0 else base
    target = base**p
    k = max(1, int(round(float(base) ** (p / q))))
    while k**q > target:
        k -= 1
    while (k + 1) ** q <= target:
        k += 1
    return k


def test_ipow_matches_reference_on_small_exponents():
    bases = list(range(0, 300)) + [1023, 1024, 1025, 1536, 2048, 4096, 8191, 8192, 10**5]
    for base in bases:
        for q in range(1, 9):
            for p in range(0, 3 * q + 1):
                e = Fraction(p, q)
                floor = reference_ipow_floor(base, e)
                exact = floor**e.denominator == base**e.numerator
                assert ipow_floor(base, e) == floor, (base, e)
                assert ipow_ceil(base, e) == (floor if exact else floor + 1), (base, e)


def test_ipow_long_exponent_and_large_base():
    # colour-v's default regime at n=1536: c rounds to 399999/1000000, so
    # the exponent's denominator is 2000000; no huge power is needed here.
    e = (Fraction(399999, 1000000) - Fraction(1, 5)) / 2
    assert ipow_floor(1536, e) == 2
    assert ipow_ceil(1536, e) == 3
    half = Fraction(1, 2)
    assert ipow_floor(10**400, half) == ipow_ceil(10**400, half) == 10**200
    assert ipow_floor(10**400 - 1, half) == 10**200 - 1
    assert ipow_ceil(10**400 + 1, half) == 10**200 + 1
    for k in (2**53 + 1, 10**20 + 9):
        assert ipow_floor(k**3 - 1, Fraction(1, 3)) == k - 1
        assert ipow_ceil(k**3, Fraction(1, 3)) == k


def test_pow_threshold():
    assert pow_threshold(1024, Fraction(9, 10)) == 512
    assert pow_threshold(1024, Fraction(0)) == 1
    assert pow_threshold(1024, Fraction(-1, 10)) == 1
    # d >= n^x iff d >= pow_threshold(n, x) for integer degrees
    for d in range(1, 40):
        assert (d >= pow_threshold(32, Fraction(7, 10))) == (d**10 >= 32**7)


def test_exceeds_pow():
    # value > 13 * n^(1+mu)
    n, mu = 16, Fraction(1, 2)
    cap = 13 * 16 ** Fraction(3, 2)  # 13 * 64
    assert not exceeds_pow(832, 13, n, Fraction(3, 2))
    assert exceeds_pow(833, 13, n, Fraction(3, 2))


def test_log_ceil():
    assert log_ceil(9, 3) == 2
    assert log_ceil(100, 10) == 2
    assert log_ceil(1, 7) == 0
    assert log_ceil(11, 10) == 2
    with pytest.raises(ValueError):
        log_ceil(0, 2)


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(0) == 0


def test_fraction_rendering():
    assert frac_str(Fraction(3)) == "3"
    assert frac_str(Fraction(1, 3)) == "1/3"
    assert frac_decimal(Fraction(11, 6)) == "1.833333"
    assert frac_decimal(Fraction(1, 2)) == "0.500000"
    assert frac_decimal(Fraction(-3, 2)) == "-1.500000"


def test_as_fraction():
    assert as_fraction("0.2") == Fraction(1, 5)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(2) == 2
    with pytest.raises(TypeError):
        as_fraction(0.2)
