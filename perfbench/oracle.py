"""Closed-form Gegenbauer coefficients, independent of the package.

    Lambda_n(g) = c_lam / C_n(1) * int g(t) C_n(t) (1 - t^2)^(lam - 1/2) dt

is known exactly for every kind in the CLI grammar:

    exp        Gamma(lam + 1) 2^lam I_{n+lam}(1)
    cosh/sinh  the exp value on even / odd n, zero on the others
    cos w      Gamma(lam + 1) 2^lam (-1)^(n/2) w^-lam J_{n+lam}(w), even n only
    step a     n = 0: c_lam 2^(2 lam) B((1+a)/2, 1; lam+1/2, lam+1/2)
               n > 0: c_lam / C_n(1) * 2 lam / (n (n + 2 lam))
                      * (1 - a^2)^(lam + 1/2) * C_{n-1}^{lam+1}(a)
    poly/gegen exact rationals from the moments
               c_lam int t^(2k) (1-t^2)^(lam-1/2) dt = (1/2)_k / (lam + 1)_k

The step formula integrates d/dt[(1-t^2)^(lam+1/2) C_{n-1}^{lam+1}(t)] =
-n (n + 2 lam) / (2 lam) (1-t^2)^(lam-1/2) C_n^lam(t) over [a, 1], so an
entry is exactly zero iff C_{n-1}^{lam+1}(a) = 0, which Fraction arithmetic
decides.  Nothing here calls dunklsphere; expressions are parsed from the
grammar text the CLI receives.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

DPS = 50


def parse(text: str) -> list:
    """Grammar text -> [(weight, kind, param)] with exact Fraction params."""
    text = text.strip()
    if text.startswith("sum "):
        parts = []
        for chunk in text[4:].split("+"):
            weight, expr = chunk.split("*", 1)
            for w, kind, param in parse(expr):
                parts.append((Fraction(weight.strip()) * w, kind, param))
        return parts
    head, _, arg = text.partition(" ")
    arg = arg.strip()
    if head == "poly":
        return [(Fraction(1), "poly", tuple(Fraction(c) for c in arg.split(",")))]
    if head == "gegen":
        return [(Fraction(1), "gegen", int(arg))]
    if head in ("exp", "cosh", "sinh") and not arg:
        return [(Fraction(1), head, None)]
    if head in ("cos", "step"):
        return [(Fraction(1), head, Fraction(arg))]
    raise ValueError(f"cannot parse {text!r}")


def gegenbauer_exact(n: int, lam: Fraction, t: Fraction) -> Fraction:
    """C_n^lam(t) by the three-term recurrence in exact arithmetic."""
    prev, cur = Fraction(1), 2 * lam * t
    if n == 0:
        return prev
    for k in range(2, n + 1):
        prev, cur = cur, (2 * (k + lam - 1) * t * cur - (k + 2 * lam - 2) * prev) / k
    return cur


def gegenbauer_monomials(n: int, lam: Fraction) -> list:
    """Monomial coefficients of C_n^lam, exact."""
    prev, cur = [Fraction(1)], [Fraction(0), 2 * lam]
    if n == 0:
        return prev
    for k in range(2, n + 1):
        nxt = [Fraction(0)] * (k + 1)
        for j, c in enumerate(cur):
            nxt[j + 1] += 2 * (k + lam - 1) * c / k
        for j, c in enumerate(prev):
            nxt[j] -= (k + 2 * lam - 2) * c / k
        prev, cur = cur, nxt
    return cur


def gegenbauer_at_one(n: int, lam: Fraction) -> Fraction:
    """C_n^lam(1) = (2 lam)_n / n!, exact."""
    out = Fraction(1)
    for j in range(n):
        out *= (2 * lam + j) / Fraction(j + 1)
    return out


def moment(j: int, lam: Fraction) -> Fraction:
    """c_lam int t^j (1 - t^2)^(lam - 1/2) dt, exact."""
    if j % 2:
        return Fraction(0)
    out = Fraction(1)
    for i in range(j // 2):
        out *= (Fraction(1, 2) + i) / (lam + 1 + i)
    return out


def _poly_exact(coeffs, lam: Fraction, n: int) -> Fraction:
    q = gegenbauer_monomials(n, lam)
    raw = sum((c * qi * moment(k + i, lam)
               for k, c in enumerate(coeffs) if c
               for i, qi in enumerate(q) if qi), Fraction(0))
    return raw / gegenbauer_at_one(n, lam)


def step_factor(lam: Fraction, n: int) -> Fraction:
    """2 lam / (n (n + 2 lam)): int_a^1 C_n w dt over (1-a^2)^(lam+1/2) C_{n-1}^(lam+1)(a)."""
    return 2 * lam / (n * (n + 2 * lam))


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _c_lam(lam):
    return mp.gamma(lam + 1) / (mp.sqrt(mp.pi) * mp.gamma(lam + mp.mpf(1) / 2))


def _primitive_zero(kind: str, param, lam: Fraction, n: int) -> bool:
    if kind == "poly":
        return _poly_exact(param, lam, n) == 0
    if kind == "gegen":
        return n != param
    if kind in ("cosh", "cos"):
        return n % 2 == 1
    if kind == "sinh":
        return n % 2 == 0
    if kind == "step":
        return n > 0 and gegenbauer_exact(n - 1, lam + 1, param) == 0
    return False                                  # exp: I_{n+lam}(1) > 0


def _primitive_value(kind: str, param, lam: Fraction, n: int):
    if _primitive_zero(kind, param, lam, n):
        return mp.mpf(0)
    lam_mp = _mpf(lam)
    if kind in ("poly", "gegen"):
        coeffs = param if kind == "poly" else gegenbauer_monomials(param, lam)
        return _mpf(_poly_exact(coeffs, lam, n))
    front = mp.gamma(lam_mp + 1) * mp.power(2, lam_mp)
    if kind in ("exp", "cosh", "sinh"):
        return front * mp.besseli(n + lam_mp, 1)
    if kind == "cos":
        w = _mpf(param)
        return front * (-1) ** (n // 2) * mp.power(w, -lam_mp) * mp.besselj(n + lam_mp, w)
    if kind == "step":
        a = _mpf(param)
        half = lam_mp + mp.mpf(1) / 2
        if n == 0:
            return _c_lam(lam_mp) * mp.power(2, 2 * lam_mp) * mp.betainc(
                half, half, (1 + a) / 2, 1)
        return (_c_lam(lam_mp) / _mpf(gegenbauer_at_one(n, lam))
                * _mpf(step_factor(lam, n)) * mp.power(1 - a * a, half)
                * _mpf(gegenbauer_exact(n - 1, lam + 1, param)))
    raise ValueError(f"unknown kind {kind!r}")


def is_zero(text: str, lam: Fraction, n: int) -> bool:
    """Whether Lambda_n(g) is exactly zero.

    A sum is decided part by part: it is zero when every part is.  Distinct
    transcendental parts (Bessel values against algebraic step values) do not
    cancel; the benchmark's sums have no two parts of the same kind.
    """
    return all(_primitive_zero(k, p, lam, n) for _, k, p in parse(text))


def value(text: str, lam: Fraction, n: int):
    """Lambda_n(g) as an mpmath number at DPS digits."""
    with mp.workdps(DPS):
        return mp.fsum(_mpf(w) * _primitive_value(k, p, lam, n)
                       for w, k, p in parse(text))


def harmonic_dimension(d: int, n: int) -> int:
    """C(n+d-1, d-1) - C(n+d-3, d-1), computed here, not by the package."""
    if n < 0:
        return 0
    return math.comb(n + d - 1, d - 1) - (math.comb(n + d - 3, d - 1) if n >= 2 else 0)
