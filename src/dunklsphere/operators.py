"""Dunkl operators, weighted harmonic bases, intertwining, kernel translates.

The rational Dunkl operator attached to a reflection group G with multiplicity
kappa acts on polynomials by

    D_i f = d f / d x_i + sum over positive roots v of
            kappa(v) * (f(x) - f(s_v x)) / <v, x> * v_i .

The difference quotient is an exact polynomial division (f - f o s_v vanishes
on the hyperplane <v, x> = 0), so in exact mode everything stays in Q.  The
operators commute and reduce to plain partials at kappa = 0; both facts are
exercised by the test suite rather than assumed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, exp, factorial, gcd, lcm

import numpy as np

from .gegenbauer import Function1D, check_size, jacobi_rule, pochhammer
from .multipoly import (DIVIDE_TOL, EVAL_CHUNK_ROWS, EXACT, FLOAT, LinearImages, MultiPoly,
                        _add_terms, _derivative_terms, _divide_terms, monomials_of_degree)
from .reflection import (MultiplicityFunction, RootSystem, UnsupportedGroupError,
                         _integral, builtin_root_system, reflection_matrix,
                         validate_multiplicity)


@dataclass(frozen=True)
class DunklContext:
    """A root system with a validated multiplicity, gamma_kappa = the sum of
    kappa over the positive roots, and lambda_kappa = gamma_kappa + (d - 2)/2."""

    root_system: RootSystem
    kappa: MultiplicityFunction
    gamma_kappa: Fraction
    lambda_kappa: Fraction
    _laplacian_by_mode: dict = field(default_factory=dict, init=False, repr=False,
                                     compare=False)

    @classmethod
    def create(cls, family: str, dimension: int | None = None, kappa=0,
               order: int | None = None) -> "DunklContext":
        return cls.from_root_system(
            builtin_root_system(family, dimension, order), kappa)

    @classmethod
    def from_root_system(cls, rs: RootSystem, kappa) -> "DunklContext":
        """The context of rs at kappa; lambda_kappa must be positive."""
        mult = validate_multiplicity(rs, kappa)
        gamma = sum((mult.value(v) for v in rs.positive), Fraction(0))
        lam = gamma + Fraction(rs.dim - 2, 2)
        if lam <= 0:
            raise ValueError(
                f"lambda = gamma + (d-2)/2 = {lam} must be positive "
                f"(d = {rs.dim}, gamma = {gamma})")
        return cls(rs, mult, gamma, lam)

    @property
    def dim(self) -> int:
        return self.root_system.dim

    @property
    def kappa_is_zero(self) -> bool:
        return self.kappa.is_zero

    @property
    def exact(self) -> bool:
        return self.root_system.exact

    @cached_property
    def axis_kappas(self) -> tuple | None:
        """kappa per coordinate where sigma_kappa and V_kappa factor over the
        coordinates (Zd2 at any kappa, every family at kappa = 0), else None;
        computed once per context."""
        d = self.dim
        if self.root_system.family == "zd2":
            return tuple(self.kappa.value(tuple(int(i == j) for j in range(d)))
                         for i in range(d))
        return (Fraction(0),) * d if self.kappa_is_zero else None

    def kappa_by_axis(self) -> tuple:
        """axis_kappas, the one test of kernel support: the orbit of each
        +-e_i for Zd2 and zeros for every family at kappa = 0.  Other
        contexts have no explicit kernel translate and raise
        UnsupportedGroupError; commands ask before they build anything.
        """
        if self.axis_kappas is None:
            raise UnsupportedGroupError(
                "kernel translates and the intertwining operator are "
                "implemented for Zd2 at any kappa and for every family at "
                "kappa = 0 only")
        return self.axis_kappas

    def describe(self) -> dict:
        rs = self.root_system
        return {
            "family": rs.family,
            "dimension": rs.dim,
            "order": len(rs.positive) if rs.family == "i2" else None,
            "kappa": [str(v) for v in self.kappa.orbit_values],
            "gamma": str(self.gamma_kappa),
            "lambda": str(self.lambda_kappa),
        }

    def _laplacian_data(self, mode: str) -> tuple:
        """(scale, roots) for dunkl_apply and dunkl_laplacian in the poly's
        mode; built once.

        roots holds (support, v_S, weight) for every positive root v with
        kappa(v) != 0: support is the tuple of coordinates where v_i != 0
        and v_S is v on them, the key of the per-shape caches _root_shape,
        _quotient and _bracket.  Float mode keeps v as it is, with weight
        kappa(v) and scale None.  Exact mode divides v by its coordinate of
        largest |v_i| (neither the Dunkl operators' v_i (f - f o s_v) /
        <v, x> nor the h-Laplacian's bracket changes when v is scaled) and
        takes weight = kappa(v) * scale, scale being the lcm of the kappa
        denominators; every integral value becomes an int.  kappa enters
        the operators through weight only.
        """
        got = self._laplacian_by_mode.get(mode)
        if got is None:
            exact = mode == EXACT
            positive = [(v, kv) for v in self.root_system.positive
                        if (kv := self.kappa.value(v)) != 0]
            scale = lcm(*(kv.denominator for _, kv in positive)) if exact else None
            roots = []
            for v, kv in positive:
                if exact:
                    top = max(v, key=abs)
                    v = tuple(_integral(Fraction(c) / top) for c in v)
                    kv = _integral(kv * scale)
                else:
                    v, kv = tuple(float(c) for c in v), float(kv)
                support = tuple(j for j, c in enumerate(v) if c != 0)
                roots.append((support, tuple(v[j] for j in support), kv))
            got = self._laplacian_by_mode[mode] = (scale, tuple(roots))
        return got


def _check_poly(ctx: DunklContext, f: MultiPoly) -> None:
    if f.dim != ctx.dim:
        raise ValueError(f"polynomial has dim {f.dim}, context has {ctx.dim}")
    if f.mode == EXACT and not ctx.exact:
        raise ValueError("exact polynomials need a rational root system; "
                         "convert with to_float() first")


def _cleared(f: MultiPoly) -> tuple:
    """(terms, den) with f = terms / den: an exact f's coefficients times
    their common denominator, as ints; a float f's as they are, den 1."""
    if f.mode != EXACT:
        return f.terms, 1
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}, den


def _restored(f: MultiPoly, out: dict, den) -> MultiPoly:
    """The polynomial of out / den in f's dimension and mode."""
    if f.mode == EXACT:
        out = {e: Fraction(c, den) for e, c in out.items()}
    return MultiPoly._trusted(f.dim, out, f.mode)


# Each root's part of the operators on one monomial, in the variables of the
# root's support, cached for every context; mode is in each key, since
# 1 == 1.0 == Fraction(1) hash alike.  Per mode: unit, division tolerance.
_UNIT = {EXACT: 1, FLOAT: 1.0}
_TOL = {EXACT: None, FLOAT: DIVIDE_TOL}


@lru_cache(maxsize=256)
def _root_shape(v: tuple, mode: str) -> tuple:
    """(images, pivot, |v|^2) for a root v with no zero coordinate: the
    images of the variables under s_v (LinearImages, which keeps their
    powers) and the first coordinate of largest |v_i|, by which every
    quotient by <v, x> is taken."""
    s_v = reflection_matrix(v)
    vv = sum(c * c for c in v)
    if mode == EXACT:
        s_v = [[_integral(x) for x in row] for row in s_v]
        vv = _integral(vv)
    pivot = max(range(len(v)), key=lambda i: abs(v[i]))
    return LinearImages(s_v, _UNIT[mode]), pivot, vv


@lru_cache(maxsize=4096)
def _quotient(v: tuple, alpha: tuple, mode: str) -> tuple:
    """(x^alpha - x^alpha o s_v) / <v, x> as (exponents, coefficient) pairs,
    for a root v with no zero coordinate."""
    images, pivot, _ = _root_shape(v, mode)
    mono = {alpha: _UNIT[mode]}
    diff = _add_terms(dict(mono), images.compose(mono), -1)
    return tuple(_divide_terms(diff, v, pivot, _TOL[mode]).items()) if diff else ()


@lru_cache(maxsize=4096)
def _bracket(v: tuple, alpha: tuple, mode: str) -> tuple:
    """[2 <grad x^alpha, v> <v, x> - |v|^2 (x^alpha - x^alpha o s_v)] / <v, x>^2
    as (exponents, coefficient) pairs, for a root v with no zero coordinate.

    The numerator is divisible by <v, x>^2, so this is (2 <grad x^alpha, v> -
    |v|^2 q) / <v, x> with q = _quotient(v, alpha, mode): one more exact
    division.
    """
    _, pivot, vv = _root_shape(v, mode)
    mono = {alpha: _UNIT[mode]}
    num: dict = {}
    for i, vi in enumerate(v):
        _add_terms(num, _derivative_terms(mono, i), 2 * vi)
    _add_terms(num, dict(_quotient(v, alpha, mode)), -vv)
    return tuple(_divide_terms(num, v, pivot, _TOL[mode]).items()) if num else ()


def dunkl_apply(ctx: DunklContext, i: int, f: MultiPoly) -> MultiPoly:
    """Apply the i-th Dunkl operator (0-based coordinate) to f.

    Each root v with v_i != 0 adds kappa(v) v_i (f - f o s_v) / <v, x>,
    taken term by term as dunkl_laplacian takes its bracket: the quotient of
    x_S^(alpha_S) over v's support S is cached per root shape and exponent
    pattern (_quotient), and each of its terms is placed in the result with
    the factor kappa(v) v_i c, so a float result sums per-term quotients.
    """
    _check_poly(ctx, f)
    if not 0 <= i < f.dim:
        raise IndexError(f"variable index {i} out of range for dim {f.dim}")
    scale, roots = ctx._laplacian_data(f.mode)
    terms, den = _cleared(f)
    out = _add_terms({}, _derivative_terms(terms, i), scale)
    for support, v, weight in roots:
        if i in support:
            weight = weight * v[support.index(i)]
            for exps, c in terms.items():
                factor, e = weight * c, list(exps)
                for sub, b in _quotient(v, tuple([exps[j] for j in support]), f.mode):
                    for j, k in zip(support, sub):
                        e[j] = k
                    key = tuple(e)
                    out[key] = s = out.get(key, 0) + b * factor
                    if s == 0:
                        del out[key]
    return _restored(f, out, den * (scale or 1))


def _laplacian_matrix(monomials, scale, roots: tuple, mode: str) -> dict:
    """scale * Delta_kappa of each monomial x^alpha in a sequence, (scale,
    roots) from _laplacian_data, as one sparse matrix {target exponents: {k:
    entry}}, k being alpha's index.  Column k takes the classical part, then
    root by root b * weight for each _bracket pair, placed on the root's
    support, and drops an entry whose running sum is 0: every entry is the
    sum, in the same order, that the term dict of Delta_kappa x^alpha holds.
    """
    unit = scale or 1.0
    matrix: dict = {}
    for k, exps in enumerate(monomials):
        for i, a in enumerate(exps):
            if a > 1:
                target = exps[:i] + (a - 2,) + exps[i + 1:]
                matrix.setdefault(target, {})[k] = unit * a * (a - 1)
        for support, v, weight in roots:
            e = list(exps)
            for sub, b in _bracket(v, tuple([exps[j] for j in support]), mode):
                for j, m in zip(support, sub):
                    e[j] = m
                row = matrix.setdefault(tuple(e), {})
                row[k] = s = row.get(k, 0) + b * weight
                if s == 0:
                    del row[k]
    return matrix


def dunkl_laplacian(ctx: DunklContext, f: MultiPoly) -> MultiPoly:
    """Sum of squared Dunkl operators; degree drops by exactly two.

    Evaluated as the h-Laplacian of Dunkl and Xu (*Orthogonal Polynomials of
    Several Variables*, Thm 4.4.9), which needs one reflection per root
    instead of the 2d that sum_i D_i D_i f costs:

        Delta_kappa f = Delta f + sum over positive roots v of kappa(v) *
            [2 <grad f, v> <v, x> - |v|^2 (f - f o s_v)] / <v, x>^2 .

    s_v fixes the coordinates outside v's support S, so the bracket of
    x^alpha is x^(alpha off S) times that of x_S^(alpha_S), cached per root
    shape and exponent pattern (_bracket) for every context; kappa(v) enters
    as its weight.  The kernel harmonic_basis shares, _laplacian_matrix,
    gives one column per monomial of f, and each coefficient is a row times
    f's coefficients, cleared of denominators in exact mode (all integer
    arithmetic with integer roots, up to one final division).  In float mode
    a monomial of coefficient 1 gets the bits of dividing it as a whole;
    other results may differ from that in the last bits.
    """
    _check_poly(ctx, f)
    scale, roots = ctx._laplacian_data(f.mode)
    terms, den = _cleared(f)
    coeffs = tuple(terms.values())
    out = {e: sum(x * coeffs[k] for k, x in row.items())
           for e, row in _laplacian_matrix(terms, scale, roots, f.mode).items()}
    return _restored(f, {e: c for e, c in out.items() if c}, den * (scale or 1))


def harmonic_space_dimension(d: int, n: int) -> int:
    """dim of degree-n harmonics in d variables (independent of kappa)."""
    if n < 0:
        return 0
    first = comb(n + d - 1, d - 1)
    second = comb(n + d - 3, d - 1) if n >= 2 else 0
    return first - second


@dataclass(frozen=True)
class HarmonicBasis:
    """Nullspace basis of the Dunkl Laplacian on homogeneous degree n.

    Exact elements: one per free column of the RREF (graded-lex monomials,
    first free column first); float (i2) ones: SVD nullspace vectors,
    orthonormal in coefficients.  Gram matrix: SphereMeasure.gram(basis).
    """

    degree: int
    elements: tuple

    def __len__(self):
        return len(self.elements)


def _primitive(row: dict) -> dict:
    """An integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _clear_column(row: dict, prow: dict, c: int) -> dict:
    """(prow[c] / g) row - (row[c] / g) prow, g = gcd(row[c], prow[c]), with
    zeros dropped in the same pass, divided by its content."""
    g = gcd(row[c], prow[c])
    p, a = prow[c] // g, row[c] // g
    out = {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        out[j] = s = out.get(j, 0) - a * y
        if s == 0:
            del out[j]
    return _primitive(out) if out else out


def _eliminate(row: dict, prows: dict) -> dict:
    """row with each column c of prows cleared by one integer combination
    with the rows prows[c], divided by its content; each of those rows must
    be 0 at the others' columns."""
    hits = [(prow, row[c] // (g := gcd(row[c], prow[c])), prow[c] // g)
            for c, prow in prows.items() if c in row]
    m = lcm(*(p for _, _, p in hits))
    out = {j: m * x for j, x in row.items()}
    for prow, a, p in hits:
        _add_terms(out, prow, -(m // p) * a)
    return _primitive(out) if out else out


def _nullspace_exact(rows: list[dict], ncols: int) -> list[dict]:
    """Nullspace of a rational matrix given as sparse rows {column: int or
    Fraction}: per free column of the reduced row echelon form (RREF), one
    sparse vector {column: Fraction} in column order, minus the RREF entry
    at each pivot column where it is nonzero and 1 at the free column.

    Elimination is fraction-free: integer rows, each divided by its content
    and known up to sign.  A forward pass clears each pivot's column from
    the unused rows by the one pivot row (_clear_column); one back-
    substitution pass then clears each pivot row, from the last up, by all
    the later, reduced ones at once (_eliminate).  The RREF is unique, so
    the result is that of rational Gauss-Jordan elimination.
    """
    work = []
    for row in rows:
        row = {c: x for c, x in row.items() if x != 0}
        if row:
            den = lcm(*(x.denominator for x in row.values()))
            work.append(_primitive({c: x.numerator * (den // x.denominator)
                                    for c, x in row.items()}))
    pivots: list[tuple[int, dict]] = []
    for c in range(ncols):
        cands = [k for k, row in enumerate(work) if c in row]
        if not cands:
            continue
        prow = work.pop(min(cands, key=lambda k: (len(work[k]), abs(work[k][c]))))
        work = [r for r in (_clear_column(r, prow, c) if c in r else r for r in work) if r]
        pivots.append((c, prow))
    reduced: dict[int, dict] = {}              # pivot column: RREF row, last first
    for c, prow in reversed(pivots):
        reduced[c] = _eliminate(prow, reduced)
    vecs = {fc: {} for fc in range(ncols) if fc not in reduced}
    for pc, prow in reversed(reduced.items()):  # its other columns are free and > pc
        for fc, x in prow.items():
            if fc != pc:
                vecs[fc][pc] = Fraction(-x, prow[pc])
    return [vec | {fc: Fraction(1)} for fc, vec in vecs.items()]


RANK_TOL = 1e-10     # singular values up to RANK_TOL * the largest count as 0


def _check_basis_size(d: int, n: int) -> None:
    """Refuse the C(n+d-3, d-1) x C(n+d-1, d-1) Laplacian matrix of the
    degree-n harmonic basis (check_size) before it is built."""
    rows, cols = comb(n + d - 3, d - 1) if n > 1 else 0, comb(n + d - 1, d - 1)
    check_size(rows * cols, f"the harmonic basis of degree {n} in d = {d} takes a "
               f"{rows} x {cols} Laplacian matrix", "lower the degree")


def harmonic_basis(ctx: DunklContext, n: int) -> HarmonicBasis:
    """Basis of homogeneous degree-n polynomials killed by the Dunkl Laplacian.

    The matrix of scale * Delta_kappa on the degree-n monomials comes from
    one call of _laplacian_matrix, the kernel of dunkl_laplacian (scale
    leaves the nullspace as it is).  Exact contexts take its nullspace by
    fraction-free elimination (_nullspace_exact), float ones (i2) by SVD
    with the relative rank tolerance RANK_TOL.  A degree that is negative
    or no integer, or whose matrix is above the limit of check_size, raises
    ValueError.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"degree must be an integer >= 0, not {n!r}")
    _check_basis_size(ctx.dim, n)
    mode = EXACT if ctx.exact else FLOAT
    scale, roots = ctx._laplacian_data(mode)
    d = ctx.dim
    source = monomials_of_degree(d, n)
    matrix = _laplacian_matrix(source, scale, roots, mode)
    rows = [matrix.get(e, {}) for e in monomials_of_degree(d, n - 2)]
    if mode == EXACT:
        vecs = _nullspace_exact(rows, len(source))
    else:
        a = np.zeros((len(rows), len(source)))
        for r, row in enumerate(rows):
            a[r, list(row)] = list(row.values())
        _, s, vh = np.linalg.svd(a)
        rank = int((s > RANK_TOL * s[0]).sum()) if s.size else 0
        vecs = [{c: float(x) for c, x in enumerate(vh[k]) if abs(x) > 0}
                for k in range(rank, len(source))]
    elems = tuple(MultiPoly._trusted(d, {source[c]: x for c, x in vec.items()}, mode)
                  for vec in vecs)
    expected = harmonic_space_dimension(d, n)
    if len(elems) != expected:
        raise ArithmeticError(
            f"nullspace dimension {len(elems)} != expected {expected} "
            f"for degree {n}; context {ctx.describe()}")
    return HarmonicBasis(n, elems)


# ---------------------------------------------------------------------------
# Intertwining operator (contexts with per-axis kappas)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _b_factor(kappa: Fraction, m: int) -> Fraction:
    """Monomial scaling of the one-dimensional intertwining operator:

    b(2k)   = (1/2)_k     / (kappa + 1/2)_k
    b(2k+1) = (1/2)_{k+1} / (kappa + 1/2)_{k+1}
    """
    half = Fraction(1, 2)
    k = m // 2 + (m % 2)
    return pochhammer(half, k) / pochhammer(kappa + half, k)


def intertwine(ctx: DunklContext, f: MultiPoly) -> MultiPoly:
    """V_kappa f.  The operator scales each monomial x^alpha by
    prod_i b_{kappa_i}(alpha_i) over the context's per-axis kappas, and is
    the identity when they all vanish.  Contexts without per-axis kappas
    raise UnsupportedGroupError.
    """
    kappas = ctx.kappa_by_axis()
    if not any(kappas):
        return f
    terms = {}
    for exps, c in f.terms.items():
        factor = Fraction(1)
        for ki, e in zip(kappas, exps):
            if e:
                factor *= _b_factor(ki, e)
        terms[exps] = c * factor if f.mode == EXACT else c * float(factor)
    return MultiPoly(f.dim, terms, f.mode)


# ---------------------------------------------------------------------------
# Kernel translates V_kappa[g(<x, .>)](y)
# ---------------------------------------------------------------------------

# Terms e^(r s) with |r| <= SERIES_MAX_RATE take the moment series of
# _series_coefficients, the others the direct sum over the rule's nodes.  A
# check against 40-digit mpmath gave these largest errors per rate:
#
#     |r|          3        5        8        12       20
#     series       1.8e-16  2e-15    9e-15    3e-13    2.5e-9
#     direct sum   1.3e-16  1.9e-16  1.1e-16  3e-16    2.6e-16
#
# The series sums terms up to |r|^n / n!, which cancel as the rate grows.
SERIES_MAX_RATE = 4.0

@lru_cache(maxsize=256)
def _nu_rule(kappa: float, m: int):
    """Quadrature for the probability measure d nu_kappa on [-1, 1], kappa > 0:

        d nu_kappa(t) = c'_kappa (1 + t) (1 - t^2)^(kappa - 1) dt

    Gauss-Jacobi with (alpha, beta) = (kappa - 1, kappa), weights normalized
    to unit total mass.  nu_0 is the point mass at t = 1, which
    kernel_translate_batch applies by pinning the axis.
    """
    nodes, weights = jacobi_rule(m, kappa - 1.0, kappa)
    w = weights / weights.sum()
    w.flags.writeable = False
    return nodes, w


@lru_cache(maxsize=256)
def _series_coefficients(kappa: float, m: int, rate) -> np.ndarray:
    """p_n = mu_n r^n / n!, n = 0..N, so that the m-node nu_kappa rule gives

        sum_j w_j e^(r s t_j) = sum_n p_n s^n,

    mu_n = sum_j w_j t_j^n being the rule's own moments (the one-dimensional
    intertwining operator of Dunkl and Xu maps s^n to mu_n s^n).  The weights
    are a probability on [-1, 1], so for |s| <= 1 the tail past N is at most
    e^|r| |r|^(N+1) / (N+1)!; N is the first at which that is below 2^-60.
    """
    t, w = _nu_rule(kappa, m)
    a = abs(rate)
    n, tail = 0, exp(a) * a
    while tail >= 2.0 ** -60:
        n += 1
        tail *= a / (n + 1)
    terms = np.ones((n + 1, m), dtype=np.result_type(rate, float))
    terms[1:] = np.cumprod(np.outer(1.0 / np.arange(1, n + 1), rate * t), axis=0)
    p = terms @ w                                              # (r t)^n / n! averaged
    p.flags.writeable = False
    return p


def _powers(v: np.ndarray, n: int) -> np.ndarray:
    """The (n + 1, len(v)) table of v^0, ..., v^n, by cumulative products."""
    out = np.empty((n + 1, v.size))
    out[0] = 1.0
    out[1:] = v
    np.cumprod(out[1:], axis=0, out=out[1:])
    return out


def _series_sum(ypow: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_n coef[n, j] y_q^n as a (points, centres) matrix, from the
    (N + 1, points) power table: one BLAS product.  Complex coefficients
    enter as interleaved real columns, so the real table is never cast."""
    if np.iscomplexobj(coef):
        return (ypow[:len(coef)].T @ coef.view(float)).view(complex)
    return ypow[:len(coef)].T @ coef


def _pair_chunks(xs, ys, pinned, active, width):
    """The J x Q centre-point pairs in row-major order, in chunks of at most
    16k // width pairs: (flat slice, sum of x_i y_i over the pinned axes,
    x_i y_i on the active axes as (pairs, active))."""
    total = len(xs) * len(ys)
    step = max(1, EVAL_CHUNK_ROWS // width)
    for lo in range(0, total, step):
        jj, qq = np.divmod(np.arange(lo, min(lo + step, total)), len(ys))
        x, y = xs[jj], ys[qq]
        yield (slice(lo, lo + len(jj)), (x[:, pinned] * y[:, pinned]).sum(axis=1),
               x[:, active] * y[:, active])


def _check_kernel_rows(rows: int, points: int) -> None:
    """Refuse rows x points kernel values (check_size) before they are built."""
    check_size(rows * points, f"{rows} kernel rows on {points} sphere points are "
               f"{rows * points} values", "lower the number of centres or the sphere order")


def _abs_max(a: np.ndarray, cols) -> float:
    """max |a[:, i]| over the columns cols, from each column's max and min
    so that no part of a is copied; 0 for no rows or columns."""
    return max((max(a[:, i].max(initial=0.0), -a[:, i].min(initial=0.0)) for i in cols),
               default=0.0)


def kernel_translate_batch(ctx: DunklContext, g: Function1D, x,
                           ys: np.ndarray, quad_order: int = 48) -> np.ndarray:
    """K(x, y_q) = V_kappa[g(<x, .>)](y_q) for every row y_q of ys (Q rows).

    x is one centre of shape (d,), giving shape (Q,), or J centres of shape
    (J, d), giving (J, Q); the J x Q output is counted against
    MAX_GRID_POINTS before it is allocated.  Centres and points with other
    than ctx.dim coordinates raise ValueError before anything is built.
    The centres and the rows of ys are points of the unit sphere: the
    moment series below needs |x_i y_i| <= 1 and raises ValueError for
    inputs that break it.

    The translate is a tensor integral of g(sum_i x_i y_i t_i) against
    nu_{kappa_1} x ... x nu_{kappa_d} over the context's per-axis kappas
    (kappa_by_axis, which raises UnsupportedGroupError elsewhere), with
    kappa_i = 0 axes pinned at t_i = 1, on quad_order nodes per axis; at
    kappa = 0 every axis is pinned and K(x, y) = g(<x, y>), one product for
    all centres per chunk of points.  When g is a sum of exponentials
    a e^(r s) (exp, cosh, sinh, cos w and sums of them, see
    Function1D.exponential_terms) that rule factors into one sum per active
    axis, sum_j w_j e^(r c t_j) with c = x_i y_i.  For |r| <= SERIES_MAX_RATE
    that sum is the moment series sum_n p_n x_i^n y_i^n (_series_coefficients):
    one BLAS product per axis for all centres, on power tables of y built in
    chunks of points.  Faster rates keep the sum over the nodes, in chunks of
    the flattened centre-point pairs.  Every other g is summed over the
    quad_order^active tensor grid in chunks of points, one centre at a time
    within each chunk; the grid is counted before it is built, and above
    MAX_GRID_POINTS it raises ValueError, as does a quad_order^2 Jacobi
    matrix of the axis rules on either route.
    """
    x, ys = np.asarray(x, dtype=float), np.asarray(ys, dtype=float)
    if not (x.ndim in (1, 2) and ys.ndim in (1, 2)
            and x.shape[-1] == ys.shape[-1] == ctx.dim):
        raise ValueError(f"kernel centres and points need ctx.dim = {ctx.dim} coordinates, "
                         f"not centres of shape {x.shape} and points of shape {ys.shape}")
    xs, ys = np.atleast_2d(x), np.atleast_2d(ys)
    kappas = [float(k) for k in ctx.kappa_by_axis()]
    active = [i for i, k in enumerate(kappas) if k > 0]
    pinned = [i for i, k in enumerate(kappas) if k == 0]      # t_i = 1 axes
    terms = g.exponential_terms
    if terms is None:
        size = quad_order ** len(active)
        check_size(size, f"a kernel grid of order {quad_order} on {len(active)} axes "
                   f"has {size} points", "lower the kernel order", len(active) + 1)
    _check_kernel_rows(len(xs), len(ys))
    series = [(a, r) for a, r in terms or () if abs(r) <= SERIES_MAX_RATE]
    if active and series:
        reach = _abs_max(xs, active) * _abs_max(ys, active)
        if reach > 1.0 + 1e-8:
            raise ValueError(
                f"the moment series of the kernel needs |x_i y_i| <= 1, not up to "
                f"{reach:.6g}; the centres and points must lie on the unit sphere")
    rules = [_nu_rule(kappas[i], quad_order) for i in active]
    out = np.zeros((len(xs), len(ys)))
    if not active:
        step = max(1, EVAL_CHUNK_ROWS // max(1, len(xs)))
        for lo in range(0, len(ys), step):
            out[:, lo:lo + step] = g(xs @ ys[lo:lo + step].T)
    elif terms is None:
        grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        tmat = np.stack([gr.ravel() for gr in grids], axis=1)   # (G, n_active)
        wgrid = rules[0][1]
        for _, w in rules[1:]:
            wgrid = np.outer(wgrid, w).ravel()
        step = max(1, EVAL_CHUNK_ROWS // len(wgrid))
        xp, xa = xs[:, pinned], xs[:, active]
        for lo in range(0, len(ys), step):                      # no (Q, d) copies
            yp, ya = ys[lo:lo + step, pinned], ys[lo:lo + step, active]
            for j in range(len(xs)):
                args = (yp @ xp[j])[:, None] + (ya * xa[j]) @ tmat.T
                out[j, lo:lo + step] = g(args) @ wgrid
    else:
        # g = Re sum_k a_k e^(r_k s) factors the tensor rule exactly:
        # K = Re sum_k a_k e^(r_k b) prod_i sum_j w_ij e^(r_k c_i t_ij), with
        # c_i = x_i y_i on the active axes and b the pinned axes' part of <x, y>
        series = [(a, r, [_series_coefficients(kappas[i], quad_order, r) for i in active])
                  for a, r in series]
        direct = [(a, r) for a, r in terms if abs(r) > SERIES_MAX_RATE]
        if series:
            top = max(len(p) for _, _, ps in series for p in ps) - 1
            xpow = [_powers(xs[:, i], top) for i in active]        # (top + 1, J)
            coefs = [[xp[:len(p)] * p[:, None] for xp, p in zip(xpow, ps)]
                     for _, _, ps in series]
            step = max(1, EVAL_CHUNK_ROWS // max(len(xs), (top + 1) * len(active)))
            for lo in range(0, len(ys), step):
                yb = ys[lo:lo + step]
                ypow = [_powers(yb[:, i], top) for i in active]
                base = yb[:, pinned] @ xs[:, pinned].T if pinned else 0.0
                acc = np.zeros((len(yb), len(xs)))              # (points, centres)
                for (a, r, _), cs in zip(series, coefs):
                    prod = a * np.exp(r * base)
                    for yp, c in zip(ypow, cs):
                        prod = prod * _series_sum(yp, c)
                    acc += prod.real
                out[:, lo:lo + step] = acc.T
        flat = out.reshape(-1)
        for a, r in direct:
            width = quad_order * (2 if isinstance(r, complex) else 1)
            for sl, base, coeff in _pair_chunks(xs, ys, pinned, active, width):
                prod = a * np.exp(r * base)
                for (t, w), c in zip(rules, coeff.T):
                    prod = prod * (np.exp(r * c[:, None] * t) @ w)
                flat[sl] += prod.real
    return out if x.ndim == 2 else out[0]


def translate_as_polynomial(ctx: DunklContext, g: Function1D, x):
    """For polynomial g: K(x, .) = V_kappa[g(<x, .>)] as float polynomials in y.

    x is one centre of shape (d,), giving one MultiPoly, or J centres of
    shape (J, d), giving a tuple of J; other shapes raise ValueError.  By
    the multinomial theorem g(<x, y>) = sum_alpha g_|alpha| (|alpha|! /
    alpha!) x^alpha y^alpha, and V_kappa scales y^alpha by prod_i
    b_{kappa_i}(alpha_i) over the context's per-axis kappas (kappa_by_axis,
    which raises UnsupportedGroupError elsewhere), so the coefficient of
    y^alpha is

        g_|alpha| (|alpha|! / alpha!) prod_i b_{kappa_i}(alpha_i) x^alpha .

    The factor beside x^alpha is built once per call, as float(g_|alpha|)
    times the exact rational rest rounded once, for every alpha with
    |alpha| <= deg g and g_|alpha| != 0 (ascending degree, then the order of
    monomials_of_degree, which is the order of each polynomial's terms).
    Each coefficient is that factor times x_1^(alpha_1), x_2^(alpha_2), ...
    in axis order, the powers by running products, for all centres in one
    numpy pass.  The comb(deg g + d, d) coefficients of each centre are
    counted by check_size before any is built.  Cross-checks the quadrature
    route of kernel_translate_batch.
    """
    coeffs = g.coefficients
    if coeffs is None:
        raise ValueError("translate_as_polynomial needs polynomial g")
    kappas = ctx.kappa_by_axis()
    d, x = ctx.dim, np.asarray(x, dtype=float)
    if not (x.ndim in (1, 2) and x.shape[-1] == d):
        raise ValueError(f"translate centres need ctx.dim = {d} coordinates, "
                         f"not shape {x.shape}")
    xs = np.atleast_2d(x)
    degree = max((n for n, c in enumerate(coeffs) if c), default=-1)
    size = comb(degree + d, d) * len(xs)
    check_size(size, f"{len(xs)} translate polynomials of a degree-{degree} g in {d} "
               f"variables have {size} coefficients",
               "lower the degree of g or the number of centres")
    # b_{kappa_i}(m) / m! per axis and exponent
    scaled = [[_b_factor(k, m) / factorial(m) for m in range(degree + 1)] for k in kappas]
    exps, factors = [], []
    for n in range(degree + 1):
        if coeffs[n]:
            for e in monomials_of_degree(d, n):
                num, den = factorial(n), 1
                for table, m in zip(scaled, e):
                    num, den = num * table[m].numerator, den * table[m].denominator
                exps.append(e)
                factors.append(float(coeffs[n]) * (num / den))   # int / int rounds once
    index = np.array(exps, dtype=int).reshape(len(exps), d)
    values = np.array(factors)[:, None]                       # (terms, centres)
    for i in range(d):
        values = values * _powers(xs[:, i], max(degree, 0))[index[:, i]]
    polys = tuple(MultiPoly._trusted(d, {e: c for e, c in zip(exps, col) if c}, FLOAT)
                  for col in values.T.tolist())
    return polys if x.ndim == 2 else polys[0]
