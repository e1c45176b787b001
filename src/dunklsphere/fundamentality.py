"""Fundamentality of kernel-translate families in weighted L_p on the sphere.

For a fixed context (reflection group, multiplicity kappa) and a generating
profile g on [-1, 1], the family {K(x, .) : x in S^{d-1}} of kernel
translates is fundamental in L_p(sigma_kappa) exactly when every Gegenbauer
coefficient Lambda_n(g) at index lambda_kappa is nonzero.  The criterion does
not involve p, so one coefficient profile settles all 1 <= p < infinity at
once.  This module turns profiles into explicit verdicts, verifies the
underlying reproducing identity numerically (``funk_hecke_table``, which
builds the degree-independent kernel rows once for a list of degrees), and
runs small least-squares density demonstrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gegenbauer import (
    DEFAULT_EPS,
    INDETERMINATE,
    NONZERO,
    ZERO,
    CoefficientProfile,
    Function1D,
    Report,
    _lambda_entries,
    check_p,
    check_size,
    coefficient_profile,
    lambda_coefficient,
    lp_norm_segment,
)
from .multipoly import DEGREE_CAP, eval_rows
from .operators import (
    DunklContext,
    _check_kernel_rows,
    harmonic_basis,
    kernel_translate_batch,
    translate_as_polynomial,
)
from .sphere import SphereMeasure, grid_size, node_set

FUNDAMENTAL = "FUNDAMENTAL_UP_TO_N"
NOT_FUNDAMENTAL = "NOT_FUNDAMENTAL"
INDETERMINATE_VERDICT = "INDETERMINATE"


def _default_x_points(d: int, count: int, seed: int = 3) -> np.ndarray:
    if d in (2, 3):
        return node_set(d, count, "spiral")
    return node_set(d, count, "uniform_random", seed=seed)


@dataclass(frozen=True)
class _VerdictReport(Report):
    """The fields both verdict reports share, in their JSON order."""

    verdict: str
    n_max: int
    p: float
    lambda_value: float = field(metadata={"json": "lambda"})
    eps: float
    zero_witnesses: tuple
    indeterminate_degrees: tuple


def _verdict_fields(ctx: DunklContext, flags, p, eps) -> dict:
    """The _VerdictReport fields for per-degree flags of degrees 0..n_max."""
    zeros = tuple(n for n, f in enumerate(flags) if f == ZERO)
    indet = tuple(n for n, f in enumerate(flags) if f == INDETERMINATE)
    verdict = (NOT_FUNDAMENTAL if zeros else INDETERMINATE_VERDICT if indet
               else FUNDAMENTAL)
    return dict(verdict=verdict, n_max=len(flags) - 1, p=float(p),
                lambda_value=float(ctx.lambda_kappa), eps=eps,
                zero_witnesses=zeros, indeterminate_degrees=indet)


# ---------------------------------------------------------------------------
# Fundamentality of a single generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalityReport(_VerdictReport):
    KIND = "fundamentality"

    profile: CoefficientProfile

    def to_csv_text(self) -> str:
        return self.profile.to_csv_text()


def is_fundamental(ctx: DunklContext, g: Function1D, p: float = 2.0,
                   n_max: int = 20, eps: float = DEFAULT_EPS,
                   precision: int | None = None) -> FundamentalityReport:
    """Decide fundamentality of {K(x, .)} in L_p(sigma_kappa) up to degree n_max.

    The decision reduces to the vanishing pattern of Lambda_n(g), n <= n_max,
    so the p argument is recorded but cannot change the verdict.  A confident
    zero wins over everything (the translates all sit in the orthogonal
    complement of that harmonic space); otherwise any degree whose coefficient
    cannot be resolved at tolerance eps yields INDETERMINATE.
    """
    check_p(p)
    profile = coefficient_profile(g, ctx.lambda_kappa, n_max, eps=eps,
                                  precision=precision)
    flags = [e.flag for e in profile.entries]
    return FundamentalityReport(**_verdict_fields(ctx, flags, p, eps), profile=profile)


# ---------------------------------------------------------------------------
# Union of several generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnionReport(_VerdictReport):
    KIND = "union_fundamentality"
    CSV_HEADER = "n,aggregate_abs,aggregate_error,flag"

    aggregate_abs: tuple
    aggregate_error: tuple
    member_reports: tuple = field(metadata={"json": "members"})

    def csv_rows(self):
        return zip(range(self.n_max + 1), self.aggregate_abs,
                   self.aggregate_error, _union_flags(self.member_reports))


def _union_flags(member_reports) -> list:
    """Per-degree flag of sum_i |Lambda_n(g_i)|, aggregated from member flags.

    The sum of nonnegative terms is nonzero iff some term is nonzero, so the
    union flag can be decided from the member flags (which were classified at
    full working precision) without re-adding downcast magnitudes.
    """
    n_max = member_reports[0].n_max
    flags = []
    for n in range(n_max + 1):
        member = [r.profile.entry(n).flag for r in member_reports]
        if any(f == NONZERO for f in member):
            flags.append(NONZERO)
        elif all(f == ZERO for f in member):
            flags.append(ZERO)
        else:
            flags.append(INDETERMINATE)
    return flags


def union_fundamental(ctx: DunklContext, gs, p: float = 2.0, n_max: int = 20,
                      eps: float = DEFAULT_EPS,
                      precision: int | None = None) -> UnionReport:
    """Fundamentality of the union of translate families of several generators.

    The union spans the degree-n harmonics iff sum_i |Lambda_n(g_i)| > 0, so
    members can patch each other's zero degrees (classically: cosh covers the
    even degrees, sinh the odd ones).
    """
    if not gs:
        raise ValueError("need at least one generator")
    members = tuple(
        is_fundamental(ctx, g, p=p, n_max=n_max, eps=eps, precision=precision)
        for g in gs
    )
    agg_abs = []
    agg_err = []
    for n in range(n_max + 1):
        agg_abs.append(float(sum(abs(r.profile.entry(n).value) for r in members)))
        agg_err.append(float(sum(r.profile.entry(n).error_bound for r in members)))
    return UnionReport(
        **_verdict_fields(ctx, _union_flags(members), p, eps),
        aggregate_abs=tuple(agg_abs),
        aggregate_error=tuple(agg_err),
        member_reports=members,
    )


# ---------------------------------------------------------------------------
# Funk-Hecke residuals (reproducing identity check)
# ---------------------------------------------------------------------------

# values per block of kernel rows or basis elements taken at once (2 MiB)
_ROW_BLOCK = 2 ** 18


@dataclass(frozen=True)
class FunkHeckeReport(Report):
    KIND = "funk_hecke"
    CSV_HEADER = "n,route,residual"

    n: int
    lambda_value: float = field(metadata={"json": "lambda"})
    coefficient: complex
    coefficient_error: float
    residual: float
    residual_by_route: dict
    x_count: int
    basis_size: int

    def csv_rows(self):
        return [(self.n, route, self.residual_by_route[route])
                for route in sorted(self.residual_by_route)]


@dataclass(frozen=True)
class FunkHeckeTable(Report):
    """The funk-hecke command's report: one FunkHeckeReport per degree and
    the largest residual, judged against threshold."""

    KIND = "funk_hecke_table"
    CSV_HEADER = "n,residual"

    threshold: float
    max_residual: float
    rows: tuple

    def csv_rows(self):
        return [(r.n, r.residual) for r in self.rows]


def funk_hecke_table(ctx: DunklContext, g: Function1D, degrees,
                     orders: int = 80, x_count: int = 6, quad_order: int = 48,
                     seed: int = 3) -> tuple:
    """Residuals of int K(x, y) Y_n(y) d sigma(y) = Lambda_n(g) Y_n(x), one
    FunkHeckeReport per degree n in degrees.

    Runs over every degree-n harmonic basis element and a small set of x
    points.  The left side is computed by sphere quadrature against the
    kernel; for polynomial-type g a second, independent route expands
    K(x, .) as an explicit polynomial first.  Residuals are normalized per
    basis element by max(1, sup |Y| on the grid).  The kernel does not
    depend on n, so the grid, the x points and the weighted kernel rows
    wts * K(x, .) of both routes are built once for all degrees, one
    (x_count, Q) matrix per route, and the coefficients Lambda_n(g) of all
    degrees come from one call of the route selector behind
    lambda_coefficient.  Before anything is built, a context
    without a kernel raises UnsupportedGroupError, and a grid or an
    x_count x Q above the limit of check_size, or a polynomial g whose
    highest nonzero coefficient is past DEGREE_CAP, raises ValueError.  The
    x_count translate polynomials are evaluated on the grid in one eval_rows
    call, and the basis elements in blocks of at most _ROW_BLOCK values
    (one element when Q is larger), so each block shares one table of
    powers x_i^e per chunk of grid points.
    """
    ctx.kappa_by_axis()
    _check_kernel_rows(x_count, grid_size(ctx, orders))
    coeffs = g.coefficients
    if coeffs is not None:
        degree = max((i for i, c in enumerate(coeffs) if c), default=0)
        if degree > DEGREE_CAP:
            raise ValueError(f"polynomial g of degree {degree} exceeds the degree cap "
                             f"{DEGREE_CAP} of its translate polynomials")
    measure = SphereMeasure(ctx, "tensor", orders=orders)
    pts, wts = measure.quad_points()
    xs = _default_x_points(ctx.dim, x_count, seed)
    rows = {"quadrature": kernel_translate_batch(ctx, g, xs, pts, quad_order)}
    if coeffs is not None:
        translates = [translate_as_polynomial(ctx, g, x) for x in xs]
        rows["translate"] = eval_rows(translates, pts)
    for weighted in rows.values():
        weighted *= wts

    step = max(1, _ROW_BLOCK // len(pts))
    reports = []
    entries, _, _ = _lambda_entries(g, ctx.lambda_kappa, tuple(degrees))
    for entry in entries:
        n, lam_val, lam_err = entry.n, entry.value, entry.error_bound
        basis = harmonic_basis(ctx, n)
        elements = [e.to_float() for e in basis.elements]
        routes = dict.fromkeys(rows, 0.0)
        for lo in range(0, len(elements), step):
            block = elements[lo:lo + step]
            y_vals = eval_rows(block, pts)                            # (b, Q)
            y_at_x = eval_rows(block, xs)                             # (b, X)
            scales = np.maximum(1.0, np.abs(y_vals).max(axis=1))      # (b,)
            for route, weighted in rows.items():
                # one matrix-vector product per x: a single product over all
                # x could sum in another order and move the last digits
                for j, wk in enumerate(weighted):
                    err = np.abs(y_vals @ wk - lam_val * y_at_x[:, j]) / scales
                    routes[route] = max(routes[route], float(err.max()))
        reports.append(FunkHeckeReport(
            n=n,
            lambda_value=float(ctx.lambda_kappa),
            coefficient=complex(lam_val),
            coefficient_error=float(lam_err),
            residual=max(routes.values()),
            residual_by_route=routes,
            x_count=int(xs.shape[0]),
            basis_size=len(elements),
        ))
    return tuple(reports)


def funk_hecke_residual(ctx: DunklContext, g: Function1D, n: int,
                        orders: int = 80, x_count: int = 6,
                        quad_order: int = 48,
                        seed: int = 3) -> FunkHeckeReport:
    """funk_hecke_table for the single degree n."""
    return funk_hecke_table(ctx, g, (n,), orders, x_count, quad_order, seed)[0]


# ---------------------------------------------------------------------------
# Least-squares density demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport(Report):
    KIND = "density_demo"
    CSV_HEADER = "nodes,ridge,residual"

    m_degree: int
    lambda_value: float = field(metadata={"json": "lambda"})
    coefficient: float
    node_counts: tuple
    residuals: tuple
    ridges: tuple
    scheme: str

    def csv_rows(self):
        return zip(self.node_counts, self.ridges, self.residuals)


def density_demo(ctx: DunklContext, g: Function1D, m_degree: int,
                 node_counts, orders: int = 80, ridge: float | None = None,
                 scheme: str = "spiral", kernel_order: int = 48,
                 seed: int | None = None) -> DensityReport:
    """Grid residuals of a degree-m harmonic against combinations of kernel
    translates.

    Fits sum_j a_j K(x_j, .) to Y_m in L2(sigma) for node sets of
    increasing size, on the Q points of the tensor grid, whose weights w are
    positive on every grid (a negative one raises ValueError before sqrt(w)
    is taken).  Each node set's kernel rows K(x_j, .) come from one
    kernel_translate_batch call and are scaled in place to R = sqrt(w) K, so
    one (J, Q) array is held at a time, and the Gram matrix G = R R^T is one
    symmetric product.  With Y normalized on the same grid and b_j =
    Lambda_m(g) Y(x_j), a solves (G + ridge I) a = b, and the residual is
    || sqrt(w) Y - a R ||, the grid norm of the residual vector, which keeps
    its digits where 1 - 2 a.b + a.G.a would cancel.  It is the residual of
    the computed combination, so it bounds the best grid residual from
    above; it is not the best approximation error.  When Lambda_m(g) = 0
    the translates are orthogonal to the whole degree-m space, and when
    G = 0 (a zero kernel) a = 0 is the minimiser: both take no solve and
    report exactly 1.  Before anything is built, a context without a kernel
    raises UnsupportedGroupError, and the largest set's J x J Gram matrix,
    the grid and that set's J x Q kernel rows are counted in that order and
    raise ValueError above the limit of check_size.
    """
    ctx.kappa_by_axis()
    counts = tuple(int(c) for c in node_counts)
    most = max(counts, default=0)
    check_size(most * most, f"a density node set of {most} nodes builds a {most} x "
               f"{most} Gram matrix", "lower the node count")
    _check_kernel_rows(most, grid_size(ctx, orders))
    pts, wts = SphereMeasure(ctx, "tensor", orders=orders).quad_points()
    if (wts < 0).any():
        raise ValueError("the density grid has a negative weight")
    root_w = np.sqrt(wts)

    basis = harmonic_basis(ctx, m_degree)
    y = basis.elements[0].to_float()
    target = root_w * y.eval_many(pts)
    norm = float(np.linalg.norm(target))                # || Y ||_{L2(sigma)}
    y, target = y.scale(1.0 / norm), target / norm

    value, _ = lambda_coefficient(g, m_degree, ctx.lambda_kappa)
    lam_val = float(np.real(value))

    residuals = []
    ridges = []
    for count in counts:
        nodes = node_set(ctx.dim, count, scheme, seed=seed)
        rows = kernel_translate_batch(ctx, g, nodes, pts, kernel_order)
        rows *= root_w
        gram = rows @ rows.T
        b = lam_val * y.eval_many(nodes)
        rid = ridge
        if rid is None:
            rid = 1e-10 * float(np.trace(gram)) / gram.shape[0]
        res = 1.0
        if gram.any() and b.any():
            a = np.linalg.solve(gram + rid * np.eye(gram.shape[0]), b)
            res = float(np.linalg.norm(target - a @ rows))
        residuals.append(res)
        ridges.append(float(rid))

    return DensityReport(
        m_degree=m_degree,
        lambda_value=float(ctx.lambda_kappa),
        coefficient=lam_val,
        node_counts=counts,
        residuals=tuple(residuals),
        ridges=tuple(ridges),
        scheme=scheme,
    )


@dataclass(frozen=True)
class OperatorNormReport(Report):
    KIND = "operator_norm"

    p: float
    max_ratio: float
    ratios: tuple
    segment_norm: float


def operator_norm_check(ctx: DunklContext, g: Function1D, p: float = 2.0,
                        x_count: int = 50, orders: int = 80,
                        kernel_order: int = 48,
                        seed: int = 7) -> OperatorNormReport:
    """max_x ||K(x, .)||_{kappa, p} / ||g||_{lambda, p}.

    The translate operator is an average of values of g (the defining
    integral is against probability measures), so the ratio never exceeds 1;
    at kappa = 0 the kernel is g(<x, y>) itself and the ratio is 1 exactly.
    A g of norm 0 has the kernel 0, and every ratio is reported as 0.
    The kernel rows are built in blocks of centres of at most _ROW_BLOCK
    values (one row when Q is larger), so x_count x Q is never refused.
    """
    check_p(p)
    ctx.kappa_by_axis()
    measure = SphereMeasure(ctx, "tensor", orders=orders)
    pts, wts = measure.quad_points()
    seg = lp_norm_segment(g, p, ctx.lambda_kappa)
    xs = node_set(ctx.dim, x_count, "uniform_random", seed=seed)
    step = max(1, _ROW_BLOCK // len(pts))
    powered = np.concatenate([
        np.abs(kernel_translate_batch(ctx, g, xs[lo:lo + step], pts, kernel_order))
        ** float(p) @ wts for lo in range(0, len(xs), step)])
    # g = 0 has K = 0 and ||g|| = 0: its ratios are 0, not 0 / 0
    ratios = powered ** (1.0 / float(p)) / seg if seg else np.zeros(len(xs))
    return OperatorNormReport(
        p=float(p),
        max_ratio=float(max(ratios)),
        ratios=tuple(float(r) for r in ratios),
        segment_norm=float(seg),
    )
