"""Weighted sphere measures: exact monomial integrals, tensor quadrature, MC.

The normalized measure is d sigma = a_kappa * w_kappa * d omega with
w_kappa(x) = prod |<v, x>|^(2 kappa(v)) over positive roots and a_kappa chosen
so that sigma(S^{d-1}) = 1, in closed form on every built-in family from the
weight's Gaussian mass (per axis on Zd2 and at kappa = 0), taken in mpmath so
that no Gamma value overflows; a grid sum only on a user root system at
kappa != 0.  Three backends:

* ``exact``          -- exact integrals of polynomials for every context:
                        a Horner pass of Dunkl Laplacians over the even
                        homogeneous parts (exact Fractions for exact-mode
                        input, float or complex values in float mode, which
                        is what I2 needs).
* ``tensor``         -- product Gauss rules over spherical angles.  For Zd2
                        the per-coordinate weight factors exactly into
                        |u|^b (1-u^2)^c angle weights, handled by dedicated
                        symmetric Jacobi rules (machine precision for any
                        kappa >= 0).  Other groups fold w_kappa into the
                        integrand pointwise, which is spectrally accurate for
                        polynomial weights but converges slowly at fractional
                        kappa; sigma_mass() shows that error on the weight.
* ``monte_carlo``    -- uniform sphere sampling (Gaussian normalization) with
                        importance weight a_kappa * w_kappa * area; a seed is
                        mandatory and runs are bit-reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .gegenbauer import check_p, check_size, jacobi_rule, symmetric_jacobi_rule
from .multipoly import DEGREE_CAP, EXACT, FLOAT, MultiPoly
from .operators import DunklContext, HarmonicBasis, dunkl_laplacian
from .reflection import weight_as_polynomial, weight_values

BACKENDS = ("exact", "tensor", "monte_carlo")


def _gamma_half(j: int):
    """Gamma(j/2) as (Fraction, sqrt_pi_power) with power in {0, 1}."""
    if j < 1:
        raise ValueError("argument must be a positive half-integer times 2")
    if j % 2 == 0:
        return Fraction(math.factorial(j // 2 - 1)), 0
    k = (j - 1) // 2
    return Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k)), 1


def even_monomial_coeff(alpha, d: int) -> Fraction:
    """Rational r with int_{S^{d-1}} x^alpha d omega = r * pi^(d // 2).

    alpha must have all entries even (odd exponents integrate to zero and
    return Fraction(0) here).  The pi power is the same for every even
    monomial on a fixed sphere, so normalized integrals are pure rationals.
    """
    if len(alpha) != d:
        raise ValueError("exponent tuple length must equal the dimension")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num = Fraction(2)
    sqrt_pi = 0
    for a in alpha:
        f, p = _gamma_half(a + 1)
        num *= f
        sqrt_pi += p
    den, dp = _gamma_half(sum(alpha) + d)
    if (sqrt_pi - dp) != 2 * (d // 2):  # pragma: no cover - arithmetic identity
        raise AssertionError("pi bookkeeping broke")
    return num / den


def sphere_surface_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# a_kappa
# ---------------------------------------------------------------------------

def _weight_mass_rational(ctx: DunklContext) -> Fraction:
    """int w d omega as (Fraction) * pi^(d//2), for integer multiplicities."""
    w = weight_as_polynomial(ctx.root_system, ctx.kappa)
    total = Fraction(0)
    for exps, c in w.terms.items():
        total += c * even_monomial_coeff(exps, ctx.dim)
    return total


def _a_kappa_closed(ctx: DunklContext) -> float | None:
    """a_kappa in closed form; None on a user root system at kappa != 0.

    The Gaussian mass of w over (2 pi)^(d/2): per axis where kappa factors over
    the coordinates, the Macdonald-Mehta-Opdam mass (Etingof 2010) on a, b and
    d; a beta integral on I2.  Taken in 30-digit mpmath, so no Gamma value
    overflows; README's "Weighted sphere integration" section states each formula.
    """
    family, d = ctx.root_system.family, ctx.dim
    if ctx.axis_kappas is None and family not in ("a", "b", "d", "i2"):
        return None
    from mpmath import mp, mpf
    with mp.workdps(30):
        ks = [mpf(str(k)) for k in ctx.axis_kappas or ctx.kappa.orbit_values]
        if ctx.axis_kappas is not None:
            gauss = mp.fprod(mpf(2) ** k * mp.gamma(k + 0.5) / mp.sqrt(mp.pi) for k in ks)
        elif family == "i2":
            m = len(ctx.root_system.positive)
            k1, k2, scale = (0, ks[0], 2 * (m - 1)) if m % 2 else (*ks, m - 2)
            mass = 2 * mp.beta(k1 + 0.5, k2 + 0.5) * mpf(2) ** (-scale * (k1 + k2))
            return float(1 / mass)
        elif family == "a":
            gauss = mp.fprod(mp.gamma(1 + j * ks[0]) / mp.gamma(1 + ks[0])
                             for j in range(1, d + 1))
        else:
            k_s = mpf(str(ctx.kappa.value((1,) + (0,) * (d - 1)))) if family == "b" else 0
            k_l = mpf(str(ctx.kappa.value((1, 1) + (0,) * (d - 2))))
            gauss = mp.fprod(mp.gamma(1 + (j + 1) * k_l) * mp.gamma(0.5 + k_s + j * k_l)
                             * mpf(2) ** (k_s + 2 * j * k_l)
                             / (mp.gamma(1 + k_l) * mp.sqrt(mp.pi)) for j in range(d))
        g = mpf(str(ctx.gamma_kappa)) + mpf(d) / 2
        return float(mpf(2) ** (g - 1) * mp.gamma(g) / ((2 * mp.pi) ** (mpf(d) / 2) * gauss))


def a_kappa_paths(ctx: DunklContext, order: int = 80) -> dict:
    """Every independently available evaluation of a_kappa, for cross-checks:
    "closed_form", "monomial" (the weight polynomial, at integer kappa on rational
    roots while 2 gamma <= DEGREE_CAP) and "quadrature" (1 / the grid's sum)."""
    out = {}
    if (closed := _a_kappa_closed(ctx)) is not None:
        out["closed_form"] = closed
    if ctx.root_system.exact and ctx.kappa.is_integer and 2 * ctx.gamma_kappa <= DEGREE_CAP:
        out["monomial"] = 1.0 / (float(_weight_mass_rational(ctx)) * math.pi ** (ctx.dim // 2))
    out["quadrature"] = 1.0 / float(_tensor_grid(ctx, order)[1].sum())
    return out


def a_kappa(ctx: DunklContext, order: int = 80) -> float:
    """Normalization constant with a_kappa * int w_kappa d omega = 1: the
    closed form on every built-in family and at kappa = 0, else 1 / sum of
    the weights of the order-`order` tensor grid."""
    return SphereMeasure(ctx, "tensor", orders=order).normalization


# ---------------------------------------------------------------------------
# Exact normalized integrals
# ---------------------------------------------------------------------------

def exact_sigma_integral(ctx: DunklContext, poly: MultiPoly):
    """int poly d sigma_kappa by Dunkl Laplacians, for every context.

    Each even homogeneous part splits as p_(2m) = sum_j |x|^(2j) Y_(2m-2j)
    with Y_k kappa-harmonic (Dunkl and Xu, P_n = H_n + |x|^2 P_(n-2)), and
    only Y_0 survives integration.  Delta_kappa^m kills every term with
    j < m and maps |x|^(2m) to 4^m m! (lambda + 1)_m, so

        int poly d sigma_kappa = sum_m Delta_kappa^m p_(2m) / (4^m m! (lambda + 1)_m),

    taken Horner-fashion from the top even degree down: one dunkl_laplacian
    per even degree.  Odd parts integrate to 0.  Returns a Fraction for
    exact-mode input and a float or complex value in float mode.  The first
    dunkl_laplacian call, on the zero polynomial of poly's dim and mode,
    raises ValueError for a dimension mismatch or an exact polynomial on a
    context with irrational roots, constants included.
    """
    even = {n // 2: part for n, part in poly.homogeneous_components() if n % 2 == 0}
    lam = ctx.lambda_kappa
    q = MultiPoly.zero(poly.dim, poly.mode)
    for m in range(max(even, default=0), -1, -1):
        q = dunkl_laplacian(ctx, q).scale(1 / (4 * (m + 1) * (lam + m + 1)))
        if m in even:
            q = q + even[m]
    return q.coefficient((0,) * poly.dim)


# ---------------------------------------------------------------------------
# Tensor quadrature grids
# ---------------------------------------------------------------------------

def _tensor_grid_zd2(kappas, d: int, order: int):
    """Factorized grid for per-axis kappas: per-angle symmetric Jacobi rules.

    Returns (points, weights) with sum(weights) ~= int w_kappa d omega.  The
    node set is invariant under every coordinate sign flip, so odd monomials
    cancel to round-off.
    """
    m01 = max(2, order // 2)
    kf = [float(k) for k in kappas]
    if d == 2:
        u, w = symmetric_jacobi_rule(m01, 2.0 * kf[0], kf[1] - 0.5)
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        pts = np.concatenate([np.stack([u, s], axis=1),
                              np.stack([u, -s], axis=1)])
        return pts, np.concatenate([w, w])
    # peel off the first coordinate; the recursion bottoms out on the circle
    pts, wts = _tensor_grid_zd2(kf[1:], d - 1, order)
    u, w = symmetric_jacobi_rule(m01, 2.0 * kf[0],
                                 (d - 3) / 2.0 + float(sum(kf[1:])))
    r = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    big = np.empty((u.size, pts.shape[0], d))          # written in place, no copies
    big[:, :, 0] = u[:, None]
    np.multiply(r[:, None, None], pts, out=big[:, :, 1:])
    return big.reshape(-1, d), np.outer(w, wts).ravel()


def _tensor_grid_general(ctx: DunklContext, order: int):
    """Spherical-angle Gauss-Legendre grid with w_kappa folded pointwise."""
    d = ctx.dim
    # angle parametrization: theta_1..theta_{d-2} in [0, pi], phi in [0, 2 pi)
    grids = []
    for j in range(d - 2):
        t, w = jacobi_rule(order, 0.0, 0.0)
        theta = (t + 1.0) * (math.pi / 2.0)
        wj = w * (math.pi / 2.0) * np.sin(theta) ** (d - 2 - j)
        grids.append((theta, wj))
    t, w = jacobi_rule(order, 0.0, 0.0)
    grids.append(((t + 1.0) * math.pi, w * math.pi))
    mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
    wmesh = np.meshgrid(*[g[1] for g in grids], indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=1)
    weights = np.prod(np.stack([m.ravel() for m in wmesh]), axis=0)
    pts = np.empty((angles.shape[0], d))
    sin_prod = np.ones(angles.shape[0])
    for j in range(d - 2):
        pts[:, j] = sin_prod * np.cos(angles[:, j])
        sin_prod = sin_prod * np.sin(angles[:, j])
    pts[:, d - 2] = sin_prod * np.cos(angles[:, -1])
    pts[:, d - 1] = sin_prod * np.sin(angles[:, -1])
    weights = weights * weight_values(ctx.root_system, ctx.kappa, pts)
    return pts, weights


def grid_size(ctx: DunklContext, order: int) -> int:
    """Points of the order-`order` tensor grid of ctx, counted without building
    it: 2 (2 max(2, order // 2))^(d-1) with per-axis kappas, order^(d-1) on
    the angle grid of other groups.  A grid above the limit of check_size,
    d < 2 or an order below 1 raises ValueError."""
    d = ctx.dim
    if d < 2:
        raise ValueError("sphere quadrature needs d >= 2")
    if order < 1:
        raise ValueError(f"a tensor grid needs order >= 1, not {order!r}")
    size = (order ** (d - 1) if ctx.axis_kappas is None
            else 2 * (2 * max(2, order // 2)) ** (d - 1))
    check_size(size, f"a d = {d} tensor grid of order {order} has {size} points",
               "lower the order", d + 1)
    return size


def _tensor_grid(ctx: DunklContext, order: int):
    """(points, weights) with sum(weights) ~ int w_kappa d omega (unnormalized),
    counted by grid_size before anything is allocated."""
    grid_size(ctx, order)
    if ctx.axis_kappas is not None:
        return _tensor_grid_zd2(ctx.axis_kappas, ctx.dim, order)
    return _tensor_grid_general(ctx, order)


# ---------------------------------------------------------------------------
# SphereMeasure
# ---------------------------------------------------------------------------

def _point_fn(f):
    """Normalize f (MultiPoly | callable) to a point callable."""
    if isinstance(f, MultiPoly):
        return f.eval_many
    if callable(f):
        return f
    raise TypeError(f"cannot integrate object of type {type(f).__name__}")


class SphereMeasure:
    """The normalized measure d sigma_kappa with a chosen backend."""

    def __init__(self, ctx: DunklContext, backend: str = "exact",
                 orders: int = 80, mc_samples: int = 10 ** 6,
                 seed: int | None = None):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "monte_carlo" and seed is None:
            raise ValueError("monte_carlo backend requires an explicit seed")
        if int(mc_samples) < 1:
            raise ValueError(f"mc_samples must be >= 1, not {mc_samples!r}")
        self.ctx = ctx
        self.backend = backend
        self.orders = int(orders)
        self.mc_samples = int(mc_samples)
        self.seed = seed
        self._grid = None
        self._a_kappa = None

    # -- shared pieces -----------------------------------------------------

    @property
    def normalization(self) -> float:
        """a_kappa, or 1 / sum of this measure's grid weights if no closed form."""
        if self._a_kappa is None:
            self._a_kappa = _a_kappa_closed(self.ctx)
            if self._a_kappa is None:
                self.quad_points()
        return self._a_kappa

    def quad_points(self):
        """Tensor-grid (points, weights scaled by a_kappa); built lazily, once."""
        if self._grid is None:
            pts, wts = _tensor_grid(self.ctx, self.orders)
            if self._a_kappa is None:
                self._a_kappa = _a_kappa_closed(self.ctx) or 1.0 / float(wts.sum())
            wts *= self._a_kappa
            self._grid = (pts, wts)
        return self._grid

    # -- integration -------------------------------------------------------

    def integrate(self, f):
        """int f d sigma_kappa, the one method that picks a route by backend.
        Exact backend requires polynomial input and returns a Fraction for
        exact-mode polynomials."""
        if self.backend == "exact":
            if not isinstance(f, MultiPoly):
                raise TypeError("exact backend integrates polynomials only")
            return exact_sigma_integral(self.ctx, f)
        if self.backend == "tensor":
            pts, wts = self.quad_points()
            vals = np.asarray(_point_fn(f)(pts))
            res = wts @ vals
            return complex(res) if np.iscomplexobj(vals) else float(res)
        est, _ = self.integrate_mc(f)
        return est

    def integrate_mc(self, f):
        """(estimate, standard error) by importance-weighted uniform sampling;
        the estimate is complex when f takes complex values."""
        if self.seed is None:
            raise ValueError("Monte Carlo integration requires a seed")
        rng = np.random.default_rng(self.seed)
        fn = _point_fn(f)
        area = sphere_surface_area(self.ctx.dim)
        scale = self.normalization * area
        total = 0.0
        total_sq = 0.0
        n_done = 0
        chunk = 200_000
        while n_done < self.mc_samples:
            take = min(chunk, self.mc_samples - n_done)
            z = rng.standard_normal((take, self.ctx.dim))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            vals = np.asarray(fn(z)) * weight_values(self.ctx.root_system,
                                                     self.ctx.kappa, z)
            total += complex(np.sum(vals)) if np.iscomplexobj(vals) else float(np.sum(vals))
            total_sq += float(np.sum(np.abs(vals) ** 2))
            n_done += take
        mean = total / n_done
        var = max(0.0, total_sq / n_done - abs(mean) ** 2)
        stderr = scale * math.sqrt(var / n_done)
        return scale * mean, stderr

    def sigma_mass(self):
        """sigma(S^{d-1}): integrate of the constant 1, so 1 up to backend
        error (tensor: the grid's mass defect)."""
        return self.integrate(MultiPoly.constant(self.ctx.dim, 1,
                                                 EXACT if self.ctx.exact else FLOAT))

    # -- inner products and norms -------------------------------------------

    def inner_product(self, f, h):
        """<f, h> = int f * conj(h) d sigma_kappa."""
        if isinstance(f, MultiPoly) and isinstance(h, MultiPoly):
            pf, ph = f, h
            if pf.mode != ph.mode:
                pf, ph = pf.to_float(), ph.to_float()
            return self.integrate(pf * ph.conjugate())
        ff, fh = _point_fn(f), _point_fn(h)
        return self.integrate(
            lambda pts: np.asarray(ff(pts)) * np.conjugate(np.asarray(fh(pts))))

    def lp_norm(self, f, p) -> float:
        """|| f ||_{kappa, p} on the sphere, for 1 <= p < infinity (check_p):
        integrate of |f|^p.  The exact backend integrates an even integer p
        of a polynomial exactly, and hands every other p to the tensor grid
        of the same order.  Monte Carlo needs no grid."""
        check_p(p)
        if self.backend == "exact":
            if isinstance(f, MultiPoly) and float(p) == int(p) and int(p) % 2 == 0:
                val = self.integrate((f * f.conjugate()).power(int(p) // 2))
                return float(val.real) ** (1.0 / float(p))
            return SphereMeasure(self.ctx, "tensor", orders=self.orders).lp_norm(f, p)
        fn = _point_fn(f)
        return self.integrate(
            lambda pts: np.abs(np.asarray(fn(pts))) ** float(p)) ** (1.0 / float(p))

    def gram(self, elements) -> tuple:
        """Pairwise inner-product matrix as a tuple of row tuples."""
        if isinstance(elements, HarmonicBasis):
            elements = elements.elements
        n = len(elements)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(rows[j][i])
                else:
                    row.append(self.inner_product(elements[i], elements[j]))
            rows.append(row)
        return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# Node sets for collocation demos
# ---------------------------------------------------------------------------

def node_set(d: int, count: int, scheme: str = "spiral",
             seed: int | None = None) -> np.ndarray:
    """Deterministic point families on S^{d-1}.

    spiral: equally spaced on the circle (d = 2, first node (1, 0)) or the
    golden-angle spiral (d = 3).  uniform_random: seeded Gaussian
    normalization, any d.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if scheme == "uniform_random":
        if seed is None:
            raise ValueError("random node sets require a seed")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, d))
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if scheme == "spiral":
        if d == 2:
            ang = 2.0 * math.pi * np.arange(count) / count
            return np.stack([np.cos(ang), np.sin(ang)], axis=1)
        if d == 3:
            k = np.arange(count)
            z = 1.0 - (2.0 * k + 1.0) / count
            r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            phi = k * math.pi * (3.0 - math.sqrt(5.0))
            return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        raise ValueError("spiral nodes are defined for d in {2, 3}; "
                         "use uniform_random for higher dimensions")
    raise ValueError(f"unknown node scheme {scheme!r}")
