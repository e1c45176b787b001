"""Gegenbauer polynomials, Gauss-Jacobi rules, and coefficient profiles.

Everything 1-D lives here: the three-term recurrence, the normalization
constant c_lambda of the weight (1-t^2)^(lambda-1/2) on [-1, 1], Golub-Welsch
construction of Gauss rules, the Function1D grammar used by the CLI, and the
expansion coefficients

    Lambda_n(g) = c_lambda / C_n(1) * int_{-1}^{1} g(t) C_n(t) (1-t^2)^(lambda-1/2) dt

together with their three-state zero/nonzero/indeterminate flags: in
closed form for the grammar kinds, by Gauss-Jacobi quadrature for user
callables.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

ZERO = "zero"
NONZERO = "nonzero"
INDETERMINATE = "indeterminate"

#: Default threshold for declaring a coefficient zero.
DEFAULT_EPS = 1e-9

#: "schema_version" of every JSON report.
SCHEMA_VERSION = "2"


class Report:
    """The JSON and CSV form of every report: a frozen dataclass naming its
    ``KIND``.  Each field goes into the JSON under its name or its
    ``field(metadata={"json": key})``; a report with a CSV form sets
    ``CSV_HEADER`` and yields the rows from ``csv_rows()``."""

    def to_json_dict(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION, "kind": self.KIND}
        for f in fields(self):
            doc[f.metadata.get("json", f.name)] = _json_value(getattr(self, f.name))
        return doc

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        lines += [",".join(v if isinstance(v, str) else repr(v) for v in row)
                  for row in self.csv_rows()]
        return "\n".join(lines) + "\n"


def _json_value(value):
    """A field's JSON form; reports and profile entries give their own."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(value[k]) for k in sorted(value)}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    return value


def pochhammer(a, k: int):
    """Rising factorial (a)_k; exact for Fraction a."""
    if k < 0:
        raise ValueError("negative Pochhammer index")
    out = Fraction(1) if isinstance(a, (int, Fraction)) else 1.0
    for j in range(k):
        out = out * (a + j)
    return out


def _gegenbauer_rows(n_max: int, lam, t):
    """Yield C_0(t), ..., C_{n_max}(t) by the three-term recurrence

        C_0 = 1,  C_1 = 2 lam t,
        n C_n = 2 (n + lam - 1) t C_{n-1} - (n + 2 lam - 2) C_{n-2},

    in the arithmetic of t and lam: float, Fraction, numpy array or mpf.
    """
    prev, cur = t * 0 + 1, 2 * lam * t
    yield prev
    if n_max >= 1:
        yield cur
    for k in range(2, n_max + 1):
        prev, cur = cur, (2 * (k + lam - 1) * t * cur
                          - (k + 2 * lam - 2) * prev) / k
        yield cur


def gegenbauer_eval(n: int, lam, t):
    """C_n^lambda(t): exact when t and lam are both int or Fraction, float
    for any other Python number t, elementwise float for a numpy array t,
    and in mpmath arithmetic for an mpf t."""
    if n < 0:
        raise ValueError("negative degree")
    if isinstance(t, np.ndarray):
        t, lam = t.astype(float, copy=False), float(lam)
    elif isinstance(t, (int, Fraction)) and isinstance(lam, (int, Fraction)):
        t, lam = Fraction(t), Fraction(lam)
    elif isinstance(t, (int, float, Fraction)):
        t, lam = float(t), float(lam)
    for value in _gegenbauer_rows(n, lam, t):
        pass
    return value


def gegenbauer_at_one(n: int, lam):
    """C_n(1) = (2 lam)_n / n! as a running product of (2 lam + j) / (j + 1).

    Exact for int or Fraction lam, float otherwise; the product never forms
    n! on its own, so it stays finite for any n whose value is.
    """
    exact = isinstance(lam, (int, Fraction))
    two_lam = 2 * Fraction(lam) if exact else 2.0 * float(lam)
    out = Fraction(1) if exact else 1.0
    for j in range(n):
        out = out * (two_lam + j) / (j + 1)
    return out


def gegenbauer_coefficients(n: int, lam) -> list:
    """Monomial coefficients [c_0, ..., c_n] of C_n; exact for Fraction lam.

    From the explicit sum (DLMF 18.5.10) C_n(t) = sum_k (-1)^k (lam)_(n-k)
    (2t)^(n-2k) / (k! (n-2k)!): c_n = 2^n (lam)_n / n!, and each coefficient
    two degrees down is the last times -(n-2k)(n-2k-1) / (4 (k+1) (lam+n-k-1)).
    That is O(n) operations; lam may not be a negative integer.
    """
    exact = isinstance(lam, (int, Fraction))
    lam = Fraction(lam) if exact else float(lam)
    zero, c = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    out = [zero] * (n + 1)
    for j in range(n):
        c = c * 2 * (lam + j) / (j + 1)
    out[n] = c
    for k in range(n // 2):
        c = -c * (n - 2 * k) * (n - 2 * k - 1) / (4 * (k + 1) * (lam + n - k - 1))
        out[n - 2 * k - 2] = c
    return out


def c_lambda(lam) -> float:
    """Normalization making c_lambda * int (1-t^2)^(lam-1/2) dt = 1."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return math.gamma(lam + 1.0) / (math.sqrt(math.pi) * math.gamma(lam + 0.5))


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


#: Most points of a sphere tensor grid or a kernel quadrature grid built at
#: once, and most entries of a Gauss-Jacobi rule's Jacobi matrix: 2^24 points
#: take 640 MiB with their weights in d = 4, and d = 4 at order 80 (1,024,000
#: points) stays far below.
MAX_GRID_POINTS = 2 ** 24


def check_size(count: int, what: str, advice: str, width: int = 1) -> None:
    """Refuse count values above MAX_GRID_POINTS before they are built: the
    one memory limit of the package.  what names the object and its count,
    advice says what to lower, and width is the float64 values per counted
    point (d + 1 for a grid of points with weights) for the MiB figure."""
    if count > MAX_GRID_POINTS:
        raise ValueError(f"{what} ({count * width * 8 / 2 ** 20:.0f} MiB), above the "
                         f"limit of {MAX_GRID_POINTS}; {advice}")


@lru_cache(maxsize=256)
def jacobi_rule(m: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes/weights for (1-t)^alpha (1+t)^beta on [-1, 1].

    Golub-Welsch: nodes are eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the monic recurrence; weights are mu_0 times the squared first
    components of the normalized eigenvectors.  The dense m x m matrix is
    counted by check_size before it is built.
    """
    if m < 1:
        raise ValueError("rule needs at least one node")
    check_size(m * m, f"a Gauss-Jacobi rule of order {m} builds a {m} x {m} "
               "Jacobi matrix", "lower the order")
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi exponents must exceed -1")
    ab = alpha + beta
    diag = np.empty(m)
    diag[0] = (beta - alpha) / (ab + 2.0)
    for i in range(1, m):
        den = (2.0 * i + ab) * (2.0 * i + ab + 2.0)
        diag[i] = (beta * beta - alpha * alpha) / den
    off = np.empty(max(m - 1, 0))
    for i in range(1, m):
        if i == 1:
            # (1 + ab) cancels against ((2 + ab)^2 - 1); the raw quotient is
            # 0/0 at ab = -1 (Chebyshev) but the limit is finite
            num = 4.0 * (1.0 + alpha) * (1.0 + beta)
            den = (2.0 + ab) ** 2 * (3.0 + ab)
        else:
            num = 4.0 * i * (i + alpha) * (i + beta) * (i + ab)
            den = (2.0 * i + ab) ** 2 * ((2.0 * i + ab) ** 2 - 1.0)
        off[i - 1] = math.sqrt(num / den)
    jac = np.diag(diag)
    if m > 1:
        jac += np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    mu0 = 2.0 ** (ab + 1.0) * _beta(alpha + 1.0, beta + 1.0)
    weights = mu0 * vecs[0, :] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the Gegenbauer weight (1-t^2)^(lambda-1/2)."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_jacobi_rule(m: int, lam) -> QuadratureRule:
    """m-point Gauss rule for (1-t^2)^(lambda-1/2); exact to degree 2m-1."""
    lam = float(lam)
    return QuadratureRule(*jacobi_rule(m, lam - 0.5, lam - 0.5))


def symmetric_jacobi_rule(m: int, abs_exp: float, sym_exp: float):
    """2m-point rule for the weight |u|^abs_exp (1-u^2)^sym_exp on [-1, 1].

    Built from an m-point Jacobi rule on [0, 1] via u^2 = s, so even
    polynomials are integrated exactly to u-degree 4m-1 and odd ones vanish
    by the +-u symmetry of the node set.  Handles fractional exponents, which
    a plain Gauss-Legendre rule with the weight folded in cannot.
    """
    a_exp = (abs_exp - 1.0) / 2.0
    nodes, weights = jacobi_rule(m, sym_exp, a_exp)
    s = (1.0 + nodes) / 2.0
    w01 = weights / 2.0 ** (a_exp + sym_exp + 1.0)
    u = np.sqrt(s)
    un = np.concatenate([-u[::-1], u])
    wn = np.concatenate([w01[::-1], w01]) / 2.0
    return un, wn


# ---------------------------------------------------------------------------
# Function1D: the zonal profiles g that get expanded in Gegenbauer series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Function1D:
    """A function on [-1, 1], vectorized over numpy arrays.

    kind is one of poly | exp | cosh | sinh | cos | step | gegenbauer | user
    | sum.  ``sum`` nodes hold (weight, child) pairs of primitive kinds.
    ``parity`` is "even", "odd", or None; ``poly_degree`` is the degree of
    ``coefficients``, the monomial form of polynomial content, and None
    otherwise.  Both feed the structural zero rules of coefficient profiles.
    """

    kind: str
    coeffs: tuple = ()                 # poly: c_0 + c_1 t + ...
    omega: Fraction = Fraction(0)      # cos frequency, exact
    a: Fraction = Fraction(0)          # step threshold, exact
    n: int = 0                         # gegenbauer degree
    lam: float | None = None           # gegenbauer parameter
    fn: Callable | None = None         # user
    label: str = ""                    # user description
    parts: tuple = ()                  # sum: ((weight, Function1D), ...)

    # -- constructors --------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Sequence) -> "Function1D":
        cf = tuple(coeffs)
        while len(cf) > 1 and cf[-1] == 0:
            cf = cf[:-1]
        return cls("poly", coeffs=cf)

    @classmethod
    def exponential(cls) -> "Function1D":
        return cls("exp")

    @classmethod
    def cosh_fn(cls) -> "Function1D":
        return cls("cosh")

    @classmethod
    def sinh_fn(cls) -> "Function1D":
        return cls("sinh")

    @classmethod
    def cosine(cls, omega) -> "Function1D":
        return cls("cos", omega=Fraction(omega))

    @classmethod
    def step(cls, a) -> "Function1D":
        a = Fraction(a)
        if not -1 < a < 1:
            raise ValueError("step threshold must lie in (-1, 1)")
        return cls("step", a=a)

    @classmethod
    def gegenbauer_poly(cls, n: int, lam) -> "Function1D":
        if int(n) < 0:
            raise ValueError(f"gegen degree must be >= 0, not {n}")
        return cls("gegenbauer", n=int(n), lam=lam)

    @classmethod
    def from_callable(cls, fn: Callable, label: str = "user") -> "Function1D":
        return cls("user", fn=fn, label=label)

    @classmethod
    def weighted_sum(cls, parts) -> "Function1D":
        norm = []
        for w, g in parts:
            if g.kind == "sum":
                raise ValueError("sum parts must be primitive functions")
            norm.append((float(w), g))
        return cls("sum", parts=tuple(norm))

    # -- structure -----------------------------------------------------------

    @cached_property
    def coefficients(self) -> tuple | None:
        """(c_0, ..., c_k) with g(t) = sum_i c_i t^i for poly, gegen and sums
        of them, else None; computed once.  Exact for exact input: a sum
        adds its parts' coefficients times the exact values of their float
        weights, padded to the longest part, so k is the largest part
        degree."""
        if self.kind == "poly":
            return self.coeffs or (0,)
        if self.kind == "gegenbauer":
            return tuple(gegenbauer_coefficients(self.n, self.lam))
        if self.kind != "sum":
            return None
        if any(p.coefficients is None for _, p in self.parts):
            return None
        out = [0] * max((len(p.coefficients) for _, p in self.parts), default=1)
        for w, p in self.parts:
            for i, c in enumerate(p.coefficients):
                out[i] += Fraction(w) * c
        return tuple(out)

    @property
    def poly_degree(self) -> int | None:
        cf = self.coefficients
        return None if cf is None else len(cf) - 1

    @property
    def parity(self) -> str | None:
        if self.kind == "poly":
            ev = all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 1)
            od = all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 0)
            if ev and od:
                return "even"  # zero polynomial
            return "even" if ev else ("odd" if od else None)
        if self.kind == "gegenbauer":
            return "even" if self.n % 2 == 0 else "odd"
        if self.kind in ("cos", "cosh"):
            return "even"
        if self.kind == "sinh":
            return "odd"
        if self.kind == "sum":
            ps = {p.parity for _, p in self.parts}
            return ps.pop() if len(ps) == 1 and None not in ps else None
        return None

    @property
    def exponential_terms(self) -> tuple | None:
        """g(t) = Re sum_k a_k e^(r_k t) as ((a_k, r_k), ...), or None.

        exp, cosh and sinh have real rates; cos w is the real part of
        e^(i w t).  A sum concatenates its weighted parts' terms and is None
        when one part has no such form.  Integrals of these kinds against a
        product measure factor into one-dimensional integrals per axis.
        """
        k = self.kind
        if k == "exp":
            return ((1.0, 1.0),)
        if k == "cosh":
            return ((0.5, 1.0), (0.5, -1.0))
        if k == "sinh":
            return ((0.5, 1.0), (-0.5, -1.0))
        if k == "cos":
            return ((1.0, 1j * float(self.omega)),)
        if k == "sum":
            terms = []
            for w, part in self.parts:
                sub = part.exponential_terms
                if sub is None:
                    return None
                terms.extend((w * a, r) for a, r in sub)
            return tuple(terms)
        return None

    # -- evaluation ----------------------------------------------------------

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self._eval_array(arr)
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return float(out)
        return out

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        k = self.kind
        if k == "poly":
            out = np.zeros_like(t)
            for c in reversed(self.coeffs):
                out = out * t + float(c)
            return out
        if k == "exp":
            return np.exp(t)
        if k == "cosh":
            return np.cosh(t)
        if k == "sinh":
            return np.sinh(t)
        if k == "cos":
            return np.cos(float(self.omega) * t)
        if k == "step":
            return (t >= float(self.a)).astype(float)
        if k == "gegenbauer":
            return gegenbauer_eval(self.n, float(self.lam), t + 0.0)
        if k == "user":
            return np.asarray(self.fn(t))
        if k == "sum":
            out = np.zeros_like(t)
            for w, g in self.parts:
                out = out + w * g._eval_array(t)
            return out
        raise ValueError(f"unknown kind {k!r}")

    # -- description ---------------------------------------------------------

    def describe(self) -> str:
        """Grammar string accepted by parse_function (user kinds excepted)."""
        k = self.kind
        if k == "poly":
            return "poly " + ",".join(
                str(c) if isinstance(c, Fraction) else repr(float(c))
                for c in self.coeffs)
        if k in ("exp", "cosh", "sinh"):
            return k
        if k == "cos":
            return f"cos {self.omega}"
        if k == "step":
            return f"step {self.a}"
        if k == "gegenbauer":
            return f"gegen {self.n}"
        if k == "user":
            return f"user:{self.label}"
        if k == "sum":
            # exact rationals parse back to the same float; repr can hold "e+"
            return "sum " + " + ".join(f"{Fraction(repr(w))}*{g.describe()}"
                                       for w, g in self.parts)
        raise ValueError(f"unknown kind {k!r}")


def parse_fraction(text: str, what: str = "value") -> Fraction:
    """Fraction(text), with a zero denominator, an infinity or NaN (what
    names the number in that message), or a magnitude above the largest
    double reported as bad input."""
    if text.strip().lstrip("+-").lower() in ("inf", "infinity", "nan"):
        raise ValueError(f"{what} must be a finite number, not {text!r}")
    try:
        q = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if abs(q) > sys.float_info.max:
        raise ValueError(f"{text!r} is outside the double range")
    return q


# a + between sum terms; not one in an exponent (1e+3) or after a list's comma
_SUM_PLUS = re.compile(r"(?<![,\s])(?<![\d.][eE])\s*\+")


def parse_function(text: str, lam=None) -> Function1D:
    """Parse the CLI grammar:

    poly c0,c1,...   polynomial with rational ("3/2") or decimal coefficients
    gegen n          Gegenbauer C_n with the run's lambda (lam argument here)
    exp | cosh | sinh
    cos w
    step a
    sum w1*expr1 + w2*expr2 [+ ...]
    """
    text = text.strip()
    if text.startswith("sum "):
        parts = []
        for chunk in _SUM_PLUS.split(text[4:]):
            chunk = chunk.strip()
            if "*" not in chunk:
                raise ValueError(f"sum term {chunk!r} needs the form weight*expr")
            ws, expr = chunk.split("*", 1)
            w = parse_fraction(ws.strip())
            if w and not float(w):
                raise ValueError(f"sum weight {ws.strip()!r} is below the double range")
            parts.append((float(w), parse_function(expr, lam)))
        return Function1D.weighted_sum(parts)
    tokens = text.split(None, 1)
    if not tokens:
        raise ValueError("empty function expression")
    head = tokens[0]
    arg = tokens[1].strip() if len(tokens) > 1 else None
    if head == "poly":
        if not arg:
            raise ValueError("poly needs coefficients")
        return Function1D.polynomial([parse_fraction(c.strip())
                                      for c in arg.split(",")])
    if head == "gegen":
        if arg is None:
            raise ValueError("gegen needs a degree")
        if lam is None:
            raise ValueError("gegen requires the context lambda")
        return Function1D.gegenbauer_poly(int(arg), lam)
    if head == "exp" and arg is None:
        return Function1D.exponential()
    if head == "cosh" and arg is None:
        return Function1D.cosh_fn()
    if head == "sinh" and arg is None:
        return Function1D.sinh_fn()
    if head == "cos":
        if arg is None:
            raise ValueError("cos needs a frequency")
        return Function1D.cosine(parse_fraction(arg))
    if head == "step":
        if arg is None:
            raise ValueError("step needs a threshold")
        return Function1D.step(parse_fraction(arg))
    raise ValueError(f"cannot parse function expression {text!r}")


# ---------------------------------------------------------------------------
# Expansion coefficients and profiles
# ---------------------------------------------------------------------------

RULE_SIZE = 256       # Gauss-Jacobi nodes for user callables (norm rule: twice)
PRECISION = 50        # digits of the closed forms when no precision is given
# at 5 digits or fewer no closed form clears its bound 10^(5-dps) sum|terms|
MIN_PRECISION = 6


def _lambda_values_on_rule(g: Function1D, n_max: int, lam: float,
                           rule: QuadratureRule) -> list:
    """Lambda_0..n_max on rule, one dot product per Gegenbauer row, so each
    value is the same whatever n_max is."""
    gw = rule.weights * np.asarray(g(rule.nodes))
    scale = c_lambda(lam)
    return [scale * (row @ gw) / gegenbauer_at_one(n, lam)
            for n, row in enumerate(_gegenbauer_rows(n_max, lam, rule.nodes))]


def _quadrature_pair(g: Function1D, n_max: int, lam: float) -> tuple:
    """Lambda_0..n_max on the Gauss-Jacobi rule of 2 RULE_SIZE nodes, their
    bounds (spread to the RULE_SIZE-node rule plus the round-off floor
    1e-15 * max(1, ||g||_1)), and ||g||_1 on the larger rule."""
    doubled = gauss_jacobi_rule(2 * RULE_SIZE, lam)
    v1 = _lambda_values_on_rule(g, n_max, lam, gauss_jacobi_rule(RULE_SIZE, lam))
    v2 = _lambda_values_on_rule(g, n_max, lam, doubled)
    norm_g1 = lp_norm_segment(g, 1.0, lam, doubled)
    floor = 1e-15 * max(1.0, norm_g1)
    return v2, [abs(a - b) + floor for a, b in zip(v1, v2)], norm_g1


def check_p(p) -> None:
    """Refuse a Lebesgue exponent outside the paper's 1 <= p < infinity: the
    one check of p in the package (NaN fails it too)."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, not {p!r}")


def lp_norm_segment(g: Function1D, p: float, lam,
                    rule: QuadratureRule | None = None) -> float:
    """|| g ||_{lambda, p} = (c_lambda int |g|^p (1-t^2)^(lambda-1/2) dt)^(1/p)."""
    check_p(p)
    lam_f = float(lam)
    if rule is None:
        rule = gauss_jacobi_rule(RULE_SIZE, lam_f)
    gv = np.abs(np.asarray(g(rule.nodes))) ** p
    return float((c_lambda(lam_f) * (rule.weights @ gv)) ** (1.0 / p))


def _structural_flag(g: Function1D, n: int, lam) -> bool:
    """True when Lambda_n(g) = 0 exactly by degree or parity, or by
    orthogonality when g is a Gegenbauer polynomial at the run's lambda."""
    deg = g.poly_degree
    if deg is not None and n > deg:
        return True
    par = g.parity
    if par == "even" and n % 2 == 1:
        return True
    if par == "odd" and n % 2 == 0:
        return True
    if g.kind == "gegenbauer" and g.lam == lam and n != g.n:
        return True
    return False


def _has_closed_form(g: Function1D) -> bool:
    """Whether g is a grammar kind or a sum holding no user callable."""
    return g.kind != "user" and all(p.kind != "user" for _, p in g.parts)


@dataclass(frozen=True)
class ProfileEntry:
    n: int
    value: complex
    error_bound: float
    flag: str                 # zero | nonzero | indeterminate
    structural: bool = False  # exact zero by degree, parity or orthogonality

    def to_json_dict(self) -> dict:
        return {"n": self.n, "re": self.value.real, "im": self.value.imag,
                "error_bound": self.error_bound, "flag": self.flag,
                "structural": self.structural}


@dataclass(frozen=True)
class CoefficientProfile(Report):
    """Lambda_n(g) for n = 0..N with per-entry certainty flags."""

    KIND = "coefficient_profile"
    CSV_HEADER = "n,re,im,error_bound,flag"

    g_description: str = field(metadata={"json": "g"})
    lam: float = field(metadata={"json": "lambda"})
    eps: float = field(metadata={"json": "epsilon"})
    norm_g1: float | None         # quadrature route only, like rule_size
    rule_size: int | None
    precision: int | None
    entries: tuple

    def entry(self, n: int) -> ProfileEntry:
        return self.entries[n]

    def csv_rows(self):
        return [(e.n, e.value.real, e.value.imag, e.error_bound, e.flag)
                for e in self.entries]


SAFETY = 8.0          # a value must clear SAFETY * error to count as resolved


def _classify(absval, err, thresh) -> str:
    """Three-state test, resolved values first.

    A coefficient that clears SAFETY times its error bound (which includes
    the noise floor of the arithmetic in use) is nonzero no matter how small
    it is in absolute terms.  The eps threshold only rules on values the
    computation cannot separate from zero: those are confident zeros when
    value and error together stay below it, indeterminate otherwise.
    Works for floats and mpmath numbers alike.
    """
    if absval > SAFETY * err:
        return NONZERO
    if absval + err <= thresh:
        return ZERO
    return INDETERMINATE


def _polynomial_coefficient(g: Function1D, n: int, lam: Fraction) -> Fraction:
    """Lambda_n of a poly or gegen g, exact, from the moments
    c_lam int t^(2k) (1-t^2)^(lam-1/2) dt = (1/2)_k / (lam + 1)_k, which are
    needed up to k = (deg g + n) / 2 only.  C_m at the run's lambda is the
    Kronecker delta lam / (m + lam)."""
    if g.kind == "gegenbauer" and g.lam == lam:
        return lam / (n + lam) if n == g.n else Fraction(0)
    coeffs = g.coefficients
    moments = [Fraction(1)]
    for k in range((len(coeffs) - 1 + n) // 2):
        moments.append(moments[-1] * (Fraction(1, 2) + k) / (lam + 1 + k))
    c_n = gegenbauer_coefficients(n, lam)
    raw = sum((Fraction(c) * q * moments[(i + j) // 2]
               for i, c in enumerate(coeffs) if c
               for j, q in enumerate(c_n) if q and (i + j) % 2 == 0),
              Fraction(0))
    return raw / gegenbauer_at_one(n, lam)


_GUARD_DIGITS = 15   # extra digits the Bessel I recurrence runs at


def _closed_form(g: Function1D, lam, degrees, dps: int,
                 eps: float = DEFAULT_EPS) -> dict:
    """{n: (value, error_bound, flag)} of Lambda_n(g) for a g with a closed
    form (DLMF 18.17, 10.25), worked at dps digits from one table per part
    of g over all the degrees:

        poly, gegen   exact Fractions (_polynomial_coefficient)
        exp           Gamma(lam + 1) 2^lam I_{n+lam}(1); cosh and sinh are
                      its even and odd degrees
        cos w         Gamma(lam + 1) 2^lam (-1)^(n/2) |w|^-lam J_{n+lam}(|w|)
        step a        n = 0: the regularized incomplete beta function
                      I(lam + 1/2, lam + 1/2) over [(1 + a)/2, 1]; n > 0:
                      c_lam (1 - a^2)^(lam + 1/2) times the rational
                      2 lam C_{n-1}^{lam+1}(a) / (n (n + 2 lam) C_n(1))

    I_{n+lam}(1) comes from two direct values at the largest degree and the
    downward recurrence I_{nu-1} = 2 nu I_nu + I_{nu+1} (DLMF 10.29.1), run
    at _GUARD_DIGITS more digits and rounded to dps; its terms are positive,
    so nothing cancels.  J_{n+lam} is taken per degree, since its recurrence
    can cancel near a zero of J.  The step form integrates
    d/dt[(1-t^2)^(lam+1/2) C_{n-1}^{lam+1}(t)] = -n (n + 2 lam) / (2 lam)
    (1-t^2)^(lam-1/2) C_n(t) over [a, 1]; its rationals come from one exact
    _gegenbauer_rows pass, so its zeros are decided in Fraction arithmetic.
    A sum adds its weighted terms.  The error bound is 10^(5-dps) times the
    sum of |terms|, far above the few ulps each special function loses at
    dps digits, and the flag is classified at dps digits before anything is
    rounded to a double.  That bound is relative, so no absolute noise floor
    is added: a value far below 10^-dps (exp has Lambda_40 ~ 1e-63 at lambda
    2) that clears its bound is nonzero, and eps is compared unscaled.
    """
    from mpmath import mp

    lam = Fraction(lam)
    parts = g.parts if g.kind == "sum" else ((1.0, g),)
    out = {}
    with mp.workdps(dps):
        def mpq(q: Fraction):
            return mp.mpf(q.numerator) / q.denominator

        lam_mp = mpq(lam)
        half = lam_mp + mp.mpf(1) / 2
        front = mp.gamma(lam_mp + 1) * mp.power(2, lam_mp)
        c_lam = mp.gamma(lam_mp + 1) / (mp.sqrt(mp.pi) * mp.gamma(half))
        bessel_i = {}

        def table(f: Function1D) -> dict:
            """{n: Lambda_n(f)} over the degrees where f is no structural zero."""
            live = [n for n in degrees if not _structural_flag(f, n, lam)]
            k = f.kind
            if not live or k in ("poly", "gegenbauer"):
                return {n: mpq(_polynomial_coefficient(f, n, lam)) for n in live}
            if k in ("exp", "cosh", "sinh"):
                if not bessel_i:                  # shared by every part
                    lo, top = min(degrees), max(degrees)
                    with mp.workdps(dps + _GUARD_DIGITS):
                        lam_g = mpq(lam)
                        for n in range(top, lo - 1, -1):
                            bessel_i[n] = (mp.besseli(n + lam_g, 1) if n > top - 2
                                           else 2 * (n + 1 + lam_g) * bessel_i[n + 1]
                                           + bessel_i[n + 2])
                return {n: front * mp.mpf(bessel_i[n]) for n in live}
            if k == "cos":
                w = mpq(abs(f.omega))
                if w == 0:                                    # g = 1
                    return {n: mp.mpf(1 if n == 0 else 0) for n in live}
                scale = mp.power(w, -lam_mp)
                return {n: front * (-1) ** (n // 2) * scale
                        * mp.besselj(n + lam_mp, w) for n in live}
            if k == "step":
                a, at_one, vals = f.a, Fraction(1), {}
                power = mp.power(mpq(1 - a * a), half)
                for n, c in enumerate(_gegenbauer_rows(max(live) - 1, lam + 1, a), 1):
                    at_one = at_one * (2 * lam + n - 1) / n           # C_n(1)
                    ratio = 2 * lam * c / (n * (n + 2 * lam) * at_one)
                    vals[n] = c_lam * mpq(ratio) * power
                if 0 in live:
                    vals[0] = mp.betainc(half, half, mpq((1 + a) / 2), 1,
                                         regularized=True)
                return {n: vals[n] for n in live}
            raise ValueError(f"{k} has no closed form")

        tables = [table(f) for _, f in parts]
        tol = mp.mpf(10) ** (5 - dps)
        thresh = mp.mpf(eps)
        for n in degrees:
            terms = [mp.mpf(w) * t.get(n, mp.zero) for (w, _), t in zip(parts, tables)]
            if len(terms) == 1:
                value, err = terms[0], tol * abs(terms[0])
            else:
                value = mp.fsum(terms)
                err = tol * mp.fsum(abs(x) for x in terms)
            out[n] = (complex(value), float(err),
                      _classify(abs(value), err, thresh))
    return out


def coefficient_profile(g: Function1D, lam, n_max: int, eps: float = DEFAULT_EPS,
                        precision: int | None = None) -> CoefficientProfile:
    """Profile of Lambda_n(g), n = 0..n_max.

    Degree, parity and orthogonality zeros are exact and flagged first.
    Every other entry of a grammar kind, or of a sum of grammar kinds, comes
    from its closed form at precision digits (PRECISION when None), is
    classified against eps itself, and builds no quadrature rule: norm_g1
    and rule_size are None.  A user callable, or a sum holding one, runs on
    the Gauss-Jacobi pair of RULE_SIZE and twice as many nodes, whose own
    accuracy bounds what can be certified; there eps is relative to
    max(1, ||g||_1), with the norm taken on the larger rule.  The entries
    are _lambda_entries over the degrees 0..n_max.
    """
    entries, norm_g1, rule_size = _lambda_entries(
        g, lam, range(n_max + 1), eps, PRECISION if precision is None else precision)
    return CoefficientProfile(g.describe(), float(lam), eps, norm_g1, rule_size,
                              precision, entries)


def lambda_coefficient(g: Function1D, n: int, lam):
    """(value, error_bound) for Lambda_n(g): the one-degree view of
    _lambda_entries at PRECISION digits, so it equals coefficient_profile's
    entry n bit for bit, (0, 0) for a structural zero included."""
    (entry,), _, _ = _lambda_entries(g, lam, (n,))
    return entry.value, entry.error_bound


def _lambda_entries(g: Function1D, lam, degrees, eps: float = DEFAULT_EPS,
                    precision: int = PRECISION) -> tuple:
    """(entries, norm_g1, rule_size): one ProfileEntry per degree in degrees,
    in their order.  The one place that picks how Lambda_n(g) is computed:
    structural zeros are flagged first, and the other degrees take one
    _closed_form call at precision digits when g has a closed form
    (norm_g1 and rule_size None), else one _quadrature_pair up to the
    largest degree, classified against eps * max(1, ||g||_1).  No degree,
    a negative one, one that is no integer (not numbers.Integral: 1.5,
    Fraction(3, 2) and 2.0 alike), a lambda that is not > 0 (NaN too), an
    eps that is negative or not finite, or a precision below MIN_PRECISION
    digits raises ValueError."""
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, not {lam}")
    if not degrees or min(degrees) < 0:
        raise ValueError(f"degrees must be nonempty and >= 0, not {list(degrees)}")
    if not all(isinstance(n, numbers.Integral) for n in degrees):
        raise ValueError(f"degrees must be integers, not {list(degrees)}")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be a finite number >= 0, not {eps!r}")
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} digits, "
                         f"not {precision!r}")
    structural = [_structural_flag(g, n, lam) for n in degrees]
    if _has_closed_form(g):
        data = _closed_form(g, lam, [n for n, s in zip(degrees, structural) if not s],
                            precision, eps)
        norm_g1 = rule_size = None
    else:
        rule_size = RULE_SIZE
        values, errors, norm_g1 = _quadrature_pair(g, max(degrees), float(lam))
        thresh = eps * max(1.0, norm_g1)
        data = {}
        for n in degrees:
            val, err = complex(values[n]), float(errors[n])
            data[n] = (val, err, _classify(abs(val), err, thresh))
    entries = tuple(ProfileEntry(n, 0.0 + 0.0j, 0.0, ZERO, True) if s
                    else ProfileEntry(n, *data[n])
                    for n, s in zip(degrees, structural))
    return entries, norm_g1, rule_size
