"""Sparse multivariate polynomials in exact-rational or float mode.

A polynomial in d variables is stored as a map from exponent tuples to
coefficients.  Two scalar modes exist and never mix inside one operation:

* ``"exact"``  -- coefficients are ``fractions.Fraction``; no rounding ever.
* ``"float"``  -- coefficients are Python floats (complex allowed).

The exact pipeline is the ground-truth oracle for the float pipeline, so a
silent promotion from float to Fraction (or a mixed-mode add) is an error.
Scalars may always be *demoted* into float mode (Fraction -> float) since that
direction loses nothing the float mode promises.

Variables are indexed 0..d-1 in the API; the text format names them x1..xd.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

EXACT = "exact"
FLOAT = "float"

#: Products whose total degree would exceed this raise DegreeCapError.  Guards
#: against runaway symbolic growth.
DEGREE_CAP = 64

#: Float remainders of a division by a linear form may reach this times
#: max(1, max |coefficient of the dividend|).
DIVIDE_TOL = 1e-9

#: Rows per chunk in eval_rows: a float temporary of 16k rows stays under the
#: 128 KiB at which glibc malloc maps fresh pages for every allocation.  The
#: powers x_i^e of one chunk are shared by all polynomials of one call.
EVAL_CHUNK_ROWS = 16_000


class DegreeCapError(ArithmeticError):
    """Raised when a product would exceed the degree cap."""


class NonDivisibleError(ArithmeticError):
    """Raised when divide_by_linear_form meets a nonzero remainder."""


class ModeError(TypeError):
    """Raised on mixed exact/float operands or bad scalar types."""


def _coerce_scalar(c, mode):
    """Coerce c into a coefficient for the given mode.

    Exact mode accepts int and Fraction.  Float mode accepts int, float,
    complex, and Fraction (demotion).  Anything else raises ModeError.
    """
    if mode == EXACT:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int) and not isinstance(c, bool):
            return Fraction(c)
        raise ModeError(f"exact mode requires int or Fraction, got {type(c).__name__}")
    if mode == FLOAT:
        if isinstance(c, complex):
            return c
        if isinstance(c, (int, float, Fraction)) and not isinstance(c, bool):
            return float(c)
        raise ModeError(f"float mode requires a real/complex number, got {type(c).__name__}")
    raise ModeError(f"unknown scalar mode {mode!r}")


def _check_mode(mode):
    if mode not in (EXACT, FLOAT):
        raise ModeError(f"unknown scalar mode {mode!r}")


# -- term-dict kernels -------------------------------------------------------
#
# A term dict maps exponent tuples to nonzero coefficients.  These kernels are
# the one implementation of each operation: MultiPoly's methods wrap them, and
# the Dunkl Laplacian runs them on integer coefficients.  They accept any
# scalars closed under + - * (int, Fraction, float, complex) and never store
# a zero.

def _add_terms(acc: dict, terms: Mapping, factor=None) -> dict:
    """acc += factor * terms in place (terms as they are for factor None)."""
    for e, c in terms.items():
        if factor is not None:
            c = c * factor
        s = acc.get(e, 0) + c
        if s == 0:
            acc.pop(e, None)
        else:
            acc[e] = s
    return acc


def _mul_terms(a: Mapping, b: Mapping) -> dict:
    """The product of two term dicts."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _power_terms(terms: Mapping, k: int, unit: dict) -> dict:
    """terms ** k by binary powering; unit is the term dict of the constant 1."""
    result, base = unit, terms
    while k:
        if k & 1:
            result = _mul_terms(result, base)
        k >>= 1
        if k:
            base = _mul_terms(base, base)
    return result


def _derivative_terms(terms: Mapping, i: int) -> dict:
    """d/dx_{i+1} of a term dict; distinct terms stay distinct."""
    out = {}
    for exps, c in terms.items():
        e = exps[i]
        if e:
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
    return out


def _divide_terms(terms: Mapping, v: Sequence, pivot: int, tol=None) -> dict:
    """The quotient of terms by <v, x>, by synthetic division in x_pivot.

    The remainder is free of x_pivot.  With tol None (exact scalars) any
    remainder raises NonDivisibleError; otherwise the largest remainder
    coefficient may reach tol * max(1, max |coefficient of terms|).  A pivot
    coefficient of 1 divides nothing, so integer terms stay integers.

    The remainder is one dict, scanned once per x_pivot exponent k from the
    highest down.  Subtracting t x^qe <v, x> for a term of exponent k
    changes that term and terms of exponent k - 1 only, so each scan meets
    every term of exponent k, in the order the dict holds them.
    """
    vp = v[pivot]
    form = [(j, vj) for j, vj in enumerate(v) if vj != 0]
    rem = dict(terms)
    quot: dict = {}
    for k in range(max((e[pivot] for e in rem), default=0), 0, -1):
        for e, c in [(e, c) for e, c in rem.items() if e[pivot] == k]:
            t = c if vp == 1 else c / vp
            qe = e[:pivot] + (k - 1,) + e[pivot + 1:]
            if t != 0:
                quot[qe] = t
            # subtract t * x^qe * <v, x>
            for j, vj in form:
                ne = qe[:j] + (qe[j] + 1,) + qe[j + 1:]
                s = rem.get(ne, 0) - t * vj
                if s == 0:
                    rem.pop(ne, None)
                else:
                    rem[ne] = s
    if rem:
        if tol is None:
            raise NonDivisibleError("polynomial is not divisible by the form")
        scale = max(1.0, max(abs(c) for c in terms.values()))
        worst = max(abs(c) for c in rem.values())
        if worst > tol * scale:
            raise NonDivisibleError(
                f"remainder {worst:.3e} exceeds tolerance {tol:.3e} (scaled)")
    return quot


class LinearImages:
    """The variables' images y_i = sum_j M[i][j] x_j under x -> Mx, as term
    dicts whose powers are built once and kept.

    Entries are used as given (zeros dropped), so they must already be
    scalars of the caller's kind; one is that kind's 1.
    """

    __slots__ = ("_images", "_unit", "_powers")

    def __init__(self, rows, one):
        d = len(rows)
        self._images = [{tuple(int(i == j) for i in range(d)): x
                         for j, x in enumerate(row) if x != 0} for row in rows]
        self._unit = {(0,) * d: one}
        self._powers: dict = {}

    def power(self, i: int, k: int) -> dict:
        """The term dict of y_i ** k."""
        got = self._powers.get((i, k))
        if got is None:
            got = self._powers[i, k] = _power_terms(self._images[i], k, self._unit)
        return got

    def compose(self, terms: Mapping) -> dict:
        """The term dict of p(Mx) for p given by terms: one product per factor."""
        out: dict = {}
        for exps, c in terms.items():
            term = {(0,) * len(exps): c}
            for i, e in enumerate(exps):
                if e:
                    term = _mul_terms(term, self.power(i, e))
            _add_terms(out, term)
        return out


class MultiPoly:
    """Immutable sparse polynomial.  Do not mutate ``terms`` after creation."""

    __slots__ = ("dim", "mode", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, object] | None = None,
                 mode: str = EXACT):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        _check_mode(mode)
        clean = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != dim:
                    raise ValueError(f"exponent tuple {exps} does not have length {dim}")
                if any((not isinstance(e, int)) or e < 0 for e in exps):
                    raise ValueError(f"exponents must be nonnegative ints, got {exps}")
                c = _coerce_scalar(c, mode)
                if c != 0:
                    clean[exps] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, dim: int, terms: dict, mode: str) -> "MultiPoly":
        """Wrap a term dict that already holds the invariants __init__
        enforces (exponent tuples of length dim, nonzero coefficients of the
        mode's type), taking ownership of it.  Ring operations build their
        results here instead of re-validating them."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "mode", mode)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim, mode=EXACT):
        return cls(dim, {}, mode)

    @classmethod
    def constant(cls, dim, c, mode=EXACT):
        return cls(dim, {(0,) * dim: c}, mode)

    @classmethod
    def variable(cls, dim, i, mode=EXACT):
        """The polynomial x_{i+1} (0-based index i)."""
        if not 0 <= i < dim:
            raise IndexError(f"variable index {i} out of range for dim {dim}")
        exps = tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, {exps: 1}, mode)

    @classmethod
    def monomial(cls, dim, exponents, coeff=1, mode=EXACT):
        return cls(dim, {tuple(exponents): coeff}, mode)

    @classmethod
    def linear_form(cls, v: Sequence, mode=EXACT):
        """The polynomial <v, x> = v_1 x_1 + ... + v_d x_d."""
        d = len(v)
        terms = {}
        for i, vi in enumerate(v):
            if vi != 0:
                exps = tuple(1 if j == i else 0 for j in range(d))
                terms[exps] = vi
        return cls(d, terms, mode)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents):
        c = self.terms.get(tuple(exponents))
        if c is not None:
            return c
        return Fraction(0) if self.mode == EXACT else 0.0

    def _require_same(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if other.mode != self.mode:
            raise ModeError(f"mixed scalar modes: {self.mode} vs {other.mode}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._require_same(other)
        return MultiPoly._trusted(self.dim, _add_terms(dict(self.terms), other.terms),
                                 self.mode)

    def __neg__(self):
        return MultiPoly._trusted(self.dim, {e: -c for e, c in self.terms.items()},
                                  self.mode)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce_scalar(c, self.mode)
        if c == 0:
            return MultiPoly.zero(self.dim, self.mode)
        return MultiPoly._trusted(self.dim, _add_terms({}, self.terms, c), self.mode)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def mul(self, other):
        """Polynomial product, guarded by the degree cap."""
        self._require_same(other)
        if self.is_zero() or other.is_zero():
            return MultiPoly.zero(self.dim, self.mode)
        if self.degree() + other.degree() > DEGREE_CAP:
            raise DegreeCapError(f"product degree {self.degree() + other.degree()} "
                                 f"exceeds cap {DEGREE_CAP}")
        return MultiPoly._trusted(self.dim, _mul_terms(self.terms, other.terms), self.mode)

    def power(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        if k and self.degree() * k > DEGREE_CAP:
            raise DegreeCapError(f"product degree {self.degree() * k} exceeds cap {DEGREE_CAP}")
        unit = {(0,) * self.dim: _coerce_scalar(1, self.mode)}
        return MultiPoly._trusted(self.dim, _power_terms(self.terms, k, unit), self.mode)

    def conjugate(self):
        if self.mode == EXACT:
            return self
        return MultiPoly(self.dim,
                         {e: (c.conjugate() if isinstance(c, complex) else c)
                          for e, c in self.terms.items()}, self.mode)

    def to_float(self) -> "MultiPoly":
        """Demote to float mode (identity if already float)."""
        if self.mode == FLOAT:
            return self
        return MultiPoly(self.dim, {e: float(c) for e, c in self.terms.items()}, FLOAT)

    # -- evaluation --------------------------------------------------------

    def eval(self, point: Sequence):
        """Evaluate at a point given as a length-d sequence of scalars."""
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        pt = [_coerce_scalar(x, self.mode) for x in point]
        total = Fraction(0) if self.mode == EXACT else 0.0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v = v * x ** e
            total = total + v
        return total

    def eval_many(self, points):
        """Vectorized evaluation on an (N, d) float array; returns length-N array.

        The one-row case of eval_rows, bit for bit.
        """
        return eval_rows([self], points)[0]

    def _is_complex(self):
        return self.mode == FLOAT and any(isinstance(c, complex) for c in self.terms.values())

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, i: int) -> "MultiPoly":
        """d/dx_{i+1} (0-based index i)."""
        if not 0 <= i < self.dim:
            raise IndexError(f"variable index {i} out of range for dim {self.dim}")
        return MultiPoly._trusted(self.dim, _derivative_terms(self.terms, i), self.mode)

    def substitute_linear(self, matrix) -> "MultiPoly":
        """Return p(Mx): each variable x_i is replaced by sum_j M[i][j] x_j.

        Matrix entries are coerced into this polynomial's scalar mode, so a
        Fraction matrix may act on a float polynomial but not vice versa.
        """
        d = self.dim
        rows = [list(r) for r in matrix]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError(f"matrix must be {d}x{d}")
        images = LinearImages([[_coerce_scalar(x, self.mode) for x in row] for row in rows],
                              _coerce_scalar(1, self.mode))
        return MultiPoly._trusted(d, images.compose(self.terms), self.mode)

    def divide_by_linear_form(self, v: Sequence) -> "MultiPoly":
        """Exact quotient p / <v, x>, raising NonDivisibleError otherwise.

        Synthetic division with the coordinate of largest |v_i| as pivot
        variable (the first one on ties), so a float root whose other
        coordinate is round-off, such as (cos(pi/2), 1), is never divided by
        that round-off.  For a linear divisor the quotient is unique and the
        remainder is free of the pivot variable, so exact divisibility shows
        up as a literally empty remainder in exact mode; in float mode the
        remainder is compared against DIVIDE_TOL * max(1, max |coeff of p|).
        """
        if len(v) != self.dim:
            raise ValueError(f"form has length {len(v)}, expected {self.dim}")
        vv = [_coerce_scalar(x, self.mode) for x in v]
        pivot = max(range(self.dim), key=lambda i: abs(vv[i]))
        if vv[pivot] == 0:
            raise ZeroDivisionError("division by the zero form")
        if self.is_zero():
            return self
        quot = _divide_terms(self.terms, vv, pivot,
                             None if self.mode == EXACT else DIVIDE_TOL)
        return MultiPoly._trusted(self.dim, quot, self.mode)

    def homogeneous_components(self):
        """List of (degree, component) pairs, ascending degree; [] for zero."""
        buckets: dict = {}
        for exps, c in self.terms.items():
            buckets.setdefault(sum(exps), {})[exps] = c
        return [(n, MultiPoly._trusted(self.dim, t, self.mode))
                for n, t in sorted(buckets.items())]

    # -- text serialization --------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form, e.g. ``-1 * x3 + 3/2 * x1^2*x2``.

        Terms are ordered by ascending total degree, then descending
        lexicographic exponent order.  Fractions print as str, floats and
        complex numbers as repr.
        """
        if not self.terms:
            return "0"
        def key(e):
            return (sum(e), tuple(-x for x in e))
        parts = []
        for exps in sorted(self.terms, key=key):
            c = self.terms[exps]
            if isinstance(c, complex):
                cs = f"({c!r})"
            else:
                cs = str(c) if isinstance(c, Fraction) else repr(c)
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps) if e > 0)
            parts.append(f"{cs} * {mono}" if mono else cs)
        return " + ".join(parts)

    # -- dunders -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.dim == other.dim and self.mode == other.mode
                and self.terms == other.terms)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"MultiPoly({self.dim}, {self.to_text()!r}, mode={self.mode!r})"


def eval_rows(polys: Sequence[MultiPoly], points):
    """Evaluate polynomials on one (N, d) float array; returns a (P, N) array.

    Points are taken in row chunks of at most EVAL_CHUNK_ROWS.  Within a
    chunk the powers x_i^e, up to the largest exponent any term takes, are
    built once by running products x_i^(e-1) * x_i and shared by every term
    of every polynomial.  A term c x^alpha is formed in one buffer as the
    power of its first variable times c, multiplied in place by the others
    in axis order, and added to its row; a constant term is added as it is.
    Each polynomial sums its own terms in its own order, so row p is
    bit-identical to evaluating polys[p] alone.  The result is complex when
    any polynomial has a complex coefficient.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or any(p.dim != pts.shape[1] for p in polys):
        dims = sorted({p.dim for p in polys})
        raise ValueError(f"expected points of shape (N, d), d in {dims}, not {pts.shape}")
    row_types = [complex if p._is_complex() else float for p in polys]
    out = np.zeros((len(polys), pts.shape[0]),
                   dtype=complex if complex in row_types else float)
    top = [max((e[i] for p in polys for e in p.terms), default=0)
           for i in range(pts.shape[1])]
    bufs = {t: np.empty(min(EVAL_CHUNK_ROWS, pts.shape[0]), dtype=t) for t in set(row_types)}
    for lo in range(0, pts.shape[0], EVAL_CHUNK_ROWS):
        chunk = pts[lo:lo + EVAL_CHUNK_ROWS]
        n = chunk.shape[0]
        # powers[i][e - 1] = x_i^e; x_i itself stays a column view, since a
        # contiguous copy per axis costs more in fresh pages than it saves
        powers = [[chunk[:, i]] for i in range(len(top))]
        for pw, t in zip(powers, top):
            while len(pw) < t:
                pw.append(pw[-1] * pw[0])
        for poly, dtype, row in zip(polys, row_types, out):
            acc, buf = row[lo:lo + n], bufs[dtype][:n]
            for exps, c in poly.terms.items():
                coeff = c if isinstance(c, complex) else float(c)
                factors = [powers[i][e - 1] for i, e in enumerate(exps) if e]
                if not factors:
                    acc += coeff
                    continue
                np.multiply(factors[0], coeff, out=buf)
                for f in factors[1:]:
                    buf *= f
                acc += buf
    return out


def monomials_of_degree(dim: int, n: int) -> list[tuple]:
    """All exponent tuples of total degree n, descending lexicographic order.

    This is the fixed column order used for degree-n coefficient vectors
    everywhere (harmonic bases, operator matrices), so x1^n comes first.
    """
    if n < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), n, dim)
    return out
