"""Root systems, finite reflection groups, multiplicity functions, weights.

Vectors and matrices are plain tuples of scalars so that the rational families
(Zd2, A, B, D) stay in exact Fraction arithmetic end to end.  The dihedral
family I2(m) uses unit roots cos/sin(k*pi/m), which are irrational for every
m >= 3, so it always lives in float coordinates; roots and matrices are then
deduplicated by an entrywise 1e-10 quantization instead of exact comparison.
The one root walk (orbits and the root-system axioms) reflects vectors
directly, s_v w = w - (2 <v, w> / <v, v>) v, on int coordinates wherever the
roots are integral, so the rational families build no Fraction there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .gegenbauer import parse_fraction
from .multipoly import EXACT, FLOAT, MultiPoly

#: Generic direction whose inner products pick the positive subsystem:
#: u = (1, eps, eps^2, ...).  Small enough that no builtin root is orthogonal.
POSITIVE_EPS = Fraction(1, 1000)

#: Entrywise quantization used to deduplicate float matrices/vectors.
DEDUP_TOL = 1e-10

GROUP_ORDER_CAP = 10 ** 6

FAMILIES = ("zd2", "a", "b", "d", "i2")


class GroupOrderCapError(RuntimeError):
    """Group generation exceeded the element cap (not a finite system?)."""


class UnsupportedGroupError(ValueError):
    """Operation not available for this reflection group."""


class InvalidMultiplicityError(ValueError):
    """Multiplicity values not G-invariant or negative."""


# -- small exact linear algebra on tuples -----------------------------------

def _dot(u, v):
    return sum(map(mul, u, v))


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def _identity(d, exact):
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


def _vec_key(v):
    """Exact vectors key as they are (an int and the equal Fraction hash and
    compare alike); float vectors by their DEDUP_TOL quantization."""
    if all(isinstance(x, (int, Fraction)) for x in v):
        return tuple(v)
    return tuple(int(round(float(x) / DEDUP_TOL)) for x in v)


def _integral(x):
    """x as an int when it is an integral Fraction, else unchanged."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def _reflect(v, vv, w):
    """s_v w = w - (2 <v, w> / <v, v>) v, given vv = <v, v>: O(d) per image.

    Int coordinates stay ints while vv divides 2 <v, w>; a Fraction appears
    only when the ratio is not an integer, and float roots stay floats.
    """
    ip = 2 * _dot(v, w)
    if not ip:
        return w
    if isinstance(ip, int) and isinstance(vv, int) and ip % vv == 0:
        c = ip // vv
    elif isinstance(ip, float) or isinstance(vv, float):
        c = ip / vv
    else:
        c = Fraction(ip) / vv
    return tuple(a - c * b for a, b in zip(w, v))


def _reflection_steps(rs: RootSystem) -> tuple:
    """(v, <v, v>) per positive root, in int coordinates where integral."""
    steps = []
    for v in rs.positive:
        v = tuple(map(_integral, v))
        vv = _dot(v, v)
        if vv == 0:
            raise ValueError("cannot reflect through the zero vector")
        steps.append((v, vv))
    return tuple(steps)


def _mat_key(m):
    return tuple(_vec_key(row) for row in m)


def reflection_matrix(v: Sequence) -> tuple:
    """Householder reflection s_v = I - 2 v v^T / <v, v>.

    Exact (Fraction entries) whenever v has rational entries.
    """
    nrm = _dot(v, v)
    if nrm == 0:
        raise ValueError("cannot reflect through the zero vector")
    d = len(v)
    exact = all(isinstance(x, (int, Fraction)) for x in v)
    if exact:
        v = tuple(Fraction(x) for x in v)
        nrm = _dot(v, v)
    return tuple(
        tuple((1 if i == j else 0) - 2 * v[i] * v[j] / nrm for j in range(d))
        for i in range(d))


@dataclass(frozen=True)
class RootSystem:
    dim: int
    roots: tuple
    positive: tuple
    family: str | None = None
    exact: bool = True

    def __post_init__(self):
        if len(self.roots) != 2 * len(self.positive):
            raise ValueError("positive subsystem must contain one root per +- pair")


def _positive_filter(roots, dim):
    """Split roots by sign of the inner product with the generic direction."""
    u = [POSITIVE_EPS ** i for i in range(dim)]
    pos = []
    for v in roots:
        s = _dot(u, v)          # a Fraction times a float is a float
        if s == 0:
            raise ValueError(f"root {v} is orthogonal to the generic direction")
        if s > 0:
            pos.append(v)
    return tuple(pos)


def builtin_root_system(family: str, dimension: int | None = None,
                        order: int | None = None) -> RootSystem:
    """Construct one of the built-in families.

    family:    zd2 | a | b | d | i2 (case-insensitive)
    dimension: ambient dimension d (zd2: d >= 1; a: d >= 2 for A_{d-1};
               b: d >= 2; d: d >= 3).  i2 ignores it (always 2).
    order:     m >= 3 for i2(m) only.
    An unknown family raises UnsupportedGroupError; a dimension or order
    outside these ranges names no group and raises a plain ValueError.
    """
    fam = family.lower()
    if fam not in FAMILIES:
        raise UnsupportedGroupError(f"unknown family {family!r}; choose from {FAMILIES}")

    def e(i, d):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(d))

    def neg(v):
        return tuple(-x for x in v)

    if fam == "i2":
        if order is None or order < 3:
            raise ValueError("i2 requires order m >= 3")
        roots = tuple(
            (math.cos(k * math.pi / order), math.sin(k * math.pi / order))
            for k in range(2 * order))
        return RootSystem(2, roots, _positive_filter(roots, 2), "i2", exact=False)

    d = dimension
    if d is None:
        raise ValueError(f"family {fam!r} requires a dimension")

    if fam == "zd2":
        if d < 1:
            raise ValueError("zd2 requires d >= 1")
        pos = tuple(e(i, d) for i in range(d))
    elif fam == "a":
        if d < 2:
            raise ValueError("a requires ambient dimension d >= 2")
        pos = tuple(tuple(a - b for a, b in zip(e(i, d), e(j, d)))
                    for i in range(d) for j in range(d) if i < j)
    else:  # fam in ("b", "d"): e_i -+ e_j, and for b the axes e_i first
        least = 2 if fam == "b" else 3
        if d < least:
            raise ValueError(f"{fam} requires d >= {least}")
        axes = [e(i, d) for i in range(d)]
        pos = tuple(axes) if fam == "b" else ()
        pos += tuple(tuple(a + sign * b for a, b in zip(axes[i], axes[j]))
                     for i in range(d) for j in range(i + 1, d) for sign in (-1, 1))
    roots = pos + tuple(neg(v) for v in pos)
    return RootSystem(d, roots, pos, fam, exact=True)


@dataclass(frozen=True)
class ReflectionGroup:
    elements: tuple          # all group elements as row-tuple matrices
    generators: tuple        # the reflections s_v, v in the positive subsystem
    exact: bool

    @property
    def order(self):
        return len(self.elements)


def generate_group(rs: RootSystem) -> ReflectionGroup:
    """Closure of the root reflections under multiplication (BFS).

    Deduplication is exact for rational matrices and quantized at 1e-10
    entrywise otherwise.  Raises GroupOrderCapError past GROUP_ORDER_CAP
    elements.
    """
    gens = tuple(reflection_matrix(v) for v in rs.positive)
    ident = _identity(rs.dim, rs.exact)
    seen = {_mat_key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                p = _matmul(a, g)
                k = _mat_key(p)
                if k not in seen:
                    if len(seen) >= GROUP_ORDER_CAP:
                        raise GroupOrderCapError(
                            f"group generation exceeded cap {GROUP_ORDER_CAP}")
                    seen[k] = p
                    nxt.append(p)
        frontier = nxt
    return ReflectionGroup(tuple(seen.values()), gens, rs.exact)


def root_orbits(rs: RootSystem) -> list[list]:
    """Orbits of the full root set under the reflection group, found by the
    one pass that also checks the root-system axioms (ValueError on failure).

    The roots are indexed by key, which refuses duplicates and a missing
    negative; the positive subsystem must hold one root per +- pair.  Each
    positive root's reflection becomes one row of image indices, refused if
    an image falls outside R.  Two positive roots with the same row give the
    same reflection, so they are collinear, which a reduced system forbids.
    Each orbit is then the closure of a root under these rows: the positive
    reflections generate G, so the group itself is never built.  Orbits are
    ordered by, and start with, the first positive root (in the family's
    canonical enumeration order) they contain, which fixes the meaning of
    per-orbit multiplicity sequences.
    """
    steps = _reflection_steps(rs)
    # roots keyed by their int coordinates, so that lookups compare ints;
    # images of exact roots are exact, so they key as they are
    exact = all(isinstance(x, (int, Fraction)) for v in rs.roots for x in v)
    key = tuple if exact else _vec_key
    roots = [tuple(map(_integral, v)) for v in rs.roots]
    index = {key(w): i for i, w in enumerate(roots)}
    if len(index) != len(roots):
        raise ValueError("duplicate roots")
    neg = [index.get(key(tuple([-x for x in w]))) for w in roots]
    if None in neg:
        raise ValueError(f"root set not symmetric: -{rs.roots[neg.index(None)]} missing")
    pos = [index.get(key(u)) for u, _ in steps]
    if None in pos or len(set(pos).union([neg[i] for i in pos])) != len(roots):
        raise ValueError("positive subsystem must contain one root per +- pair")
    rows: dict = {}                  # image indices -> the positive root
    for v, (u, uu) in zip(rs.positive, steps):
        try:
            row = tuple([index[key(_reflect(u, uu, w))] for w in roots])
        except KeyError:
            raise ValueError(
                f"reflection through {v} does not preserve the root set") from None
        if row in rows:
            raise ValueError(f"roots {rows[row]} and {v} are collinear but not opposite")
        rows[row] = v
    assigned = [False] * len(roots)
    orbits: list[list] = []
    for v, i in zip(rs.positive, pos):
        if assigned[i]:
            continue
        assigned[i] = True
        orbit = [i]
        for j in orbit:              # grows while it is walked: a BFS
            for row in rows:
                if not assigned[row[j]]:
                    assigned[row[j]] = True
                    orbit.append(row[j])
        orbits.append([v, *(rs.roots[k] for k in orbit[1:])])
    return orbits


def _as_kappa_scalar(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, (str, float)):
        # floats come in from configs and numpy; shortest-repr keeps
        # human-entered decimals exact (0.5 -> 1/2)
        return parse_fraction(str(x), "multiplicity")
    raise InvalidMultiplicityError(f"cannot interpret multiplicity value {x!r}")


@dataclass(frozen=True)
class MultiplicityFunction:
    """G-invariant nonnegative multiplicity, stored per root orbit."""

    orbit_values: tuple            # Fractions, one per orbit
    _lookup: dict                  # vec key -> value, covers all roots

    def value(self, root) -> Fraction:
        k = _vec_key(root)
        if k not in self._lookup:
            raise KeyError(f"{root} is not a root of this system")
        return self._lookup[k]

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.orbit_values)

    @property
    def is_integer(self) -> bool:
        """Integer values: the weight prod |<v, x>|^(2 kappa(v)) is a polynomial."""
        return all(v.denominator == 1 for v in self.orbit_values)


def validate_multiplicity(rs: RootSystem, kappa) -> MultiplicityFunction:
    """Build a MultiplicityFunction from per-orbit values.

    kappa may be a single scalar (applied to every orbit) or a list or tuple
    with one value per orbit, in root_orbits order, so it is constant on
    orbits by construction.  Values must be nonnegative.
    """
    orbits = root_orbits(rs)
    if isinstance(kappa, (int, float, str, Fraction)):
        kappa = [kappa] * len(orbits)
    if not isinstance(kappa, (list, tuple)):
        raise InvalidMultiplicityError(f"cannot interpret multiplicity {kappa!r}")
    values = [_as_kappa_scalar(v) for v in kappa]
    if len(values) != len(orbits):
        raise InvalidMultiplicityError(
            f"expected {len(orbits)} multiplicity values "
            f"(one per root orbit), got {len(values)}")
    for v in values:
        if v < 0:
            raise InvalidMultiplicityError(f"multiplicity {v} is negative")
    lookup: dict = {}
    for orb, val in zip(orbits, values):
        for root in orb:
            lookup[_vec_key(root)] = val
    return MultiplicityFunction(tuple(values), lookup)


def weight_values(rs: RootSystem, kappa: MultiplicityFunction, points):
    """Vectorized w over an (N, d) float array."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    acc = np.ones(pts.shape[0])
    for v in rs.positive:
        k = float(kappa.value(v))
        if k:
            ip = np.abs(pts @ np.asarray([float(c) for c in v]))
            acc *= ip ** (2.0 * k)
    return acc


def weight_as_polynomial(rs: RootSystem, kappa: MultiplicityFunction) -> MultiPoly:
    """w as a polynomial: prod <v, x>^(2 kappa(v)), exact on rational roots
    and float otherwise (to_float() gives the float form of an exact one).

    Requires every kappa(v) to be a nonnegative integer so that the absolute
    value is redundant.
    """
    if not kappa.is_integer:
        raise ValueError("weight is polynomial only for integer multiplicities, "
                         f"got {', '.join(map(str, kappa.orbit_values))}")
    mode = EXACT if rs.exact else FLOAT
    w = MultiPoly.constant(rs.dim, 1, mode)
    for v in rs.positive:
        k = int(kappa.value(v))
        if k:
            w = w * MultiPoly.linear_form(v, mode).power(2 * k)
    return w
