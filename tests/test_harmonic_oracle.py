"""harmonic_basis against an independent route, on the benchmark's own
traffic: every ``harmonics`` op of perfbench/workloads.py (loaded by path, as
tests/test_benchmark_ops.py does) at seeds 1, 41 and 99; the rational root
system {+-(1, 2)}, whose Laplacian rows carry Fractions; and A5, B4, D5 and a
Z_2^4 whose coordinate block {2, 4} is not contiguous, whose exact bases
harmonic_basis builds from one free monomial per permutation orbit.

The oracle builds the Laplacian matrix one monomial at a time through the
public dunkl_laplacian (a MultiPoly per column, rows in Fractions) and takes
its nullspace by Gauss-Jordan elimination that re-reduces every earlier pivot
row at each new pivot; float contexts take the SVD of the same dense matrix.
Both must give the same terms, in the same order, and the same mode."""

import importlib.util
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

from dunklsphere import (EXACT, FLOAT, DunklContext, MultiPoly, dunkl_laplacian,
                         harmonic_basis, monomials_of_degree)
from dunklsphere.reflection import RootSystem

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
CUSTOM = RootSystem(2, ((1, 2), (-1, -2)), ((1, 2),), "custom")


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _context(spec):
    kappa = [Fraction(k) for k in spec["kappa"]]
    return DunklContext.create(spec["family"], spec["dimension"],
                               kappa[0] if len(kappa) == 1 else kappa, order=spec["order"])


def _primitive(row):
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()}


def _clear(row, prow, c):
    """row with column c cleared by an integer combination with prow, made
    primitive."""
    if c not in row:
        return row
    g = gcd(prow[c], row[c])
    mp, ma = prow[c] // g, row[c] // g
    out = {j: mp * x for j, x in row.items()}
    for j, y in prow.items():
        out[j] = out.get(j, 0) - ma * y
    out = {j: x for j, x in out.items() if x}
    return _primitive(out) if out else out


def _gauss_jordan_nullspace(rows, ncols):
    """Dense nullspace vectors, one per free column, by fraction-free
    Gauss-Jordan elimination: each new pivot clears its column from every
    other row, the earlier pivot rows included."""
    work = []
    for row in rows:
        row = {c: Fraction(x) for c, x in row.items() if x != 0}
        if row:
            den = lcm(*(x.denominator for x in row.values()))
            work.append(_primitive({c: x.numerator * (den // x.denominator)
                                    for c, x in row.items()}))
    pivots = []
    for c in range(ncols):
        cands = [k for k, row in enumerate(work) if c in row]
        if not cands:
            continue
        prow = work.pop(min(cands, key=lambda k: (len(work[k]), abs(work[k][c]))))
        work = [r for r in (_clear(r, prow, c) for r in work) if r]
        pivots = [(pc, _clear(r, prow, c)) for pc, r in pivots] + [(c, prow)]
    pivot_cols = {pc for pc, _ in pivots}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, prow in pivots:
            if fc in prow:
                vec[pc] = Fraction(-prow[fc], prow[pc])
        basis.append(vec)
    return basis


def _oracle(ctx, n):
    """[(mode, list of (exponents, coefficient))] per basis element."""
    mode = EXACT if ctx.exact else FLOAT
    d = ctx.dim
    source = monomials_of_degree(d, n)
    tindex = {e: k for k, e in enumerate(monomials_of_degree(d, n - 2))}
    rows = [{} for _ in tindex]
    for col, exps in enumerate(source):
        lap = dunkl_laplacian(ctx, MultiPoly.monomial(d, exps, 1, mode))
        for e, c in lap.terms.items():
            rows[tindex[e]][col] = c
    if mode == EXACT:
        vecs = _gauss_jordan_nullspace(rows, len(source))
        return [(EXACT, [(source[c], x) for c, x in enumerate(vec) if x != 0])
                for vec in vecs]
    a = np.zeros((len(rows), len(source)))
    for r, row in enumerate(rows):
        for c, x in row.items():
            a[r, c] = x
    if a.shape[0] == 0:
        vh, rank = np.eye(len(source)), 0
    else:
        _, s, vh = np.linalg.svd(a)
        rank = int((s > 1e-10 * s[0]).sum())
    return [(FLOAT, [(source[c], float(x)) for c, x in enumerate(vh[k]) if abs(x) > 0])
            for k in range(rank, len(source))]


def _got(ctx, n):
    return [(p.mode, list(p.terms.items())) for p in harmonic_basis(ctx, n).elements]


@pytest.mark.parametrize("seed", [1, 41, 99])
def test_harmonic_ops_match_the_gauss_jordan_oracle(seed):
    ops = [op for op in _workloads().build("harmonics", seed) if op["kind"] == "harmonic"]
    assert ops
    for op in ops:
        ctx = _context(op["ctx"])
        assert repr(_got(ctx, op["n"])) == repr(_oracle(ctx, op["n"])), op["id"]


@pytest.mark.parametrize("kappa", [1, Fraction(1, 3)])
def test_rational_root_system_matches_the_gauss_jordan_oracle(kappa):
    ctx = DunklContext.from_root_system(CUSTOM, kappa)
    for n in range(8):
        assert repr(_got(ctx, n)) == repr(_oracle(ctx, n)), n


@pytest.mark.parametrize("family,dim,kappa,top", [
    ("a", 5, 1, 6),
    ("zd2", 4, [Fraction(1, 2), 1, Fraction(1, 2), 1], 6),    # block {2, 4}, not contiguous
    ("b", 4, [Fraction(1, 2), 1], 5),
    ("d", 5, Fraction(1, 3), 5)])
def test_symmetric_contexts_match_the_gauss_jordan_oracle(family, dim, kappa, top):
    # contexts whose bases harmonic_basis builds one free monomial per orbit of
    # coordinate permutations that fix x_1
    ctx = DunklContext.create(family, dim, kappa)
    for n in range(top + 1):
        assert repr(_got(ctx, n)) == repr(_oracle(ctx, n)), n
