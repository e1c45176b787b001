"""Correctness checks of one op's result against closed-form truth.

Every check returns a CheckResult.  ``outcome`` is "ok", "defect" (the op showed
a seed defect recorded in known_defects.json, with the outcome recorded
there) or "fail" (anything else that raises, exits with an unexpected code
or contradicts the truth).  INDETERMINATE flags never contradict: they count
toward ``indeterminate`` only.

A profile contradicts the truth through its flags and verdict: ZERO on a
nonzero coefficient, NONZERO or a structural zero on a zero one.  Its values
are scored, not failed: a reported error bound is missed when the error
exceeds the bound plus half an ulp of the reported double, because a value
printed as a float64 cannot be closer than that.  Funk-Hecke and density
coefficients carry no flag, so there a value off by more than VALUE_TOL
(relative to max(1, |truth|)) is a contradiction.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath import mp

import oracle

VALUE_TOL = 1e-6
FLOAT_LAPLACIAN_TOL = 1e-9
DENSITY_ZERO_TOL = 1e-12
DENSITY_FIT_TOL = 1e-2
LAPLACIAN_POINTS = 3

KNOWN_DEFECTS = json.loads(
    (Path(__file__).resolve().parent / "known_defects.json").read_text())

_EXIT_OF_VERDICT = {"FUNDAMENTAL_UP_TO_N": 0, "NOT_FUNDAMENTAL": 10,
                    "INDETERMINATE": 11}


@dataclass
class CheckResult:
    outcome: str = "ok"
    reasons: list = field(default_factory=list)
    entries: int = 0            # non-structural profile entries
    indeterminate: int = 0
    bound_checked: int = 0
    bound_miss: int = 0

    def fail(self, reason: str) -> None:
        self.outcome = "fail"
        self.reasons.append(reason)


def known_defect(workload: str, op: dict, result: dict):
    """The recorded defect this result shows, or None."""
    rec = KNOWN_DEFECTS.get(f"{workload}/{op['id']}")
    if rec is None:
        return None
    if "raises" in rec:
        raised = result.get("raised") or ""
        return rec if raised.split(":")[0] == rec["raises"] else None
    if result.get("exit") == rec["exit"] and rec["stderr"] in result.get("stderr", ""):
        return rec
    return None


def check(workload: str, op: dict, result: dict, rng: random.Random) -> CheckResult:
    """Classify one op's result."""
    rec = known_defect(workload, op, result)
    if rec is not None:
        return CheckResult("defect", [rec["defect"]])
    v = CheckResult()
    if result.get("raised"):
        v.fail(f"raised {result['raised']}")
        return v
    if op["kind"] == "harmonic":
        check_basis(op, result, rng, v)
        return v
    expect = op.get("expect_exit")
    if expect is not None:
        if result["exit"] != expect or not result.get("stderr"):
            v.fail(f"exit {result['exit']}, expected {expect} with a message")
        return v
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        v.fail(f"exit {result['exit']} without a JSON report")
        return v
    lam = Fraction(op["lam"])
    {"fundamental": check_fundamental, "coeffs": check_coeffs,
     "funk-hecke": check_funk_hecke, "density": check_density}[op["command"]](
        op, doc, result["exit"], lam, v)
    return v


# ---------------------------------------------------------------------------
# Coefficient profiles and verdicts
# ---------------------------------------------------------------------------

def _value_error(re: float, im: float, truth) -> object:
    with mp.workdps(oracle.DPS):
        return abs(mp.mpf(re) - truth) + abs(mp.mpf(im))


def _check_value(v: CheckResult, where: str, re: float, im: float, bound, truth,
                 strict: bool) -> None:
    err = _value_error(re, im, truth)
    if bound is not None:
        v.bound_checked += 1
        if err > bound + math.ulp(re) / 2:
            v.bound_miss += 1
    if strict and err > VALUE_TOL * max(1.0, abs(float(truth))):
        v.fail(f"{where}: value {re!r} is {float(err):.3g} from {float(truth):.17g}")


def check_profile(profile: dict, spec: str, lam: Fraction, v: CheckResult) -> list:
    """Check every entry of one profile; returns the truth zero pattern."""
    zeros = []
    for e in profile["entries"]:
        n = e["n"]
        zero = oracle.is_zero(spec, lam, n)
        zeros.append(zero)
        where = f"{spec} n={n}"
        if e["structural"]:
            if not zero:
                v.fail(f"{where}: structural zero, truth nonzero")
            continue
        v.entries += 1
        if e["flag"] == "indeterminate":
            v.indeterminate += 1
        elif (e["flag"] == "zero") != zero:
            v.fail(f"{where}: flagged {e['flag']}, truth {'zero' if zero else 'nonzero'}")
        _check_value(v, where, e["re"], e["im"], e["error_bound"],
                     oracle.value(spec, lam, n), strict=False)
    return zeros


def check_coeffs(op, doc, exit_code, lam, v):
    if exit_code != 0:
        v.fail(f"exit {exit_code}")
    check_profile(doc, op["g"][0], lam, v)


def check_fundamental(op, doc, exit_code, lam, v):
    profiles = ([m["profile"] for m in doc["members"]] if "members" in doc
                else [doc["profile"]])
    patterns = [check_profile(p, spec, lam, v) for p, spec in zip(profiles, op["g"])]
    # the union spans degree n unless every member vanishes there
    truth_zero = any(all(col) for col in zip(*patterns))
    verdict = doc["verdict"]
    if exit_code != _EXIT_OF_VERDICT.get(verdict):
        v.fail(f"exit {exit_code} for verdict {verdict}")
    if verdict == "FUNDAMENTAL_UP_TO_N" and truth_zero:
        v.fail("verdict FUNDAMENTAL, truth has a zero coefficient")
    if verdict == "NOT_FUNDAMENTAL" and not truth_zero:
        v.fail("verdict NOT_FUNDAMENTAL, truth has no zero coefficient")


# ---------------------------------------------------------------------------
# Funk-Hecke tables and density demonstrations
# ---------------------------------------------------------------------------

def check_funk_hecke(op, doc, exit_code, lam, v):
    if exit_code != 0:
        v.fail(f"exit {exit_code}, max residual {doc.get('max_residual')}")
    spec = op["g"][0]
    for row in doc["rows"]:
        n = row["n"]
        _check_value(v, f"{spec} n={n}", row["coefficient"]["re"],
                     row["coefficient"]["im"], row["coefficient_error"],
                     oracle.value(spec, lam, n), strict=True)


def check_density(op, doc, exit_code, lam, v):
    if exit_code != 0:
        v.fail(f"exit {exit_code}")
    spec, m = op["g"][0], doc["m_degree"]
    truth = oracle.value(spec, lam, m)
    _check_value(v, f"{spec} m={m}", doc["coefficient"], 0.0, None, truth, strict=True)
    res = doc["residuals"]
    if not all(math.isfinite(r) and 0.0 <= r <= 1.0 + 1e-9 for r in res):
        v.fail(f"residuals {res} outside [0, 1]")
    elif oracle.is_zero(spec, lam, m):
        if any(abs(r - 1.0) > DENSITY_ZERO_TOL for r in res):
            v.fail(f"Lambda_{m} = 0 but residuals {res} are not 1")
    elif not res[-1] <= DENSITY_FIT_TOL:
        v.fail(f"residual {res[-1]} at the largest node set exceeds {DENSITY_FIT_TOL:g}")


# ---------------------------------------------------------------------------
# Harmonic bases
# ---------------------------------------------------------------------------

def _powers(x, top):
    return [[xi ** k for k in range(top + 1)] for xi in x]


def _monomial(exps, powers):
    out = 1
    for i, e in enumerate(exps):
        if e:
            out *= powers[i][e]
    return out


def _eval_value(terms: dict, x) -> object:
    powers = _powers(x, max(max(e) for e in terms))
    return sum(c * _monomial(e, powers) for e, c in terms.items())


def _eval_derivs(terms: dict, x) -> tuple:
    """(p(x), grad p(x), laplacian p(x)) of a polynomial given as {exps: c}."""
    powers = _powers(x, max(max(e) for e in terms))
    val, lap = 0, 0
    grad = [0] * len(x)
    for exps, c in terms.items():
        val += c * _monomial(exps, powers)
        for i, e in enumerate(exps):
            if e:
                lower = exps[:i] + (e - 1,) + exps[i + 1:]
                grad[i] += c * e * _monomial(lower, powers)
            if e > 1:
                lower = exps[:i] + (e - 2,) + exps[i + 1:]
                lap += c * e * (e - 1) * _monomial(lower, powers)
    return val, grad, lap


def _as_int(q):
    return int(q) if isinstance(q, Fraction) and q.denominator == 1 else q


def dunkl_laplacian_at(terms: dict, x, roots) -> object:
    """Delta_kappa p(x) by the explicit h-Laplacian (Dunkl-Xu, Thm 4.4.9):

        Delta p + 2 sum_{v in R+} kappa(v) [<grad p, v> / <v, x>
                  - |v|^2 / 2 * (p(x) - p(s_v x)) / <v, x>^2]

    ``roots`` is [(v, kappa(v))] over the positive roots.  Exact for integer
    or Fraction input (integral values are kept as int, which is much faster
    than Fraction), float otherwise.  Needs <v, x> != 0 for every root.
    """
    val, grad, out = _eval_derivs(terms, x)
    for v, k in roots:
        if k == 0:
            continue
        s = sum(a * b for a, b in zip(v, x))
        vv = sum(a * a for a in v)
        if not isinstance(s, float):
            s, vv = Fraction(s), Fraction(vv)
        refl = [_as_int(xi - 2 * s / vv * vi) for xi, vi in zip(x, v)]
        p_refl = _eval_value(terms, refl)
        dg = sum(g * vi for g, vi in zip(grad, v))
        out += 2 * k * (dg / s - vv / 2 * (val - p_refl) / (s * s))
    return out


def _sample_point(d: int, roots, exact: bool, rng: random.Random):
    """A random point off every mirror: integer for exact checks (a
    homogeneous Laplacian vanishes at x iff it does at any multiple of x),
    on the unit sphere for float ones."""
    while True:
        if exact:
            x = [rng.randint(-30, 30) for _ in range(d)]
        else:
            z = [rng.gauss(0.0, 1.0) for _ in range(d)]
            r = math.sqrt(sum(c * c for c in z))
            x = [c / r for c in z]
        if all(abs(sum(a * b for a, b in zip(v, x))) > (0 if exact else 1e-3)
               for v, _ in roots):
            return x


def _integral(p: dict) -> dict:
    """p times the lcm of its denominators: same zeros, int arithmetic."""
    scale = math.lcm(*(Fraction(c).denominator for c in p.values()))
    return {e: int(c * scale) for e, c in p.items()}


def check_basis(op: dict, result: dict, rng: random.Random, v: CheckResult) -> None:
    """Dimension, homogeneity, independence and a zero Dunkl Laplacian.

    ``result`` holds ``elements`` as [{exps: coeff}], ``roots`` as
    [(root, kappa)] and ``exact``.  An exact basis passes only when its
    Laplacian is exactly 0 at LAPLACIAN_POINTS random integer points; a
    float basis when it is at most FLOAT_LAPLACIAN_TOL times the sum of
    |coefficients| at random unit points.
    """
    n, elements, roots = op["n"], result["elements"], result["roots"]
    d = op["ctx"]["dimension"]
    want = oracle.harmonic_dimension(d, n)
    if len(elements) != want:
        v.fail(f"basis has {len(elements)} elements, dimension is {want}")
        return
    monos = sorted({e for p in elements for e in p})
    if any(sum(e) != n for e in monos):
        v.fail(f"an element is not homogeneous of degree {n}")
        return
    mat = np.array([[float(p.get(e, 0)) for e in monos] for p in elements])
    if elements and np.linalg.matrix_rank(mat) != len(elements):
        v.fail("basis elements are linearly dependent")
        return
    exact = result["exact"]
    if exact:
        roots = [([_as_int(Fraction(a)) for a in r], kv) for r, kv in roots]
    points = [_sample_point(d, roots, exact, rng) for _ in range(LAPLACIAN_POINTS)]
    for k, p in enumerate(elements):
        scale = sum(abs(c) for c in p.values())
        if exact:
            p = _integral(p)
        for x in points:
            lap = dunkl_laplacian_at(p, x, roots)
            if exact and lap != 0:
                v.fail(f"element {k}: Dunkl Laplacian {lap} != 0")
                return
            if not exact and abs(lap) > FLOAT_LAPLACIAN_TOL * scale:
                v.fail(f"element {k}: Dunkl Laplacian {abs(lap):.3g} > "
                       f"{FLOAT_LAPLACIAN_TOL:g} * {scale:.3g}")
                return
