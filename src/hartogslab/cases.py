"""Exact-arithmetic case analysis: which Hartogs domains over the catalog can
have constant a2.

Constancy of a2 forces (via the vanishing of the fiber-slice quadratic and
linear coefficients) mu = genus/(d+1) and baseR2 = 2d/(d+1). The analysis then
walks the catalog: for each family, compare the exact closed-form baseR2
against 2d/(d+1). The classical families reduce to integer polynomial
equations whose admissible roots are enumerated; the two exceptional domains,
which enter only through their (d, genus) in EXCEPTIONAL, are excluded because
genus^4 * baseR2 is an integer for every irreducible bounded symmetric domain
(a root-lattice integrality fact imported here as an arithmetic premise),
while genus^4 * 2d/(d+1) fails to be one.

Everything in this module is exact integer or Fraction arithmetic, with no
floating point anywhere. Case 1's scan runs in int64 arrays, exact for
n_max <= CASE1_N_MAX = 55,108 (it refuses a larger n_max); cases 2-4 scan
whole arrays of Python ints. One int64 routine certifies all four
reductions for every size, as polynomial identities checked on more points
than their degree: case 1's on a fixed 80 x 80 grid, those of cases 2-4 on
[lo, lo + 96]. A failed certificate raises ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .domains import FAMILIES
from .oracles import OracleInputs, R2_parts, a2_quadratic_coeffs

F = Fraction

# the largest n_max with (n_max^2 + 1)^2 < 2^63: every term of the case-1 scan
# then fits in int64
CASE1_N_MAX = math.isqrt(math.isqrt(2 ** 63 - 1) - 1)


@dataclass(frozen=True)
class CaseVerdict:
    case_id: int
    description: str
    parameter_range: str
    surviving_parameters: list
    evidence: dict
    conclusion: str

    def to_json_dict(self) -> dict:
        # shallow: dataclasses.asdict deep-copies case 1's survivor pairs,
        # about 5 ms of a 21 ms case-analysis command at n_max = 2000
        return {f.name: getattr(self, f.name) for f in fields(self)}


def constancy_constraints(d: int, genus: int):
    """The unique (mu, baseR2) compatible with constant a2: mu = genus/(d+1),
    baseR2 = 2d/(d+1). Verified by substituting back into the quadratic
    coefficients and demanding exact zeros.

    Uniqueness: 2 c0 + c1 = d^2 (d+3) c / 4 vanishes for d >= 1 only at c = 0,
    i.e. mu = genus/(d+1); with c = 0, c0 is affine in baseR2 with slope
    (d+1)^2 / 24, so c0 = 0 pins baseR2 = 2d/(d+1).
    """
    if d < 1 or genus < 2:
        raise ValueError("need d >= 1 and genus >= 2")
    mu_star = F(genus, d + 1)
    base_r2_star = F(2 * d, d + 1)
    c0, c1, _ = a2_quadratic_coeffs(
        OracleInputs(d=d, genus=genus, mu=mu_star, base_r2=base_r2_star))
    if c0 != 0 or c1 != 0:
        raise ArithmeticError(f"constraint substitution failed: c0={c0}, c1={c1}")
    return mu_star, base_r2_star


# -- integer polynomial helpers (coefficients low-to-high) --------------------

def _poly_eval(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _expand_factors(factors):
    acc = [1]
    for f in factors:
        out = [0] * (len(acc) + len(f) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(f):
                out[i + j] += x * y
        acc = out
    return acc


_CASES = {
    2: {
        "description": "antisymmetric matrices, n >= 4: baseR2 = 2d/(d+1) "
                       "reduces to a quintic in n",
        "poly": [0, -6, 5, 5, -5, 1],  # n^5 - 5n^4 + 5n^3 + 5n^2 - 6n
        "factors": [[0, 1], [-1, 1], [-2, 1], [1, 1], [-3, 1]],
    },
    3: {
        "description": "symmetric matrices, n >= 2: baseR2 = 2d/(d+1) clears "
                       "to a sextic in n, which the reduction certificate "
                       "reads; the prescribed quintic is scanned beside it",
        # prescribed route (n-1)(n^4 + 22n^3 - 5n^2 + 6n - 64): not the
        # constancy condition, with which it shares only the root n = 1
        "poly": [64, -70, 11, -27, 21, 1],
        "factors": [[-1, 1], [-64, 6, -5, 22, 1]],
        # the cleared constancy condition n^2 (n-1)(n+1)(n+2)(n+3), which
        # _certify_reduction reads: the numerator of baseR2 - 2d/(d+1) times
        # n + 1
        "constraint_poly": [0, 0, -6, -5, 5, 5, 1],
        "constraint_factors": [[0, 1], [0, 1], [-1, 1], [1, 1], [2, 1], [3, 1]],
    },
    4: {
        "description": "Lie ball, n >= 5: baseR2 = 2d/(d+1) reduces to a "
                       "quadratic in n",
        "poly": [-2, 1, 1],  # n^2 + n - 2
        "factors": [[-1, 1], [2, 1]],
    },
}


# w of case i's reduction identity 2 (num (d+1) - 2d den) = w P, as text and
# at sizes (m, n), and a bound on the degree of both sides in each size
_WEIGHTS = {1: ("4mn", lambda m, n: 4 * m * n, 3), 2: ("n", lambda m, n: n, 6),
            3: ("1", lambda m, n: 1, 6), 4: ("2", lambda m, n: 2, 6)}


def _certify_reduction(case_id: int, cleared, m, n) -> dict:
    """Certify, over int64 arrays of sizes n (and m, type 1's alone; else
    None), that the closed-form baseR2 = num/den of the case's family and
    cleared, the values of its constancy polynomial P, satisfy
    2 (num (d+1) - 2d den) = w P. Both sides are polynomials in the sizes,
    so agreement on more points than their degree, on a product grid for
    case 1 (Alon, Combin. Probab. Comput. 8, 1999, Lemma 2.1), makes this an
    identity; as w is nonzero, baseR2 = 2d/(d+1) exactly where P vanishes,
    for every size. Returns the evidence."""
    kind = f"type{case_id}"
    d = FAMILIES[kind].d(m, n)
    num, den = R2_parts(kind, m, n)
    weight, w, degree = _WEIGHTS[case_id]
    bad = np.flatnonzero(2 * (num * (d + 1) - 2 * d * den) != w(m, n) * cleared)
    if bad.size:
        at = f"n={n[bad[0]]}" if m is None else f"m={m[bad[0]]}, n={n[bad[0]]}"
        raise ArithmeticError(f"case {case_id}: reduction certificate failed at {at}")
    return {"identity": "2 (num (d+1) - 2d den) = w P", "weight": weight,
            "degree_bound": degree}


def _certify_polynomial(case_id: int, poly, factors, lo: int, n_max: int,
                        name: str = ""):
    """Certify a case polynomial: its factors re-expand to it, and no factor
    of degree > 1 has an integer root (any such root divides the factor's
    constant term, and is 0 if that term is). Returns the evidence, the roots
    in [lo, n_max], and whether every linear factor's root lies below lo,
    which makes the verdict hold for ANY n, not only n <= n_max."""
    if _expand_factors(factors) != poly:
        raise ArithmeticError(
            f"case {case_id}: {name}factorization certificate failed")
    evidence = {"polynomial_low_to_high": poly, "factors_low_to_high": factors,
                # a linear factor [a, 1] is n + a, with root -a
                "linear_factor_roots": sorted(-f[0] for f in factors if len(f) == 2),
                "factorization_reexpanded": True}
    for f in factors:
        if len(f) > 2:
            const = abs(f[0])
            cands = sorted({s * t for t in range(1, const + 1) if const % t == 0
                            for s in (1, -1)}) or [0]
            if any(_poly_eval(f, n) == 0 for n in cands):
                raise ArithmeticError(f"case {case_id}: unexpected factor root")
            evidence["quartic_integer_root_check"] = {
                "factor": f, "candidates": cands, "all_nonzero": True}
    ns = np.arange(lo, n_max + 1).astype(object)  # Python ints: exact
    roots = ns[_poly_eval(poly, ns) == 0].tolist()
    return evidence, roots, all(r < lo for r in evidence["linear_factor_roots"])


def integer_root_scan(case_id: int, n_max: int) -> CaseVerdict:
    """Certify one case polynomial and scan it over the admissible range.

    The verdict is complete, not just range-limited: linear factors expose
    all their roots, and any integer root of case 3's quartic would divide 64.
    Case 3's quintic is the prescribed route, not the constancy condition:
    the reduction certificate reads the cleared sextic, certified beside it
    by the same routine, which factors into linear terms outright."""
    if case_id not in _CASES:
        raise ValueError("integer_root_scan handles case ids 2, 3, 4")
    case = _CASES[case_id]
    lo = FAMILIES[f"type{case_id}"].least_n
    if n_max < lo:
        raise ValueError(f"n_max must be >= {lo} for case {case_id}")
    poly = case["poly"]
    evidence, roots_in_range, complete = _certify_polynomial(
        case_id, poly, case["factors"], lo, n_max)
    evidence["scanned_range"] = [lo, n_max]
    evidence["sample_values"] = {str(n): _poly_eval(poly, n)
                                 for n in range(lo, min(lo + 3, n_max) + 1)}
    croots = []
    if "constraint_poly" in case:
        cevidence, croots, ccomplete = _certify_polynomial(
            case_id, case["constraint_poly"], case["constraint_factors"], lo,
            n_max, "constraint ")
        complete = complete and ccomplete
        evidence["closed_form_constraint"] = dict(cevidence, roots_in_range=croots)
    # 97 sizes at every n_max, more than the identity's degree bound
    ns = np.arange(lo, lo + 97, dtype=np.int64)
    evidence["reduction_certificate"] = {
        "range": [lo, lo + 96],
        "statement": "closed-form baseR2 equals 2d/(d+1) exactly where the "
                     "constraint polynomial vanishes",
        **_certify_reduction(case_id, _poly_eval(case.get("constraint_poly", poly), ns),
                             None, ns)}

    empty = not roots_in_range and not croots
    conclusion = ("no admissible integer solution; factor roots all lie below "
                  "the admissible range and the certificate covers every n"
                  if complete and empty else "UNEXPECTED SURVIVOR")
    return CaseVerdict(case_id=case_id, description=case["description"],
                       parameter_range=f"{lo} <= n <= {n_max} (certificate: all n)",
                       surviving_parameters=roots_in_range + croots,
                       evidence=evidence, conclusion=conclusion)


# (d, genus) of the exceptional domains of types V (E6) and VI (E7): the only
# data of theirs that the classification uses
EXCEPTIONAL = {"exc5": (16, 12), "exc6": (27, 18)}


def exceptional_integrality(kind: str) -> CaseVerdict:
    """Exclude an exceptional domain, "exc5" or "exc6": genus^4 * 2d/(d+1)
    must be an integer for constancy to be possible, and it is not."""
    if kind not in EXCEPTIONAL:
        raise ValueError("exceptional_integrality expects exc5 or exc6")
    case_id = 5 if kind == "exc5" else 6
    d, genus = EXCEPTIONAL[kind]
    base = F(2 * d, d + 1)
    # witness presented as (reduced baseR2 numerator * genus^4) / denominator,
    # without re-reducing, so the displayed remainder matches hand arithmetic
    num = base.numerator * genus ** 4
    den = base.denominator
    is_integer = num % den == 0
    evidence = {
        "d": d,
        "genus": genus,
        "base_r2_required": str(base),
        "genus4_times_base_r2": f"{num}/{den}",
        "numerator": num,
        "denominator": den,
        "remainder": num % den,
        "is_integer": is_integer,
    }
    conclusion = ("excluded: required curvature-norm value is not compatible "
                  "with the integrality premise" if not is_integer
                  else "UNEXPECTED SURVIVOR")
    return CaseVerdict(case_id=case_id,
                       description=f"exceptional domain {kind} "
                                   f"(d={d}, genus={genus})",
                       parameter_range="single domain",
                       surviving_parameters=[] if not is_integer else [kind],
                       evidence=evidence, conclusion=conclusion)


def _case1(n_max: int) -> CaseVerdict:
    """Rectangular matrices: 2mn(mn+1)/(m+n)^2 = 2mn/(mn+1), i.e.
    (mn+1)^2 = (m+n)^2, which factors as (m-1)(n-1)(m+1)(n+1) = 0.

    Every pair 1 <= m <= n <= n_max is evaluated exactly, one row of fixed m
    at a time as an int64 array: n_max(n_max+1)/2 pairs in O(n_max^2) work,
    about 17 ms at n_max = 2000 on a 2-core Xeon. int64 holds (mn+1)^2
    exactly only for n_max <= CASE1_N_MAX, so a larger n_max raises
    ValueError."""
    if n_max > CASE1_N_MAX:
        raise ValueError(f"n_max must be at most {CASE1_N_MAX} for the exact "
                         "int64 scan of case 1")
    survivors = []
    checked = 0
    for mm in range(1, n_max + 1):
        nn = np.arange(mm, n_max + 1, dtype=np.int64)
        hits = nn[(mm * nn + 1) ** 2 == (mm + nn) ** 2]
        survivors += [[mm, n] for n in hits.tolist()]
        checked += nn.size
    # m = 1 solves the equation identically, so a row 1 that is not the whole
    # ball family is a fault of the scan; any other survivor is a verdict
    ball = [[1, nn] for nn in range(1, n_max + 1)]
    if [p for p in survivors if p[0] == 1] != ball:
        raise ArithmeticError("case 1 scan does not return the ball family m = 1")
    bad = [p for p in survivors if p[0] != 1]
    # certify the two reductions on a subgrid, the pairs 1 <= m <= n <= 80,
    # which holds the product grid {1..40} x {41..80}: the constancy
    # condition on the closed form that the appendix table and the oracles
    # read (the largest value, 2 (2mn(mn+1) (mn+1) - ...) at m = n = 80, is
    # about 1.05e12), and the factorization identity
    cert = 80
    mm, nn = np.add(np.triu_indices(cert), 1, dtype=np.int64)
    cleared = (mm * nn + 1) ** 2 - (mm + nn) ** 2
    reduction = _certify_reduction(1, cleared, mm, nn)
    if (cleared != (mm - 1) * (nn - 1) * (mm + 1) * (nn + 1)).any():
        raise ArithmeticError("case 1 factorization identity failed")
    evidence = {
        "pairs_checked": checked,
        "identity": "(mn+1)^2 - (m+n)^2 = (m-1)(n-1)(m+1)(n+1)",
        "identity_certified_upto": cert,
        "reduction_certificate": dict(
            reduction, grid="1 <= m <= n <= 80, which holds {1..40} x {41..80}"),
        "survivor_family": {"m": 1, "n_range": [1, n_max], "mu_star": "1"},
        "non_ball_survivors": bad,
    }
    conclusion = ("survivors are exactly the rank-one family m = 1 (unit "
                  "balls), where mu = genus/(d+1) = 1" if not bad
                  else "UNEXPECTED SURVIVOR")
    return CaseVerdict(case_id=1,
                       description="rectangular matrices, 1 <= m <= n",
                       parameter_range=f"1 <= m <= n <= {n_max}",
                       surviving_parameters=survivors,
                       evidence=evidence, conclusion=conclusion)


def classify_all(n_max: int = 1000) -> dict:
    """Run all six catalog cases and collect the final verdict."""
    if n_max < 5:
        raise ValueError("n_max must be at least 5 to cover every case")
    verdicts = [
        _case1(n_max),
        integer_root_scan(2, n_max),
        integer_root_scan(3, n_max),
        integer_root_scan(4, n_max),
        exceptional_integrality("exc5"),
        exceptional_integrality("exc6"),
    ]
    ok = (all(not v.surviving_parameters for v in verdicts[1:])
          and all(p[0] == 1 for p in verdicts[0].surviving_parameters))
    return {
        "n_max": n_max,
        "verdicts": verdicts,
        "survivors": "type1 m=1 (unit ball family), mu = 1",
        "matches_expected": ok,
        "final": "constant a2 occurs exactly for the unit-ball family with "
                 "mu = 1, the complex hyperbolic space",
    }
