"""Bidegree-truncated multivariate Taylor jets over complex coefficients.

Holomorphic variables z_1..z_m and antiholomorphic variables zb_1..zb_m are
treated as 2m independent formal variables (Wirtinger calculus). A jet stores
every mixed Taylor coefficient whose holomorphic total degree is <= cap.holo
and whose antiholomorphic total degree is <= cap.anti, centered at a base
point. That retained monomial box is the complement of an ideal, so truncation
is a ring quotient map: sums, products, reciprocals, logs, powers and
determinants computed on jets agree exactly with the truncation of the true
series, coefficient by coefficient.

Storage is a dense complex128 matrix indexed by (holo monomial, anti monomial)
over graded-lex monomial bases, with precomputed index tables driving the
truncated Cauchy product. Jets are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

MAX_DEGREE = 6  # engine hard limit on either character of the cap


class BidegreeCap(NamedTuple):
    holo: int
    anti: int


def _as_cap(cap) -> BidegreeCap:
    cap = BidegreeCap(int(cap[0]), int(cap[1]))
    if not (0 <= cap.holo <= MAX_DEGREE and 0 <= cap.anti <= MAX_DEGREE):
        raise ValueError(f"cap degrees must lie in 0..{MAX_DEGREE}, got {cap}")
    return cap


def _exponents(m: int, total: int):
    if m == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _exponents(m - 1, total - head):
            yield (head,) + tail


@lru_cache(maxsize=None)
def basis_exponents(m: int, degree: int) -> tuple:
    """All exponent tuples of m variables with total degree <= degree,
    ordered by total degree then lexicographically (degree-major)."""
    return tuple(e for t in range(degree + 1) for e in _exponents(m, t))


@lru_cache(maxsize=None)
def _basis_index(m: int, degree: int) -> dict:
    return {e: i for i, e in enumerate(basis_exponents(m, degree))}


@lru_cache(maxsize=None)
def _pair_tables(m: int, degree: int):
    """Index tables (ia, ib, ic) of every ordered monomial pair whose product
    stays within the degree bound; drives the truncated convolution."""
    exps = basis_exponents(m, degree)
    index = _basis_index(m, degree)
    degs = [sum(e) for e in exps]
    ia, ib, ic = [], [], []
    for i, ei in enumerate(exps):
        di = degs[i]
        for j, ej in enumerate(exps):
            if di + degs[j] > degree:
                continue
            ia.append(i)
            ib.append(j)
            ic.append(index[tuple(x + y for x, y in zip(ei, ej))])
    return (np.array(ia, dtype=np.intp), np.array(ib, dtype=np.intp),
            np.array(ic, dtype=np.intp))


@lru_cache(maxsize=None)
def _shift_table(m: int, degree: int, var: int):
    """For d/dx_var: (source index, factor) per monomial of degree <= degree-1."""
    index = _basis_index(m, degree)
    src, fac = [], []
    for e in basis_exponents(m, degree - 1):
        lifted = e[:var] + (e[var] + 1,) + e[var + 1:]
        src.append(index[lifted])
        fac.append(e[var] + 1)
    return np.array(src, dtype=np.intp), np.array(fac, dtype=np.float64)


@lru_cache(maxsize=None)
def _gather_table(m: int, order: int):
    """For every index tuple (i1..i_order), in C order: the basis index of the
    monomial x_i1 ... x_i_order and the factorial factor turning its Taylor
    coefficient into the partial derivative. The graded basis makes the index
    valid at every degree >= order."""
    index = _basis_index(m, order)
    src, fac = [], []
    for idx in product(range(m), repeat=order):
        e = tuple(idx.count(v) for v in range(m))
        src.append(index[e])
        fac.append(math.prod(math.factorial(x) for x in e))
    return np.array(src, dtype=np.intp), np.array(fac, dtype=np.float64)


def _space_size(m: int, degree: int) -> int:
    return len(basis_exponents(m, degree))


class Jet:
    """Immutable truncated Taylor expansion; see module docstring.

    Build jets with jet_constant / jet_variable and the arithmetic
    operations, or wrap a complex128 array of shape (len(holo_basis()),
    len(anti_basis())) whose [i, j] entry is the coefficient of the i-th
    holomorphic times the j-th antiholomorphic basis monomial; cap must be a
    BidegreeCap. The array is frozen, not copied.
    """

    __slots__ = ("num_vars", "cap", "data")

    def __init__(self, num_vars: int, cap: BidegreeCap, data: np.ndarray):
        self.num_vars = num_vars
        self.cap = cap
        data.setflags(write=False)
        self.data = data

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _zeros(num_vars, cap):
        return np.zeros((_space_size(num_vars, cap.holo),
                         _space_size(num_vars, cap.anti)), dtype=np.complex128)

    def _like(self, data):
        return Jet(self.num_vars, self.cap, data)

    # -- basic queries --------------------------------------------------------

    @property
    def constant_term(self) -> complex:
        return complex(self.data[0, 0])

    def holo_basis(self) -> tuple:
        return basis_exponents(self.num_vars, self.cap.holo)

    def anti_basis(self) -> tuple:
        return basis_exponents(self.num_vars, self.cap.anti)

    def _indices(self, holo_exps, anti_exps):
        h = tuple(int(x) for x in holo_exps)
        a = tuple(int(x) for x in anti_exps)
        if len(h) != self.num_vars or len(a) != self.num_vars:
            raise ValueError("multi-index length does not match num_vars")
        if sum(h) > self.cap.holo or sum(a) > self.cap.anti:
            raise ValueError(f"multi-index ({h},{a}) exceeds cap {self.cap}")
        return _basis_index(self.num_vars, self.cap.holo)[h], \
            _basis_index(self.num_vars, self.cap.anti)[a]

    def coefficient(self, holo_exps: Sequence[int], anti_exps: Sequence[int]) -> complex:
        i, j = self._indices(holo_exps, anti_exps)
        return complex(self.data[i, j])

    def partial(self, holo_exps: Sequence[int], anti_exps: Sequence[int]) -> complex:
        """Mixed partial d^{|a|}/dz^a dbar^{|b|}/dzb^b at the base point."""
        i, j = self._indices(holo_exps, anti_exps)
        f = 1
        for e in tuple(holo_exps) + tuple(anti_exps):
            f *= math.factorial(int(e))
        return complex(self.data[i, j]) * f

    def partials(self, p: int, q: int) -> np.ndarray:
        """Dense tensor of every order-(p, q) mixed partial at the base point,
        indexed [i1..ip, j1..jq] (holomorphic indices first)."""
        if not (0 <= p <= self.cap.holo and 0 <= q <= self.cap.anti):
            raise ValueError(f"order ({p},{q}) exceeds cap {self.cap}")
        hi, hf = _gather_table(self.num_vars, p)
        ai, af = _gather_table(self.num_vars, q)
        out = self.data[np.ix_(hi, ai)] * np.outer(hf, af)
        return out.reshape((self.num_vars,) * (p + q))

    # -- ring operations ------------------------------------------------------

    def _check_compatible(self, other: "Jet"):
        if self.num_vars != other.num_vars or self.cap != other.cap:
            raise ValueError(
                f"jet mismatch: ({self.num_vars} vars, cap {self.cap}) vs "
                f"({other.num_vars} vars, cap {other.cap})")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return self._like(self.data + other.data)
        d = self.data.copy()
        d[0, 0] += complex(other)
        return self._like(d)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.data)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return self._like(self.data - other.data)
        return self + (-complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._like(self.data * complex(other))
        self._check_compatible(other)
        m, cap = self.num_vars, self.cap
        ha, hb, hc = _pair_tables(m, cap.holo)
        aa, ab, ac = _pair_tables(m, cap.anti)
        A, B = self.data, other.data
        # restrict the tables to the nonzero support of both operands
        arow = np.any(A != 0, axis=1)
        brow = np.any(B != 0, axis=1)
        mh = arow[ha] & brow[hb]
        acol = np.any(A != 0, axis=0)
        bcol = np.any(B != 0, axis=0)
        ma = acol[aa] & bcol[ab]
        out = self._zeros(m, cap)
        if not (mh.any() and ma.any()):
            return self._like(out)
        ha, hb, hc = ha[mh], hb[mh], hc[mh]
        aa, ab, ac = aa[ma], ab[ma], ac[ma]
        prod = A[ha][:, aa]
        prod *= B[hb][:, ab]
        width = out.shape[1]
        dst = (hc[:, None] * width + ac[None, :]).ravel()
        size = out.size
        re = np.bincount(dst, weights=prod.real.ravel(), minlength=size)
        im = np.bincount(dst, weights=prod.imag.ravel(), minlength=size)
        out = (re + 1j * im).reshape(out.shape)
        return self._like(out)

    __rmul__ = __mul__

    # -- structural operations ------------------------------------------------

    def truncate(self, cap) -> "Jet":
        """Discard monomials above a smaller (or equal) cap."""
        cap = _as_cap(cap)
        if cap.holo > self.cap.holo or cap.anti > self.cap.anti:
            raise ValueError("truncate cannot raise the cap")
        nh = _space_size(self.num_vars, cap.holo)
        na = _space_size(self.num_vars, cap.anti)
        # graded ordering makes the smaller basis a prefix of the larger one
        return Jet(self.num_vars, cap, self.data[:nh, :na].copy())

    def derivative_jet(self, holo_index=None, anti_index=None) -> "Jet":
        """Jet of the derivative function d/dz_i (and/or d/dzb_j); the cap
        shrinks by one on each differentiated character."""
        if holo_index is None and anti_index is None:
            return self
        p, q = self.cap
        if holo_index is not None and p == 0:
            raise ValueError("cannot take a holomorphic derivative at cap 0")
        if anti_index is not None and q == 0:
            raise ValueError("cannot take an antiholomorphic derivative at cap 0")
        data = self.data
        if holo_index is not None:
            src, fac = _shift_table(self.num_vars, p, int(holo_index))
            data = data[src, :] * fac[:, None]
            p -= 1
        if anti_index is not None:
            src, fac = _shift_table(self.num_vars, q, int(anti_index))
            data = data[:, src] * fac[None, :]
            q -= 1
        return Jet(self.num_vars, BidegreeCap(p, q), np.ascontiguousarray(data))

    def __repr__(self):
        nz = int(np.count_nonzero(self.data))
        return f"Jet(num_vars={self.num_vars}, cap={tuple(self.cap)}, nonzero={nz})"


# -- constructors -------------------------------------------------------------

def jet_constant(c, num_vars: int, cap) -> Jet:
    cap = _as_cap(cap)
    data = Jet._zeros(num_vars, cap)
    data[0, 0] = complex(c)
    return Jet(num_vars, cap, data)


def jet_variable(index: int, num_vars: int, cap, anti: bool = False) -> Jet:
    """The coordinate offset z_index (or zb_index if anti) from the base point."""
    cap = _as_cap(cap)
    if not 0 <= index < num_vars:
        raise ValueError(f"variable index {index} out of range for {num_vars} vars")
    if (cap.anti if anti else cap.holo) < 1:
        raise ValueError("unit exponent exceeds the cap for this character")
    data = Jet._zeros(num_vars, cap)
    e = tuple(1 if t == index else 0 for t in range(num_vars))
    z = (0,) * num_vars
    i = _basis_index(num_vars, cap.holo)[z if anti else e]
    j = _basis_index(num_vars, cap.anti)[e if anti else z]
    data[i, j] = 1.0
    return Jet(num_vars, cap, data)


# -- analytic operations ------------------------------------------------------

def _compose_series(a: Jet, coeffs) -> Jet:
    """sum_k coeffs[k] * (a - a0)^k by Horner; exact once len(coeffs) exceeds
    the total degree cap.holo + cap.anti (higher powers of a - a0 vanish)."""
    u = a - a.constant_term
    r = jet_constant(coeffs[-1], a.num_vars, a.cap)
    for c in coeffs[-2::-1]:
        r = r * u + c
    return r


def _total_terms(a: Jet) -> int:
    return a.cap.holo + a.cap.anti + 1


def jet_reciprocal(a: Jet) -> Jet:
    c0 = a.constant_term
    if c0 == 0:
        raise ValueError("jet_reciprocal requires a nonzero constant term")
    n = _total_terms(a)
    coeffs = [(-1) ** k / c0 ** (k + 1) for k in range(n)]
    return _compose_series(a, coeffs)


def jet_log(a: Jet) -> Jet:
    """Principal-branch log of the series; constant term must avoid 0 and the
    negative real axis (all in-scope potentials keep it on the positive axis)."""
    c0 = a.constant_term
    if c0 == 0:
        raise ValueError("jet_log requires a nonzero constant term")
    if c0.real < 0 and c0.imag == 0:
        raise ValueError("jet_log constant term lies on the branch cut")
    n = _total_terms(a)
    coeffs = [cmath.log(c0)]
    coeffs += [(-1) ** (k + 1) / (k * c0 ** k) for k in range(1, n)]
    return _compose_series(a, coeffs)


def _jet_exp(a: Jet) -> Jet:
    c0 = a.constant_term
    n = _total_terms(a)
    coeffs = [cmath.exp(c0) / math.factorial(k) for k in range(n)]
    return _compose_series(a, coeffs)


def jet_real_power(a: Jet, mu: float) -> Jet:
    """a**mu for real mu > 0 via exp(mu * log a); the constant term must be a
    positive real (roundoff-level imaginary dust is tolerated and discarded)."""
    mu = float(mu)
    if mu <= 0:
        raise ValueError("jet_real_power requires mu > 0")
    c0 = a.constant_term
    if abs(c0.imag) > 1e-12 * max(1.0, abs(c0.real)) or c0.real <= 0:
        raise ValueError("jet_real_power requires a positive real constant term")
    a = a + (c0.real - c0)  # snap constant term onto the real axis
    return _jet_exp(jet_log(a) * mu)


def jet_det(rows: Sequence[Sequence[Jet]]) -> Jet:
    """Determinant of a square jet matrix G.

    The constant-term matrix G0 = U S V^H goes to LAPACK's SVD, and
    det G = det U * det V^H * det M with M = U^H G V, whose constant term is
    diag(S), largest singular value first. Gaussian elimination on M needs no
    pivoting: pivot k has constant term S[k], jet_reciprocal inverts it, and
    det M is the product of the pivots. The smallest singular value is never
    inverted, so a G0 with one small singular value (the generic norm at a
    base point near the boundary) loses no digits; inverting G0 itself would
    lose about cond(G0)^(p+q) ulps there. Raises ValueError when G0 is
    numerically singular.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("jet_det requires a nonempty square matrix")
    first = rows[0][0]
    for r in rows:
        for e in r:
            first._check_compatible(e)
    M = np.array([[e.data for e in r] for r in rows])
    U, s, Vh = np.linalg.svd(M[:, :, 0, 0])
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        raise ValueError("jet_det requires a nonsingular constant-term matrix")
    M = np.einsum("ki,klab->ilab", U.conj(), M)
    M = np.einsum("ilab,jl->ijab", M, Vh.conj())
    work = [[first._like(M[i, j]) for j in range(n)] for i in range(n)]
    det = work[0][0] * (np.linalg.det(U) * np.linalg.det(Vh))
    for k in range(n - 1):
        inv = jet_reciprocal(work[k][k])
        for i in range(k + 1, n):
            f = work[i][k] * inv
            for j in range(k + 1, n):
                work[i][j] = work[i][j] - f * work[k][j]
        det = det * work[k + 1][k + 1]
    return det
