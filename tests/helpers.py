"""Shared helpers for the test suite.

Everything here is an independent cross-check path: the reference jet
ring (constants, variables, sums and the truncated product) and derivative
jet, on its own jets of a bidegree cap (p, q) (the engine's jets have one
cap for both characters, only scale by numbers, and fill logs and powers by
graded recurrences), a cofactor determinant of jet matrices, the generic
norm and the Hartogs potential built from jet_variable in raw coordinates,
the Horner composition of power series,
the einsum forms of the curvature contractions, finite-difference stencils
for Wirtinger derivatives, exact-rational regrouping of the fiber-slice
identity polynomials, a trace-form computation of the base curvature
norm that bypasses the jet engine entirely, and the per-candidate sampler
that the library's block sampler must reproduce.
"""

import cmath
import math
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

import numpy as np

from hartogslab.domains import contains, generic_norm_value
from hartogslab.geometry import FIBER_FILL
from hartogslab.jets import (Jet, _contracted_mask, _pair_tables, basis_exponents,
                             jet_log, jet_real_power)


# -- the reference jet ring and derivative jet ---------------------------------

class RefJet:
    """A jet of the reference ring: num_vars, a bidegree cap (p, q) that
    bounds the holomorphic total degree by p and the antiholomorphic one by
    q, and the (*batch, H, W) coefficient array over the graded bases of
    degree <= p and <= q, as in an engine Jet. reference reads an engine
    jet in; to_engine hands a square one to the engine. Scales by numbers."""

    __slots__ = ("num_vars", "cap", "data")

    def __init__(self, num_vars, cap, data):
        self.num_vars, self.cap, self.data = num_vars, tuple(cap), data

    def __mul__(self, c):
        if isinstance(c, RefJet):  # the product is mul
            return NotImplemented
        return RefJet(self.num_vars, self.cap, self.data * complex(c))

    __rmul__ = __mul__


def reference(a, cap=None):
    """The engine jet a as a reference jet, truncated to the bidegree cap
    (p, q), each at most a.cap (default (a.cap, a.cap)): the graded bases
    make it a prefix block of a's coefficient array."""
    cap = (a.cap, a.cap) if cap is None else tuple(cap)
    if max(cap) > a.cap:
        raise ValueError(f"cap {cap} exceeds the jet's cap {a.cap}")
    rows, cols = (len(basis_exponents(a.num_vars, c)) for c in cap)
    return RefJet(a.num_vars, cap, a.data[..., :rows, :cols])


def to_engine(a):
    """The engine Jet of a reference jet at a square cap (c, c)."""
    if a.cap[0] != a.cap[1]:
        raise ValueError(f"an engine jet has one cap for both characters, got {a.cap}")
    return Jet(a.num_vars, a.cap[0], a.data)


def jet_constant(c, num_vars, cap):
    data = np.zeros(tuple(len(basis_exponents(num_vars, p)) for p in cap), complex)
    data[0, 0] = complex(c)
    return RefJet(num_vars, cap, data)


def jet_variable(index, num_vars, cap, anti=False):
    """The coordinate offset z_index (or zb_index if anti) from the base point."""
    if not 0 <= index < num_vars:
        raise ValueError(f"variable index {index} out of range for {num_vars} vars")
    if cap[1 if anti else 0] < 1:
        raise ValueError("unit exponent exceeds the cap for this character")
    data = jet_constant(0.0, num_vars, cap).data
    pos = num_vars - index  # the basis holds x_m first, x_1 last
    data[(0, pos) if anti else (pos, 0)] = 1.0
    return RefJet(num_vars, cap, data)


def constant_term(a):
    return a.data[..., 0, 0][()]


def _check_compatible(a, b):
    if (a.num_vars, a.cap) != (b.num_vars, b.cap):
        raise ValueError(f"jet mismatch: ({a.num_vars} vars, cap {a.cap}) vs "
                         f"({b.num_vars} vars, cap {b.cap})")


def add(a, *terms):
    """The sum a + b + ..., left to right, of jets of one shape and numbers
    (a number adds to the constant term); a may be a number."""
    for b in terms:
        if not isinstance(a, RefJet):
            a, b = b, a  # the sum commutes
        if isinstance(b, RefJet):
            _check_compatible(a, b)
            data = a.data + b.data
        else:
            data = a.data.copy()
            data[..., 0, 0] += complex(b)
        a = RefJet(a.num_vars, a.cap, data)
    return a


def neg(a):
    return RefJet(a.num_vars, a.cap, -a.data) if isinstance(a, RefJet) else -a


def sub(a, b):
    """a - b of two jets of one shape, or of a jet and a number."""
    return add(a, neg(b))


def hermitian_part(a):
    """(a + a^H) / 2 of a's coefficient array, at a square cap: exactly
    Hermitian, as jet_log and jet_real_power require, and a itself if a's
    function is real, up to the roundoff that the reference products
    leave."""
    return RefJet(a.num_vars, a.cap, 0.5 * (a.data + a.data.conj().swapaxes(-1, -2)))


@lru_cache(maxsize=None)
def _basis_degrees(m, degree):
    return np.array([sum(e) for e in basis_exponents(m, degree)])


def _operand_top(data, m, degree, axis):
    """The highest degree of a row (axis 1) or column (axis 0) of data that
    holds a nonzero coefficient; 0 for a zero array."""
    return _basis_degrees(m, degree)[data.any(axis=axis)].max(initial=0)


@lru_cache(maxsize=None)
def _factor_pairs(m, degree, ltop, rtop):
    """One character's monomial pairs (i, j) with deg i <= ltop, deg j <=
    rtop and deg i + deg j <= degree, grouped by their product k: left and
    right indices, where each group starts, and each group's k."""
    ia, ib, ic = _pair_tables(m, degree)
    degs = _basis_degrees(m, degree)
    keep = (degs[ia] <= ltop) & (degs[ib] <= rtop)
    ia, ib, ic = ia[keep], ib[keep], ic[keep]
    starts = np.flatnonzero(np.diff(ic, prepend=-1))
    return ia, ib, starts, ic[starts]


def _product(a, b):
    _check_compatible(a, b)
    m, cap, A, B = a.num_vars, a.cap, a.data, b.data
    (ha, hb, hs, hc), (aa, ab, as_, ac) = (
        _factor_pairs(m, degree, _operand_top(A, m, degree, axis),
                      _operand_top(B, m, degree, axis))
        for degree, axis in zip(cap, (1, 0)))
    terms = A[ha][:, aa] * B[hb][:, ab]
    out = np.zeros_like(A)
    out[np.ix_(hc, ac)] = np.add.reduceat(np.add.reduceat(terms, hs, axis=0),
                                          as_, axis=1)
    return RefJet(m, cap, out)


def mul(a, *factors):
    """The truncated product a b ... of jets of one shape: every holomorphic
    pair times every antiholomorphic pair of two factors' monomials, summed
    per destination along each axis. Only monomials up to the highest
    degree that each factor holds, per character, are paired."""
    for b in factors:
        a = _product(a, b)
    return a


def coefficient(j, h, a):
    """The Taylor coefficient of z^h zb^a in j, read at the basis index of
    each exponent tuple."""
    return j.data[basis_exponents(j.num_vars, j.cap[0]).index(tuple(h)),
                  basis_exponents(j.num_vars, j.cap[1]).index(tuple(a))]


@lru_cache(maxsize=None)
def _shift(m, degree, var):
    """For d/dx_var: the basis index of x_var e and the factor e_var + 1,
    for every monomial e of degree <= degree - 1."""
    index = {e: i for i, e in enumerate(basis_exponents(m, degree))}
    lifted = [(index[e[:var] + (e[var] + 1,) + e[var + 1:]], e[var] + 1)
              for e in basis_exponents(m, degree - 1)]
    rows, factors = zip(*lifted)
    return np.array(rows), np.array(factors, dtype=float)


def derivative_jet(a, holo, anti):
    """Jet of d/dz_holo dbar/dzb_anti of a; the cap shrinks by one on each
    character."""
    (p, q), m = a.cap, a.num_vars
    rows, row_factors = _shift(m, p, holo)
    cols, col_factors = _shift(m, q, anti)
    data = a.data[np.ix_(rows, cols)] * np.outer(row_factors, col_factors)
    return RefJet(m, (p - 1, q - 1), data)


# -- the jet engine's index tables by enumeration -------------------------------

def pair_tables_by_enumeration(m, degree):
    """jets._pair_tables by a loop over every ordered pair of basis
    monomials, each product looked up in a dict of exponent tuples."""
    exps = basis_exponents(m, degree)
    index = {e: i for i, e in enumerate(exps)}
    ia, ib, ic = [], [], []
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            if sum(a) + sum(b) <= degree:
                ia.append(i)
                ib.append(j)
                ic.append(index[tuple(x + y for x, y in zip(a, b))])
    order = np.argsort(ic, kind="stable")
    return tuple(np.array(t, dtype=np.intp)[order] for t in (ia, ib, ic))


def gather_table_by_enumeration(m, order):
    """jets._gather_table by a loop over every index tuple (i1..i_order):
    the basis index of x_i1 .. x_i_order and the product of the factorials
    of its exponents."""
    index = {e: i for i, e in enumerate(basis_exponents(m, order))}
    src, fac = [], []
    for idx in product(range(m), repeat=order):
        e = tuple(idx.count(v) for v in range(m))
        src.append(index[e])
        fac.append(math.prod(math.factorial(x) for x in e))
    return np.array(src, dtype=np.intp), np.array(fac, dtype=np.float64)


# -- cofactor determinant of a jet matrix ---------------------------------------

def cofactor_det(rows):
    """Determinant of a square jet matrix by cofactor expansion along its
    rows, memoized over the set of columns left free; uses only mul and
    sums, no division."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(cols):
        # the determinant of the last len(cols) rows on the columns cols
        row = rows[n - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        acc = mul(row[cols[0]], minor(cols[1:]))
        for k in range(1, len(cols)):
            term = mul(row[cols[k]], minor(cols[:k] + cols[k + 1:]))
            acc = sub(acc, term) if k % 2 else add(acc, term)
        return acc

    return minor(tuple(range(n)))


# -- the generic norm in raw coordinates ----------------------------------------

def raw_coordinates(p, cap, jacobian):
    """Jets of z = p + jacobian @ x and of its conjugate, from jet_variable."""
    d, num_vars = jacobian.shape
    z, zb = [], []
    for k in range(d):
        zk = jet_constant(p[k], num_vars, cap)
        zbk = jet_constant(complex(p[k]).conjugate(), num_vars, cap)
        for j in range(num_vars):
            if jacobian[k, j] != 0:
                zk = add(zk, jacobian[k, j] * jet_variable(j, num_vars, cap))
                zbk = add(zbk, np.conj(jacobian[k, j]) * jet_variable(
                    j, num_vars, cap, anti=True))
        z.append(zk)
        zb.append(zbk)
    return z, zb


def reference_norm_matrix(spec, p, cap, jacobian):
    """Rows of I - Z Zbar^t in the variables x of z = p + jacobian @ x, built
    entrywise from jet_variable, with the coordinate layout written out
    independently of matrix_model: type1 row-major, type2 the strict upper
    triangle of a skew matrix, type3 the upper triangle of a symmetric one."""
    num_vars = jacobian.shape[1]
    z, zb = raw_coordinates(p, cap, jacobian)
    if spec.kind == "type1":
        rows, cols = spec.m, spec.n
        slots = [(r, c) for r in range(rows) for c in range(cols)]
    else:
        rows = cols = spec.n
        first = 1 if spec.kind == "type2" else 0
        slots = [(r, c) for r in range(rows) for c in range(r + first, cols)]
    zero = jet_constant(0.0, num_vars, cap)
    Z = [[zero] * cols for _ in range(rows)]
    Zb = [[zero] * cols for _ in range(rows)]
    sign = -1.0 if spec.kind == "type2" else 1.0
    for k, (r, c) in enumerate(slots):
        Z[r][c], Zb[r][c] = z[k], zb[k]
        if spec.kind != "type1":
            Z[c][r], Zb[c][r] = sign * z[k], sign * zb[k]
    E = []
    for a in range(rows):
        row = []
        for b in range(rows):
            acc = jet_constant(1.0 if a == b else 0.0, num_vars, cap)
            for c in range(cols):
                acc = sub(acc, mul(Z[a][c], Zb[b][c]))
            row.append(acc)
        E.append(row)
    return E


def reference_norm(spec, p, cap, jacobian):
    """N in the variables x of z = p + jacobian @ x, from jet_variable only:
    a cofactor determinant of reference_norm_matrix for types 1-3 (for type 2
    that is N^2), the polynomial 1 - 2 z zb^t + |z z^t|^2 for type 4."""
    if spec.kind != "type4":
        return cofactor_det(reference_norm_matrix(spec, p, cap, jacobian))
    z, zb = raw_coordinates(p, cap, jacobian)
    zero = jet_constant(0.0, jacobian.shape[1], cap)
    zz = add(zero, *(mul(a, b) for a, b in zip(z, zb)))
    zzt = add(zero, *(mul(a, a) for a in z))
    zbzbt = add(zero, *(mul(b, b) for b in zb))
    return add(sub(1.0, 2.0 * zz), mul(zzt, zbzbt))


def raw_potential_jet(spec, point, cap=3):
    """Engine jet at cap cap of -log(N^mu - |w|^2) in the coordinates (z, w)
    themselves, with N from reference_norm: no generic_norm_jet or
    hartogs_potential_jet. The power and the log take their operands'
    Hermitian parts."""
    base, mu, bidegree = spec.base, float(spec.mu), (cap, cap)
    d = base.d
    norm = hermitian_part(reference_norm(base, point.base, bidegree, np.eye(d, d + 1)))
    n_mu = jet_real_power(to_engine(norm), mu / 2 if base.kind == "type2" else mu)
    w = add(jet_variable(d, d + 1, bidegree), point.fiber)
    wb = add(jet_variable(d, d + 1, bidegree, anti=True),
             complex(point.fiber).conjugate())
    return jet_log(to_engine(hermitian_part(sub(reference(n_mu), mul(w, wb)))), -1.0)


# -- einsum forms of the curvature contractions ------------------------------

def curvature_terms(potential, X):
    """R_{i jbar k lbar} = -Phi_{ik jbar lbar} + sum g^{p qbar} Phi_{ik qbar}
    Phi_{p jbar lbar}, X = g^{-1}, as signed einsum terms (see einsum_sum)."""
    return [(-1, "ikjl->ijkl", (potential.partials(2, 2),)),
            (1, "qp,ikq,pjl->ijkl",
             (X, potential.partials(2, 1), potential.partials(1, 2)))]


def one_block_terms(potential, X):
    """The one-block term of the double trace of d d dbar dbar log det g:
    sum X[j, i] X[b, h] X[c, k] d_i d_h d_k dbar_j dbar_b dbar_c Phi."""
    return [(1, "ji,ihkjbc,bh,ck->", (X, potential.partials(3, 3), X, X))]


def one_block_by_nine_gathers(potential, X):
    """geometry._one_block with each 3 x 3 permanent per(X[b, a]), entries
    X[b_s, a_t] for the variables a_t of each degree-3 monomial a and b_s of
    each b, gathered entry by entry (nine gathers) and expanded by its first
    row, the 2 x 2 minors' permanents formed in place; one point at a time,
    and of a contracted jet over the (a, b) that jets._contracted_mask
    keeps only."""
    m, batch = X.shape[-1], X.shape[:-2]
    exps = np.array(basis_exponents(m, 3)[len(basis_exponents(m, 2)):])
    var = np.repeat(np.tile(np.arange(m), len(exps)), exps.ravel()).reshape(-1, 3)
    index = var.T[:, None, None, :] * m + var.T[None, :, :, None]  # [s, t, a, b]
    lo, hi = len(basis_exponents(m, 2)), len(basis_exponents(m, 3))
    keep = slice(None)
    if potential.contracted:
        size = len(basis_exponents(m, potential.cap))
        keep = _contracted_mask(m, potential.cap).reshape(size, size)[lo:hi, lo:hi]
    out = np.empty(batch, dtype=np.complex128)
    for i in np.ndindex(batch):
        (x00, x01, x02), (x10, x11, x12), (x20, x21, x22) = X[i].ravel()[index]
        per = (x00 * (x11 * x22 + x12 * x21)
               + x01 * (x10 * x22 + x12 * x20)
               + x02 * (x10 * x21 + x11 * x20))
        terms = potential.data[i][lo:hi, lo:hi] * per
        out[i] = terms[keep].sum()
    return 6 * out


def products_terms(S, T):
    """S[s] T[t] for every leading index s of S and t of T, indexed
    [..., s, t, p, q], as an einsum."""
    return np.einsum("...spr,...trq->...stpq", S, T)


def laplacian_terms(LD, X, ric):
    """Delta k + trace22 in the terms of geometry._laplacian_from_parts, each
    sum_{a, b} X[b, a] of a trace, written out index by index."""
    A, B, Z = LD.Za, LD.Zb, X @ ric
    L12 = LD.L21.conj().transpose(2, 0, 1)
    return [(1, "ba,bij,ajk,ki->", (X, B, A, Z)),
            (1, "ba,aij,bjk,ki->", (X, A, B, Z)),
            (-1, "ba,abij,ji->", (X, LD.Zab, Z)),
            (1, "ba,aij,jk,kib->", (X, A, X, L12)),
            (1, "ba,bij,jk,kai->", (X, B, X, LD.L21))]


def einsum_sum(terms, absolute=False):
    """The sum of the signed einsum terms; if absolute, the sum of their
    summands' absolute values (every operand and sign made nonnegative)."""
    if absolute:
        return sum(np.einsum(spec, *map(np.abs, ops)) for _, spec, ops in terms)
    return sum(sign * np.einsum(spec, *ops) for sign, spec, ops in terms)


# -- Horner composition of power series ---------------------------------------

def horner_compose(a, coeffs):
    """sum_k coeffs[k] * (a - a0)^k by Horner's rule, in mul only;
    exact once len(coeffs) exceeds the total degree p + q of a's cap (p, q)
    (higher powers of a - a0 vanish)."""
    u = sub(a, constant_term(a))
    r = jet_constant(coeffs[-1], a.num_vars, a.cap)
    for c in coeffs[-2::-1]:
        r = add(mul(r, u), c)
    return r


def _series_terms(a):
    return sum(a.cap) + 1


def horner_reciprocal(a):
    c0 = constant_term(a)
    return horner_compose(a, [(-1) ** k / c0 ** (k + 1)
                              for k in range(_series_terms(a))])


def horner_log(a):
    c0 = constant_term(a)
    return horner_compose(a, [cmath.log(c0)] + [(-1) ** (k + 1) / (k * c0 ** k)
                                               for k in range(1, _series_terms(a))])


def horner_real_power(a, mu):
    """exp(mu log a), both by Horner."""
    b = horner_log(a) * mu
    c0 = constant_term(b)
    return horner_compose(b, [cmath.exp(c0) / math.factorial(k)
                              for k in range(_series_terms(a))])


# -- finite differences -------------------------------------------------------

def fd_mixed_partial(f, z, i, j, h=1e-4):
    """d^2 f / dz_i dzbar_j at z by central differences; f maps a complex
    vector to a real number.

    The diagonal case is the 5-point Laplacian over the i-th coordinate plane
    divided by 4; the off-diagonal case polarizes the four real/imaginary
    cross stencils.
    """
    z = np.asarray(z, dtype=complex)
    m = len(z)

    def at(dz):
        return f(z + dz)

    ei = np.zeros(m, complex)
    ej = np.zeros(m, complex)
    ei[i] = 1.0
    ej[j] = 1.0
    if i == j:
        return (at(h * ei) + at(-h * ei) + at(1j * h * ei) + at(-1j * h * ei)
                - 4.0 * at(0 * ei)) / (4.0 * h * h)

    def cross(da, db):
        return (at(h * da + h * db) - at(h * da - h * db)
                - at(-h * da + h * db) + at(-h * da - h * db)) / (4.0 * h * h)

    re = cross(ei, ej) + cross(1j * ei, 1j * ej)
    im = cross(ei, 1j * ej) - cross(1j * ei, ej)
    return (re + 1j * im) / 4.0


# -- exact regrouping of the fiber-slice identities ---------------------------

def _pmul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _padd(a, b):
    out = [F(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def _pscale(a, s):
    return [x * s for x in a]


ONE_MINUS_T = [F(1), F(-1)]


def regrouped_a2_coeffs(d, genus, mu, base_r2):
    """(c0, c1, c2) of a2(t) = c0 t^2 + c1 t + c2, assembled by brute-force
    expansion of the four fiber-slice identity polynomials in t. Deliberately
    shares no code with the oracle module: the identities are expanded here
    as literal polynomials and summed with weights 1/3, 1/24, -1/6, 1/8."""
    d = F(d)
    mu = F(mu)
    c = (mu * (d + 1) - F(genus)) / mu
    gm = F(genus) / mu
    A = gm * gm * F(base_r2)

    k = _padd(_pscale(ONE_MINUS_T, d * c), [-(d + 1) * (d + 2)])
    lapk = _pscale(_pmul(ONE_MINUS_T, [F(1), d - 1]), -d * c)
    one_minus_t_sq = _pmul(ONE_MINUS_T, ONE_MINUS_T)
    t_one_minus_t = _pmul([F(0), F(1)], ONE_MINUS_T)
    r2 = _padd(_padd(_pscale(one_minus_t_sq, A),
                     _pscale(t_one_minus_t, 4 * d * gm)),
               [4 * (d + 1), F(0), 2 * d * (d + 1)])
    ric2 = _padd(_padd(_pscale(one_minus_t_sq, d * c * c),
                       _pscale(ONE_MINUS_T, -2 * d * (d + 2) * c)),
                 [(d + 1) * (d + 2) ** 2])

    a2 = _padd(_padd(_pscale(lapk, F(1, 3)), _pscale(r2, F(1, 24))),
               _padd(_pscale(ric2, F(-1, 6)), _pscale(_pmul(k, k), F(1, 8))))
    while len(a2) < 3:
        a2.append(F(0))
    assert all(x == 0 for x in a2[3:])
    return a2[2], a2[1], a2[0]


def random_identity_tuples(count, seed=20240817):
    """Random rational (d, genus, mu, base_r2) tuples for regrouping checks."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(1, 9)
        genus = rng.randint(2, 12)
        mu = F(rng.randint(1, 9), rng.randint(1, 9))
        base_r2 = F(rng.randint(1, 40), rng.randint(1, 9))
        out.append((d, genus, mu, base_r2))
    return out


# -- trace-form curvature norm (independent of the jet engine) ----------------

def _matrix_units(spec):
    n = spec.n
    if spec.kind == "type1":
        m = spec.m
        units = []
        for i in range(m):
            for j in range(n):
                M = np.zeros((m, n))
                M[i, j] = 1.0
                units.append(M)
        return np.array(units), float(spec.genus)
    if spec.kind == "type2":
        units = []
        for i in range(n):
            for j in range(i + 1, n):
                M = np.zeros((n, n))
                M[i, j] = 1.0
                M[j, i] = -1.0
                units.append(M)
        # potential is -(genus/2) log det because N = det^{1/2}
        return np.array(units), spec.genus / 2.0
    if spec.kind == "type3":
        units = []
        for i in range(n):
            for j in range(i, n):
                M = np.zeros((n, n))
                M[i, j] += 1.0
                if i != j:
                    M[j, i] += 1.0
                units.append(M)
        return np.array(units), float(spec.genus)
    raise ValueError(spec.kind)


def trace_form_r2(spec):
    """|R_gB|^2(0) from the quartic term of the Bergman potential only.

    For the matrix families, P4 = (geff/2) tr((Z Zbar^t)^2) with Z = sum of
    coordinate times matrix unit, which gives
        g_ab(0)      = geff tr(S_a S_b^t),
        R_{a b c d}(0) = -geff [tr(S_a S_b^t S_c S_d^t)
                               + tr(S_a S_d^t S_c S_b^t)].
    The Lie ball has its own closed pattern
        R_{a b c d}(0) = -4 genus (d_ab d_cd + d_ad d_cb - d_ac d_bd).
    Curvature at the origin sees only this quartic term, so the value is a
    jet-free oracle for the engine and the closed forms alike.
    """
    if spec.kind == "type4":
        n = spec.n
        gamma = float(spec.genus)
        delta = np.eye(n)
        D = (np.einsum("ab,cd->abcd", delta, delta)
             + np.einsum("ad,cb->abcd", delta, delta)
             - np.einsum("ac,bd->abcd", delta, delta))
        R = -4.0 * gamma * D
        g = 2.0 * gamma * np.ones(n)
        inv = 1.0 / g
        return float(np.einsum("abcd,abcd,a,b,c,d->", R, R, inv, inv, inv, inv))
    S, geff = _matrix_units(spec)
    g = geff * np.einsum("aij,aij->a", S, S)
    T4 = np.einsum("aij,bkj,ckl,dil->abcd", S, S, S, S)
    R = -geff * (T4 + T4.transpose(0, 3, 2, 1))
    inv = 1.0 / g
    return float(np.einsum("abcd,abcd,a,b,c,d->", R, R, inv, inv, inv, inv))


# -- the per-candidate sampler ------------------------------------------------

def sample_interior_reference(spec, seed, count):
    """domains.sample_interior one candidate at a time: 2d uniform doubles
    per candidate, kept if contains accepts that one point."""
    rng = np.random.default_rng(seed)
    r = 1.0 / math.sqrt(spec.d)
    out = []
    while len(out) < count:
        raw = rng.uniform(-r, r, size=2 * spec.d)
        p = raw[0::2] + 1j * raw[1::2]
        if contains(spec, p):
            out.append(tuple(complex(x) for x in p))
    return out


def sample_hartogs_fibers_reference(spec, seed, zs):
    """The fibers geometry.sample_hartogs draws over the base points zs,
    with one generic_norm_value call per point."""
    rng = np.random.default_rng(seed + 10007)
    out = []
    for z in zs:
        bound = FIBER_FILL * float(generic_norm_value(spec.base, z)) ** float(spec.mu)
        t = rng.uniform(0.0, bound)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        out.append(complex(np.sqrt(t) * np.exp(1j * theta)))
    return out
