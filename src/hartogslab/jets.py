"""Truncated multivariate Taylor jets over complex coefficients.

Holomorphic variables z_1..z_m and antiholomorphic variables zb_1..zb_m are
treated as 2m independent formal variables (Wirtinger calculus). A jet at
cap c, one integer for both characters, as every jet here is a real
function's, stores every mixed Taylor coefficient whose holomorphic and
whose antiholomorphic total degree are each <= c, centered at a base point.
That retained monomial box is the complement of an ideal, so truncation
is a ring quotient map: logs and powers computed on jets agree exactly with
the truncation of the true series, coefficient by coefficient. Jets scale by
numbers; there is no jet sum or product, which no report needs.
Affine polynomials c + l . x in the offset x from the base point come in as
rows (c, l_1, .., l_m), which _affine places on the monomial basis, and
_affine_product multiplies holomorphic series by them, truncated: so the
generic norms build their Pfaffians (see domains.generic_norm_jet).

Storage is a dense complex128 matrix indexed by (holo monomial, anti monomial)
over graded-lex monomial bases, with leading batch axes, one jet per point:
(*batch, S, S); a one-point jet has batch shape (). Log and real power take
only the jet of a real function, whose coefficient array is Hermitian,
c[h, k] = conj(c[k, h]): every norm and potential the geometry takes a log
or power of is one. They fill their result one total degree at a
time (one graded Taylor recurrence in a real scalar; Griewank & Walther,
Evaluating Derivatives, 2nd ed., ch. 13) by a truncated Cauchy product over a
table of the monomial pairs that land on that degree on or above the
diagonal, whose left factors are coefficients that the operand holds (its
nonzero pattern, see _pairs), summed per destination with np.add.reduceat,
and mirror the rest. The table has no pair with a constant factor, whose
term _graded_solve folds into the start value of each degree, nor one with
a factor of the top total degree. The points of a batch that share a
pattern below the top degree share a table: at z = 0 the norms hold a few
of their coefficients, and generic points hold nearly all of them.
A contracted jet (Jet.contracted, see _jet) leaves out the top-block (c, c)
coefficients, which no other one reads, whose monomials share fewer than
c - 1 variables (_contracted_mask). Its logs, powers and multiples are
contracted too, with +0.0 there and every kept coefficient the full jet's,
bit for bit. A consumer that reads the top block only through its
permanents against X = g^{-1} = I + O(e) loses O(e^2) by that.
Jets are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import groupby

import numpy as np

MAX_DEGREE = 6  # engine hard limit on the cap


def _as_cap(cap) -> int:
    """cap, an integer (int or numpy integer) in 0..MAX_DEGREE, as an int;
    else a ValueError that names it."""
    c = operator.index(cap) if hasattr(cap, "__index__") else -1
    if not 0 <= c <= MAX_DEGREE:
        raise ValueError(f"a cap is an integer in 0..{MAX_DEGREE}, got {cap!r}")
    return c


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


def _basis_index(m: int, degree: int, exps: np.ndarray) -> np.ndarray:
    """The basis index of each row of exponents exps (..., m) of total degree
    <= degree, by np.searchsorted on integer keys that increase along the
    graded basis: the total degree, then the exponents, as the digits of a
    number in base degree + 1."""
    if (degree + 1) ** (m + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"no int64 keys for {m} variables at degree {degree}")
    digits = (degree + 1) ** np.arange(m, -1, -1, dtype=np.int64)
    keys = [e.sum(axis=-1) * digits[0] + e @ digits[1:]
            for e in (np.array(basis_exponents(m, degree)), exps)]
    return np.searchsorted(*keys)


@lru_cache(maxsize=None)
def _pair_tables(m: int, degree: int):
    """Index tables (ia, ib, ic) of every ordered monomial pair whose product
    stays within the degree bound, sorted by the product's index ic; the
    pairs of one product keep ia, then ib, ascending."""
    degs = _degrees(m, degree)
    # the monomials of degree <= degree - deg a are a prefix of the basis
    count = np.searchsorted(degs, degree - degs, side="right")
    ia = np.repeat(np.arange(degs.size), count)
    ib = np.arange(ia.size) - np.repeat(np.cumsum(count) - count, count)
    exps = np.array(basis_exponents(m, degree))
    ic = _basis_index(m, degree, exps[ia] + exps[ib])
    order = np.argsort(ic, kind="stable")
    return ia[order], ib[order], ic[order]


@lru_cache(maxsize=None)
def _degrees(m: int, degree: int) -> np.ndarray:
    """Total degree of each basis monomial."""
    return np.array(basis_exponents(m, degree)).sum(axis=1)


@lru_cache(maxsize=None)
def _total_degrees(m: int, cap: int) -> np.ndarray:
    """Total degree of each flat (holo, anti) coefficient position."""
    degs = np.add.outer(_degrees(m, cap), _degrees(m, cap))
    return degs.ravel().astype(np.intp)


def _patterns(flat: np.ndarray) -> list:
    """The nonzero pattern of each row of flat (one point's coefficients),
    packed into bytes: the key of its pair table (see _pairs)."""
    return [row.tobytes() for row in np.packbits(flat != 0, axis=-1)]


def _raise_where(bad, stage: str, text) -> None:
    """A ValueError naming the stage and the first point i where bad (one
    bool per point) holds; text is a string or a function of i."""
    bad = bad if isinstance(bad, list) else bad.ravel().tolist()
    if True in bad:
        i = bad.index(True)
        raise ValueError(f"{stage} at point {i}: {text(i) if callable(text) else text}")


_CHUNK = 1 << 16


def _points_per_pass(width: int) -> int:
    """Points per pass of width elements each: about _CHUNK, at least 1."""
    return max(1, _CHUNK // width)


@lru_cache(maxsize=None)
def _contracted_mask(m: int, degree: int) -> np.ndarray:
    """The flat positions, in a coefficient array at cap degree, that a
    contracted jet keeps: every one below the top block, and the top-block
    (h, k) whose monomials share at least degree - 1 variables, counted
    with multiplicity (the multiset intersection). A consumer that reads the top block only through the
    degree x degree permanents of X[k, h], X = I + O(e), sees every dropped
    coefficient at O(e^2): a term of such a permanent takes at most as many
    diagonal entries of X as h and k share variables, so with fewer than
    degree - 1 shared it takes at least two off-diagonal ones."""
    exps = np.array(basis_exponents(m, degree))
    top = exps.sum(axis=1) == degree
    shared = np.minimum(exps[:, None, :], exps[None, :, :]).sum(axis=-1)
    keep = ((shared >= degree - 1) | ~np.logical_and.outer(top, top)).ravel()
    keep.setflags(write=False)
    return keep


@lru_cache(maxsize=256)
def _pairs(m: int, cap: int, key: bytes, contracted: bool) -> tuple:
    """The plan of a graded recurrence on a real function's jet at cap cap
    (see _real_function) whose nonzero pattern is key (as _patterns packs
    it), contracted or not. Its table pairs non-constant
    monomials (the recurrence folds a constant factor's term into init)
    whose product lands on or above the diagonal, at (h, k) with h <= k,
    where a contracted jet keeps it (_contracted_mask), and whose left
    factor is a coefficient that the operand holds, as a term with an
    exactly zero factor adds nothing. Returns (support, sdeg, step,
    dropped, degrees): the flat positions of the possible left factors
    (held, neither the constant nor of the top total degree) and their
    total degrees; the points per pass (_points_per_pass of the widest
    chunk, whose _convolve temporaries take that many elements a point);
    the flat positions that the table leaves at +0.0 (none if not
    contracted); and each total degree that has pairs, in order, with its
    chunks of whole destination segments and about _CHUNK pairs (not one, unless the degree holds one). A chunk is
    (left factor indices into the support, right flat operand indices, the
    start of each destination's segment, each segment's flat destination
    (h, k), and its mirror (k, h)), sorted by destination."""
    size = _space_size(m, cap)  # the array's height and width
    held = np.unpackbits(np.frombuffer(key, np.uint8), count=size * size).astype(bool)
    held[0] = False  # a constant factor's term is in init
    # nor is a top-degree coefficient a left factor: its product passes the cap
    held[_total_degrees(m, cap) == 2 * cap] = False
    # flat indices in the smallest dtype that holds them: the tables are
    # the engine's largest cached arrays
    index = np.min_scalar_type(size * size)
    # a Hermitian pattern holds the same rows as columns, so one factor
    # table, of left factors in those rows, serves both characters
    ia, ib, ic = _pair_tables(m, cap)
    keep = held.reshape(size, size).any(axis=1)[ia]
    fa, fb, fc = (t[keep].astype(index) for t in (ia, ib, ic))
    # row i of the table is holomorphic pair i with the antiholomorphic
    # pairs first[i].. that land on or above the diagonal (fc >= fc[i], a
    # suffix, as fc is sorted)
    first = np.searchsorted(fc, fc)
    count = len(fc) - first
    # int32 positions: the expansion is the largest transient of a build
    row = np.repeat(np.arange(len(fc), dtype=np.int32), count)
    col = np.arange(row.size, dtype=np.int32)
    col -= np.repeat((np.cumsum(count) - count - first).astype(np.int32), count)
    dst = fc[row] * size + fc[col]
    left = fa[row] * size + fa[col]
    right = fb[row] * size + fb[col]
    del row, col
    keep = held[left] & (right != 0)
    if contracted:
        keep &= _contracted_mask(m, cap)[dst]
    dst, left, right = dst[keep], left[keep], right[keep]
    support = np.flatnonzero(held)
    # each held position's index in the support (read at held positions only)
    left = (np.cumsum(held) - 1).astype(np.min_scalar_type(support.size))[left]
    tdeg = _total_degrees(m, cap).astype(np.int32)[dst]  # a small sort key
    # the factor tables are sorted by destination, so this merges sorted runs
    order = np.argsort(tdeg * (size * size) + dst, kind="stable")
    dst, tdeg, left, right = dst[order], tdeg[order], left[order], right[order]
    del order
    starts = np.flatnonzero(np.diff(dst, prepend=dst[:1] - 1))
    ends = np.append(starts, dst.size)

    def chunks(p0, p1):
        cuts = ends[np.searchsorted(ends, np.arange(p0 + _CHUNK, p1, _CHUNK))]
        edges = sorted({p0, p1, *cuts.tolist()})
        # numpy rounds a length-1 complex product unlike its vector loop, so
        # a one-pair chunk joins the next (the last, the one before it)
        last = len(edges) - 1
        edges = [e for i, e in enumerate(edges) if i in (0, last) or
                 e - edges[i - 1] > 1 and (i < last - 1 or edges[-1] - e > 1)]
        out = []
        for e0, e1 in zip(edges, edges[1:]):
            s0, s1 = np.searchsorted(starts, (e0, e1))
            seg = dst[starts[s0:s1]]
            out.append((left[e0:e1], right[e0:e1], starts[s0:s1] - e0, seg,
                        seg % size * size + seg // size))
        return tuple(out)

    bounds = np.searchsorted(tdeg, np.arange(2 * cap + 2)).tolist()
    degrees = tuple((n, chunks(*bounds[n:n + 2])) for n in range(len(bounds) - 1)
                    if bounds[n] < bounds[n + 1])
    widest = max((len(c[0]) for _, cs in degrees for c in cs), default=_CHUNK)
    dropped = ~_contracted_mask(m, cap) if contracted else ()
    return (support, _total_degrees(m, cap)[support], _points_per_pass(widest),
            np.flatnonzero(dropped).astype(index), degrees)


def _convolve(a, b, left, right, starts):
    """Sum of a[..., left] * b[..., right] over each destination segment."""
    prod = a.take(left, axis=-1)
    prod *= b.take(right, axis=-1)
    return np.add.reduceat(prod, starts, axis=-1)


@lru_cache(maxsize=None)
def _gather_table(m: int, order: int):
    """For every index tuple (i1..i_order), in C order: the basis index of the
    monomial x_i1 ... x_i_order and the factorial factor turning its Taylor
    coefficient into the partial derivative. The graded basis makes the index
    valid at every degree >= order."""
    tuples = np.indices((m,) * order).reshape(order, m ** order).T
    exps = (tuples[:, :, None] == np.arange(m)).sum(axis=1)
    factorials = np.array([math.factorial(e) for e in range(order + 1)], float)
    return _basis_index(m, order, exps), factorials[exps].prod(axis=1)


@lru_cache(maxsize=None)
def _partials_table(m: int, cap: int, p: int, q: int):
    """Flat indices into a coefficient array at cap cap of every order-(p,
    q) partial, and the factorial weights, both shaped like Jet.partials."""
    hi, hf = _gather_table(m, p)
    ai, af = _gather_table(m, q)
    shape = (m,) * (p + q)
    index = (hi[:, None] * _space_size(m, cap) + ai).reshape(shape)
    weight = np.outer(hf, af).reshape(shape)
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def _affine(T: np.ndarray) -> np.ndarray:
    """Coefficients over the graded basis of degree <= 1 of the affine
    polynomials T[..., 0] + sum_i T[..., i] x_i in x_1..x_m, where T is
    (..., m + 1)."""
    # the basis holds x_m first, x_1 last
    return np.concatenate((T[..., :1], T[..., :0:-1]), axis=-1, dtype=np.complex128)


def _affine_product(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """The products a b, truncated to degree, of holomorphic series over the
    graded basis in m variables, where a (..., m + 1) holds degree <= 1 (as
    _affine places it) and b (..., len(basis_exponents(m, j))) degree
    <= j <= degree: the pairs of _pair_tables that both factors hold."""
    ia, ib, ic = _pair_tables(a.shape[-1] - 1, degree)
    keep = (ia < a.shape[-1]) & (ib < b.shape[-1])
    return _convolve(a, b, ia[keep], ib[keep],
                     np.flatnonzero(np.diff(ic[keep], prepend=-1)))


def _space_size(m: int, degree: int) -> int:
    return len(basis_exponents(m, degree))


class Jet:
    """Immutable truncated Taylor expansion; see module docstring.

    Build jets with jet_log and jet_real_power, scalar multiples, or wrap a
    complex128 array of shape (*batch, S, S), S = len(basis_exponents(
    num_vars, cap)), whose [..., i, j] entry is the coefficient of the i-th
    holomorphic times the j-th antiholomorphic basis monomial; cap is an
    integer in 0..MAX_DEGREE (see _as_cap). The array is frozen, not
    copied; the jet is not contracted (see _jet).
    """

    __slots__ = ("num_vars", "cap", "data", "contracted")

    def __init__(self, num_vars: int, cap: int, data: np.ndarray):
        self.num_vars, self.cap, self.contracted = num_vars, _as_cap(cap), False
        data.setflags(write=False)
        self.data = data

    @staticmethod
    def _zeros(num_vars, cap, batch=()):
        return np.zeros(batch + (_space_size(num_vars, cap),) * 2, dtype=np.complex128)

    def partials(self, p: int, q: int) -> np.ndarray:
        """Dense tensor of every order-(p, q) mixed partial at the base point,
        indexed [..., i1..ip, j1..jq] (holomorphic indices first)."""
        if not (0 <= p <= self.cap and 0 <= q <= self.cap):
            raise ValueError(f"order ({p},{q}) exceeds cap {self.cap}")
        index, weight = _partials_table(self.num_vars, self.cap, p, q)
        out = self.data.reshape(self.data.shape[:-2] + (-1,)).take(index, axis=-1)
        out *= weight
        return out

    def __mul__(self, c):
        if isinstance(c, Jet):  # jets scale by numbers only
            return NotImplemented
        return _jet(self.num_vars, self.cap, self.data * complex(c), self.contracted)

    __rmul__ = __mul__


def _jet(num_vars: int, cap: int, data: np.ndarray, contracted: bool) -> Jet:
    """Jet(num_vars, cap, data), contracted if contracted."""
    jet = Jet(num_vars, cap, data)
    jet.contracted = contracted
    return jet


# -- analytic operations ------------------------------------------------------

def _graded_solve(a: Jet, b0, alpha: float, init) -> Jet:
    """The jet b with constant term b0 and, for n >= 1, b_n = init a_n +
    sum_{j >= 1} (alpha j - n) / (n a_0) [a_j b_{n-j}]_n, where x_n is the
    total-degree-n part of x: jet_log's and jet_real_power's recurrence, on
    a real function's jet a (see _real_function), with b0 and init real,
    one value per point, so b is a real function's jet too. One pass over
    the degrees fills b; the term j = n, of b's constant, is in the start
    value (init + (alpha - 1) b0 / a_0) a_n, so the pass runs only the
    pairs of two non-constant factors that land on or above the diagonal,
    about half, writes the conjugates of each degree's new entries below it
    before the next degree reads them, and drops the diagonal's roundoff
    imaginary part. Each maximal run of consecutive points with one
    nonzero pattern below the top total degree follows that pattern's plan
    (see _pairs): it zeroes the dropped positions and reads the table in
    place, a pass of the plan's size at a time, so a point sums as in its
    batch of one. b is contracted if a is: the dropped coefficients are
    exact zeros, and every kept one is the same sum of the same pairs as a
    full a's: the top block is a leaf, which no other coefficient reads."""
    m, cap, shape = a.num_vars, a.cap, a.data.shape
    flat = a.data.reshape(-1, shape[-2] * shape[-1])
    a0, b0, init = flat[:, :1], np.reshape(b0, (-1, 1)), np.reshape(init, (-1, 1))
    b = flat * (init + (alpha - 1.0) * b0 / a0)
    b[:, :1] = b0
    j = alpha * np.arange(2 * cap + 1)  # alpha j at each total degree j
    # the key leaves out the top total degree, as _pairs' support does
    below = _total_degrees(m, cap) < 2 * cap
    start = 0
    for key, run in groupby(_patterns((flat != 0) & below)):
        end = start + len(list(run))
        support, sdeg, step, dropped, degrees = _pairs(m, cap, key, a.contracted)
        b[start:end, dropped] = 0.0
        for p in range(start, end, step):
            rows = slice(p, min(p + step, end))  # a view, written in place
            bp, ap, held = b[rows], a0[rows], flat[rows].take(support, axis=1)
            for n, chunks in degrees:
                scaled = held * ((j - n) / (n * ap)).take(sdeg, axis=1)
                for left, right, starts, dst, mirror in chunks:
                    value = bp.take(dst, axis=1) + _convolve(scaled, bp, left, right,
                                                             starts)
                    bp[:, dst] = value
                    bp[:, mirror] = value.conj()
        start = end
    b[:, ::shape[-1] + 1].imag = 0.0  # the mirror conjugated the diagonal's roundoff
    return _jet(m, cap, b.reshape(shape), a.contracted)


def _real_function(a: Jet, stage: str) -> np.ndarray:
    """a's constant term (1 x 1 per point), if a is the jet of a real
    function with a finite positive value: at every point, an exactly
    Hermitian coefficient array (whose constant term is exactly real) with
    a finite positive constant term. Else a ValueError naming the stage and
    the first bad point."""
    data = a.data.reshape((-1,) + a.data.shape[-2:])
    hermitian = (data == data.conj().swapaxes(-1, -2)).all(axis=(1, 2)).tolist()
    c0 = a.data[..., :1, :1]
    positive = [0.0 < c.real < math.inf for c in c0.ravel().tolist()]  # no nan
    _raise_where([not (h and p) for h, p in zip(hermitian, positive)], stage,
                 lambda i: "requires an exactly Hermitian coefficient array "
                 "(a real function's jet)" if positive[i]
                 else "requires a finite positive constant term")
    return c0


def jet_log(a: Jet, scale: float = 1.0) -> Jet:
    """scale * log of a real function's jet with a finite positive value
    (see _real_function). From a E(b) = scale E(a), E the Euler operator
    (the total-degree-n part times n): b_n = scale a_n / a_0 + (1/(n a_0))
    sum_{j >= 1} (j - n) a_j b_{n-j}. The recurrence is linear in b and
    negation is exact, so scale = -1 gives every value of -log a to the bit
    (a zero may carry the other sign), with no negated copy. Contracted
    if a is."""
    c0 = _real_function(a, "jet_log")
    return _graded_solve(a, scale * np.log(c0), 1.0, scale / c0)


def jet_real_power(a: Jet, mu: float) -> Jet:
    """a**mu for real 0 < mu < inf, of a real function's jet with a finite
    positive value (see _real_function). From a E(b) = mu b E(a): b_n =
    (1/(n a_0)) sum_{j >= 1} ((mu + 1) j - n) a_j b_{n-j}. Contracted if
    a is."""
    mu = float(mu)
    if not 0.0 < mu < math.inf:  # also rejects nan
        raise ValueError(f"jet_real_power requires 0 < mu < inf, got {mu}")
    c0 = _real_function(a, "jet_real_power")
    return _graded_solve(a, c0.real ** mu, mu + 1.0, 0.0)
