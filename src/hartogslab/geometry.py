"""Kahler geometry from potential jets: metric, curvature, Ricci, scalar
curvature, tensor norms, Laplacian of the scalar curvature, and the expansion
coefficients a0, a1, a2.

Conventions (calibrated against closed-form identities on disk and ball based
Hartogs domains; any constant-factor mismatch is a bug, not a tunable):

  g_{i jbar}      = d_i dbar_j Phi
  R_{i jbar k lbar} = -Phi_{ik jbar lbar}
                       + sum_{p,q} g^{p qbar} Phi_{ik qbar} Phi_{p jbar lbar}
  Ric_{i jbar}    = -d_i dbar_j log det g
  k               = g^{i jbar} Ric_{i jbar}
  Delta           = g^{i jbar} d_i dbar_j
  |R|^2           = R_{a bbar h tbar} conj(R_{z nbar x ubar})
                      g^{a zbar} conj(g^{b nbar}) g^{h xbar} conj(g^{t ubar})
  |Ric|^2         = Ric_{a bbar} conj(Ric_{z nbar}) g^{a zbar} conj(g^{b nbar})
  a0 = 1,  a1 = k / 2,  a2 = Delta k / 3 + |R|^2 / 24 - |Ric|^2 / 6 + k^2 / 8

The canonical potential of the Hartogs domain over a base domain with generic
norm N is Phi = -log(N^mu - |w|^2); the Bergman potential of the base alone is
-genus * log N. Every tensor comes from one primitive, Jet.partials, which
gathers all mixed partials of one order at the base point, up to order
(3, 2) and (2, 3); the order-(3, 3) term is read from the Taylor
coefficients (see _one_block). Ric = -d dbar log det g, its first
derivatives and the double trace of its second derivatives are closed-form
contractions of those partials with g^{-1} (the cycle expansion of the
derivatives of log det g, see _log_det_jets); no jet of log det g or of
det g is formed. Delta k is the closed form g^{a bbar} d_a dbar_b
tr(g^{-1} Ric), expanded with d(g^{-1}) = -g^{-1} (dg) g^{-1}, so that no
finite-difference error enters. Every contraction is a matrix product or a
sum of traces of products: after the potential jet, a report in m = d + 1
variables costs O(m^5) arithmetic plus one pass over the roughly (m^3/6)^2
Taylor coefficients of bidegree (3, 3), or in the metric-normal frame over
the O(m^4) of them whose monomials share two variables.

curvature_reports and scalar_curvatures differentiate in metric-normal
coordinates x, (z, w) = (z0, w0) + A x with g = I at the point (see
_normal_frame). Near the boundary g in (z, w) has condition numbers of 1e5
and more, and one-ulp noise on a potential jet in (z, w) moved k by 1e-7
there; in x every point is at roundoff. Their potentials are contracted
jets (see jets._contracted_mask): there X = g^{-1} is I to roundoff, and
the top block, which only X-contracted permanents read (_one_block at cap
3, k = tr(X Ric) at cap 2), keeps only the coefficients that enter at
first order in X - I. Only hartogs_potential_jet makes one, and it
refuses a point whose max |g - I| exceeds _FRAME_TOL = 1e-8;
curvature_tensor refuses one at cap 2. The report's tensors are pulled
back to (z, w). Every stage takes a stack of points, a HartogsPoint
of arrays (jets and tensors put the point axes first), and a ValueError
names the stage and the first failing point's index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .domains import DomainSpec, generic_norm_jet, generic_norm_value, \
    sample_interior
from .jets import Jet, _affine, _contracted_mask, _jet, _points_per_pass, \
    _raise_where, _space_size, basis_exponents, jet_log, jet_real_power

FULL_CAP = 3  # everything through Delta k lives at cap 3
FIBER_FILL = 0.81  # sample_hartogs draws |w|^2 below this share of N^mu
_REAL_TOL = 1e-8  # relative imaginary residue that _real accepts
# largest residual e = max |g - I| of a metric-normal potential's (1, 1)
# block that a contracted jet accepts: each term of _one_block that it
# leaves out is at most 6 e^2 (1 + e) |C[a, b]|, below 1e-15 |C[a, b]|. On
# the 11 catalog bases e grows as about 8e-17 / mu at small mu and passes 1e-8
# only below mu = 5e-9, where every report, verify-lemmas and scan-a2
# command on them exits 1 without the guard too
_FRAME_TOL = 1e-8
_NOT_POSITIVE = ("metric is not positive definite "
                 "(point outside the domain or bad potential)")
_OUTSIDE = "point lies outside the Hartogs domain: N^mu - |w|^2 <= 0"


class HartogsSpec(NamedTuple):
    base: DomainSpec
    mu: float  # any positive real-like (float or Fraction)


class HartogsPoint(NamedTuple):
    """One point (z, w), or a stack of them: base (..., d), fiber (...)."""
    base: tuple
    fiber: complex


@dataclass(frozen=True)
class MetricData:
    dimension: int
    g: np.ndarray
    g_inv: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    metric: MetricData
    R: np.ndarray
    Ric: np.ndarray
    k: float
    norm_R_sq: float
    norm_Ric_sq: float
    lap_k: float
    a0: float
    a1: float
    a2: float

    def to_json_dict(self) -> dict:
        out = {
            "dimension": self.metric.dimension,
            "k": self.k,
            "norm_R_sq": self.norm_R_sq,
            "norm_Ric_sq": self.norm_Ric_sq,
            "lap_k": self.lap_k,
            "a0": self.a0,
            "a1": self.a1,
            "a2": self.a2,
        }
        # the tensors as nested lists with [re, im] leaves
        for key, arr in (("g", self.metric.g), ("g_inv", self.metric.g_inv),
                         ("R", self.R), ("Ric", self.Ric)):
            out[key] = np.stack((arr.real, arr.imag), axis=-1).tolist()
        return out


def _mu(spec: HartogsSpec) -> float:
    """spec.mu as a float; a ValueError unless it is finite and positive."""
    mu = float(spec.mu)
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be finite and positive, got {spec.mu}")
    return mu


def _real(x, what: str, metric: MetricData):
    """x.real (one per point), or a ValueError that names cond(g) of the
    metric x was contracted with: an ill-conditioned g is where such
    residues come from (see curvature_report_from_potential)."""
    values, g = x.ravel().tolist(), metric.g  # Python numbers: cheaper for a few
    _raise_where([abs(v.imag) > _REAL_TOL * max(1.0, abs(v.real)) for v in values],
                 what, lambda i: "imaginary residue %.3e (cond(g) = %.1e)" % (
                     values[i].imag, np.linalg.cond(g.reshape(-1, *g.shape[-2:])[i])))
    return x.real if x.ndim else float(x.real)


# -- potentials ---------------------------------------------------------------

def bergman_potential_jet(spec: DomainSpec, p: Sequence, cap) -> Jet:
    """Jet of -genus * log N at an interior base point; d dbar of it is the
    Bergman metric."""
    return jet_log(generic_norm_jet(spec, p, cap), -spec.genus)


@lru_cache(maxsize=None)
def _base_positions(d: int, degree: int) -> np.ndarray:
    """Flat indices, in a coefficient array in d + 1 variables at cap
    degree, of the monomials without the last variable; in order, they are
    the monomials of the d-variable basis."""
    rows = np.flatnonzero([e[-1] == 0 for e in basis_exponents(d + 1, degree)])
    index = np.add.outer(rows * _space_size(d + 1, degree), rows).ravel()
    index.setflags(write=False)
    return index


def hartogs_potential_jet(spec: HartogsSpec, point: HartogsPoint, cap,
                          frame=None, *, contracted: bool = False) -> Jet:
    """Jet of Phi = -log(N^mu - |w|^2) in the d+1 variables x of
    (z, w) = (z0, w0) + frame @ x, centered at point = (z0, w0); frame
    defaults to the identity, and the fiber w is the last coordinate. The
    base coordinates must not involve x_d (frame[:d, d] = 0), so N^mu is
    taken in the first d variables and then placed among the d+1; frame is
    (..., d + 1, d + 1). cap is an integer in 1..MAX_DEGREE. contracted
    marks N (the power's operand) and I as contracted jets (jets._jet), so
    the power and the log are too: their top block holds only what
    X-contracted permanents weigh at first order in e = max |g - I| of the
    (1, 1) block, which needs a metric-normal frame (see _normal_frame); a
    point whose e exceeds _FRAME_TOL (or is nan) is refused, no fallback."""
    d, mu = spec.base.d, _mu(spec)
    frame = np.eye(d + 1) if frame is None else np.asarray(frame)
    if frame.shape[-2:] != (d + 1, d + 1):
        raise ValueError(f"potential: the frame must be ({d + 1}, {d + 1}) per "
                         f"point, got shape {frame.shape}")
    _raise_where(frame[..., :d, d].any(axis=-1), "potential",
                 "frame: the base coordinates must not involve the "
                 "fiber's variable (frame[:d, d] must be 0)")
    power = generic_norm_jet(spec.base, point.base, cap, jacobian=frame[..., :d, :d])
    if mu != 1.0:
        power = jet_real_power(_jet(d, power.cap, power.data, contracted), mu)
    cap, batch = power.cap, power.data.shape[:-2]
    inner = Jet._zeros(d + 1, cap, batch)
    inner.reshape(batch + (-1,))[..., _base_positions(d, cap)] = \
        power.data.reshape(batch + (-1,))
    del power  # N^mu is in inner: free it before the log
    u = np.empty(batch + (d + 2,), dtype=np.complex128)  # w = u @ (1, x)
    u[..., 0] = point.fiber
    u[..., 1:] = frame[..., d, :]
    w = _affine(u)
    # |w|^2 lives on the degree <= 1 monomials of each character; with its
    # exact Hermitian part there, I is exactly Hermitian where N^mu is
    ww = w[..., :, None] * w[..., None, :].conj()
    ww += ww.conj().swapaxes(-1, -2)
    ww *= 0.5
    inner[..., :d + 2, :d + 2] -= ww
    _raise_where(~(inner[..., 0, 0].real > 0.0), "potential", _OUTSIDE)  # nan fails too
    potential = jet_log(_jet(d + 1, cap, inner, contracted), -1.0)
    if contracted:
        e = np.abs(potential.partials(1, 1) - np.eye(d + 1)).max(axis=(-2, -1))
        _raise_where(~(e <= _FRAME_TOL), "frame", lambda i: "metric-normal residual "
                     "max |g - I| = %.1e exceeds %g" % (e[i], _FRAME_TOL))
    return potential


def _frame_metric(spec: HartogsSpec, point: HartogsPoint) -> np.ndarray:
    """g_{i jbar} at the point in (z, w), in closed form from the cap-1
    norm jet N: with I = N^mu - |w|^2 and Phi = -log I,

      I_i = mu N^(mu-1) N_i,                         I_w = -conj(w0),
      I_{i jbar} = mu N^(mu-1) (N_{i jbar} + (mu-1) N_i N_jbar / N),
      I_{w wbar} = -1,  I_{i wbar} = 0,
      g = I_i I_jbar / I^2 - I_{i jbar} / I."""
    d, mu = spec.base.d, _mu(spec)
    N = generic_norm_jet(spec.base, point.base, 1)
    n0 = N.data[..., :1, :1].real  # scalars as 1 x 1 blocks, per point
    w0 = np.asarray(point.fiber, dtype=np.complex128)[..., None, None]
    power = n0 ** mu
    _raise_where((n0 > 0.0) & (power == 0.0), "frame", lambda i:
                 "N^mu underflows float64 (N = %.4g, mu = %g)" % (n0.ravel()[i], mu))
    I0 = power - np.abs(w0) ** 2
    _raise_where(~(I0[..., 0, 0] > 0.0), "frame", _OUTSIDE)  # nan fails too
    scale = mu * n0 ** (mu - 1.0)
    Nz, Nzb = N.partials(1, 0)[..., :, None], N.partials(0, 1)[..., None, :]
    Iz = np.concatenate((scale * Nz, -w0.conj()), axis=-2)  # a column
    Izb = np.concatenate((scale * Nzb, -w0), axis=-1)  # a row
    Izzb = np.zeros(n0.shape[:-2] + (d + 1, d + 1), dtype=np.complex128)
    Izzb[..., :d, :d] = scale * (N.partials(1, 1) + (mu - 1.0) * (Nz * Nzb) / n0)
    Izzb[..., d, d] = -1.0
    with np.errstate(all="ignore"):  # I0 ** 2 underflows at large mu: named below
        g = Iz * Izb / I0 ** 2 - Izzb / I0
    _raise_where(~np.isfinite(g).all(axis=(-2, -1)), "frame", lambda i:
                 "the metric leaves float64 (N^mu - |w|^2 = %.1e)" % I0.ravel()[i])
    return g


def _cholesky(g: np.ndarray, stage: str) -> np.ndarray:
    """Cholesky factors of g, or a ValueError naming its first matrix that is
    not finite (numpy factors nan without an error), else its first one
    with an eigenvalue <= 0, else (numpy's factorization failed on positive
    eigenvalues) the one with the least eigenvalue."""
    _raise_where(~np.isfinite(g).all(axis=(-2, -1)), stage, "matrix is not finite")
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(g).min(axis=-1)
        _raise_where((low <= 0.0) | (low == low.min()), stage, _NOT_POSITIVE)


def _normal_potential(spec: HartogsSpec, points: Sequence[HartogsPoint], cap):
    """A and A^{-1} of _normal_frame per point, and the contracted potential
    jets in A (see hartogs_potential_jet)."""
    point = HartogsPoint(np.array([p.base for p in points], dtype=np.complex128),
                         np.array([p.fiber for p in points], dtype=np.complex128))
    A, B = _normal_frame(spec, point)
    return A, B, hartogs_potential_jet(spec, point, cap, A, contracted=True)


def _normal_frame(spec: HartogsSpec, point: HartogsPoint):
    """The frame A = U^{-T} and its inverse U^T, where g = U U^H is the metric
    at the point and U is upper triangular (the Cholesky factor of g with its
    index order reversed). In x, with (z, w) = (z0, w0) + A x, the metric at
    the point is I, so no direction of a near-boundary point dwarfs the
    others. A is lower triangular, so the base coordinates do not involve x_d,
    as hartogs_potential_jet requires. g is factored once, symmetrized, from
    the closed form of _frame_metric, which needs only the cap-1 norm jet
    and no potential jet; metric_at runs its checks on the potential taken in
    the frame."""
    g = _frame_metric(spec, point)
    g = 0.5 * (g + g.conj().swapaxes(-1, -2))
    U = _cholesky(g[..., ::-1, ::-1], "frame")[..., ::-1, ::-1]
    return np.linalg.inv(U).swapaxes(-1, -2), U.swapaxes(-1, -2)


# -- pointwise geometry -------------------------------------------------------

def metric_at(potential: Jet) -> MetricData:
    """Metric g_{i jbar} and its inverse from a potential jet (cap >= 1)."""
    m = potential.num_vars
    g = potential.partials(1, 1)
    gh, axes = g.conj().swapaxes(-1, -2), (-2, -1)
    _raise_where(np.abs(g - gh).max(axes) > 1e-10 * np.abs(g).max(axes), "metric",
                 "metric matrix is not Hermitian")
    g = 0.5 * (g + gh)
    _cholesky(g, "metric")
    g_inv = np.linalg.inv(g)
    _raise_where(np.abs(g @ g_inv - np.eye(m)).max(axes) > 1e-10, "metric",
                 "metric inversion failed the identity check")
    return MetricData(m, g, g_inv)


def curvature_tensor(potential: Jet, metric: MetricData) -> np.ndarray:
    """R_{i jbar k lbar} from the potential jet (cap >= 2, full at 2)."""
    if potential.contracted and potential.cap == 2:
        raise ValueError("R requires a full (2, 2) block, got a contracted cap 2")
    T = potential.partials(2, 1)  # [i, k, qbar]
    S = potential.partials(1, 2)  # [p, jbar, lbar]
    P22 = potential.partials(2, 2)  # [i, k, jbar, lbar]
    m, batch = metric.dimension, P22.shape[:-4]
    # sum_{p, q} g^{p qbar} T[i, k, q] S[p, j, l], g^{p qbar} = g_inv[q, p]
    term2 = (T.reshape(batch + (m * m, m)) @ metric.g_inv) @ S.reshape(
        batch + (m, m * m))
    return (term2.reshape(P22.shape) - P22).swapaxes(-3, -2)


class LogDetParts(NamedTuple):
    """Derivatives of log det g at the point, X = g^{-1}:
    L11[a, b] = d_a dbar_b log det g, L21[a, c, b] = d_a d_c dbar_b log det g,
    and trace22 = sum X[b, a] X[i, j] d_j d_a dbar_i dbar_b log det g, the
    double trace that Delta k needs. L21, trace22 and K are None below cap
    3. The raised forms Za = X g_a, Zb = X g_bbar, Zab = X g_{a bbar}
    (see _raised) and K = sum X[b, a] Zab[a, b] go along for Delta k."""
    L11: np.ndarray
    L21: np.ndarray | None
    trace22: complex | None
    Za: np.ndarray
    Zb: np.ndarray
    Zab: np.ndarray
    K: np.ndarray | None = None


def _raised(X: np.ndarray, P: np.ndarray, holo: int) -> np.ndarray:
    """The matrices X g_B from a partials tensor P[i, B_holo, j, B_anti] of
    the potential, g_B[i, j] = d_B g_{i jbar} (column j at axis holo),
    indexed [B_holo, B_anti, p, q]."""
    b = X.ndim - 2  # batch axes
    return _lift(X, P).transpose(*range(b), *range(b + 1, b + holo),
                                 *range(b + holo + 1, P.ndim), b, b + holo)


def _lift(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum_h X[b, h] T[h, ...], indexed [b, ...]."""
    return (X @ T.reshape(X.shape[:-1] + (-1,))).reshape(T.shape)


def _traces(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """tr(S[s] T[t]) for every leading index s of S and the one t of T,
    indexed [s..., t]; indices count after the batch axes."""
    batch, n = T.shape[:-3], T.shape[-1]
    out = S.reshape(batch + (-1, n * n)) @ T.swapaxes(-1, -2).reshape(
        batch + (-1, n * n)).swapaxes(-1, -2)
    return out.reshape(S.shape[:-2] + T.shape[-3:-2])


def _tr(S: np.ndarray, T: np.ndarray, batch: tuple):
    """Sum over the shared leading indices s of tr(S[s] T[s])."""
    return (S * T.swapaxes(-1, -2)).reshape(batch + (-1,)).sum(axis=-1)


def _products(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """S[s] T[t] for every leading index s of S and t of T, indexed
    [s, t, p, q] (one leading index each): one matrix product per point,
    S as (s p, r) times T as (r, t q), then a transpose."""
    (s, p, r), (t, _, q) = S.shape[-3:], T.shape[-3:]
    batch = S.shape[:-3]
    out = S.reshape(batch + (s * p, r)) @ T.swapaxes(-3, -2).reshape(
        batch + (r, t * q))
    return out.reshape(batch + (s, p, t, q)).swapaxes(-3, -2)


@lru_cache(maxsize=None)
def _permanent_index(m: int, cap: int, contracted: bool):
    """Index tables of the 3 x 3 matrices X[b, a] with entries X[b_s, a_t],
    for the variables a_t of each degree-3 monomial a and b_s of each b,
    listed with multiplicity, expanded by their first row, over the pairs
    (a, b) in C order, or only those that a contracted jet at cap cap keeps
    if contracted: row[t, i] is the flat index of X[b_0, a_t] into X
    (m x m) for pair i, and minor[t, i] that of Q[b_1, b_2, a_u, a_v]
    into the m^4 table of 2 x 2 permanents Q[b1, b2, a1, a2] = X[b1, a1]
    X[b2, a2] + X[b1, a2] X[b2, a1], where (u, v) are the columns other
    than t, in order; a and b run over the graded basis of degree 3. cell[i]
    is the flat index of the coefficient of pair i at cap cap."""
    lo, size, width = _space_size(m, 2), _space_size(m, 3), _space_size(m, cap)
    exps = np.array(basis_exponents(m, 3)[lo:])
    var = np.repeat(np.tile(np.arange(m), len(exps)), exps.ravel()).reshape(-1, 3)
    a, b = var.T[:, :, None], var.T[:, None, :]  # [s, a, b]
    row = b[0] * m + a
    minor = (b[1] * m + b[2]) * m * m + np.stack(
        (a[1] * m + a[2], a[0] * m + a[2], a[0] * m + a[1]))
    cell = np.add.outer(np.arange(lo, size) * width, np.arange(lo, size)).ravel()
    pairs = np.flatnonzero(_contracted_mask(m, cap)[cell]) if contracted else slice(None)
    out = row.reshape(3, -1)[:, pairs], minor.reshape(3, -1)[:, pairs], cell[pairs]
    for index in out:
        index.setflags(write=False)
    return out


def _one_block(potential: Jet, X: np.ndarray):
    """sum X[j, i] X[b, h] X[c, k] d_i d_h d_k dbar_j dbar_b dbar_c Phi over
    all six indices. Both triples are symmetric, so this is 6 sum C[a, b]
    per(X[b, a]) over degree-3 monomials a, b, where C is the Taylor
    coefficient block and per the 3 x 3 permanent of _permanent_index's
    matrices, expanded by the first row against the 2 x 2 permanents of
    each point's table Q: one pass over the C(m + 2, 3)^2 coefficients
    (fewer than m^5 up to m = 29) in place of the m^6 partials, for the
    points per pass that _points_per_pass gives the 6 gathered entries per
    coefficient and point; of a contracted jet, only over the (a, b) that
    it keeps (1,260 of 7,056 at m = 7): every other permanent is at most
    6 e^2 (1 + e) in the metric-normal frame it needs, e = max |X - I|."""
    m, batch = X.shape[-1], X.shape[:-2]
    X = X.reshape(-1, m, m)
    flat = potential.data.reshape(len(X), -1)
    Q = (X[:, :, None, :, None] * X[:, None, :, None, :]
         + X[:, :, None, None, :] * X[:, None, :, :, None]).reshape(len(X), -1)
    X = X.reshape(len(X), -1)
    row, minor, cell = _permanent_index(m, potential.cap, potential.contracted)
    out, step = np.empty(len(X), dtype=np.complex128), _points_per_pass(2 * row.size)
    for i in (slice(p, p + step) for p in range(0, len(X), step)):
        x0, x1, x2 = X[i].take(row, axis=1).swapaxes(0, 1)
        q0, q1, q2 = Q[i].take(minor, axis=1).swapaxes(0, 1)
        per = x0 * q0 + x1 * q1 + x2 * q2
        out[i] = (flat[i].take(cell, axis=1) * per).sum(axis=1)
    return 6 * out.reshape(batch)


def _log_det_jets(potential: Jet, metric: MetricData) -> LogDetParts:
    """The derivatives of log det g in LogDetParts, as closed-form
    contractions of the potential's partials (cap >= 2). With
    g_B = d_B g for a set B of derivative directions and X = g^{-1},

      d_S log det g = sum over set partitions B_1..B_r of S, and over the
      (r-1)! cyclic orders of the blocks, of
      (-1)^(r-1) tr(X g_B1 X g_B2 ... X g_Br).

    The holomorphic directions of trace22 are raised with X before the
    traces are taken, and its one-block term is a sum of permanents over
    the degree-3 Taylor coefficients (see _one_block), so no term costs
    more than O(m^5) or one pass over those coefficients."""
    X = metric.g_inv
    batch, m = X.shape[:-2], X.shape[-1]
    Za = _raised(X, potential.partials(2, 1), 2)  # X g_a, [a, p, q]
    Zb = _raised(X, potential.partials(1, 2), 1)  # X g_bbar
    Zab = _raised(X, potential.partials(2, 2), 2)  # X g_{a bbar}, [a, b, p, q]
    L11 = np.trace(Zab, axis1=-2, axis2=-1) - _traces(Za, Zb)
    if potential.cap < 3:
        return LogDetParts(L11, None, None, Za, Zb, Zab)

    # partials are symmetric within each kind of index, so a holomorphic and
    # an antiholomorphic one side by side contract with X[j, i] as x @
    x = X.swapaxes(-1, -2).reshape(batch + (1, 1, m * m))
    # sum X[j, i] d_i d_a d_c dbar_j dbar_b Phi, [a, c, b]
    XP32 = (x @ potential.partials(3, 2).reshape(batch + (m * m, m * m, m))
            ).reshape(batch + (m, m, m))

    # L21 = d_a d_c dbar_b: 1 + 3 + 2 terms
    Zaa = _raised(X, potential.partials(3, 1), 3)  # X g_{ac}, [a, c, p, q]
    abc = _traces(Zab, Za).swapaxes(-1, -2)  # tr(X g_{a bbar} X g_c)
    acb = _traces(_products(Za, Za), Zb)  # tr(X g_a X g_c X g_bbar)
    L21 = (XP32
           - _traces(Zaa, Zb)
           - abc
           - abc.swapaxes(-3, -2)
           + acb
           + acb.swapaxes(-3, -2))

    # trace22: S = {h, h', b, b'} (h, h' holomorphic) with the weights
    # X[b, h] X[b', h']. A weighted pair inside one block is traced out of
    # it (K, Kaab, Kabb); a pair split between two blocks joins them through
    # a raised form (Ua, Vb, R, Uaa). Swapping (h, b) with (h', b') maps
    # each term to one of equal value, so those pairs of terms are written
    # once, twice over. 1 + 7 + 12 + 6 terms.
    Ua = _lift(X, Za)  # sum_h X[b, h] X g_h, [b, p, q]
    Vb = _lift(X.swapaxes(-1, -2), Zb)  # sum_b X[b, h] X g_bbar, [h, p, q]
    K = (x[..., 0, :, :] @ Zab.reshape(batch + (m * m, m * m))).reshape(
        batch + (m, m))  # sum X[b, h] X g_{h bbar}; Delta k reuses it
    R = _lift(X, Zab)  # sum_h X[b, h] X g_{h b'bar}, [b, b', p, q]
    # the weighted pair (h, b) side by side, in both orders
    M = (Ua @ Zb + Zb @ Ua).sum(axis=-3)
    Zbb = _raised(X, potential.partials(1, 3), 1)  # X g_{bbar b'bar}
    Uaa = _lift(X, _lift(X, Zaa).swapaxes(-4, -3)).swapaxes(-4, -3)  # [b, b', p, q]
    Kaab = _raised(X, XP32, 2)  # [h', p, q]
    # sum X[b, h] d_i d_h dbar_j dbar_b dbar_c Phi, [i, j, c], raised
    Kabb = _raised(X, (x @ potential.partials(2, 3).reshape(
        batch + (m, m * m, m * m))).reshape(batch + (m, m, m)), 1)  # [b', p, q]
    UU = _products(Ua, Ua)
    trace22 = (_one_block(potential, X)
               - 2 * _tr(Kaab, Vb, batch)  # {h h' b}{b'}, {h h' b'}{b}
               - 2 * _tr(Kabb, Ua, batch)  # {h b b'}{h'}, {h' b b'}{h}
               - _tr(Uaa, Zbb, batch)  # {h h'}{b b'}
               - _tr(K, K, batch)  # {h b}{h' b'}
               - _tr(R, R.swapaxes(-4, -3), batch)  # {h b'}{h' b}
               + 2 * _tr(Zaa, _products(Vb, Vb), batch)  # {h h'}{b}{b'}, 2 orders
               + 2 * _tr(Zbb, UU, batch)  # {b b'}{h}{h'}
               + 2 * _tr(K, M, batch)  # {h b}{h'}{b'}, {h' b'}{h}{b}
               + 2 * _tr(R, _products(Ua, Zb).swapaxes(-4, -3), batch)  # {h b'}{h'}{b}
               + 2 * _tr(R, _products(Zb, Ua), batch)  # its other order
               - _tr(M, M, batch)  # {h}{h'}{b}{b'}: 4 orders, paired neighbours
               - 2 * _tr(UU, _products(Zb, Zb), batch))  # (h h' b b'), (h b' b h')
    return LogDetParts(L11, L21, trace22, Za, Zb, Zab, K)


def _ricci(L11: np.ndarray, metric: MetricData):
    ric = -L11
    ric = 0.5 * (ric + ric.conj().swapaxes(-1, -2))
    k = _real(_tr(metric.g_inv, ric, ric.shape[:-2]), "k", metric)
    return ric, k


def ricci_and_scalar(potential: Jet, metric: MetricData):
    """Ricci tensor -d dbar log det g and scalar curvature k = g^{i jbar}
    Ric_{i jbar} (cap >= 2)."""
    return _ricci(_log_det_jets(potential, metric).L11, metric)


def _transform(T: np.ndarray, mats) -> np.ndarray:
    """T with its k-th index contracted against the first index of mats[k]:
    T'[i, j, ...] = sum T[a, b, ...] mats[0][a, i] mats[1][b, j] ..."""
    batch = mats[0].shape[:-2]
    for M in mats:  # contract the leading index; the new one goes last
        rest = T.shape[len(batch) + 1:]
        T = (T.reshape(batch + (M.shape[-2], -1)).swapaxes(-1, -2) @ M).reshape(
            batch + rest + M.shape[-1:])
    return T


def tensor_norms(metric: MetricData, R: np.ndarray, Ric: np.ndarray):
    """(|R|^2, |Ric|^2) under the inverse-metric contractions; raises if an
    imaginary residue above 1e-8 remains (a convention bug, not roundoff)."""
    X = metric.g_inv.swapaxes(-1, -2)  # X[i, j] = g^{i jbar}
    Xc = X.conj()
    flat = X.shape[:-2] + (-1,)
    r2 = np.vecdot(R.reshape(flat), _transform(R, (X, Xc, X, Xc)).reshape(flat))
    ric2 = np.vecdot(Ric.reshape(flat), _transform(Ric, (X, Xc)).reshape(flat))
    return _real(r2, "|R|^2", metric), _real(ric2, "|Ric|^2", metric)


def _laplacian_from_parts(LD: LogDetParts, metric: MetricData,
                          ric: np.ndarray):
    """Delta k = g^{a bbar} d_a dbar_b tr(X Ric), X = g^{-1}, with
    d_a X = -A_a X and dbar_b X = -B_b X for A_a = X d_a g = LD.Za[a] and
    B_b = X dbar_b g = LD.Zb[b], so d_a dbar_b X = (B_b A_a + A_a B_b) X -
    LD.Zab[a, b] X. Ric is -d dbar log det g; its derivatives come from LD
    (L21, its conjugate transpose L12, and the double trace trace22)."""
    X, A, B = metric.g_inv, LD.Za, LD.Zb
    batch, Z = X.shape[:-2], X @ ric
    # each term is sum_{a, b} X[b, a] tr(...), with K = sum X[b, a] Zab[a, b]
    # and the matrices L12[b][c, a] = d_c dbar_a dbar_b log det g and
    # L21[a][c, b] = d_c d_a dbar_b log det g
    L12 = LD.L21.conj().swapaxes(-3, -2).swapaxes(-2, -1)
    L21 = LD.L21.swapaxes(-3, -2)
    Z1, X1 = Z[..., None, :, :], X[..., None, :, :]
    lap = ((X * (_traces(B, A @ Z1)  # tr(B_b A_a Z)
                 + _traces(L12, A @ X1))  # tr(A_a X L12[b])
            + X.swapaxes(-1, -2) * (_traces(A, B @ Z1)  # tr(A_a B_b Z)
                                    + _traces(L21, B @ X1))  # tr(B_b X L21[a])
            ).reshape(batch + (-1,)).sum(axis=-1)
           - _tr(LD.K, Z, batch)  # tr(Zab[a, b] Z)
           - LD.trace22)
    return _real(lap, "Delta k", metric)


def scalar_curvatures(spec: HartogsSpec, points: Sequence[HartogsPoint]) -> list:
    """Scalar curvature only, on the cheap cap-2 path, at each point,
    in the coordinates of _normal_frame."""
    if not points:
        return []
    P = _normal_potential(spec, points, 2)[-1]
    return ricci_and_scalar(P, metric_at(P))[1].tolist()


def scalar_curvature_at(spec: HartogsSpec, point: HartogsPoint) -> float:
    """scalar_curvatures' batch of one."""
    return scalar_curvatures(spec, [point])[0]


def curvature_reports(spec: HartogsSpec,
                      points: Sequence[HartogsPoint]) -> list:
    """Everything at each point: metric, R, Ric, k, norms, Delta k, a0, a1,
    a2. The jets live in the coordinates x of _normal_frame; the scalars do
    not depend on coordinates, and the tensors are pulled back to (z, w)
    with B = A^{-1}, the frame's own factor U^T, on each index."""
    if not points:
        return []
    A, B, P = _normal_potential(spec, points, FULL_CAP)
    rep = curvature_report_from_potential(P)
    Bc = B.conj()
    g = _transform(rep.metric.g, (B, Bc))
    g_inv = _transform(rep.metric.g_inv, (A.conj().swapaxes(-1, -2),
                                          A.swapaxes(-1, -2)))
    R, Ric = _transform(rep.R, (B, Bc, B, Bc)), _transform(rep.Ric, (B, Bc))
    scalars = (x.tolist() for x in (rep.k, rep.norm_R_sq, rep.norm_Ric_sq,
                                    rep.lap_k, rep.a1, rep.a2))
    return [CurvatureReport(MetricData(rep.metric.dimension, g[i], g_inv[i]),
                            R[i], Ric[i], *values[:4], 1.0, *values[4:])
            for i, values in enumerate(zip(*scalars))]


def curvature_report(spec: HartogsSpec, point: HartogsPoint) -> CurvatureReport:
    """curvature_reports' batch of one."""
    return curvature_reports(spec, [point])[0]


def curvature_report_from_potential(potential: Jet) -> CurvatureReport:
    """Build the full report from a potential jet at cap 3 or above
    (used directly by the scaling-law checks), with per-point fields for a
    batch. The jet should be in metric-normal coordinates (g = I at the
    point), as curvature_reports' is. Raw (z, w) potentials lose the digits
    of Delta k while the jet is built: at 6 of 132 sampled points (4 per
    classical base with d <= 6, at mu = 1, 4/5 and 3) its imaginary residue
    of 3e-5 to 6e-4 makes the report raise, with an error that names
    cond(g)."""
    if potential.cap < 3:
        raise ValueError(f"report requires cap >= 3, got {potential.cap}")
    metric = metric_at(potential)
    LD = _log_det_jets(potential, metric)
    ric, k = _ricci(LD.L11, metric)
    R = curvature_tensor(potential, metric)
    r2, ric2 = tensor_norms(metric, R, ric)
    lap = _laplacian_from_parts(LD, metric, ric)
    a2 = lap / 3.0 + r2 / 24.0 - ric2 / 6.0 + k * k / 8.0
    return CurvatureReport(metric=metric, R=R, Ric=ric, k=k, norm_R_sq=r2,
                           norm_Ric_sq=ric2, lap_k=lap, a0=1.0, a1=k / 2.0, a2=a2)


def base_curvature_report(spec: DomainSpec, p: Sequence | None = None) -> dict:
    """Metric, curvature and norms of the base Bergman metric at p (default the
    origin), without any Hartogs fiber. Used for the closed-form norm table."""
    if p is None:
        p = (0.0,) * spec.d
    P = bergman_potential_jet(spec, p, 2)
    metric = metric_at(P)
    R = curvature_tensor(P, metric)
    ric, k = ricci_and_scalar(P, metric)
    r2, ric2 = tensor_norms(metric, R, ric)
    return {"metric": metric, "R": R, "Ric": ric, "k": k,
            "norm_R_sq": r2, "norm_Ric_sq": ric2}


# -- sampling -----------------------------------------------------------------

def sample_hartogs(spec: HartogsSpec, seed: int, count: int) -> list:
    """Deterministic interior Hartogs points; |w|^2 is uniform in
    [0, FIBER_FILL * N(z)^mu) with uniform phase."""
    mu = _mu(spec)
    zs = sample_interior(spec.base, seed, count)
    # Python's power: numpy's differs from it in the last bit
    high = np.array([(FIBER_FILL * norm ** mu, 2.0 * np.pi) for norm in
                     generic_norm_value(spec.base, zs).tolist()]).reshape(-1, 2)
    t, theta = np.random.default_rng(seed + 10007).uniform(0.0, high).T
    w = np.sqrt(t) * np.exp(1j * theta)
    return [HartogsPoint(z, x) for z, x in zip(zs, w.tolist())]


def origin_fiber_points(spec: HartogsSpec, ts: Sequence[float]) -> list:
    """Points (0, w) with |w|^2 = t for each requested t (t < 1)."""
    z0 = (0.0,) * spec.base.d
    return [HartogsPoint(z0, complex(np.sqrt(t))) for t in ts]
