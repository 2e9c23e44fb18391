"""Catalog of irreducible bounded symmetric domains in their matrix models.

Classical families:

  type1(m, n): m x n complex matrices z with I - z zb^t > 0; dimension mn,
               genus m + n. Coordinates are the matrix entries, row-major.
  type2(n):    antisymmetric n x n matrices (n >= 4); dimension n(n-1)/2,
               genus 2(n-1). Coordinates are the strict upper triangle.
  type3(n):    symmetric n x n matrices (n >= 2); dimension n(n+1)/2, genus
               n + 1. Coordinates are the upper triangle including the diagonal.
  type4(n):    the Lie ball in C^n (n >= 5): 1 - 2 z zb^t + |z z^t|^2 > 0 and
               z zb^t < 1; dimension n, genus n.

The two exceptional domains have no coordinates here; the case analysis
(cases.py) holds their (d, genus).

The generic norm N(z, zb) is det(I - z zb^t) for types 1 and 3, its square
root for type 2, and 1 - 2 z zb^t + |z z^t|^2 for type 4; N(0, 0) = 1 and
0 < N <= 1 on the domain. The Bergman kernel is proportional to N^(-genus).
Points are sequences of spec.d coordinates, or stacks of them (..., spec.d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .jets import Jet, _as_cap, _polynomials, _raise_where

_KINDS = ("type1", "type2", "type3", "type4")


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}; exc5 and exc6 "
                             "appear only in the case analysis")
        if self.kind == "type1":
            if self.m is None or self.n is None or self.m < 1 or self.n < 1:
                raise ValueError("type1 requires m >= 1 and n >= 1")
            if self.m > self.n:
                # transpose biholomorphism; canonical form has m <= n
                m, n = self.n, self.m
                object.__setattr__(self, "m", m)
                object.__setattr__(self, "n", n)
        elif self.kind == "type2":
            if self.n is None or self.n < 4 or self.m is not None:
                raise ValueError("type2 requires n >= 4 (and no m)")
        elif self.kind == "type3":
            if self.n is None or self.n < 2 or self.m is not None:
                raise ValueError("type3 requires n >= 2 (and no m)")
        elif self.n is None or self.n < 5 or self.m is not None:  # type4
            raise ValueError("type4 requires n >= 5 (and no m)")

    @property
    def d(self) -> int:
        if self.kind == "type1":
            return self.m * self.n
        if self.kind == "type2":
            return self.n * (self.n - 1) // 2
        if self.kind == "type3":
            return self.n * (self.n + 1) // 2
        return self.n  # type4

    @property
    def genus(self) -> int:
        if self.kind == "type1":
            return self.m + self.n
        if self.kind == "type2":
            return 2 * (self.n - 1)
        if self.kind == "type3":
            return self.n + 1
        return self.n  # type4

    def label(self) -> str:
        if self.kind == "type1":
            return f"type1({self.m},{self.n})"
        return f"{self.kind}({self.n})"

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "type1":
            out["m"] = self.m
        out["n"] = self.n
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "DomainSpec":
        return DomainSpec(obj["kind"], obj.get("m"), obj.get("n"))


def type1(m: int, n: int) -> DomainSpec:
    return DomainSpec("type1", m, n)


def type2(n: int) -> DomainSpec:
    return DomainSpec("type2", n=n)


def type3(n: int) -> DomainSpec:
    return DomainSpec("type3", n=n)


def type4(n: int) -> DomainSpec:
    return DomainSpec("type4", n=n)


def _coords(spec: DomainSpec, z: Sequence) -> np.ndarray:
    v = np.asarray(z, dtype=np.complex128)
    v = v.reshape(0, spec.d) if v.shape == (0,) else v  # no points
    if v.shape[-1:] != (spec.d,):
        raise ValueError(f"{spec.label()} expects {spec.d} coordinates, "
                         f"got shape {v.shape}")
    return v


def matrix_model(spec: DomainSpec, z: Sequence) -> np.ndarray:
    """Assemble the matrix realization from independent coordinates
    (skew-symmetric completion for type2, symmetric for type3)."""
    return _matrix_model(spec, _coords(spec, z)[..., None])[..., 0]


@lru_cache(maxsize=None)
def _triu(n: int, k: int):
    """np.triu_indices(n, k), read-only."""
    out = np.triu_indices(n, k)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in lexicographic order, one per row."""
    out = np.array(list(combinations(range(n), k)))
    out.setflags(write=False)
    return out


def _matrix_model(spec: DomainSpec, v: np.ndarray) -> np.ndarray:
    """matrix_model of each column of the (..., spec.d, k) array v, indexed
    [..., row, column, k]."""
    if spec.kind == "type1":
        return v.reshape(v.shape[:-2] + (spec.m, spec.n, v.shape[-1]))
    if spec.kind == "type4":
        raise ValueError("type4 has no matrix model")
    M = np.zeros(v.shape[:-2] + (spec.n, spec.n, v.shape[-1]), dtype=np.complex128)
    skew = spec.kind == "type2"
    r, c = _triu(spec.n, 1 if skew else 0)
    M[..., r, c, :] = v
    M[..., c, r, :] = -v if skew else v
    return M


def _norm_parts(spec: DomainSpec, v: np.ndarray):
    """For type 4, |z|^2 and the N of each point of v; else I - Z Z^H."""
    if spec.kind == "type4":
        zz = np.sum(np.abs(v) ** 2, axis=-1)
        zzt = np.sum(v * v, axis=-1)
        # hypot is |zzt| to the bit of Python's abs, unlike np.abs
        return zz, 1.0 - 2.0 * zz + np.hypot(zzt.real, zzt.imag) ** 2
    Z = matrix_model(spec, v)
    return np.eye(Z.shape[-2]) - Z @ Z.conj().swapaxes(-1, -2)


def contains(spec: DomainSpec, z: Sequence):
    """Strict interior membership test, per point."""
    v = _coords(spec, z)
    if spec.kind == "type4":
        zz, N = _norm_parts(spec, v)
        return (zz < 1.0) & (N > 0.0)
    return np.linalg.eigvalsh(_norm_parts(spec, v)).min(axis=-1) > 0.0


def generic_norm_value(spec: DomainSpec, z: Sequence):
    """Numeric N(z, zb), per point; positive on the domain, 1 at the origin."""
    v = _coords(spec, z)
    if spec.kind == "type4":
        return _norm_parts(spec, v)[1]
    val = np.linalg.det(_norm_parts(spec, v)).real
    if spec.kind == "type2":
        val = np.sqrt(np.maximum(val, 0.0))
    return val


def sample_interior(spec: DomainSpec, seed: int, count: int) -> list:
    """Deterministic interior points: each coordinate uniform in the complex
    square of half-width 1/sqrt(d), rejected until membership holds; drawn
    and tested in blocks, and kept in draw order."""
    rng = np.random.default_rng(seed)
    r = 1.0 / math.sqrt(spec.d)
    out = []
    while len(out) < count:
        raw = rng.uniform(-r, r, size=(2 * (count - len(out)), 2 * spec.d))
        p = raw[:, 0::2] + 1j * raw[:, 1::2]
        out += map(tuple, p[contains(spec, p)][:count - len(out)].tolist())
    return out


@lru_cache(maxsize=None)
def _levi_civita(k: int) -> np.ndarray:
    """eps[i1, .., ik] = det(e_i1, .., e_ik), exactly: 0 or a permutation's sign."""
    units = np.eye(k)[np.indices((k,) * k).reshape(k, -1).T]
    return np.linalg.det(units).reshape((k,) * k)


def _alternating(k: int, factors) -> np.ndarray:
    """sum_s sgn(s) prod_f B_f[.., s[slots_f], h_f] over the permutations s of
    range(k), for factors (B_f, slots_f): an order-len(factors) tensor in h."""
    args = [_levi_civita(k), list(range(k))]
    for f, (B, slots) in enumerate(factors):
        args += [B, [..., *slots, k + f]]
    return np.einsum(*args, [..., *range(k, k + len(factors))])


def generic_norm_jet(spec: DomainSpec, p: Sequence, cap, jacobian=None) -> Jet:
    """Jet of N(z, zb) centered at the interior point p, in the variables x
    of z = p + jacobian @ x (per point of a stack p, with its batch axes).

    jacobian is a (spec.d, num_vars) matrix, or one per point, default the
    identity.

    Every N is a signed sum of squares sum_j s_j |p_j(z)|^2 of holomorphic
    polynomials. With X = (1, x) and U = [p | jacobian], z = U X, so each
    p_j is a homogeneous tensor in X, and the jet's coefficient array is
    sum_j s_j P_j conj(P_j)^T over the p_j's coefficient rows P_j: one
    stacked matrix product per tensor order. Types 1 and 3: the matrix model
    is linear, so Z = Y X with Y[..., h] the matrix model of U[:, h], and by
    Cauchy-Binet det(I - Z Z^H) is the sum over k >= 0 of (-1)^k |M|^2 over
    the k x k minors M of Z. Type 2: N itself is the sum over k >= 0 of
    (-1)^k |Pf|^2 over the principal Pfaffians of Z of order 2k. Type 4:
    the terms are 1, z_i with weight -2, and z z^t = X^T U^T U X.
    """
    v = _coords(spec, p)
    _raise_where(~contains(spec, v), "norm",
                 lambda i: f"base point is not interior to {spec.label()}")
    d = spec.d
    jac = np.eye(d) if jacobian is None else np.asarray(jacobian, dtype=np.complex128)
    if jac.ndim < 2 or jac.shape[-2] != d:
        raise ValueError(f"jacobian must have {d} rows, got shape {jac.shape}")
    m = jac.shape[-1]
    cap = _as_cap(cap)
    if min(cap) < 1:
        raise ValueError(f"the generic norm jet needs cap >= (1, 1), got {cap}")

    batch = max(v.shape[:-1], jac.shape[:-2], key=len)
    U = np.empty(batch + (d, m + 1), dtype=np.complex128)  # z = U @ (1, x)
    U[..., 0] = v
    U[..., 1:] = jac
    terms = []  # (sign, tensors in X, their order); the term 1 is added last
    if spec.kind == "type4":
        terms = [(-2.0, U, 1), (1.0, (U.swapaxes(-1, -2) @ U)[..., None, :, :], 2)]
    else:
        Y = _matrix_model(spec, U)  # Z = Y @ (1, x), linear in X
        rows, cols = Y.shape[-3:-1]
        if spec.kind == "type2":
            # Pf = sum_s sgn(s) prod_f Z[s_2f, s_2f+1] / (2^k k!), f < k
            for k in range(1, rows // 2 + 1):
                S = _subsets(rows, 2 * k)
                B = Y[..., S[:, :, None], S[:, None, :], :]
                pf = _alternating(2 * k, [(B, (2 * f, 2 * f + 1)) for f in range(k)])
                terms.append(((-1.0) ** k, pf / (2 ** k * math.factorial(k)), k))
        else:
            # det = sum_s sgn(s) prod_i Z[i, s_i], i < k
            for k in range(1, rows + 1):
                R, C = _subsets(rows, k), _subsets(cols, k)
                B = Y[..., R[:, None, :, None], C[None, :, None, :], :].reshape(
                    batch + (-1, k, k, m + 1))
                minor = _alternating(k, [(B[..., i, :, :], (i,)) for i in range(k)])
                terms.append(((-1.0) ** k, minor, k))
    N = Jet._zeros(m, cap, batch)
    N[..., 0, 0] = 1.0
    for sign, T, order in terms:
        # order-k tensors fill only the monomials of degree <= k
        P = _polynomials(T, order, min(order, max(cap)))
        H, W = min(P.shape[-1], N.shape[-2]), min(P.shape[-1], N.shape[-1])
        N[..., :H, :W] += (sign * P[..., :H]).swapaxes(-1, -2) @ P[..., :W].conj()
    if cap.holo == cap.anti:
        # N is real, but the matrix products round its mirrored entries
        # differently; make the array exactly Hermitian, as the real
        # recurrences of jets._graded_solve need
        N += N.conj().swapaxes(-1, -2)
        N *= 0.5
    return Jet(m, cap, N)
