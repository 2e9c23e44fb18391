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

from .jets import Jet, _affine, _affine_product, _as_cap, _raise_where

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
def _pfaffian_tables(n: int, split: int) -> tuple:
    """Expansion tables of the principal Pfaffians of a skew n x n matrix K.
    Its entries K[a, b], a < b, that may be nonzero are listed in
    lexicographic order, and entry e is also the Pfaffian on its pair: all
    a < b if split is 0, else a < split <= b, for K = [[0, Z], [-Z^T, 0]],
    where only the index sets with as many indices below split as above
    have a nonzero Pfaffian (+- a square minor of Z). Per order 2k >= 4,
    over the sets in lexicographic order, Pf(S) = sum_j (-1)^(j-1) K[s_0,
    s_j] Pf(S - {s_0, s_j}): each term's entry, sign and sub-Pfaffian (its
    index in order 2k - 2), and where each set's terms start."""
    def held(a, b):
        return split == 0 or a < split <= b

    sets = [S for S in combinations(range(n), 2) if held(*S)]
    entry, out = {S: e for e, S in enumerate(sets)}, []
    for k in range(2, n // 2 + 1):
        index = {S: i for i, S in enumerate(sets)}
        sets = [S for S in combinations(range(n), 2 * k)
                if split == 0 or sum(s < split for s in S) == k]
        if not sets:
            break
        ent, sign, sub, owner = np.array([
            (entry[S[0], s], (-1) ** (j - 1), index[S[1:j] + S[j + 1:]], i)
            for i, S in enumerate(sets) for j, s in enumerate(S)
            if j and held(S[0], s)]).T
        out.append((ent, sign.astype(np.float64), sub,
                    np.flatnonzero(np.diff(owner, prepend=-1))))
    return tuple(out)


def generic_norm_jet(spec: DomainSpec, p: Sequence, cap, jacobian=None) -> Jet:
    """Jet of N(z, zb) centered at the interior point p, in the variables x
    of z = p + jacobian @ x (per point of a stack p, with its batch axes).

    jacobian is a (spec.d, num_vars) matrix, or one per point, default the
    identity.

    Every N is a signed sum of squares sum_j s_j |P_j(z)|^2 of holomorphic
    polynomials, and z = U (1, x) with U = [p | jacobian], so the jet's
    coefficient array is sum_j s_j P_j conj(P_j)^T over the P_j's
    coefficient rows, truncated to max(cap): a stacked matrix product per
    order. Types 1-3: N = sum_k (-1)^k |Pf|^2 over the principal
    Pfaffians of order 2k of a skew matrix K with affine entries: K = Z for
    type 2, and K = [[0, Z], [-Z^T, 0]] for types 1 and 3, whose Pfaffians
    are the minors of Z up to sign (Cauchy-Binet). Those of order 2 are K's
    entries, and each of order 2k >= 4 is expanded along its first index
    from those of order 2k - 2 (see _pfaffian_tables), as a truncated
    series of degree <= min(k, max(cap)). Type 4: the terms are 1, z_i
    with weight -2, and z z^t.
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
    if spec.kind == "type4":
        z = _affine(U)
        zzt = _affine_product(z, z, min(2, max(cap))).sum(axis=-2, keepdims=True)
        terms = [(-2.0, z), (1.0, zzt)]
    else:
        if spec.kind == "type2":
            entries, n, split = U, spec.n, 0
        else:
            Y = _matrix_model(spec, U)  # Z = Y @ (1, x)
            entries = Y.reshape(batch + (-1, m + 1))
            n, split = sum(Y.shape[-3:-1]), Y.shape[-3]
        K = _affine(entries)  # K's entries: its Pfaffians of order 2
        terms = [(-1.0, K)]
        for k, (ent, sign, sub, starts) in enumerate(_pfaffian_tables(n, split), 2):
            pf = _affine_product(sign[:, None] * K[..., ent, :],
                                 terms[-1][1][..., sub, :], min(k, max(cap)))
            terms.append((-terms[-1][0], np.add.reduceat(pf, starts, axis=-2)))
    N = Jet._zeros(m, cap, batch)
    N[..., 0, 0] = 1.0
    for sign, P in terms:
        H, W = min(P.shape[-1], N.shape[-2]), min(P.shape[-1], N.shape[-1])
        N[..., :H, :W] += (sign * P[..., :H]).swapaxes(-1, -2) @ P[..., :W].conj()
    if cap.holo == cap.anti:
        # N is real, but the matrix products round its mirrored entries
        # differently; make the array exactly Hermitian, as jet_log and
        # jet_real_power require
        N += N.conj().swapaxes(-1, -2)
        N *= 0.5
    return Jet(m, cap, N)
