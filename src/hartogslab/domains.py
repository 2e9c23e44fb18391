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

The two exceptional domains (exc5: d=16, genus=12; exc6: d=27, genus=18) carry
dimension and genus only; every geometric operation on them is a hard error.

The generic norm N(z, zb) is det(I - z zb^t) for types 1 and 3, its square
root for type 2, and 1 - 2 z zb^t + |z z^t|^2 for type 4; N(0, 0) = 1 and
0 < N <= 1 on the domain. The Bergman kernel is proportional to N^(-genus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jets import Jet, _as_cap, _gather_table, _linear_positions, _sesquilinear, \
    _space_size, jet_det, jet_real_power

BasePoint = tuple  # tuple of complex coordinates, length spec.d

_CLASSICAL = ("type1", "type2", "type3", "type4")
_KINDS = _CLASSICAL + ("exc5", "exc6")


class ExceptionalDomainError(ValueError):
    """Raised when geometry is requested on a constants-only exceptional domain."""


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
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
        elif self.kind == "type4":
            if self.n is None or self.n < 5 or self.m is not None:
                raise ValueError("type4 requires n >= 5 (and no m)")
        else:
            if self.m is not None or self.n is not None:
                raise ValueError(f"{self.kind} takes no parameters")

    @property
    def d(self) -> int:
        if self.kind == "type1":
            return self.m * self.n
        if self.kind == "type2":
            return self.n * (self.n - 1) // 2
        if self.kind == "type3":
            return self.n * (self.n + 1) // 2
        if self.kind == "type4":
            return self.n
        return 16 if self.kind == "exc5" else 27

    @property
    def genus(self) -> int:
        if self.kind == "type1":
            return self.m + self.n
        if self.kind == "type2":
            return 2 * (self.n - 1)
        if self.kind == "type3":
            return self.n + 1
        if self.kind == "type4":
            return self.n
        return 12 if self.kind == "exc5" else 18

    @property
    def is_classical(self) -> bool:
        return self.kind in _CLASSICAL

    def label(self) -> str:
        if self.kind == "type1":
            return f"type1({self.m},{self.n})"
        if self.kind in ("type2", "type3", "type4"):
            return f"{self.kind}({self.n})"
        return self.kind

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "type1":
            out["m"] = self.m
        if self.kind in _CLASSICAL:
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


def exc5() -> DomainSpec:
    return DomainSpec("exc5")


def exc6() -> DomainSpec:
    return DomainSpec("exc6")


def _require_classical(spec: DomainSpec):
    if not spec.is_classical:
        raise ExceptionalDomainError(
            f"{spec.kind} is catalogued with (d, genus) only; "
            "no coordinate geometry is available")


def _coords(spec: DomainSpec, z: Sequence) -> np.ndarray:
    v = np.asarray(z, dtype=np.complex128).reshape(-1)
    if v.size != spec.d:
        raise ValueError(f"{spec.label()} expects {spec.d} coordinates, got {v.size}")
    return v


def matrix_model(spec: DomainSpec, z: Sequence) -> np.ndarray:
    """Assemble the matrix realization from independent coordinates
    (skew-symmetric completion for type2, symmetric for type3)."""
    _require_classical(spec)
    v = _coords(spec, z)
    if spec.kind == "type1":
        return v.reshape(spec.m, spec.n)
    if spec.kind == "type4":
        raise ValueError("type4 has no matrix model")
    M = np.zeros((spec.n, spec.n), dtype=np.complex128)
    skew = spec.kind == "type2"
    r, c = np.triu_indices(spec.n, 1 if skew else 0)
    M[r, c] = v
    M[c, r] = -v if skew else v
    return M


def contains(spec: DomainSpec, z: Sequence) -> bool:
    """Strict interior membership test."""
    _require_classical(spec)
    v = _coords(spec, z)
    if spec.kind == "type4":
        zz = float(np.sum(np.abs(v) ** 2))
        zzt = complex(np.sum(v * v))
        return zz < 1.0 and 1.0 - 2.0 * zz + abs(zzt) ** 2 > 0.0
    Z = matrix_model(spec, v)
    H = np.eye(Z.shape[0]) - Z @ Z.conj().T
    return float(np.linalg.eigvalsh(H).min()) > 0.0


def generic_norm_value(spec: DomainSpec, z: Sequence) -> float:
    """Numeric N(z, zb); positive on the domain, 1 at the origin."""
    _require_classical(spec)
    v = _coords(spec, z)
    if spec.kind == "type4":
        zz = float(np.sum(np.abs(v) ** 2))
        zzt = complex(np.sum(v * v))
        return 1.0 - 2.0 * zz + abs(zzt) ** 2
    Z = matrix_model(spec, v)
    H = np.eye(Z.shape[0]) - Z @ Z.conj().T
    det = np.linalg.det(H)
    val = float(det.real)
    if spec.kind == "type2":
        val = math.sqrt(max(val, 0.0))
    return val


def sample_interior(spec: DomainSpec, seed: int, count: int) -> list:
    """Deterministic interior points: each coordinate uniform in the complex
    square of half-width 1/sqrt(d), rejected until membership holds."""
    _require_classical(spec)
    rng = np.random.default_rng(seed)
    r = 1.0 / math.sqrt(spec.d)
    out = []
    while len(out) < count:
        raw = rng.uniform(-r, r, size=2 * spec.d)
        p = raw[0::2] + 1j * raw[1::2]
        if contains(spec, p):
            out.append(tuple(complex(x) for x in p))
    return out


def generic_norm_jet(spec: DomainSpec, p: Sequence, cap, jacobian=None) -> Jet:
    """Jet of N(z, zb) centered at the interior point p, in the variables x
    of z = p + jacobian @ x.

    jacobian is a (spec.d, num_vars) matrix, default the identity. A zero
    column, such as the Hartogs fiber's variable, never occurs in the jet.

    With X = (1, x) and U = [p | jacobian], z = U X is affine in x, and N
    is built from sesquilinear forms in X. Types 1-3: the matrix model is
    linear, so Z = sum_h Y[..., h] X_h with Y[..., h] = sum_i U[i, h]
    matrix_model(e_i), and every entry of E = I - Z Z^H is
    I - sum_c (Y[a, c] X) conj(Y[b, c] X), of bidegree (1, 1); N = det E
    (its square root for type 2). Type 4: z zb^t = X^T U^T conj(U X), and
    z z^t = X^T U^T U X is a holomorphic quadratic q(x), so |z z^t|^2 is the
    outer product of q's coefficients with their conjugates.
    """
    _require_classical(spec)
    v = _coords(spec, p)
    if not contains(spec, v):
        raise ValueError(f"base point is not interior to {spec.label()}")
    d = spec.d
    jac = np.eye(d) if jacobian is None else np.asarray(jacobian, dtype=np.complex128)
    if jac.ndim != 2 or jac.shape[0] != d:
        raise ValueError(f"jacobian must have {d} rows, got shape {jac.shape}")
    m = jac.shape[1]
    cap = _as_cap(cap)
    if min(cap) < 1:
        raise ValueError(f"the generic norm jet needs cap >= (1, 1), got {cap}")

    U = np.column_stack((v, jac))  # z = U @ (1, x)
    if spec.kind == "type4":
        Q = U.T @ U
        H, W = _space_size(m, cap.holo), _space_size(m, cap.anti)
        q = np.zeros(max(H, W, _space_size(m, 2)), dtype=np.complex128)
        q[0] = Q[0, 0]
        q[_linear_positions(m)] = 2.0 * Q[0, 1:]
        np.add.at(q, _gather_table(m, 2)[0], Q[1:, 1:].ravel())
        N = np.outer(q[:H], q[:W].conj())
        N -= 2.0 * _sesquilinear(U.T @ U.conj(), m, cap)
        N[0, 0] += 1.0
        return Jet(m, cap, N)

    models = np.stack([matrix_model(spec, e) for e in np.eye(d)])
    Y = np.einsum("iac,ih->ach", models, U)
    E = -_sesquilinear(np.einsum("ach,bcl->abhl", Y, Y.conj()), m, cap)
    E[:, :, 0, 0] += np.eye(len(Y))
    det = jet_det(E, m, cap)
    if spec.kind == "type2":
        det = jet_real_power(det, 0.5)
    return det
