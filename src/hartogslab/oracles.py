"""Closed-form evaluators for the curvature identities of Hartogs domains over
bounded symmetric bases, in exact rational arithmetic whenever the inputs are
rational.

All fiber-slice formulas below are stated at base point z = 0 in terms of
t = |w|^2 and the shorthand

    c = (mu * (d + 1) - genus) / mu,

which vanishes exactly when mu = genus / (d + 1). baseR2 denotes the squared
curvature norm |R|^2 of the base Bergman metric at the origin; its exact
values per catalog family are provided by appendix_R2_base. The scalar
curvature identity holds at every interior point, with N^mu the value of the
generic norm power at the base point.

Every formula here is independently reproduced by the jet engine at runtime;
the test suite also re-derives the quadratic a2 coefficients by brute-force
regrouping of the underlying identities, so this module and the engine check
each other rather than sharing code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .domains import DomainSpec

F = Fraction


@dataclass(frozen=True)
class OracleInputs:
    """Parameters of one fiber-slice evaluation; c is always derived."""
    d: int
    genus: int
    mu: Real
    t: Real = F(0)
    base_r2: Real | None = None

    @property
    def c(self):
        return (self.mu * (self.d + 1) - self.genus) / self.mu

    @property
    def genus_over_mu(self):
        return self.genus / self.mu

    def _need_base_r2(self):
        if self.base_r2 is None:
            raise ValueError("this formula needs base_r2 = |R_base|^2(0)")
        return self.base_r2


def scalar_curvature_formula(inp: OracleInputs, n_mu: Real = 1):
    """k = d c (N^mu - t) / N^mu - (d+2)(d+1); valid at every interior point
    when n_mu = N(z)^mu and t = |w|^2 (at z = 0, n_mu = 1)."""
    d = inp.d
    return d * inp.c * (n_mu - inp.t) / n_mu - (d + 2) * (d + 1)


def R2_formula(inp: OracleInputs):
    """|R|^2 on the fiber slice: (1-t)^2 (genus/mu)^2 baseR2
    - 4 t (1-t) k_base + 2 d (d+1) t^2 + 4 (d+1), where k_base = -d genus/mu
    is the scalar curvature of the rescaled base metric."""
    d, t = inp.d, inp.t
    gm = inp.genus_over_mu
    k_base = -d * gm
    return ((1 - t) ** 2 * gm * gm * inp._need_base_r2()
            - 4 * t * (1 - t) * k_base
            + 2 * d * (d + 1) * t ** 2 + 4 * (d + 1))


def lap_k_formula(inp: OracleInputs):
    """Delta k on the fiber slice: -d c (1-t) ((d-1) t + 1)."""
    d, t = inp.d, inp.t
    return -d * inp.c * (1 - t) * ((d - 1) * t + 1)


def ric2_formula(inp: OracleInputs):
    """|Ric|^2 on the fiber slice:
    d c^2 (1-t)^2 - 2 d (d+2) c (1-t) + (d+1)(d+2)^2."""
    d, t, c = inp.d, inp.t, inp.c
    return (d * c ** 2 * (1 - t) ** 2
            - 2 * d * (d + 2) * c * (1 - t)
            + (d + 1) * (d + 2) ** 2)


def a2_quadratic_coeffs(inp: OracleInputs):
    """Coefficients (c0, c1, c2) of the fiber-slice expansion
    a2(0, w) = c0 t^2 + c1 t + c2, t = |w|^2.

    c0 and c1 come from the displayed quadratic/linear regroupings of the four
    identities above; c2 is assembled from their constant terms (it has no
    standalone display). The brute-force regrouping in the test suite
    re-derives all three from the identities directly.
    """
    d = inp.d
    c = inp.c
    gm = inp.genus_over_mu
    A = gm * gm * inp._need_base_r2()
    c0 = (d * c * (d - 1) / F(3) + A / F(24) + d * (d + 1) / F(12)
          - d * gm / F(6) - d * c ** 2 / F(6) + d ** 2 * c ** 2 / F(8))
    c1 = (-d * c * (d - 2) / F(3) - A / F(12) + d * gm / F(6)
          - d * (d + 2) * c / F(3) + d * c ** 2 / F(3)
          + d * (d + 1) * (d + 2) * c / F(4) - d ** 2 * c ** 2 / F(4))
    c2 = (-d * c / F(3) + (A + 4 * (d + 1)) / F(24)
          - (d * c ** 2 - 2 * d * (d + 2) * c + (d + 1) * (d + 2) ** 2) / F(6)
          + (d * c - (d + 1) * (d + 2)) ** 2 / F(8))
    return c0, c1, c2


def R2_parts(kind: str, m, n):
    """The unreduced numerator and denominator of the family kind's
    appendix_R2_base at sizes (m, n), in integer arithmetic that runs on
    ints and on the case analysis's int64 arrays alike."""
    if kind == "type1":
        return 2 * m * n * (m * n + 1), (m + n) ** 2
    if kind == "type2":
        # numerator equals n(n-1)(n^2-3n+4), the n -> -n mirror of type3
        return n * (n + 1) * (n ** 2 - 5 * n + 12) - 16 * n, 4 * (n - 1) ** 2
    if kind == "type3":
        return n * (n + 1) * (n ** 2 + 3 * n + 4), 4 * (n + 1) ** 2
    return 3 * n - 2, n


def appendix_R2_base(spec: DomainSpec) -> Fraction:
    """Exact |R|^2(0) of the base Bergman metric, per catalog family.

    Each value is pinned by two independent computations in the test suite:
    the jet engine on the full log-det potential, and a direct trace-form
    contraction of the quartic term of the potential (curvature at the origin
    only sees that term)."""
    return F(*R2_parts(spec.kind, spec.m, spec.n))
