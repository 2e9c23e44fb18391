"""Tests for the jet-driven Kahler geometry pipeline on Hartogs domains.

Frozen numeric expectations come from exact rational evaluation of the
closed-form fiber-slice identities; finite-difference cross-checks use the
independent stencils in tests/helpers.py.
"""

import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

import helpers
from helpers import add, jet_variable, sub
from hartogslab import geometry, jets
from hartogslab.domains import contains, generic_norm_jet, generic_norm_value, \
    type1, type2, type3, type4
from hartogslab.geometry import (FULL_CAP, HartogsPoint, HartogsSpec,
                                 _log_det_jets, _normal_frame,
                                 base_curvature_report, bergman_potential_jet,
                                 curvature_report, curvature_reports,
                                 curvature_report_from_potential,
                                 curvature_tensor, hartogs_potential_jet, metric_at,
                                 origin_fiber_points, ricci_and_scalar,
                                 sample_hartogs, scalar_curvature_at,
                                 scalar_curvatures)
from hartogslab.jets import BidegreeCap, Jet, jet_log, jet_real_power
from hartogslab.oracles import OracleInputs, appendix_R2_base, \
    scalar_curvature_formula

DISK = HartogsSpec(type1(1, 1), 2.0)
BALL2 = HartogsSpec(type1(1, 2), 3.0)
RTOL = 1e-10


def _origin(spec, t=0.0):
    return origin_fiber_points(spec, [t])[0]


def test_disk_origin_frozen_values():
    rep = curvature_report(DISK, _origin(DISK))
    assert rep.k == pytest.approx(-5.0, rel=RTOL)
    assert rep.lap_k == pytest.approx(-1.0, rel=RTOL)
    assert rep.norm_R_sq == pytest.approx(9.0, rel=RTOL)
    assert rep.norm_Ric_sq == pytest.approx(13.0, rel=RTOL)
    assert rep.a0 == 1.0
    assert rep.a1 == pytest.approx(-2.5, rel=RTOL)
    assert rep.a2 == pytest.approx(1.0, rel=RTOL)


def test_disk_fiber_slice_frozen_values():
    rep = curvature_report(DISK, _origin(DISK, 0.25))
    assert rep.k == pytest.approx(-21 / 4, rel=RTOL)
    assert rep.lap_k == pytest.approx(-3 / 4, rel=RTOL)
    assert rep.norm_R_sq == pytest.approx(153 / 16, rel=RTOL)
    assert rep.norm_Ric_sq == pytest.approx(225 / 16, rel=RTOL)
    assert rep.a2 == pytest.approx(5 / 4, rel=RTOL)


def test_disk_general_position_scalar_curvature():
    pt = HartogsPoint(((1 + 2j) / 5,), 1 / 3)
    assert scalar_curvature_at(DISK, pt) == pytest.approx(-745 / 144, rel=RTOL)


def test_ball2_frozen_values():
    rep = curvature_report(BALL2, _origin(BALL2))
    assert rep.k == pytest.approx(-8.0, rel=RTOL)
    assert rep.lap_k == pytest.approx(-4.0, rel=RTOL)
    assert rep.norm_R_sq == pytest.approx(40 / 3, rel=RTOL)
    assert rep.norm_Ric_sq == pytest.approx(24.0, rel=RTOL)
    assert rep.a2 == pytest.approx(29 / 9, rel=RTOL)
    rep = curvature_report(BALL2, _origin(BALL2, 0.16))
    assert rep.a2 == pytest.approx(4.168, rel=RTOL)


def test_type3_frozen_values():
    spec = HartogsSpec(type3(2), 1.0)
    rep = curvature_report(spec, _origin(spec))
    assert rep.k == pytest.approx(-17.0, rel=RTOL)
    assert rep.norm_R_sq == pytest.approx(37.0, rel=RTOL)
    assert rep.norm_Ric_sq == pytest.approx(73.0, rel=RTOL)
    assert rep.lap_k == pytest.approx(-3.0, rel=RTOL)
    rep = curvature_report(spec, _origin(spec, 0.3))
    assert rep.lap_k == pytest.approx(-3 * 0.7 * 1.6, rel=RTOL)


def test_type1_22_frozen_a2():
    spec = HartogsSpec(type1(2, 2), F(4, 5))
    rep = curvature_report(spec, _origin(spec))
    assert rep.a2 == pytest.approx(1375 / 16, rel=1e-9)


def test_type2_frozen_scalar_curvature():
    spec = HartogsSpec(type2(4), 1.25)
    assert scalar_curvature_at(spec, _origin(spec)) == pytest.approx(
        -214 / 5, rel=1e-9)


def test_bergman_metric_frozen_at_origin():
    rep = base_curvature_report(type3(2))
    assert np.allclose(rep["metric"].g, np.diag([3.0, 6.0, 3.0]), atol=1e-12)
    rep = base_curvature_report(type4(5))
    assert np.allclose(rep["metric"].g, 10.0 * np.eye(5), atol=1e-11)
    rep = base_curvature_report(type1(1, 1))
    assert rep["metric"].g[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert rep["R"][0, 0, 0, 0] == pytest.approx(-4.0, rel=1e-12)
    assert rep["k"] == pytest.approx(-1.0, rel=1e-12)  # -d(d+1)... /genus= -2/2


@pytest.mark.parametrize("spec", [type1(1, 2), type1(2, 2), type3(2),
                                  type2(4), type4(5)],
                         ids=lambda s: s.label())
def test_bergman_r2_matches_catalog(spec):
    got = base_curvature_report(spec)["norm_R_sq"]
    assert got == pytest.approx(float(appendix_R2_base(spec)), rel=1e-9)


def test_hartogs_metric_block_structure_at_origin():
    P = hartogs_potential_jet(BALL2, _origin(BALL2), BidegreeCap(1, 1))
    g = metric_at(P).g
    assert np.allclose(g, np.diag([3.0, 3.0, 1.0]), atol=1e-12)
    spec = HartogsSpec(type3(2), 1.0)
    P = hartogs_potential_jet(spec, _origin(spec), BidegreeCap(1, 1))
    g = metric_at(P).g
    # base block is (mu/genus) times the Bergman metric; fiber entry is 1
    assert np.allclose(g, np.diag([1.0, 2.0, 1.0, 1.0]), atol=1e-12)


def test_metric_guards():
    z = jet_variable(0, 1, (1, 1))
    zb = jet_variable(0, 1, (1, 1), anti=True)
    with pytest.raises(ValueError, match="positive definite"):
        metric_at(helpers.mul(-1.0 * z, zb))
    with pytest.raises(ValueError, match="Hermitian"):
        metric_at(helpers.mul(1j * z, zb))


def test_curvature_tensor_symmetries():
    pt = sample_hartogs(BALL2, seed=21, count=1)[0]
    rep = curvature_report(BALL2, pt)
    R, g = rep.R, rep.metric.g
    assert np.allclose(R, R.transpose(2, 1, 0, 3), atol=1e-10)  # i <-> k
    assert np.allclose(R, R.transpose(0, 3, 2, 1), atol=1e-10)  # jbar <-> lbar
    assert np.allclose(R, R.transpose(1, 0, 3, 2).conj(), atol=1e-10)
    assert np.allclose(g, g.conj().T, atol=1e-12)
    assert np.allclose(rep.Ric, rep.Ric.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(g).min() > 0


def test_scaling_law():
    lam = 2.0
    pt = sample_hartogs(DISK, seed=8, count=1)[0]
    P = hartogs_potential_jet(DISK, pt, BidegreeCap(3, 3))
    rep = curvature_report_from_potential(P)
    scaled = curvature_report_from_potential(P * lam)
    assert np.allclose(scaled.metric.g, lam * rep.metric.g, rtol=1e-10)
    assert np.allclose(scaled.R, lam * rep.R, rtol=1e-9, atol=1e-12)
    assert np.allclose(scaled.Ric, rep.Ric, rtol=1e-9, atol=1e-12)
    assert scaled.k == pytest.approx(rep.k / lam, rel=1e-10)
    assert scaled.norm_R_sq == pytest.approx(rep.norm_R_sq / lam ** 2, rel=1e-9)
    assert scaled.norm_Ric_sq == pytest.approx(rep.norm_Ric_sq / lam ** 2,
                                               rel=1e-9)
    assert scaled.lap_k == pytest.approx(rep.lap_k / lam ** 2, rel=1e-9)


def test_fiber_rotation_is_an_isometry():
    z, w = sample_hartogs(BALL2, seed=5, count=1)[0]
    rot = HartogsPoint(z, w * np.exp(0.73j))
    a = curvature_report(BALL2, HartogsPoint(z, w))
    b = curvature_report(BALL2, rot)
    for attr in ("k", "norm_R_sq", "norm_Ric_sq", "lap_k", "a2"):
        assert getattr(a, attr) == pytest.approx(getattr(b, attr), rel=1e-10)


def _numeric_potential(spec):
    mu = float(spec.mu)

    def phi(v):
        from hartogslab.domains import generic_norm_value
        z, w = v[:-1], v[-1]
        return -np.log(generic_norm_value(spec.base, z) ** mu - abs(w) ** 2)

    return phi


@pytest.mark.parametrize("spec,point", [
    (DISK, HartogsPoint((0.21 - 0.12j,), 0.3 + 0.05j)),
    (BALL2, HartogsPoint((0.2 + 0.1j, -0.15 + 0.05j), 0.2)),
], ids=["disk", "ball2"])
def test_metric_matches_finite_differences(spec, point):
    P = hartogs_potential_jet(spec, point, BidegreeCap(2, 2))
    g = metric_at(P).g
    phi = _numeric_potential(spec)
    v0 = np.array(list(point.base) + [point.fiber], dtype=complex)
    m = len(v0)
    for i in range(m):
        for j in range(m):
            fd = helpers.fd_mixed_partial(phi, v0, i, j)
            assert fd == pytest.approx(g[i, j], rel=1e-6, abs=1e-7)


def test_ricci_matches_finite_differences():
    point = HartogsPoint((0.2 + 0.1j,), 0.25)
    P = hartogs_potential_jet(DISK, point, BidegreeCap(3, 3))
    metric = metric_at(P)
    ric, _ = ricci_and_scalar(P, metric)

    def logdet(v):
        pt = HartogsPoint(tuple(v[:-1]), complex(v[-1]))
        Q = hartogs_potential_jet(DISK, pt, BidegreeCap(1, 1))
        return float(np.log(np.linalg.det(metric_at(Q).g).real))

    v0 = np.array([point.base[0], point.fiber], dtype=complex)
    for i in range(2):
        for j in range(2):
            fd = helpers.fd_mixed_partial(logdet, v0, i, j)
            assert -fd == pytest.approx(ric[i, j], rel=1e-5, abs=1e-6)


def _log_det_errors(P):
    """Errors of the closed-form log-det derivatives against jet_log of the
    cofactor determinant of the metric-entry jets: Ric, L21, L12 and the
    double trace relative to max(1, |reference|), then the double trace
    relative to the sum of the absolute values of its summands.

    The determinant is taken of L^{-1} G L^{-H}, g = L L^H, whose constant
    term is I: constant factors leave every derivative of log det alone,
    and the expansion of G itself in (z, w) cancels (it is 5e-12 off at
    type4(5), mu 3, where this is 7e-14 from the closed form)."""
    metric = metric_at(P)
    X = metric.g_inv
    m = P.num_vars
    G = [[helpers.derivative_jet(P, i, j) for j in range(m)] for i in range(m)]
    Linv = np.linalg.inv(np.linalg.cholesky(metric.g))
    D = np.einsum("ai,ijhw,bj->abhw", Linv,
                  np.array([[e.data for e in row] for row in G]), Linv.conj())
    cap = G[0][0].cap
    LD = jet_log(helpers.hermitian_part(
        helpers.cofactor_det([[Jet(m, cap, e) for e in row] for row in D])))
    L22 = LD.partials(2, 2)
    want = (-LD.partials(1, 1), LD.partials(2, 1), LD.partials(1, 2),
            np.einsum("ba,ij,jaib->", X, X, L22))
    got = _log_det_jets(P, metric)
    got = (-got.L11, got.L21, got.L21.conj().transpose(2, 0, 1), got.trace22)
    errs = [np.abs(a - b).max() / max(1.0, np.abs(b).max())
            for a, b in zip(got, want)]
    summands = np.einsum("ba,ij,jaib->", abs(X), abs(X), abs(L22))
    return errs + [abs(got[3] - want[3]) / summands]


@pytest.mark.parametrize("base", [type1(2, 2), type2(4), type3(3), type4(5)],
                         ids=lambda b: b.label())
def test_log_det_closed_form_matches_jet_log_of_det(base):
    for mu in (1.0, F(4, 5), 3.0):
        spec = HartogsSpec(base, mu)
        pt = sample_hartogs(spec, seed=0, count=1)[0]
        normal = hartogs_potential_jet(spec, pt, FULL_CAP, _normal_frame(spec, pt)[0])
        assert max(_log_det_errors(normal)[:4]) < 1e-12
        # in (z, w) the double trace cancels: its summands' absolute values
        # add up to 50 to 7e4 times its value, and both paths lose those
        # digits (2.9e-9 apart at type4(5), mu 3), so it is held relative
        # to that sum
        ric, l21, l12, _, trace = _log_det_errors(helpers.raw_potential_jet(spec, pt))
        assert max(ric, l21, l12, trace) < 1e-12


def test_log_det_closed_form_near_boundary():
    # cond(g) is 9.6e4 and 1.6e5 in (z, w) here; the pipeline's normal
    # frame has g = I at the point
    for spec, count, index in [(HartogsSpec(type3(2), 1.0), 20, 18),
                               (HartogsSpec(type4(6), 0.8), 5, 4)]:
        pt = sample_hartogs(spec, seed=0, count=count)[index]
        P = hartogs_potential_jet(spec, pt, FULL_CAP, _normal_frame(spec, pt)[0])
        assert max(_log_det_errors(P)[:4]) < 1e-12


def test_imaginary_residue_error_names_cond_g():
    # in (z, w) itself, with the identity frame, g has cond 7.6e3 at this
    # point and Delta k keeps an imaginary residue of 4e-5, above the 1e-8
    # guard: the error names the conditioning that lost those digits
    spec = HartogsSpec(type3(2), 1.0)
    P = hartogs_potential_jet(spec, sample_hartogs(spec, 0, 4)[1], FULL_CAP)
    with pytest.raises(ValueError, match="imaginary residue") as err:
        curvature_report_from_potential(P)
    match = re.search(r"\(cond\(g\) = (\S+)\)", str(err.value))
    assert match, str(err.value)
    cond = np.linalg.cond(metric_at(P).g)
    assert cond > 1e3
    assert float(match.group(1)) == pytest.approx(cond, rel=0.05)


def _contraction_errors(P):
    """Errors of R, the one-block term and Delta k against their einsum forms
    in helpers: each relative to max(1, |reference|), then each relative to
    the sum of its summands' absolute values, entry by entry."""
    metric = metric_at(P)
    X = metric.g_inv
    LD = _log_det_jets(P, metric)
    ric, _ = geometry._ricci(LD.L11, metric)
    cases = [(curvature_tensor(P, metric), helpers.curvature_terms(P, X), 0),
             (geometry._one_block(P, X), helpers.one_block_terms(P, X), 0),
             (geometry._laplacian_from_parts(LD, metric, ric),
              helpers.laplacian_terms(LD, X, ric), LD.trace22)]
    scaled, summed = [], []
    for got, terms, rest in cases:
        want = helpers.einsum_sum(terms) - rest
        if np.ndim(got) == 0 and np.isrealobj(got):
            want = want.real
        err = np.abs(got - want)
        scaled.append(err.max() / max(1.0, np.abs(want).max()))
        magnitude = helpers.einsum_sum(terms, absolute=True) + abs(rest)
        summed.append((err / np.where(magnitude > 0, magnitude, 1.0)).max())
    return scaled, summed


@pytest.mark.parametrize("batch", [(1,), (9,)])
def test_products_match_their_einsum_form(batch):
    # one matrix product per point sums in BLAS's order, not einsum's: equal
    # to 1e-15 of the largest product of magnitudes
    rng = np.random.default_rng(len(batch) + batch[0])
    S, T = (rng.normal(size=batch + (7, 7, 7)) + 1j * rng.normal(size=batch + (7, 7, 7))
            for _ in range(2))
    got, want = geometry._products(S, T), helpers.products_terms(S, T)
    assert got.shape == batch + (7, 7, 7, 7)
    scale = helpers.products_terms(np.abs(S), np.abs(T)).max()
    assert np.abs(got - want).max() <= 1e-15 * scale


def test_one_block_equals_the_nine_gather_expansion():
    # the 2 x 2 minors come from each point's table of 2 x 2 permanents: the
    # same float expression in the same order, so equal to the bit, on
    # report's 9 points on type1(2, 3) (m = 7) and on random jets and X
    spec = HartogsSpec(type1(2, 3), F(4, 5))
    points = origin_fiber_points(spec, [0.0, 0.35, 0.7]) + sample_hartogs(spec, 0, 6)
    P = geometry._normal_potential(spec, points, FULL_CAP)[-1]
    X = metric_at(P).g_inv
    assert np.array_equal(geometry._one_block(P, X),
                          helpers.one_block_by_nine_gathers(P, X))
    rng = np.random.default_rng(7)
    for m, batch in ((1, ()), (3, (2,)), (7, (3,))):
        shape = batch + (len(jets.basis_exponents(m, 3)),) * 2
        P = Jet(m, FULL_CAP, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        X = rng.normal(size=batch + (m, m)) + 1j * rng.normal(size=batch + (m, m))
        got = geometry._one_block(P, X)
        assert got.shape == batch
        assert np.array_equal(got, helpers.one_block_by_nine_gathers(P, X))


def test_reports_neither_negate_nor_scale_a_jet(monkeypatch):
    # the potentials' signs and the genus go into jet_log's recurrence, so
    # no report copies a jet to negate or scale it: jets have no negation,
    # and scaling is refused here
    def refuse(*args):
        raise AssertionError("a report negated or scaled a jet")

    assert not hasattr(Jet, "__neg__")
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, name, refuse)
    spec = HartogsSpec(type1(1, 2), F(4, 5))
    points = origin_fiber_points(spec, [0.0, 0.35]) + sample_hartogs(spec, 0, 2)
    assert len(curvature_reports(spec, points)) == 4
    assert len(scalar_curvatures(spec, points)) == 4
    assert base_curvature_report(type3(3))["k"] < 0


@pytest.mark.parametrize("base", [type1(2, 2), type2(4), type3(3), type4(5)],
                         ids=lambda b: b.label())
def test_contractions_match_einsum_forms(base):
    # in the normal frame X = g^{-1} is I at the point, which hides a
    # transposed X; in (z, w) X is Hermitian but not symmetric, and there
    # the double trace cancels, so it is held to its summands' sum
    for mu in (1.0, F(4, 5), 3.0):
        spec = HartogsSpec(base, mu)
        pt = sample_hartogs(spec, seed=0, count=1)[0]
        normal = hartogs_potential_jet(spec, pt, FULL_CAP, _normal_frame(spec, pt)[0])
        assert max(_contraction_errors(normal)[0]) < 1e-12
        raw = _contraction_errors(helpers.raw_potential_jet(spec, pt))[1]
        assert max(raw) < 1e-12


def test_reports_run_only_real_recurrences(monkeypatch):
    # every norm and potential a report takes a log or power of is real,
    # and made exactly Hermitian, at a square cap, as the recurrences
    # require
    runs = []
    solve = jets._graded_solve

    def solve_spy(a, b0, alpha, init=0.0):
        # b0 and init may hold one value per point of a batch
        runs.append(a.cap.holo == a.cap.anti
                    and np.array_equal(a.data, a.data.conj().swapaxes(-1, -2))
                    and not np.any(np.imag(b0)) and not np.any(np.imag(init))
                    and not np.any(np.imag(alpha)))
        return solve(a, b0, alpha, init)

    monkeypatch.setattr(jets, "_graded_solve", solve_spy)
    for base in (type1(2, 2), type2(4), type3(2), type4(5)):
        spec = HartogsSpec(base, F(4, 5))
        pt = sample_hartogs(spec, seed=0, count=1)[0]
        runs.clear()
        curvature_report(spec, pt)
        scalar_curvature_at(spec, pt)
        base_curvature_report(base, pt.base)
        assert len(runs) == 5 and all(runs), (base.label(), runs)


BASES_UP_TO_D6 = [type1(1, 1), type1(1, 2), type1(1, 3), type1(2, 2),
                  type1(1, 5), type1(2, 3), type2(4), type3(2), type3(3),
                  type4(5), type4(6)]


@pytest.mark.parametrize("base", BASES_UP_TO_D6, ids=lambda b: b.label())
def test_frame_metric_matches_the_potential(base):
    # the frame's closed-form g against d dbar of the cap-(1,1) potential jet
    for mu in (1, F(4, 5), 3):
        spec = HartogsSpec(base, mu)
        for pt in sample_hartogs(spec, seed=0, count=4):
            got = geometry._frame_metric(spec, pt)
            want = hartogs_potential_jet(spec, pt, (1, 1)).partials(1, 1)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), mu


def test_normal_frame_rejects_an_indefinite_metric(monkeypatch):
    # N = 1 + 2|z|^2 on the disk makes g_{z zbar} = -4 at the origin
    # (mu = 2): the frame's own Cholesky factorization raises what
    # metric_at raises, before any potential jet is built, and names its
    # stage and the point (scalar_curvature_at is a batch of one)
    z, w = (jet_variable(i, 2, (1, 1)) for i in range(2))
    zb, wb = (jet_variable(i, 2, (1, 1), anti=True) for i in range(2))
    with pytest.raises(ValueError) as want:
        metric_at(sub(helpers.mul(z, zb), helpers.mul(w, wb)))
    assert str(want.value) == "metric at point 0: " + geometry._NOT_POSITIVE
    convex = Jet(1, BidegreeCap(1, 1),
                 np.array([[[1.0, 0.0], [0.0, 2.0]]], complex))  # one point
    monkeypatch.setattr(geometry, "generic_norm_jet", lambda *a, **k: convex)

    def no_potential(*args, **kwargs):
        raise AssertionError("the frame accepted an indefinite metric")

    monkeypatch.setattr(geometry, "hartogs_potential_jet", no_potential)
    with pytest.raises(ValueError) as got:
        scalar_curvature_at(DISK, _origin(DISK))
    assert str(got.value) == "frame at point 0: " + geometry._NOT_POSITIVE


def test_frame_names_a_metric_that_leaves_float64():
    # at mu = 100 the sampler reaches points with N^mu - |w|^2 near 1e-190,
    # whose square underflows: the frame raises for that point, with no
    # numpy warning, instead of letting Cholesky or inv fail unnamed
    spec = HartogsSpec(type3(2), 100.0)
    points = sample_hartogs(spec, seed=0, count=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^frame at point 1: "):
            curvature_reports(spec, points)


def test_frame_names_an_underflowing_norm_power():
    # at mu = 300 seed-0 point 1 of type3(2) has N = 0.0126, so N^mu is 0.0
    # in float64 (and the sampler's fiber with it): an interior point, which
    # the frame must not call outside the domain
    spec = HartogsSpec(type3(2), 300.0)
    points = sample_hartogs(spec, seed=0, count=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^frame at point 1: N\^mu underflows "
                                             r"float64 \(N = 0\.0126, mu = 300\)$"):
            curvature_reports(spec, points)


def test_laplacian_matches_finite_differences():
    point = HartogsPoint((0.15 - 0.1j,), 0.2)
    rep = curvature_report(DISK, point)

    def kfun(v):
        return scalar_curvature_at(DISK, HartogsPoint(tuple(v[:-1]),
                                                      complex(v[-1])))

    v0 = np.array([point.base[0], point.fiber], dtype=complex)
    gi = rep.metric.g_inv
    lap = sum(gi[j, i] * helpers.fd_mixed_partial(kfun, v0, i, j)
              for i in range(2) for j in range(2))
    assert lap.real == pytest.approx(rep.lap_k, rel=1e-5, abs=1e-6)
    assert abs(lap.imag) < 1e-6


def _scalar_curvature_identity_jet(spec, point):
    """Cap-(1,1) jet of k = d c (1 - |w|^2 N^{-mu}) - (d+1)(d+2), the scalar
    curvature identity, built without the curvature pipeline."""
    d, mu = spec.base.d, float(spec.mu)
    c = (mu * (d + 1) - spec.base.genus) / mu
    cap = (1, 1)
    N = generic_norm_jet(spec.base, point.base, cap, jacobian=np.eye(d, d + 1))
    w = add(jet_variable(d, d + 1, cap), point.fiber)
    wb = add(jet_variable(d, d + 1, cap, anti=True), point.fiber.conjugate())
    tau = helpers.mul(w, wb, helpers.horner_reciprocal(jet_real_power(N, mu)))
    return sub(d * c * sub(1, tau), (d + 1) * (d + 2))


@pytest.mark.parametrize("spec", [HartogsSpec(type1(2, 2), F(4, 5)),
                                  HartogsSpec(type2(4), 1.25),
                                  HartogsSpec(type3(3), 3.0),
                                  HartogsSpec(type4(5), 1.0)],
                         ids=lambda s: s.base.label())
def test_laplacian_off_slice_matches_identity_jet(spec):
    for pt in sample_hartogs(spec, seed=0, count=4):
        rep = curvature_report(spec, pt)
        kj = _scalar_curvature_identity_jet(spec, pt)
        assert helpers.constant_term(kj).real == pytest.approx(rep.k, rel=1e-9)
        want = np.einsum("ji,ij->", rep.metric.g_inv, kj.partials(1, 1))
        # c = 0 for type1(2,2) at mu = 4/5, so Delta k = 0 there: relative
        # error with a floor of 1, as in the imaginary-residue guard
        assert rep.lap_k == pytest.approx(want.real, rel=1e-9, abs=1e-9)


def _scalar_curvature_errors(spec, points):
    base, mu = spec.base, float(spec.mu)
    errs = []
    for pt in points:
        n_mu = generic_norm_value(base, pt.base) ** mu
        want = float(scalar_curvature_formula(
            OracleInputs(base.d, base.genus, mu, t=abs(pt.fiber) ** 2),
            n_mu=n_mu))
        errs.append(abs(scalar_curvature_at(spec, pt) - want) / max(1.0, abs(want)))
    return errs


def test_scalar_curvature_near_boundary():
    # point 18 has cond(g) = 9.6e4 in (z, w). There, one-ulp noise on a
    # potential jet in (z, w) moves k by up to 2e-7; in the metric-normal
    # coordinates of scalar_curvature_at, where g is I at the point, every
    # point is at roundoff
    spec = HartogsSpec(type3(2), 1.0)
    errs = _scalar_curvature_errors(spec, sample_hartogs(spec, seed=0, count=20))
    assert max(errs) < 1e-12


@pytest.mark.parametrize("base", [type1(2, 4), type4(8)],
                         ids=lambda b: b.label())
def test_scalar_curvature_beyond_d7(base):
    # d + 1 = 9 metric rows: the determinant has no size ceiling
    spec = HartogsSpec(base, 1.0)
    points = [_origin(spec, 0.3)] + sample_hartogs(spec, seed=0, count=2)
    assert max(_scalar_curvature_errors(spec, points)) < 1e-10


def test_base_curvature_norm_beyond_d7():
    spec = type1(3, 3)  # d = 9
    got = base_curvature_report(spec)["norm_R_sq"]
    assert got == pytest.approx(float(appendix_R2_base(spec)), rel=1e-10)


def test_fd_helper_against_analytic_case():
    # phi = |z|^4 has d dbar phi = 4 |z|^2: validates the stencil itself,
    # including the quarter-Laplacian convention on the diagonal
    def phi(v):
        return abs(v[0]) ** 4

    z0 = np.array([0.37 + 0.21j], dtype=complex)
    fd = helpers.fd_mixed_partial(phi, z0, 0, 0)
    assert fd == pytest.approx(4 * abs(z0[0]) ** 2, rel=1e-6)


def test_cheap_scalar_path_matches_full_report():
    for spec in (DISK, HartogsSpec(type3(2), 1.0)):
        for pt in sample_hartogs(spec, seed=12, count=2):
            assert scalar_curvature_at(spec, pt) == pytest.approx(
                curvature_report(spec, pt).k, rel=1e-9)


def test_sampling_and_membership():
    pts = sample_hartogs(BALL2, seed=4, count=5)
    assert pts == sample_hartogs(BALL2, seed=4, count=5)
    assert len(pts) == 5

    def inside(pt):
        return contains(BALL2.base, pt.base) and abs(pt.fiber) ** 2 < \
            generic_norm_value(BALL2.base, pt.base) ** BALL2.mu

    for pt in pts:
        assert inside(pt)
    assert not inside(HartogsPoint((0.0, 0.0), 1.0))
    assert not inside(HartogsPoint((2.0, 0.0), 0.0))
    fiber = origin_fiber_points(DISK, [0.0, 0.25])
    assert fiber[0] == HartogsPoint((0.0,), 0.0)
    assert abs(fiber[1].fiber) ** 2 == pytest.approx(0.25)


def test_outside_point_rejected():
    with pytest.raises(ValueError, match="outside"):
        hartogs_potential_jet(DISK, HartogsPoint((0.0,), 1.0), (2, 2))


@pytest.mark.parametrize("base", [type1(1, 2), type4(5)], ids=lambda b: b.label())
def test_potential_in_a_frame_matches_the_reference(base):
    # N^mu is taken in the base's d variables and placed among the d + 1,
    # so it is checked against N built in all d + 1 from jet_variable, at
    # a lower-triangular frame; the power and the log take their operands'
    # Hermitian parts
    spec = HartogsSpec(base, 0.8)
    pt = sample_hartogs(spec, seed=0, count=1)[0]
    d, cap = base.d, (3, 3)
    frame = np.tril(np.random.default_rng(6).normal(size=(d + 1, d + 1))) \
        + 2 * np.eye(d + 1)
    norm = helpers.hermitian_part(helpers.reference_norm(base, pt.base, cap, frame[:d]))
    w = add(pt.fiber, *(c * jet_variable(j, d + 1, cap) for j, c in enumerate(frame[d])))
    wb = add(complex(pt.fiber).conjugate(), *(c * jet_variable(j, d + 1, cap, anti=True)
                                              for j, c in enumerate(frame[d])))
    want = helpers.neg(jet_log(helpers.hermitian_part(
        sub(jet_real_power(norm, 0.8), helpers.mul(w, wb)))))
    got = hartogs_potential_jet(spec, pt, cap, frame)
    assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()
    # a frame whose base coordinates involve the fiber's variable is refused
    frame[0, d] = 1e-3
    with pytest.raises(ValueError, match="fiber's variable"):
        hartogs_potential_jet(spec, pt, cap, frame)


def test_bergman_potential_constant_term():
    spec = type1(1, 2)
    p = (0.3, 0.2j)
    j = bergman_potential_jet(spec, p, (1, 1))
    from hartogslab.domains import generic_norm_value
    want = -spec.genus * np.log(generic_norm_value(spec, p))
    assert helpers.constant_term(j) == pytest.approx(want, rel=1e-12)


def test_report_json_shape():
    rep = curvature_report(DISK, _origin(DISK))
    slim = rep.to_json_dict()
    assert set(slim) == {"dimension", "k", "norm_R_sq", "norm_Ric_sq",
                         "lap_k", "a0", "a1", "a2"}
    assert slim["dimension"] == 2
    assert slim["a1"] == pytest.approx(slim["k"] / 2)
    full = rep.to_json_dict(include_tensors=True)
    assert np.asarray(full["R"]).shape == (2, 2, 2, 2, 2)  # trailing [re, im]
    assert full["g"][0][0] == [pytest.approx(2.0), pytest.approx(0.0)]


@pytest.mark.parametrize("base", BASES_UP_TO_D6, ids=lambda b: b.label())
def test_batched_reports_equal_their_batch_of_one(base):
    # the 132-point set (4 seed-0 points per base, at mu = 1, 4/5 and 3),
    # one batch per base and mu, and the mixed batches of the CLI: report's
    # and scan-a2's origin-fiber points (t = 0 first) before the samples,
    # and verify-lemmas' origin-fiber points alone. Their recurrence
    # operands hold different nonzero patterns, so a batch reads several
    # pair tables; a batch keeps each point's summation order, so every
    # entry is its batch-of-one result to the bit
    for mu in (1, F(4, 5), 3):
        spec = HartogsSpec(base, mu)
        samples, singles = sample_hartogs(spec, 0, 4), {}
        for points in (samples,
                       origin_fiber_points(spec, [0.0, 0.35, 0.7]) + samples,
                       origin_fiber_points(spec, [0.0, 0.12, 0.25, 0.4, 0.55, 0.7])):
            for pt, rep, k in zip(points, curvature_reports(spec, points),
                                  scalar_curvatures(spec, points)):
                if pt not in singles:
                    singles[pt] = curvature_report(spec, pt)
                one = singles[pt]
                for key in ("k", "norm_R_sq", "norm_Ric_sq", "lap_k", "a1", "a2"):
                    assert getattr(rep, key) == getattr(one, key), (key, mu)
                for got, want in ((rep.metric.g, one.metric.g),
                                  (rep.metric.g_inv, one.metric.g_inv),
                                  (rep.R, one.R), (rep.Ric, one.Ric)):
                    assert np.array_equal(got, want), mu
                assert k == scalar_curvature_at(spec, pt)


@pytest.mark.parametrize("base", BASES_UP_TO_D6 + [type1(1, 4), type1(1, 6)],
                         ids=lambda b: b.label())
def test_sample_hartogs_matches_the_per_point_fibers(base):
    # one stacked generic_norm_value call draws the fibers of one call per
    # point
    for mu in (1, F(4, 5), 3):
        spec = HartogsSpec(base, mu)
        points = sample_hartogs(spec, 0, 20)
        assert [p.fiber for p in points] == helpers.sample_hartogs_fibers_reference(
            spec, 0, [p.base for p in points])


def _stack(points):
    """The points as one HartogsPoint of arrays with a leading point axis."""
    return HartogsPoint(np.array([p.base for p in points], dtype=complex),
                        np.array([p.fiber for p in points], dtype=complex))


def test_batch_errors_name_the_point_and_the_stage():
    spec = HartogsSpec(type1(1, 2), 1.0)
    points = sample_hartogs(spec, 0, 3)
    outside = points[:2] + [HartogsPoint((0.9, 0.9), 0.1)] + points[2:]
    for run in (curvature_reports, scalar_curvatures):
        with pytest.raises(ValueError, match="^norm at point 2: base point is "
                                             "not interior to type1"):
            run(spec, outside)
    beyond = [points[0], HartogsPoint(points[1].base, 0.999)]
    with pytest.raises(ValueError, match="^frame at point 1: point lies outside"):
        curvature_reports(spec, beyond)
    # one point of a stack, at the identity frame: the potential names it
    with pytest.raises(ValueError, match="^potential at point 1: point lies "
                                         "outside"):
        hartogs_potential_jet(spec, _stack(beyond), (2, 2))


def test_outside_base_points_are_named_by_the_norm_check(recwarn):
    # the frame reads its norm through generic_norm_jet, so a base point
    # outside the domain is named by the norm check before the frame takes
    # N^mu: where N < 0 (no warning from N^mu at mu = 4/5), and where N > 0
    # (type1(2,2) at z = 1.5 I, two singular values above 1)
    for base, bad in ((type1(1, 2), (0.9, 0.9)), (type1(2, 2), (1.5, 0, 0, 1.5))):
        spec = HartogsSpec(base, F(4, 5))
        points = sample_hartogs(spec, 0, 3)
        assert (generic_norm_value(base, bad) > 0) == (base.d == 4)
        outside = points[:1] + [HartogsPoint(bad, 0.1)] + points[1:]
        for run in (curvature_reports, scalar_curvatures):
            with pytest.raises(ValueError, match="^norm at point 1: base point "
                                                 "is not interior to type1"):
                run(spec, outside)
    assert not recwarn.list


def test_nan_points_are_named_by_their_stage():
    # nan fails every comparison: a nan base point is named by the norm
    # check, and a nan fiber by the frame's (and, at the identity frame, the
    # potential's) N^mu - |w|^2 > 0 check
    spec = HartogsSpec(type1(1, 2), F(4, 5))
    points = sample_hartogs(spec, 0, 3)
    nan = float("nan")
    for bad, stage in ((HartogsPoint((nan, 0.1), 0.1), "norm"),
                       (HartogsPoint(points[0].base, nan), "frame")):
        stack = points[:1] + [bad] + points[1:]
        for run in (curvature_reports, scalar_curvatures):
            with pytest.raises(ValueError, match=f"^{stage} at point 1: "):
                run(spec, stack)
    with pytest.raises(ValueError, match="^potential at point 1: point lies "
                                         "outside"):
        hartogs_potential_jet(spec, _stack(stack), (2, 2))


def test_imaginary_residue_in_a_batch_names_the_point_and_cond_g():
    # in (z, w), with the identity frame, point 1 of these keeps an
    # imaginary residue of 4e-5 in Delta k: the error names its index in the
    # batch and its cond(g)
    spec = HartogsSpec(type3(2), 1.0)
    P = hartogs_potential_jet(spec, _stack(sample_hartogs(spec, 0, 4)),
                              FULL_CAP)
    with pytest.raises(ValueError, match=r"^Delta k at point 1: imaginary "
                                         r"residue") as err:
        curvature_report_from_potential(P)
    match = re.search(r"\(cond\(g\) = (\S+)\)", str(err.value))
    assert match, str(err.value)
    cond = np.linalg.cond(metric_at(P).g[1])
    assert cond > 1e3
    assert float(match.group(1)) == pytest.approx(cond, rel=0.05)
