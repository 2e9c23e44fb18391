"""Acceptance gate: the seven primary verification criteria.

Each test covers one numbered criterion at its stated tolerance, records a
single "[criterion N] PASS/FAIL" line (echoed in the terminal summary by
conftest.py), and fails loudly with the measured numbers if the criterion is
not met. Tolerances and expected values are stated literally; nothing here is
loosened to make a check pass.
"""

import time
from fractions import Fraction as F

import numpy as np

import helpers
from hartogslab.cases import classify_all
from hartogslab.cli import main as cli_main
from hartogslab.domains import generic_norm_value, type1, type2, type3, type4
from hartogslab.geometry import (HartogsPoint, HartogsSpec,
                                 base_curvature_report, curvature_report,
                                 curvature_report_from_potential,
                                 hartogs_potential_jet, metric_at,
                                 origin_fiber_points, ricci_and_scalar,
                                 sample_hartogs, scalar_curvature_at)
from hartogslab.oracles import (OracleInputs, R2_formula, a2_quadratic_coeffs,
                                appendix_R2_base, lap_k_formula, ric2_formula,
                                scalar_curvature_formula)

RESULTS = {}


def _finish(num, failures):
    detail = "; ".join(failures)
    RESULTS[num] = ("FAIL" if failures else "PASS", detail)
    print(f"[criterion {num}] {'FAIL: ' + detail if failures else 'PASS'}")
    assert not failures, f"criterion {num}: {detail}"


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_appendix_reproduction():
    start = time.monotonic()
    table = [
        (type1(1, 2), F(4, 3)),
        (type1(1, 3), F(3, 2)),
        (type1(2, 2), F(5, 2)),
        (type2(4), F(8, 3)),
        (type3(2), F(7, 3)),
        (type3(3), F(33, 8)),  # closed form at n = 3
        (type4(5), F(13, 5)),
    ]
    failures = []
    for spec, closed in table:
        _check(failures, appendix_R2_base(spec) == closed,
               f"{spec.label()}: catalog value {appendix_R2_base(spec)} != {closed}")
        got = base_curvature_report(spec)["norm_R_sq"]
        rel = abs(got - float(closed)) / max(1.0, abs(float(closed)))
        _check(failures, rel <= 1e-8,
               f"{spec.label()}: AD {got!r} vs closed form {float(closed)!r} "
               f"(rel {rel:.3e})")
    elapsed = time.monotonic() - start
    _check(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s")
    _finish(1, failures)


def test_criterion_2_scalar_curvature_identity_globally():
    domains = [
        HartogsSpec(type1(1, 1), 2.0),
        HartogsSpec(type1(1, 2), 3.0),
        HartogsSpec(type3(2), 1.0),
    ]
    failures = []
    for hspec in domains:
        base = hspec.base
        worst = 0.0
        for pt in sample_hartogs(hspec, seed=2024, count=20):
            t = abs(pt.fiber) ** 2
            n_mu = generic_norm_value(base, pt.base) ** float(hspec.mu)
            want = float(scalar_curvature_formula(
                OracleInputs(base.d, base.genus, float(hspec.mu), t=t),
                n_mu=n_mu))
            got = scalar_curvature_at(hspec, pt)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        _check(failures, worst <= 1e-8,
               f"{base.label()} mu={hspec.mu}: worst rel err {worst:.3e}")
    _finish(2, failures)


def test_criterion_3_fiber_slice_identities():
    start = time.monotonic()
    domains = [
        HartogsSpec(type1(1, 1), 2.0),
        HartogsSpec(type1(1, 2), 1.5),
        HartogsSpec(type1(2, 2), F(4, 5)),
        HartogsSpec(type3(2), 1.0),
        HartogsSpec(type4(5), 1.0),
        HartogsSpec(type2(4), 1.25),
    ]
    ts = [0.0, 0.15, 0.3, 0.5, 0.7]
    failures = []
    for hspec in domains:
        base = hspec.base
        br2 = float(appendix_R2_base(base))
        w_r2 = w_lap = w_ric2 = 0.0
        for pt in origin_fiber_points(hspec, ts):
            t = abs(pt.fiber) ** 2
            rep = curvature_report(hspec, pt)
            inp = OracleInputs(base.d, base.genus, float(hspec.mu), t=t,
                               base_r2=br2)
            for got, want, tag in (
                    (rep.norm_R_sq, float(R2_formula(inp)), "r2"),
                    (rep.lap_k, float(lap_k_formula(inp)), "lap"),
                    (rep.norm_Ric_sq, float(ric2_formula(inp)), "ric2")):
                err = abs(got - want) / max(1.0, abs(want))
                if tag == "r2":
                    w_r2 = max(w_r2, err)
                elif tag == "lap":
                    w_lap = max(w_lap, err)
                else:
                    w_ric2 = max(w_ric2, err)
        for tag, worst in (("|R|^2", w_r2), ("Delta k", w_lap),
                           ("|Ric|^2", w_ric2)):
            _check(failures, worst <= 1e-8,
                   f"{base.label()} mu={hspec.mu}: {tag} worst rel {worst:.3e}")
    elapsed = time.monotonic() - start
    _check(failures, elapsed < 600.0, f"runtime {elapsed:.1f}s >= 600s")
    _finish(3, failures)


def _fit_quadratic(hspec, n_pts=8):
    ts = [0.7 * i / (n_pts - 1) for i in range(n_pts)]
    a2s = [curvature_report(hspec, pt).a2
           for pt in origin_fiber_points(hspec, ts)]
    c0, c1, c2 = np.polyfit(ts, a2s, 2)
    return (c0, c1, c2), a2s


def test_criterion_4_quadratic_structure():
    cases = [
        (HartogsSpec(type1(1, 1), 0.5), F(1, 2)),
        (HartogsSpec(type1(1, 1), 1.0), F(1)),
        (HartogsSpec(type1(1, 1), 2.0), F(2)),
        (HartogsSpec(type1(2, 2), 0.8), F(4, 5)),
    ]
    failures = []
    for hspec, mu_exact in cases:
        base = hspec.base
        want = a2_quadratic_coeffs(OracleInputs(
            base.d, base.genus, mu_exact, base_r2=appendix_R2_base(base)))
        got, _ = _fit_quadratic(hspec)
        for g, w, name in zip(got, want, ("c0", "c1", "c2")):
            _check(failures, abs(g - float(w)) <= 1e-7,
                   f"{base.label()} mu={mu_exact}: {name} fit {g!r} vs exact "
                   f"{float(w)!r}")
    _finish(4, failures)


def test_criterion_5_constancy_classification():
    failures = []
    measured = {}
    for d in (1, 2, 3):
        hspec = HartogsSpec(type1(1, d), 1.0)
        _, a2s = _fit_quadratic(hspec)
        a2s += [curvature_report(hspec, pt).a2
                for pt in sample_hartogs(hspec, seed=7, count=3)]
        spread = max(a2s) - min(a2s)
        measured[d] = sum(a2s) / len(a2s)
        _check(failures, spread < 1e-7,
               f"ball d={d} mu=1: spread {spread:.3e} >= 1e-7")
    for hspec, label in ((HartogsSpec(type1(1, 2), 1.1), "ball d=2 mu=1.1"),
                         (HartogsSpec(type1(2, 2), 0.8),
                          "type1(2,2) mu=4/5")):
        _, a2s = _fit_quadratic(hspec)
        spread = max(a2s) - min(a2s)
        _check(failures, spread > 1e-3,
               f"{label}: spread {spread:.3e} <= 1e-3, expected non-constant")
    # The ball B^n, n = d+1, has a2 = e2(1..n) = n(n^2-1)(3n+2)/24:
    # - paper's a2 with k = -n(n+1), |R|^2 = 2n(n+1), |Ric|^2 = n(n+1)^2,
    #   Delta k = 0: k^2/8 + |R|^2/24 - |Ric|^2/6 = n(n+1)(3n^2-n-2)/24;
    # - Kempf density prod_{j=1..n}(alpha - j): alpha^{n-1} coefficient
    #   -n(n+1)/2 = k/2 (= a1), alpha^{n-2} coefficient e2(1..n) (= a2).
    for d in (1, 2, 3):
        n = d + 1
        stated = n * (n * n - 1) * (3 * n + 2) / 24
        _check(failures, abs(measured[d] - stated) <= 1e-7,
               f"ball d={d} mu=1: measured constant a2 = {measured[d]:.12g}, "
               f"stated value n(n^2-1)(3n+2)/24, n = d+1 = {stated}")
    _finish(5, failures)


def test_criterion_6_case_analysis(tmp_path):
    start = time.monotonic()
    failures = []
    result = classify_all(n_max=1000)
    verdicts = {v.case_id: v for v in result["verdicts"]}
    case1 = verdicts[1]
    _check(failures,
           case1.surviving_parameters == [[1, n] for n in range(1, 1001)],
           "case 1 survivors are not exactly the m = 1 family")
    _check(failures, case1.evidence["non_ball_survivors"] == [],
           f"case 1 non-ball survivors: {case1.evidence['non_ball_survivors']}")
    for cid in (2, 3, 4):
        v = verdicts[cid]
        _check(failures, v.surviving_parameters == [],
               f"case {cid} survivors: {v.surviving_parameters}")
        _check(failures, v.evidence["factorization_reexpanded"] is True,
               f"case {cid}: factorization certificate missing")
    _check(failures,
           verdicts[5].evidence["genus4_times_base_r2"] == "663552/17",
           f"case 5 witness {verdicts[5].evidence['genus4_times_base_r2']}")
    _check(failures,
           verdicts[6].evidence["genus4_times_base_r2"] == "2834352/14",
           f"case 6 witness {verdicts[6].evidence['genus4_times_base_r2']}")
    _check(failures, result["matches_expected"] is True,
           "classification does not match the expected verdict")
    code = cli_main(["case-analysis", "--n-max", "1000",
                     "--out", str(tmp_path / "cases.json")])
    _check(failures, code == 0, f"CLI exit code {code} != 0")
    elapsed = time.monotonic() - start
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.1f}s >= 10s")
    _finish(6, failures)


def test_criterion_7_property_suite():
    failures = []

    # curvature tensor symmetries and metric Hermitian positive-definiteness
    for hspec in (HartogsSpec(type1(1, 2), 3.0), HartogsSpec(type3(2), 1.0)):
        pt = sample_hartogs(hspec, seed=33, count=1)[0]
        rep = curvature_report(hspec, pt)
        R, g = rep.R, rep.metric.g
        _check(failures, np.allclose(R, R.transpose(2, 1, 0, 3), atol=1e-10),
               f"{hspec.base.label()}: R not symmetric under i <-> k")
        _check(failures, np.allclose(R, R.transpose(0, 3, 2, 1), atol=1e-10),
               f"{hspec.base.label()}: R not symmetric under jbar <-> lbar")
        _check(failures,
               np.allclose(R, R.transpose(1, 0, 3, 2).conj(), atol=1e-10),
               f"{hspec.base.label()}: R not conjugate-symmetric")
        _check(failures, np.allclose(g, g.conj().T, atol=1e-12),
               f"{hspec.base.label()}: metric not Hermitian")
        _check(failures, float(np.linalg.eigvalsh(g).min()) > 0.0,
               f"{hspec.base.label()}: metric not positive definite")

    # fiber rotation invariance
    hspec = HartogsSpec(type1(1, 2), 3.0)
    z, w = sample_hartogs(hspec, seed=5, count=1)[0]
    a = curvature_report(hspec, HartogsPoint(z, w))
    b = curvature_report(hspec, HartogsPoint(z, w * np.exp(1.1j)))
    for attr in ("k", "norm_R_sq", "norm_Ric_sq", "lap_k", "a2"):
        va, vb = getattr(a, attr), getattr(b, attr)
        _check(failures, abs(va - vb) <= 1e-9 * max(1.0, abs(va)),
               f"fiber rotation changes {attr}: {va!r} -> {vb!r}")

    # metric scaling law g -> lam g
    lam = 2.0
    pt = sample_hartogs(hspec, seed=8, count=1)[0]
    P = hartogs_potential_jet(hspec, pt, 3)
    rep = curvature_report_from_potential(P)
    sc = curvature_report_from_potential(P * lam)
    checks = [
        (np.allclose(sc.metric.g, lam * rep.metric.g, rtol=1e-10), "g"),
        (np.allclose(sc.R, lam * rep.R, rtol=1e-9, atol=1e-12), "R"),
        (np.allclose(sc.Ric, rep.Ric, rtol=1e-9, atol=1e-12), "Ric"),
        (abs(sc.k - rep.k / lam) <= 1e-9 * abs(rep.k), "k"),
        (abs(sc.norm_R_sq - rep.norm_R_sq / lam ** 2)
         <= 1e-9 * rep.norm_R_sq, "|R|^2"),
        (abs(sc.norm_Ric_sq - rep.norm_Ric_sq / lam ** 2)
         <= 1e-9 * rep.norm_Ric_sq, "|Ric|^2"),
        (abs(sc.lap_k - rep.lap_k / lam ** 2)
         <= 1e-9 * max(1.0, abs(rep.lap_k)), "Delta k"),
    ]
    for ok, name in checks:
        _check(failures, ok, f"scaling law fails for {name}")

    # jet derivatives against independent finite-difference stencils (1e-6)
    for hspec, pt in (
            (HartogsSpec(type1(1, 1), 2.0),
             HartogsPoint((0.21 - 0.12j,), 0.3 + 0.05j)),
            (HartogsSpec(type1(1, 2), 3.0),
             HartogsPoint((0.2 + 0.1j, -0.15 + 0.05j), 0.2))):
        mu = float(hspec.mu)

        def phi(v):
            return -np.log(generic_norm_value(hspec.base, v[:-1]) ** mu
                           - abs(v[-1]) ** 2)

        def logdet(v):
            q = HartogsPoint(tuple(v[:-1]), complex(v[-1]))
            Q = hartogs_potential_jet(hspec, q, 1)
            return float(np.log(np.linalg.det(metric_at(Q).g).real))

        def kfun(v):
            return scalar_curvature_at(
                hspec, HartogsPoint(tuple(v[:-1]), complex(v[-1])))

        v0 = np.array(list(pt.base) + [pt.fiber], dtype=complex)
        m = len(v0)
        P = hartogs_potential_jet(hspec, pt, 3)
        md = metric_at(P)
        ric, _ = ricci_and_scalar(P, md)
        rep = curvature_report(hspec, pt)
        for i in range(m):
            for j in range(m):
                fd_g = helpers.fd_mixed_partial(phi, v0, i, j)
                _check(failures,
                       abs(fd_g - md.g[i, j]) <= 1e-6 * max(1.0,
                                                            abs(md.g[i, j])),
                       f"{hspec.base.label()}: FD metric ({i},{j}) off")
                fd_r = helpers.fd_mixed_partial(logdet, v0, i, j)
                _check(failures,
                       abs(-fd_r - ric[i, j]) <= 1e-6 * max(1.0,
                                                            abs(ric[i, j])),
                       f"{hspec.base.label()}: FD Ricci ({i},{j}) off")
        lap_fd = sum(md.g_inv[j, i] * helpers.fd_mixed_partial(kfun, v0, i, j)
                     for i in range(m) for j in range(m))
        _check(failures,
               abs(lap_fd - rep.lap_k) <= 1e-6 * max(1.0, abs(rep.lap_k)),
               f"{hspec.base.label()}: FD Laplacian {lap_fd!r} vs jet "
               f"{rep.lap_k!r}")

    # brute-force regrouping of the quadratic coefficients, 100 random tuples
    for d, genus, mu, base_r2 in helpers.random_identity_tuples(100):
        direct = a2_quadratic_coeffs(
            OracleInputs(d, genus, mu, base_r2=base_r2))
        regrouped = helpers.regrouped_a2_coeffs(d, genus, mu, base_r2)
        if direct != regrouped:
            _check(failures, False,
                   f"regrouping mismatch at (d={d}, genus={genus}, mu={mu}, "
                   f"baseR2={base_r2})")
            break
    _finish(7, failures)
