"""Command line interface.

Subcommands:

  report          curvature report over sampled points of one Hartogs domain
  verify-lemmas   check the four closed-form curvature identities by AD
  scan-a2         test constancy of a2 on a domain and fit its fiber profile
  appendix-table  base-domain |R|^2(0) catalog: closed form vs AD
  case-analysis   exact-rational classification of constant-a2 domains

All output is deterministic for a fixed argument vector: reports embed the
domain spec, mu, seed, tolerances and package version, never timestamps.
Exit codes: 0 success, 1 a mathematical check failed, 2 usage error.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .cases import CASE1_N_MAX, classify_all
from .domains import DomainSpec, generic_norm_value, type1, type2, type3, type4
from .geometry import (HartogsPoint, HartogsSpec, base_curvature_report,
                       curvature_report, origin_fiber_points, sample_hartogs,
                       scalar_curvature_at)
from .oracles import (OracleInputs, R2_formula, a2_quadratic_coeffs,
                      appendix_R2_base, lap_k_formula, ric2_formula,
                      scalar_curvature_formula)

# Keeping d through the fiber direction small bounds the (3,3) jet width.
DEFAULT_MAX_D = 6


class RunConfig:
    """Validated bundle of common options shared by the subcommands."""

    def __init__(self, args):
        self.spec = _domain_from_args(args)
        self.mu = _parse_mu(getattr(args, "mu", "1"))
        self.samples = getattr(args, "samples", 0)
        least = 1 if args.command == "verify-lemmas" else 0
        if self.samples < least:
            raise _UsageError("--samples must be at least %d" % least)
        self.seed = getattr(args, "seed", 0)
        self.tol = getattr(args, "tol", 1e-8)
        self.fit_tol = getattr(args, "fit_tol", 1e-7)
        self.fmt = getattr(args, "format", "json")
        self.out = getattr(args, "out", None)
        self.max_d = getattr(args, "max_d", DEFAULT_MAX_D)

    def hartogs(self):
        return HartogsSpec(self.spec, float(self.mu))

    def config_dict(self):
        return {
            "domain": self.spec.to_json_dict(),
            "mu": str(self.mu),
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "fit_tol": self.fit_tol,
            "version": __version__,
        }


def _parse_mu(text):
    """Parse --mu; accepts '4/5', '0.8' and '1' alike, must be positive."""
    try:
        mu = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError("invalid mu value: %r" % (text,))
    if mu <= 0:
        raise _UsageError("mu must be positive, got %s" % mu)
    return mu


def _domain_from_args(args):
    kind = getattr(args, "domain", None)
    if kind is None:
        return None
    m, n = getattr(args, "m", None), getattr(args, "n", None)
    if kind == "type1":
        if m is None or n is None:
            raise _UsageError("--domain type1 requires both --m and --n")
        return type1(m, n)
    if n is None:
        raise _UsageError("--domain %s requires --n" % kind)
    maker = {"type2": type2, "type3": type3, "type4": type4}[kind]
    return maker(n)


class _UsageError(Exception):
    """Bad argument combination; converted to exit code 2 in main()."""


def _rel_err(value, target):
    scale = max(abs(target), 1.0)
    return abs(value - target) / scale


def _finish(cfg, obj, header, rows):
    """Write obj as JSON, or header and rows as CSV, to --out or stdout; the
    exit code is 0 when obj["status"] is "ok", else 1."""
    if cfg.fmt == "json":
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else str(x) for x in row])
        text = buf.getvalue()
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0 if obj["status"] == "ok" else 1


def _check_max_d(cfg):
    if cfg.spec is not None and cfg.spec.d > cfg.max_d:
        raise _UsageError(
            "base dimension d=%d exceeds --max-d %d; raise --max-d to override"
            % (cfg.spec.d, cfg.max_d))


def _oracle_inputs(cfg, t):
    return OracleInputs(d=cfg.spec.d, genus=cfg.spec.genus, mu=float(cfg.mu),
                        t=t, base_r2=float(appendix_R2_base(cfg.spec)))


# ---------------------------------------------------------------------------
# report


def cmd_report(cfg, include_tensors=False):
    _check_max_d(cfg)
    hspec = cfg.hartogs()
    n_grid = max(3, cfg.samples // 2)
    ts = [0.7 * i / (n_grid - 1) for i in range(n_grid)]
    points = origin_fiber_points(hspec, ts)
    points += sample_hartogs(hspec, cfg.seed, cfg.samples)

    entries = []
    worst = 0.0
    for idx, pt in enumerate(points):
        rep = curvature_report(hspec, pt)
        at_origin = all(abs(z) < 1e-15 for z in pt.base)
        t = abs(pt.fiber) ** 2
        checks = {}
        if at_origin:
            inp = _oracle_inputs(cfg, t)
            c0, c1, c2 = a2_quadratic_coeffs(inp)
            targets = {
                "k": float(scalar_curvature_formula(inp)),
                "lap_k": float(lap_k_formula(inp)),
                "norm_R_sq": float(R2_formula(inp)),
                "norm_Ric_sq": float(ric2_formula(inp)),
                "a2": float(c0) * t * t + float(c1) * t + float(c2),
            }
            values = {"k": rep.k, "lap_k": rep.lap_k,
                      "norm_R_sq": rep.norm_R_sq, "norm_Ric_sq": rep.norm_Ric_sq,
                      "a2": rep.a2}
            for key, target in targets.items():
                checks[key] = _rel_err(values[key], target)
        else:
            n_mu = generic_norm_value(cfg.spec, pt.base) ** float(cfg.mu)
            inp = _oracle_inputs(cfg, t)
            checks["k"] = _rel_err(
                rep.k, float(scalar_curvature_formula(inp, n_mu=n_mu)))
        max_err = max(checks.values())
        worst = max(worst, max_err)
        entry = {
            "index": idx,
            "point_kind": "origin_fiber" if at_origin else "generic",
            "t": t,
            "scalar_curvature": rep.k,
            "laplacian_scalar": rep.lap_k,
            "norm_R_sq": rep.norm_R_sq,
            "norm_Ric_sq": rep.norm_Ric_sq,
            "a1": rep.a1,
            "a2": rep.a2,
            "rel_err": checks,
            "max_rel_err": max_err,
        }
        if include_tensors:
            entry["tensors"] = rep.to_json_dict(include_tensors=True)
        entries.append(entry)

    obj = {"command": "report", "config": cfg.config_dict(), "points": entries,
           "max_rel_err": worst, "status": "ok" if worst <= cfg.tol else "fail"}
    header = ["index", "point_kind", "t", "scalar_curvature", "laplacian_scalar",
              "norm_R_sq", "norm_Ric_sq", "a1", "a2", "max_rel_err"]
    return _finish(cfg, obj, header, [[e[h] for h in header] for e in entries])


# ---------------------------------------------------------------------------
# verify-lemmas


def cmd_verify_lemmas(cfg, laplace_scale=1.0):
    _check_max_d(cfg)
    hspec = cfg.hartogs()
    results = {}

    errs = []
    for pt in sample_hartogs(hspec, cfg.seed, cfg.samples):
        t = abs(pt.fiber) ** 2
        n_mu = generic_norm_value(cfg.spec, pt.base) ** float(cfg.mu)
        inp = _oracle_inputs(cfg, t)
        k_ad = scalar_curvature_at(hspec, pt)
        errs.append(_rel_err(k_ad, float(scalar_curvature_formula(inp, n_mu=n_mu))))
    results["scalar_curvature_identity"] = max(errs)

    ts = [0.0, 0.12, 0.25, 0.4, 0.55, 0.7]
    errs_r2, errs_lap, errs_ric2 = [], [], []
    for pt in origin_fiber_points(hspec, ts):
        t = abs(pt.fiber) ** 2
        rep = curvature_report(hspec, pt)
        inp = _oracle_inputs(cfg, t)
        errs_r2.append(_rel_err(rep.norm_R_sq, float(R2_formula(inp))))
        errs_lap.append(_rel_err(rep.lap_k * laplace_scale,
                                 float(lap_k_formula(inp))))
        errs_ric2.append(_rel_err(rep.norm_Ric_sq, float(ric2_formula(inp))))
    results["curvature_norm_identity"] = max(errs_r2)
    results["laplacian_identity"] = max(errs_lap)
    results["ricci_norm_identity"] = max(errs_ric2)

    table = {name: {"max_rel_err": err, "pass": err <= cfg.tol}
             for name, err in results.items()}
    status = "ok" if all(v["pass"] for v in table.values()) else "fail"
    obj = {"command": "verify-lemmas", "config": cfg.config_dict(),
           "laplace_scale": laplace_scale, "identities": table, "status": status}
    rows = [[name, table[name]["max_rel_err"], table[name]["pass"]]
            for name in sorted(table)]
    return _finish(cfg, obj, ["identity", "max_rel_err", "pass"], rows)


# ---------------------------------------------------------------------------
# scan-a2


def cmd_scan_a2(cfg):
    _check_max_d(cfg)
    hspec = cfg.hartogs()
    ts = [0.7 * i / 7 for i in range(8)]
    grid = origin_fiber_points(hspec, ts)
    generic = sample_hartogs(hspec, cfg.seed, cfg.samples)

    a2_grid = [curvature_report(hspec, pt).a2 for pt in grid]
    a2_gen = [curvature_report(hspec, pt).a2 for pt in generic]
    values = a2_grid + a2_gen
    spread = max(values) - min(values)
    constant = spread < cfg.fit_tol

    fit = np.polyfit(ts, a2_grid, 2)
    c0, c1, c2 = a2_quadratic_coeffs(OracleInputs(
        d=cfg.spec.d, genus=cfg.spec.genus, mu=cfg.mu,
        base_r2=appendix_R2_base(cfg.spec)))
    fit_err = max(abs(fit[0] - float(c0)), abs(fit[1] - float(c1)),
                  abs(fit[2] - float(c2)))

    # Exact prediction: a2 is fiber-independent iff both curvature corrections
    # vanish, which happens exactly when c = 0 and |R|^2(0) = 2d/(d+1).
    c = Fraction(cfg.mu * (cfg.spec.d + 1) - cfg.spec.genus, cfg.mu)
    hyperbolic = (c == 0 and
                  appendix_R2_base(cfg.spec) == Fraction(2 * cfg.spec.d,
                                                         cfg.spec.d + 1))
    obj = {
        "command": "scan-a2",
        "config": cfg.config_dict(),
        "a2_min": min(values),
        "a2_max": max(values),
        "spread": spread,
        "constant_measured": constant,
        "constant_expected": hyperbolic,
        "fit": {"c0": fit[0], "c1": fit[1], "c2": fit[2]},
        "oracle": {"c0": str(c0), "c1": str(c1), "c2": str(c2)},
        "fit_max_abs_err": fit_err,
        "status": "ok" if constant == hyperbolic else "fail",
    }
    header = ["a2_min", "a2_max", "spread", "constant_measured",
              "constant_expected", "fit_c0", "fit_c1", "fit_c2", "fit_max_abs_err"]
    rows = [[obj["a2_min"], obj["a2_max"], spread, constant, hyperbolic,
             fit[0], fit[1], fit[2], fit_err]]
    return _finish(cfg, obj, header, rows)


# ---------------------------------------------------------------------------
# appendix-table


APPENDIX_ROWS = [type1(1, 2), type1(1, 3), type1(2, 2), type2(4), type3(2),
                 type3(3), type4(5)]


def cmd_appendix_table(cfg):
    rows = []
    worst = 0.0
    for spec in APPENDIX_ROWS:
        if spec.d > cfg.max_d:
            continue
        closed = appendix_R2_base(spec)
        ad_value = base_curvature_report(spec)["norm_R_sq"]
        err = _rel_err(ad_value, float(closed))
        worst = max(worst, err)
        rows.append({"domain": spec.label(), "closed_form": str(closed),
                     "closed_form_float": float(closed), "ad_value": ad_value,
                     "abs_diff": abs(ad_value - float(closed)), "rel_err": err})
    obj = {"command": "appendix-table",
           "config": {"tol": cfg.tol, "version": __version__}, "rows": rows,
           "max_rel_err": worst, "status": "ok" if worst <= cfg.tol else "fail"}
    header = ["domain", "closed_form", "closed_form_float", "ad_value",
              "abs_diff", "rel_err"]
    return _finish(cfg, obj, header, [[r[h] for h in header] for r in rows])


# ---------------------------------------------------------------------------
# case-analysis


def cmd_case_analysis(cfg, n_max):
    result = classify_all(n_max)
    matches = result["matches_expected"]
    line = "survivors: ball family, mu = 1"
    obj = {
        "command": "case-analysis",
        "config": {"n_max": n_max, "version": __version__},
        "verdicts": [v.to_json_dict() for v in result["verdicts"]],
        "survivors": result["survivors"],
        "final_verdict_line": line,
        "final": result["final"],
        "matches_expected": matches,
        "status": "ok" if matches else "fail",
    }
    rows = [[v.case_id, v.conclusion,
             ";".join(str(p) for p in v.surviving_parameters)]
            for v in result["verdicts"]]
    code = _finish(cfg, obj, ["case_id", "conclusion", "surviving_parameters"], rows)
    # the verdict line goes to the console; with JSON on stdout it is already
    # embedded, so the stream stays parseable
    if not (cfg.fmt == "json" and cfg.out is None):
        sys.stdout.write(line + "\n")
    return code


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hartogslab",
        description="curvature verification laboratory for Cartan-Hartogs domains")
    parser.add_argument("--version", action="version",
                        version="hartogslab " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain(p):
        p.add_argument("--domain", required=True,
                       choices=["type1", "type2", "type3", "type4"],
                       help="classical base domain family")
        p.add_argument("--m", type=int, help="first size parameter (type1 only)")
        p.add_argument("--n", type=int, help="size parameter")
        p.add_argument("--mu", default="1",
                       help="fiber exponent, a positive rational like 4/5 or 0.8")

    def add_common(p, samples):
        p.add_argument("--samples", type=int, default=samples,
                       help="number of random interior points")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="relative tolerance for identity checks")
        p.add_argument("--fit-tol", type=float, default=1e-7,
                       help="absolute tolerance for constancy / fits")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--max-d", type=int, default=DEFAULT_MAX_D,
                       help="refuse bases with d above this (cost guard)")

    p_rep = sub.add_parser("report", help="curvature report over sampled points")
    add_domain(p_rep)
    add_common(p_rep, samples=6)
    p_rep.add_argument("--tensors", action="store_true",
                       help="embed full curvature tensors in JSON output")

    p_ver = sub.add_parser("verify-lemmas",
                           help="check closed-form curvature identities by AD")
    add_domain(p_ver)
    add_common(p_ver, samples=20)
    p_ver.add_argument("--debug-laplace-scale", type=float, default=1.0,
                       help="negative control: scale the AD Laplacian; any "
                            "value other than 1 must make the check fail")

    p_scan = sub.add_parser("scan-a2",
                            help="constancy test and fiber profile of a2")
    add_domain(p_scan)
    add_common(p_scan, samples=12)

    p_app = sub.add_parser("appendix-table",
                           help="base |R|^2(0) catalog: closed form vs AD")
    p_app.add_argument("--tol", type=float, default=1e-8)
    p_app.add_argument("--format", choices=["json", "csv"], default="json")
    p_app.add_argument("--out")
    p_app.add_argument("--max-d", type=int, default=DEFAULT_MAX_D)

    p_case = sub.add_parser("case-analysis",
                            help="exact classification of constant-a2 domains")
    p_case.add_argument("--n-max", type=int, default=1000,
                        help="scan bound for the catalog parameters "
                             f"(5 to {CASE1_N_MAX})")
    p_case.add_argument("--format", choices=["json", "csv"], default="json")
    p_case.add_argument("--out")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig(args)
        if args.command == "report":
            return cmd_report(cfg, include_tensors=args.tensors)
        if args.command == "verify-lemmas":
            return cmd_verify_lemmas(cfg, laplace_scale=args.debug_laplace_scale)
        if args.command == "scan-a2":
            return cmd_scan_a2(cfg)
        if args.command == "appendix-table":
            return cmd_appendix_table(cfg)
        if args.command == "case-analysis":
            if not 5 <= args.n_max <= CASE1_N_MAX:
                raise _UsageError(f"--n-max must be between 5 and {CASE1_N_MAX}")
            return cmd_case_analysis(cfg, args.n_max)
        raise _UsageError("unknown command %r" % (args.command,))
    except _UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
