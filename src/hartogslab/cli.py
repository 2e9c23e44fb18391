"""Command line interface.

Subcommands:

  report          curvature report over sampled points of one Hartogs domain
  verify-lemmas   check the four closed-form curvature identities by AD
  scan-a2         test constancy of a2 on a domain and fit its fiber profile
  appendix-table  base-domain |R|^2(0) catalog: closed form vs AD
  case-analysis   exact-rational classification of constant-a2 domains

build_parser declares each option once, in parent parsers; each cmd_*
handler takes the parsed namespace.

All output is deterministic for a fixed argument vector: reports embed the
domain spec, mu, seed, tolerances and package version, never timestamps.
Exit codes: 0 success, 1 a mathematical check failed, 2 usage error (a bad
or out-of-range option value, or an --out path that cannot be written).
An exit-1 error line names the failing stage and point, then the command
and the domain and mu it ran on.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .cases import CASE1_N_MAX, classify_all, constancy_constraints
from .domains import DomainSpec, generic_norm_value, type1, type2, type3, type4
from .geometry import (HartogsSpec, base_curvature_report, curvature_reports,
                       origin_fiber_points, sample_hartogs, scalar_curvatures)
from .oracles import (OracleInputs, R2_formula, a2_quadratic_coeffs,
                      appendix_R2_base, lap_k_formula, ric2_formula,
                      scalar_curvature_formula)

# Keeping d through the fiber direction small bounds the (3,3) jet width.
DEFAULT_MAX_D = 6


class _UsageError(Exception):
    """Bad argument combination; converted to exit code 2 in main()."""


def _parse_mu(text):
    """Parse --mu; accepts '4/5', '0.8' and '1' alike, must be positive.
    Raises _UsageError, which argparse passes through to main()."""
    try:
        mu = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError("invalid mu value: %r" % (text,))
    if mu <= 0:
        raise _UsageError("mu must be positive, got %s" % mu)
    if not sys.float_info.min <= mu <= sys.float_info.max:
        raise _UsageError("--mu %s is outside the float range" % text)
    return mu


def _tolerance(option):
    """The argparse type of a tolerance option: a finite non-negative float.
    Raises _UsageError, which argparse passes through to main()."""
    def parse(text):
        try:
            tol = float(text)
        except ValueError:
            raise _UsageError("invalid %s value: %r" % (option, text))
        if not 0.0 <= tol < math.inf:  # also rejects nan
            raise _UsageError("%s must be finite and non-negative, got %s" % (option, text))
        return tol
    return parse


def _hartogs_spec(args, min_samples=0):
    """Validate the domain options of report, verify-lemmas and scan-a2 and
    return the HartogsSpec they name."""
    try:
        base = DomainSpec(args.domain, args.m, args.n)
    except ValueError as exc:
        raise _UsageError("--domain %s: %s" % (args.domain, exc))
    if args.samples < min_samples:
        raise _UsageError("--samples must be at least %d" % min_samples)
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative, got %d" % args.seed)
    if base.d > args.max_d:
        raise _UsageError(
            "base dimension d=%d exceeds --max-d %d; raise --max-d to override"
            % (base.d, args.max_d))
    return HartogsSpec(base, float(args.mu))


def _config(args, hspec):
    config = {key: getattr(args, key) for key in ("samples", "seed", "tol", "fit_tol")}
    return dict(config, domain=hspec.base.to_json_dict(), mu=str(args.mu),
                version=__version__)


def _oracle_targets(hspec, points):
    """The closed forms at each point, keyed by CurvatureReport field name.
    Base automorphisms lift to the Hartogs domain and fix tau = |w|^2 /
    N(z)^mu (Ahn, Byun, Park, Int. J. Math. 23, 2012), so one fiber-slice
    table, built once from hspec and read at t = tau, is every point's oracle."""
    base = hspec.base
    inp = OracleInputs(d=base.d, genus=base.genus, mu=float(hspec.mu),
                       base_r2=float(appendix_R2_base(base)))
    c0, c1, c2 = (float(c) for c in a2_quadratic_coeffs(inp))
    norms = generic_norm_value(base, [pt.base for pt in points]).tolist()
    out = []
    for pt, norm in zip(points, norms):
        t = abs(pt.fiber) ** 2 / norm ** hspec.mu
        at = replace(inp, t=t)
        out.append({"k": float(scalar_curvature_formula(at)),
                    "lap_k": float(lap_k_formula(at)),
                    "norm_R_sq": float(R2_formula(at)),
                    "norm_Ric_sq": float(ric2_formula(at)),
                    "a2": c0 * t * t + c1 * t + c2})
    return out


def _rel_err(value, target):
    scale = max(abs(target), 1.0)
    return abs(value - target) / scale


def _finish(args, obj, header, rows):
    """Write obj as JSON, or header and rows as CSV, to --out or stdout; the
    exit code is 0 when obj["status"] is "ok", else 1."""
    if args.format == "json":
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else str(x) for x in row])
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError("cannot write --out %s: %s" % (args.out, exc.strerror))
    return 0 if obj["status"] == "ok" else 1


# ---------------------------------------------------------------------------
# report


def cmd_report(args):
    hspec = _hartogs_spec(args)
    n_grid = max(3, args.samples // 2)
    ts = [0.7 * i / (n_grid - 1) for i in range(n_grid)]
    points = origin_fiber_points(hspec, ts) + sample_hartogs(hspec, args.seed,
                                                             args.samples)
    reports = curvature_reports(hspec, points)

    entries = []
    worst = 0.0
    for idx, (pt, rep, targets) in enumerate(
            zip(points, reports, _oracle_targets(hspec, points))):
        at_origin = idx < n_grid  # the origin-fiber points come first
        checks = {key: _rel_err(getattr(rep, key), targets[key])
                  for key in (targets if at_origin else ("k",))}
        max_err = max(checks.values())
        worst = max(worst, max_err)
        entry = {
            "index": idx,
            "point_kind": "origin_fiber" if at_origin else "generic",
            "t": abs(pt.fiber) ** 2,
            "scalar_curvature": rep.k,
            "laplacian_scalar": rep.lap_k,
            "norm_R_sq": rep.norm_R_sq,
            "norm_Ric_sq": rep.norm_Ric_sq,
            "a1": rep.a1,
            "a2": rep.a2,
            "rel_err": checks,
            "max_rel_err": max_err,
        }
        if args.tensors:
            entry["tensors"] = rep.to_json_dict(include_tensors=True)
        entries.append(entry)

    obj = {"command": "report", "config": _config(args, hspec), "points": entries,
           "max_rel_err": worst, "status": "ok" if worst <= args.tol else "fail"}
    header = ["index", "point_kind", "t", "scalar_curvature", "laplacian_scalar",
              "norm_R_sq", "norm_Ric_sq", "a1", "a2", "max_rel_err"]
    return _finish(args, obj, header, [[e[h] for h in header] for e in entries])


# ---------------------------------------------------------------------------
# verify-lemmas


def cmd_verify_lemmas(args):
    hspec = _hartogs_spec(args, min_samples=1)

    samples = sample_hartogs(hspec, args.seed, args.samples)
    points = origin_fiber_points(hspec, [0.0, 0.12, 0.25, 0.4, 0.55, 0.7])
    ks = scalar_curvatures(hspec, samples)
    reports = curvature_reports(hspec, points)
    targets = _oracle_targets(hspec, samples + points)
    results = {"scalar_curvature_identity": max(
        _rel_err(k, target["k"]) for k, target in zip(ks, targets))}
    fiber = list(zip(reports, targets[len(samples):]))
    for name, key, scale in (("curvature_norm_identity", "norm_R_sq", 1.0),
                             ("laplacian_identity", "lap_k", args.debug_laplace_scale),
                             ("ricci_norm_identity", "norm_Ric_sq", 1.0)):
        results[name] = max(_rel_err(getattr(rep, key) * scale, targets[key])
                            for rep, targets in fiber)

    table = {name: {"max_rel_err": err, "pass": err <= args.tol}
             for name, err in results.items()}
    status = "ok" if all(v["pass"] for v in table.values()) else "fail"
    obj = {"command": "verify-lemmas", "config": _config(args, hspec),
           "laplace_scale": args.debug_laplace_scale, "identities": table,
           "status": status}
    rows = [[name, table[name]["max_rel_err"], table[name]["pass"]]
            for name in sorted(table)]
    return _finish(args, obj, ["identity", "max_rel_err", "pass"], rows)


# ---------------------------------------------------------------------------
# scan-a2


def cmd_scan_a2(args):
    hspec = _hartogs_spec(args)
    base = hspec.base
    ts = [0.7 * i / 7 for i in range(8)]
    points = origin_fiber_points(hspec, ts) + sample_hartogs(hspec, args.seed,
                                                             args.samples)
    values = [rep.a2 for rep in curvature_reports(hspec, points)]
    a2_grid = values[:len(ts)]
    spread = max(values) - min(values)
    constant = spread < args.fit_tol

    fit = [float(c) for c in np.polyfit(ts, a2_grid, 2)]
    base_r2 = appendix_R2_base(base)
    oracle = a2_quadratic_coeffs(OracleInputs(
        d=base.d, genus=base.genus, mu=args.mu, base_r2=base_r2))
    fit_err = max(abs(f - float(c)) for f, c in zip(fit, oracle))

    # Exact prediction: a2 is fiber-independent iff (mu, |R|^2(0)) is the
    # unique pair that zeroes both curvature corrections.
    expected = (args.mu, base_r2) == constancy_constraints(base.d, base.genus)
    obj = {
        "command": "scan-a2",
        "config": _config(args, hspec),
        "a2_min": min(values),
        "a2_max": max(values),
        "spread": spread,
        "constant_measured": constant,
        "constant_expected": expected,
        "fit": dict(zip(("c0", "c1", "c2"), fit)),
        "oracle": {name: str(c) for name, c in zip(("c0", "c1", "c2"), oracle)},
        "fit_max_abs_err": fit_err,
        "status": "ok" if constant == expected else "fail",
    }
    header = ["a2_min", "a2_max", "spread", "constant_measured",
              "constant_expected", "fit_c0", "fit_c1", "fit_c2", "fit_max_abs_err"]
    rows = [[obj["a2_min"], obj["a2_max"], spread, constant, expected,
             *fit, fit_err]]
    return _finish(args, obj, header, rows)


# ---------------------------------------------------------------------------
# appendix-table


APPENDIX_ROWS = [type1(1, 2), type1(1, 3), type1(2, 2), type2(4), type3(2),
                 type3(3), type4(5)]


def cmd_appendix_table(args):
    specs = [spec for spec in APPENDIX_ROWS if spec.d <= args.max_d]
    if not specs:
        raise _UsageError("--max-d %d skips every appendix-table row (the "
                          "smallest has d=%d)"
                          % (args.max_d, min(s.d for s in APPENDIX_ROWS)))
    rows = []
    worst = 0.0
    for spec in specs:
        closed = appendix_R2_base(spec)
        ad_value = base_curvature_report(spec)["norm_R_sq"]
        err = _rel_err(ad_value, float(closed))
        worst = max(worst, err)
        rows.append({"domain": spec.label(), "closed_form": str(closed),
                     "closed_form_float": float(closed), "ad_value": ad_value,
                     "abs_diff": abs(ad_value - float(closed)), "rel_err": err})
    obj = {"command": "appendix-table",
           "config": {"tol": args.tol, "version": __version__}, "rows": rows,
           "max_rel_err": worst, "status": "ok" if worst <= args.tol else "fail"}
    header = ["domain", "closed_form", "closed_form_float", "ad_value",
              "abs_diff", "rel_err"]
    return _finish(args, obj, header, [[r[h] for h in header] for r in rows])


# ---------------------------------------------------------------------------
# case-analysis


def cmd_case_analysis(args):
    if not 5 <= args.n_max <= CASE1_N_MAX:
        raise _UsageError(f"--n-max must be between 5 and {CASE1_N_MAX}")
    result = classify_all(args.n_max)
    matches = result["matches_expected"]
    line = "survivors: ball family, mu = 1"
    obj = {
        "command": "case-analysis",
        "config": {"n_max": args.n_max, "version": __version__},
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
    code = _finish(args, obj, ["case_id", "conclusion", "surviving_parameters"], rows)
    # the verdict line goes to the console; with JSON on stdout it is already
    # embedded, so the stream stays parseable
    if not (args.format == "json" and args.out is None):
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

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["json", "csv"], default="json")
    output.add_argument("--out", help="write the report here instead of stdout")

    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--tol", type=_tolerance("--tol"), default=1e-8,
                        help="relative tolerance for identity checks")
    checks.add_argument("--max-d", type=int, default=DEFAULT_MAX_D,
                        help="refuse bases with d above this (cost guard)")

    domain = argparse.ArgumentParser(add_help=False)
    domain.add_argument("--domain", required=True,
                        choices=["type1", "type2", "type3", "type4"],
                        help="classical base domain family")
    domain.add_argument("--m", type=int, help="first size parameter (type1 only)")
    domain.add_argument("--n", type=int, help="size parameter")
    domain.add_argument("--mu", type=_parse_mu, default="1",
                        help="fiber exponent, a positive rational like 4/5 or 0.8")
    domain.add_argument("--seed", type=int, default=0, help="RNG seed")
    domain.add_argument("--fit-tol", type=_tolerance("--fit-tol"), default=1e-7,
                        help="absolute tolerance for constancy / fits")

    def domain_command(name, run, samples, help_text):
        p = sub.add_parser(name, parents=[domain, checks, output], help=help_text)
        p.add_argument("--samples", type=int, default=samples,
                       help="number of random interior points")
        p.set_defaults(run=run)
        return p

    p_rep = domain_command("report", cmd_report, 6,
                           "curvature report over sampled points")
    p_rep.add_argument("--tensors", action="store_true",
                       help="embed full curvature tensors in JSON output")
    p_ver = domain_command("verify-lemmas", cmd_verify_lemmas, 20,
                           "check closed-form curvature identities by AD")
    p_ver.add_argument("--debug-laplace-scale", type=float, default=1.0,
                       help="negative control: scale the AD Laplacian; any "
                            "value other than 1 must make the check fail")
    domain_command("scan-a2", cmd_scan_a2, 12, "constancy test and fiber profile of a2")

    p_app = sub.add_parser("appendix-table", parents=[checks, output],
                           help="base |R|^2(0) catalog: closed form vs AD")
    p_app.set_defaults(run=cmd_appendix_table)

    p_case = sub.add_parser("case-analysis", parents=[output],
                            help="exact classification of constant-a2 domains")
    p_case.add_argument("--n-max", type=int, default=1000,
                        help="scan bound for the catalog parameters "
                             f"(5 to {CASE1_N_MAX})")
    p_case.set_defaults(run=cmd_case_analysis)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser of this process, built on first use: parse_args leaves it
    unchanged and returns a fresh namespace on each call."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (ValueError, ArithmeticError) as exc:
        run = args.command  # then the domain and mu, if the command takes one
        if getattr(args, "domain", None):
            run += " %s, mu = %s" % (DomainSpec(args.domain, args.m, args.n).label(),
                                     args.mu)
        sys.stderr.write("error: %s [%s]\n" % (exc, run))
        return 1


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
