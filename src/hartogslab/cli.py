"""Command line interface.

Subcommands:

  report          curvature report over sampled points of one Hartogs domain
  verify-lemmas   check the four closed-form curvature identities by AD
  scan-a2         test constancy of a2 on a domain and fit its fiber profile
  appendix-table  base-domain |R|^2(0) catalog: closed form vs AD
  case-analysis   exact-rational classification of constant-a2 domains

build_parser declares each option once, in parent parsers; a command takes
only the tolerance it reads, and its cmd_* handler the parsed namespace.

All output is deterministic for a fixed argument vector: reports embed the
domain spec, mu, seed, tolerances and package version, never timestamps.
JSON is one line with sorted keys and the ", " and ": " separators.
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
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .cases import CASE1_N_MAX, classify_all, constancy_constraints
from .domains import (FAMILIES, DomainSpec, generic_norm_value, type1, type2,
                      type3, type4)
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


def _finite(option, non_negative=False):
    """The argparse type of an option that takes a finite float, and only a
    non-negative one if non_negative (a tolerance). Raises _UsageError,
    which argparse passes through to main()."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise _UsageError("invalid %s value: %r" % (option, text))
        if not math.isfinite(value) or non_negative and value < 0.0:
            raise _UsageError("%s must be finite%s, got %s" % (
                option, " and non-negative" if non_negative else "", text))
        return value
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
    return HartogsSpec(base, args.mu)  # exact: the engine floats it, the oracles do not


def _config(args, hspec):
    config = {key: value for key, value in vars(args).items()
              if key in ("samples", "seed", "tol", "fit_tol")}  # tol or fit_tol, not both
    return dict(config, domain=hspec.base.to_json_dict(), mu=str(hspec.mu),
                version=__version__)


def _oracle_targets(hspec, points):
    """The closed forms at each point, keyed by CurvatureReport field name.
    Base automorphisms lift to the Hartogs domain and fix tau = |w|^2 /
    N(z)^mu (Ahn, Byun, Park, Int. J. Math. 23, 2012), so each fiber-slice
    form, called once on the array t of every point's tau, is every
    point's oracle. a2 = c0 t^2 + c1 t + c2 cancels near t = 1 at small
    mu, and in powers of s = 1 - t near t = 0 at large mu, so its
    coefficients are taken exactly at Fraction mu in both bases, rounded,
    and each point reads c2 + t (c1 + t c0) where t < 1/2 and
    e0 + s (e1 + s e2) elsewhere (s exact there)."""
    base, mu = hspec.base, float(hspec.mu)
    norms = generic_norm_value(base, [pt.base for pt in points])
    t = np.abs([pt.fiber for pt in points]) ** 2 / norms ** mu
    base_r2 = appendix_R2_base(base)
    inp = OracleInputs(d=base.d, genus=base.genus, mu=mu, t=t, base_r2=float(base_r2))
    c0, c1, c2 = a2_quadratic_coeffs(OracleInputs(
        d=base.d, genus=base.genus, mu=Fraction(hspec.mu), base_r2=base_r2))
    f0, f1, f2, e0, e1, e2 = (float(c) for c in (c0, c1, c2, c0 + c1 + c2,
                                                 -(2 * c0 + c1), c0))
    s = 1.0 - t
    table = {"k": scalar_curvature_formula(inp), "lap_k": lap_k_formula(inp),
             "norm_R_sq": R2_formula(inp), "norm_Ric_sq": ric2_formula(inp),
             "a2": np.where(t < 0.5, f2 + t * (f1 + t * f0), e0 + s * (e1 + s * e2))}
    return [dict(zip(table, row)) for row in zip(*(v.tolist() for v in table.values()))]


def _rel_err(value, target):
    scale = max(abs(target), 1.0)
    return abs(value - target) / scale


def _non_finite(obj, path=""):
    """(value, key path) of obj's first nan or infinity in sorted-key order."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return obj, path[1:]
    items = (sorted(obj.items()) if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    return next(filter(None, (_non_finite(v, f"{path}.{k}") for k, v in items)), None)


def _finish(args, obj, rows):
    """Write obj as JSON, or rows (dicts with the same keys, in column order)
    as CSV under a header of those keys, to --out or stdout; the exit code is
    0 when obj["status"] is "ok", else 1. JSON refuses nan and infinity:
    ValueError names the first one, and nothing is written."""
    if args.format == "json":
        try:
            text = json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            raise ValueError("Out of range float values are not JSON compliant: "
                             "%r at %s" % _non_finite(obj)) from None
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows(row.values() for row in rows)  # floats as repr
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
            entry["tensors"] = rep.to_json_dict()
        entries.append(entry)

    obj = {"command": "report", "config": _config(args, hspec), "points": entries,
           "max_rel_err": worst, "status": "ok" if worst <= args.tol else "fail"}
    return _finish(args, obj, [{key: value for key, value in e.items()
                                if key not in ("rel_err", "tensors")} for e in entries])


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
    return _finish(args, obj, [dict(identity=name, **table[name]) for name in sorted(table)])


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
        d=base.d, genus=base.genus, mu=hspec.mu, base_r2=base_r2))
    fit_err = max(abs(f - float(c)) for f, c in zip(fit, oracle))

    # Exact prediction: a2 is fiber-independent iff (mu, |R|^2(0)) is the
    # unique pair that zeroes both curvature corrections.
    expected = (hspec.mu, base_r2) == constancy_constraints(base.d, base.genus)
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
    row = {key: obj[key] for key in ("a2_min", "a2_max", "spread",
                                     "constant_measured", "constant_expected")}
    row.update(("fit_" + name, c) for name, c in obj["fit"].items())
    return _finish(args, obj, [dict(row, fit_max_abs_err=fit_err)])


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
    return _finish(args, obj, rows)


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
    rows = [{"case_id": v.case_id, "conclusion": v.conclusion, "surviving_parameters":
             ";".join(str(p) for p in v.surviving_parameters)} for v in result["verdicts"]]
    code = _finish(args, obj, rows)
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

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_finite("--tol", non_negative=True), default=1e-8,
                     help="relative tolerance for identity checks")
    fit_tol = argparse.ArgumentParser(add_help=False)
    fit_tol.add_argument("--fit-tol", type=_finite("--fit-tol", non_negative=True),
                         default=1e-7, help="absolute tolerance for constancy")
    max_d = argparse.ArgumentParser(add_help=False)
    max_d.add_argument("--max-d", type=int, default=DEFAULT_MAX_D,
                       help="refuse bases with d above this (cost guard)")

    domain = argparse.ArgumentParser(add_help=False)
    domain.add_argument("--domain", required=True, choices=list(FAMILIES),
                        help="classical base domain family")
    domain.add_argument("--m", type=int, help="first size parameter (type1 only)")
    domain.add_argument("--n", type=int, help="size parameter")
    domain.add_argument("--mu", type=_parse_mu, default="1",
                        help="fiber exponent, a positive rational like 4/5 or 0.8")
    domain.add_argument("--seed", type=int, default=0, help="RNG seed")

    def domain_command(name, run, samples, help_text, tolerance):
        p = sub.add_parser(name, parents=[domain, tolerance, max_d, output], help=help_text)
        p.add_argument("--samples", type=int, default=samples,
                       help="number of random interior points")
        p.set_defaults(run=run)
        return p

    p_rep = domain_command("report", cmd_report, 6,
                           "curvature report over sampled points", tol)
    p_rep.add_argument("--tensors", action="store_true",
                       help="embed full curvature tensors in JSON output")
    p_ver = domain_command("verify-lemmas", cmd_verify_lemmas, 20,
                           "check closed-form curvature identities by AD", tol)
    p_ver.add_argument("--debug-laplace-scale", type=_finite("--debug-laplace-scale"),
                       default=1.0,
                       help="negative control: scale the AD Laplacian; a "
                            "value farther from 1 than --tol must make the "
                            "check fail unless mu = genus/(d+1), where Delta "
                            "k is 0 on the origin fiber")
    domain_command("scan-a2", cmd_scan_a2, 12, "constancy test and fiber profile of a2",
                   fit_tol)

    p_app = sub.add_parser("appendix-table", parents=[tol, max_d, output],
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
