"""End-to-end tests of the command line interface via main(argv)."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import helpers
import hartogslab
from hartogslab import __version__, cli, geometry, jets
from hartogslab.cli import main
from hartogslab.domains import (DomainSpec, generic_norm_value, type1, type2,
                                type3, type4)
from hartogslab.geometry import (HartogsPoint, HartogsSpec,
                                 curvature_report_from_potential,
                                 origin_fiber_points, sample_hartogs)
from hartogslab.oracles import OracleInputs, scalar_curvature_formula

DISK = ["--domain", "type1", "--m", "1", "--n", "1", "--mu", "2"]
BALL2_HYP = ["--domain", "type1", "--m", "1", "--n", "2", "--mu", "1"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_json_schema(capsys):
    code, out, err = run(capsys, ["report", *DISK, "--samples", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "report"
    assert obj["status"] == "ok"
    assert obj["max_rel_err"] <= 1e-8
    cfg = obj["config"]
    assert cfg["domain"] == {"kind": "type1", "m": 1, "n": 1}
    assert cfg["mu"] == "2"
    assert cfg["version"] == __version__
    kinds = {p["point_kind"] for p in obj["points"]}
    assert kinds == {"origin_fiber", "generic"}
    for p in obj["points"]:
        for key in ("index", "t", "scalar_curvature", "laplacian_scalar",
                    "norm_R_sq", "norm_Ric_sq", "a1", "a2", "rel_err",
                    "max_rel_err"):
            assert key in p
        assert "tensors" not in p


def test_report_embeds_tensors_on_request(capsys):
    code, out, _ = run(capsys, ["report", *DISK, "--samples", "2", "--tensors"])
    assert code == 0
    obj = json.loads(out)
    assert all("tensors" in p for p in obj["points"])
    t0 = obj["points"][0]["tensors"]
    assert {"g", "g_inv", "R", "Ric"} <= set(t0)


TENSOR_CASES = [
    (["--domain", "type1", "--m", "2", "--n", "2", "--mu", "4/5"],
     HartogsSpec(type1(2, 2), 0.8)),
    (["--domain", "type2", "--n", "4", "--mu", "1"], HartogsSpec(type2(4), 1.0)),
    (["--domain", "type3", "--n", "3", "--mu", "1"], HartogsSpec(type3(3), 1.0)),
    (["--domain", "type4", "--n", "5", "--mu", "3"], HartogsSpec(type4(5), 3.0)),
]


@pytest.mark.parametrize("args,spec", TENSOR_CASES,
                         ids=[spec.base.label() for _, spec in TENSOR_CASES])
def test_report_tensors_are_in_raw_coordinates(capsys, args, spec):
    # reports differentiate in metric-normal coordinates and pull the tensors
    # back; the reference differentiates in (z, w) themselves, which is
    # accurate at these well-conditioned points
    code, out, _ = run(capsys, ["report", *args, "--samples", "2", "--tensors"])
    assert code == 0
    entries = json.loads(out)["points"]
    # the points report samples: 3 origin-fiber points, then 2 seed-0 points
    points = origin_fiber_points(spec, [0.0, 0.35, 0.7]) + sample_hartogs(spec, 0, 2)
    assert [e["t"] for e in entries] == [abs(p.fiber) ** 2 for p in points]
    for entry, point in zip(entries, points):
        want = curvature_report_from_potential(helpers.raw_potential_jet(spec, point))
        for key, ref in (("g", want.metric.g), ("g_inv", want.metric.g_inv),
                         ("R", want.R), ("Ric", want.Ric)):
            pair = np.asarray(entry["tensors"][key])
            got = pair[..., 0] + 1j * pair[..., 1]
            assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max(), key


def test_report_csv_layout(capsys):
    code, out, _ = run(capsys, ["report", *DISK, "--samples", "4",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("index,point_kind,t,scalar_curvature,laplacian_scalar,"
                        "norm_R_sq,norm_Ric_sq,a1,a2,max_rel_err")
    # 3 origin-fiber grid points (samples // 2 below the floor) + 4 generic
    assert len(lines) == 1 + 3 + 4
    assert not out.endswith("\r\n")


def test_report_deterministic(capsys):
    argv = ["report", *DISK, "--samples", "5", "--seed", "11"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_report_out_file(tmp_path, capsys):
    target = tmp_path / "rep.json"
    code, out, _ = run(capsys, ["report", *DISK, "--samples", "3",
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["status"] == "ok"


def test_verify_lemmas_pass(capsys):
    code, out, _ = run(capsys, ["verify-lemmas", *DISK, "--samples", "6"])
    assert code == 0
    obj = json.loads(out)
    names = {"scalar_curvature_identity", "curvature_norm_identity",
             "laplacian_identity", "ricci_norm_identity"}
    assert set(obj["identities"]) == names
    for v in obj["identities"].values():
        assert v["pass"] is True
        assert v["max_rel_err"] <= 1e-8
    assert obj["status"] == "ok"


def test_verify_lemmas_negative_control(capsys):
    code, out, _ = run(capsys, ["verify-lemmas", *DISK, "--samples", "4",
                                "--debug-laplace-scale", "1.07"])
    assert code == 1
    obj = json.loads(out)
    assert obj["identities"]["laplacian_identity"]["pass"] is False
    assert obj["identities"]["scalar_curvature_identity"]["pass"] is True
    assert obj["status"] == "fail"


def test_verify_lemmas_csv(capsys):
    code, out, _ = run(capsys, ["verify-lemmas", *DISK, "--samples", "4",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,max_rel_err,pass"
    assert len(lines) == 5


def test_scan_a2_hyperbolic_base(capsys):
    code, out, _ = run(capsys, ["scan-a2", *BALL2_HYP, "--samples", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["constant_measured"] is True
    assert obj["constant_expected"] is True
    assert obj["spread"] < 1e-7
    assert obj["status"] == "ok"


def test_scan_a2_nonconstant_domain(capsys):
    code, out, _ = run(capsys, ["scan-a2", *DISK, "--samples", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["constant_measured"] is False
    assert obj["constant_expected"] is False
    assert obj["spread"] > 1e-3
    assert obj["oracle"] == {"c0": "0", "c1": "1", "c2": "1"}
    assert obj["fit_max_abs_err"] < 1e-6


def test_scan_a2_forced_classification_mismatch(capsys):
    code, out, _ = run(capsys, ["scan-a2", *BALL2_HYP, "--samples", "4",
                                "--fit-tol", "1e-20"])
    assert code == 1
    obj = json.loads(out)
    assert obj["constant_measured"] is False
    assert obj["constant_expected"] is True
    assert obj["status"] == "fail"


def test_scan_a2_csv_fields_are_plain_numbers(capsys):
    code, out, _ = run(capsys, ["scan-a2", *BALL2_HYP, "--samples", "2",
                                "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    assert header.split(",")[5:] == ["fit_c0", "fit_c1", "fit_c2",
                                     "fit_max_abs_err"]
    for field in row.split(","):
        assert field in ("True", "False") or np.isfinite(float(field)), field


def test_appendix_table(capsys):
    code, out, _ = run(capsys, ["appendix-table"])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "ok"
    assert obj["max_rel_err"] <= 1e-8
    domains = [r["domain"] for r in obj["rows"]]
    assert domains == ["type1(1,2)", "type1(1,3)", "type1(2,2)", "type2(4)",
                       "type3(2)", "type3(3)", "type4(5)"]
    by_name = {r["domain"]: r for r in obj["rows"]}
    assert by_name["type3(3)"]["closed_form"] == "33/8"
    assert by_name["type2(4)"]["closed_form"] == "8/3"


def test_appendix_table_respects_max_d(capsys):
    code, out, _ = run(capsys, ["appendix-table", "--max-d", "5"])
    assert code == 0
    obj = json.loads(out)
    domains = [r["domain"] for r in obj["rows"]]
    assert "type2(4)" not in domains and "type3(3)" not in domains
    assert len(domains) == 5


def test_main_builds_one_parser_and_fresh_namespaces(capsys, monkeypatch):
    # main parses with one parser per process; each call still gets its own
    # namespace, so an option given once does not carry over
    builds, namespaces = [], []
    build, appendix = cli.build_parser, cli.cmd_appendix_table
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "cmd_appendix_table",
                        lambda args: namespaces.append(args) or appendix(args))
    cli._parser.cache_clear()
    try:
        for argv in (["appendix-table", "--max-d", "2", "--format", "csv"],
                     ["appendix-table", "--max-d", "2"]):
            assert run(capsys, argv)[0] == 0
    finally:
        cli._parser.cache_clear()  # its handler is the spy
    assert len(builds) == 1
    first, second = namespaces
    assert first is not second
    assert (first.format, second.format) == ("csv", "json")


def test_appendix_table_csv(capsys):
    code, out, _ = run(capsys, ["appendix-table", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("domain,closed_form,closed_form_float,ad_value,"
                        "abs_diff,rel_err")
    assert len(lines) == 8


def test_case_analysis_json(capsys):
    code, out, _ = run(capsys, ["case-analysis", "--n-max", "50"])
    assert code == 0
    # stdout stays pure JSON; the verdict line is embedded, not appended
    obj = json.loads(out)
    assert obj["matches_expected"] is True
    assert obj["final_verdict_line"] == "survivors: ball family, mu = 1"
    assert [v["case_id"] for v in obj["verdicts"]] == [1, 2, 3, 4, 5, 6]
    assert obj["verdicts"][4]["evidence"]["genus4_times_base_r2"] == "663552/17"


def test_case_analysis_csv_appends_verdict_line(capsys):
    code, out, _ = run(capsys, ["case-analysis", "--n-max", "50",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case_id,conclusion,surviving_parameters"
    assert lines[-1] == "survivors: ball family, mu = 1"


def test_case_analysis_out_still_prints_line(tmp_path, capsys):
    target = tmp_path / "cases.json"
    code, out, _ = run(capsys, ["case-analysis", "--n-max", "50",
                                "--out", str(target)])
    assert code == 0
    assert out.strip() == "survivors: ball family, mu = 1"
    assert json.loads(target.read_text())["matches_expected"] is True


@pytest.mark.parametrize("argv", [
    ["report", *DISK[:-2], "--mu", "0"],
    ["report", *DISK[:-2], "--mu", "abc"],
    ["report", "--domain", "type1", "--n", "2"],
    ["report", "--domain", "type2"],
    ["report", "--domain", "type2", "--n", "5"],  # d = 10 > default max-d
    ["case-analysis", "--n-max", "3"],
    ["report", "--domain", "nosuch", "--n", "2"],
    ["nosuch-command"],
    ["report", *DISK, "--samples", "-3"],
    ["scan-a2", *DISK, "--samples", "-1"],
    ["verify-lemmas", *DISK, "--samples", "-1"],
    ["verify-lemmas", *DISK, "--samples", "0"],
    ["case-analysis", "--n-max", "55109"],  # beyond the exact int64 scan
    ["report", "--domain", "type1", "--m", "0", "--n", "2"],
    ["report", "--domain", "type3", "--n", "1"],
    ["report", "--domain", "type4", "--n", "3"],
    ["report", *DISK, "--seed", "-1"],
    ["report", *DISK[:-2], "--mu", "1e400"],  # overflows a float
    ["report", *DISK[:-2], "--mu", "1e-400"],  # underflows to 0.0
    ["appendix-table", "--max-d", "0"],  # skips every row
    ["appendix-table", "--max-d", "1"],
    ["report", "--domain", "type2", "--n", "4", "--m", "7"],  # --m is type1's
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error: " in err.splitlines()[-1]


@pytest.mark.parametrize("argv,option", [
    (["report", "--domain", "type1", "--m", "0", "--n", "2"], "--domain type1"),
    (["report", "--domain", "type4", "--n", "3"], "--domain type4"),
    (["report", "--domain", "type1", "--n", "2"], "--domain type1"),
    (["report", "--domain", "type2"], "--domain type2"),
    (["scan-a2", *DISK, "--seed", "-1"], "--seed"),
    (["verify-lemmas", *DISK[:-2], "--mu", "1e400"], "--mu"),
    (["appendix-table", "--max-d", "1"], "--max-d"),
], ids=["domain", "domain-type4", "type1-without-m", "type2-without-n", "seed",
        "mu", "max-d"])
def test_out_of_range_values_name_the_option(capsys, argv, option):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option in err


TOLERANCE_CASES = [(command, option, value)
                   for command in ("report", "verify-lemmas", "scan-a2", "appendix-table")
                   for option in ("--tol", "--fit-tol")
                   if command != "appendix-table" or option == "--tol"
                   for value in ("-1", "nan", "inf", "-inf")]


@pytest.mark.parametrize("command,option,value", TOLERANCE_CASES,
                         ids=["%s%s=%s" % c for c in TOLERANCE_CASES])
def test_tolerances_must_be_finite_and_non_negative(capsys, command, option, value):
    # a negative or nan tolerance fails every check, and an infinite one
    # passes every check: both are usage errors that name the option
    # (option=value, as argparse reads "-inf" alone as an option)
    argv = [command, *DISK, "--samples", "1"] if command != "appendix-table" else [command]
    code, out, err = run(capsys, [*argv, "%s=%s" % (option, value)])
    assert (code, out) == (2, "")
    assert err == "error: %s must be finite and non-negative, got %s\n" % (option, value)


@pytest.mark.parametrize("argv", [["report", *DISK, "--samples", "1"],
                                  ["case-analysis", "--n-max", "5"]],
                         ids=["report", "case-analysis"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, [*argv, "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["report", *DISK, "--samples", "1"],
    ["verify-lemmas", *DISK, "--samples", "1"],
    ["scan-a2", *DISK, "--samples", "1", "--format", "csv"],
    ["appendix-table", "--max-d", "2"],
    ["case-analysis", "--n-max", "5"],
], ids=["report", "verify-lemmas", "scan-a2", "appendix-table", "case-analysis"])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, argv):
    code, out, _ = run(capsys, argv)
    target = tmp_path / "out.txt"
    code_out, rest, _ = run(capsys, [*argv, "--out", str(target)])
    assert code_out == code == 0
    with open(target, encoding="utf-8", newline="") as fh:
        written = fh.read()
    if argv[0] == "case-analysis":
        # the JSON goes to the file, the verdict line stays on the console
        assert (written, rest) == (out, "survivors: ball family, mu = 1\n")
    else:
        assert (written, rest) == (out, "")


def test_samples_bounds(capsys):
    # verify-lemmas needs a sampled point; report runs on its origin-fiber
    # grid alone
    code, out, err = run(capsys, ["verify-lemmas", *DISK, "--samples", "0"])
    assert (code, out) == (2, "")
    assert err == "error: --samples must be at least 1\n"
    code, out, _ = run(capsys, ["report", *DISK, "--samples", "0"])
    assert code == 0
    assert json.loads(out)["config"]["samples"] == 0


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "hartogslab " + __version__


def test_module_entry_exit_codes():
    # python -m runs main_entry, whose sys.exit the in-process tests skip
    src = os.path.dirname(os.path.dirname(hartogslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, expected in ((["--version"], 0), (["report", "--domain", "type2"], 2),
                           (["verify-lemmas", *DISK, "--samples", "1",
                             "--debug-laplace-scale", "1.07"], 1)):
        proc = subprocess.run([sys.executable, "-m", "hartogslab.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == expected, (argv, proc.stderr)


SWEEP_BASES = [("type1", 1, 1), ("type1", 1, 2), ("type1", 1, 3), ("type1", 1, 4),
               ("type1", 2, 2), ("type1", 1, 5), ("type1", 1, 6), ("type1", 2, 3),
               ("type2", None, 4), ("type3", None, 2), ("type3", None, 3),
               ("type4", None, 5), ("type4", None, 6)]
SWEEP = [(command, base, mu) for base in SWEEP_BASES for mu in ("1", "4/5", "3")
         for command in ("report", "verify-lemmas")]


def _sweep_id(case):
    command, (kind, m, n), mu = case
    size = f"{m},{n}" if m else f"{n}"
    return f"{command}-{kind}({size})-mu{mu.replace('/', '_')}"


@pytest.mark.parametrize("command,base,mu", SWEEP, ids=[_sweep_id(c) for c in SWEEP])
def test_classical_catalog_sweep_passes(capsys, command, base, mu):
    # every classical base with d <= 6 (the default --max-d) at three mu,
    # with the default seed and samples, including the near-boundary points
    kind, m, n = base
    argv = [command, "--domain", kind, "--n", str(n), "--mu", mu, "--tol", "1e-8"]
    if m is not None:
        argv += ["--m", str(m)]
    code, out, err = run(capsys, argv)
    assert code == 0, err or out
    assert json.loads(out)["status"] == "ok"


# the 25 commands of one pass of the benchmark's catalog workload
CATALOG_BASES = [("type1", 1, 1), ("type1", 1, 2), ("type1", 1, 3), ("type1", 2, 2),
                 ("type1", 1, 5), ("type1", 2, 3), ("type2", None, 4),
                 ("type3", None, 2), ("type3", None, 3), ("type4", None, 5),
                 ("type4", None, 6)]
CATALOG = [[command, "--domain", kind, "--n", str(n), "--mu", ("1", "4/5", "3")[i % 3]]
           + (["--m", str(m)] if m else [])
           for i, (kind, m, n) in enumerate(CATALOG_BASES)
           for command in ("report", "verify-lemmas")]
CATALOG += [["scan-a2", *BALL2_HYP], ["appendix-table"], ["case-analysis"]]


def test_one_pipeline_call_per_command(capsys, monkeypatch):
    # every command evaluates its points in one call per cap, not one per
    # point: 9 points in report, 20 + 6 in verify-lemmas, 20 in scan-a2
    caps, logs = [], []
    potential, log = geometry.hartogs_potential_jet, geometry.jet_log
    monkeypatch.setattr(geometry, "hartogs_potential_jet", lambda *args: (
        caps.append((len(args[1].fiber), tuple(args[2]))) or potential(*args)))
    monkeypatch.setattr(geometry, "jet_log",
                        lambda a, *scale: logs.append(a) or log(a, *scale))
    for command, calls in (("report", [(9, (3, 3))]),
                           ("verify-lemmas", [(20, (2, 2)), (6, (3, 3))]),
                           ("scan-a2", [(20, (3, 3))])):
        caps.clear()
        assert run(capsys, [command, *BALL2_HYP])[0] == 0
        assert caps == calls, command
    logs.clear()
    jets._pairs.cache_clear()
    for argv in CATALOG:
        assert run(capsys, argv)[0] == 0, argv
    # one per batch (report, and verify-lemmas' two caps, on 11 bases, and
    # scan-a2) and one per appendix-table row
    assert len(logs) == 11 + 22 + 1 + 7
    # the recurrences' pair tables are cached per operand pattern: the
    # cache holds every table of the catalog, so none is evicted and built
    # again in a later pass
    info = jets._pairs.cache_info()
    assert info.misses == info.currsize < info.maxsize


def test_failing_point_is_named_by_its_index(capsys, monkeypatch):
    # the exit-1 line names the stage and the point's index in the
    # command's batch: report's 3 origin-fiber points come first
    sample = cli.sample_hartogs

    def one_outside(spec, seed, count):
        points = sample(spec, seed, count)
        return points[:1] + [HartogsPoint((0.9, 0.9), 0.1)] + points[2:]

    monkeypatch.setattr(cli, "sample_hartogs", one_outside)
    code, out, err = run(capsys, ["report", *BALL2_HYP])
    assert code == 1 and out == ""
    assert err.startswith("error: norm at point 4: base point is not interior")


@pytest.mark.parametrize("base", SWEEP_BASES,
                         ids=[DomainSpec(*b).label() for b in SWEEP_BASES])
def test_k_at_tau_is_the_n_mu_form(base):
    # the CLI reads k at a generic point from the fiber-slice table at
    # tau = |w|^2 / N^mu (n_mu = 1); the interior form with n_mu = N^mu
    # is the same closed form up to rounding
    spec = DomainSpec(*base)
    for mu in (1.0, 0.8, 3.0):
        hspec = HartogsSpec(spec, mu)
        points = sample_hartogs(hspec, 0, 20)
        norms = generic_norm_value(spec, [pt.base for pt in points]).tolist()
        for pt, norm, got in zip(points, norms, cli._oracle_targets(hspec, points)):
            want = scalar_curvature_formula(OracleInputs(
                d=spec.d, genus=spec.genus, mu=mu, t=abs(pt.fiber) ** 2),
                n_mu=norm ** mu)
            assert abs(got["k"] - want) <= 1e-15 * max(1.0, abs(want))


def test_one_oracle_table_per_command(capsys, monkeypatch):
    # the closed forms' fixed parts (the base |R|^2 and a2's coefficients)
    # are built once per command, not once per point
    calls = []
    for name in ("a2_quadratic_coeffs", "appendix_R2_base"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda arg, fn=fn, name=name: (
            calls.append(name) or fn(arg)))
    for command in ("report", "verify-lemmas"):
        calls.clear()
        assert run(capsys, [command, *BALL2_HYP])[0] == 0
        assert sorted(calls) == ["a2_quadratic_coeffs", "appendix_R2_base"], command


@pytest.mark.parametrize("argv", [
    ["--domain", "type3", "--n", "2", "--mu", "100"],
    ["--domain", "type3", "--n", "2", "--mu", "300"],
    ["--domain", "type1", "--m", "1", "--n", "2", "--mu", "300"],
])
def test_large_mu_fails_at_the_frame(capsys, argv):
    # N^mu - |w|^2 or its square leaves float64 at a sampled point: the
    # exit-1 line names the frame and the point, and numpy warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["report", *argv])
    assert code == 1 and out == ""
    assert err.startswith("error: frame at point ")


def test_exit_1_line_names_the_domain_and_mu(capsys):
    # after the stage and point: the command, its domain and its mu
    code, out, err = run(capsys, ["report", "--domain", "type3", "--n", "2",
                                  "--mu", "300"])
    assert code == 1 and out == ""
    assert err.startswith("error: frame at point 4: N^mu underflows float64")
    assert err.endswith(" [report type3(2), mu = 300]\n")
