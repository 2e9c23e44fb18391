"""The three benchmark workloads: inputs made from a seed, one operation at a
time, and the output check applied to every operation.

Each workload is a closed loop: a single caller runs one operation, waits for
it, checks it, and only then starts the next. A pass is the workload's fixed
list of operation kinds, each run once; a run repeats whole passes.

  ladder         curvature_report on interior points of type1 bases with
                 d+1 = 2..7, mu = 1 and 4/5 (overhead-bound to arithmetic-bound)
  catalog        the CLI in-process over the 11 classical bases with d <= 6,
                 plus scan-a2, appendix-table and case-analysis (25 commands
                 with the CLI's default seed; the only workload on types 2-4,
                 the cap-(2,2) path and the near-boundary failures)
  case-analysis  the exact integer case analysis at n_max = 2000 (no numpy, no
                 jets: numeric optimisations must leave it unchanged)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from typing import NamedTuple

import numpy as np

TOL = 1e-8  # the package's own identity tolerance (--tol default, _real guard)
DIGITS_FLOOR = 1e-16  # relative errors below this count as 16 digits


class Outcome(NamedTuple):
    """Result of checking one operation.

    ok: the operation completed and passed every check.
    silent: the program claimed success but a check rejected its output.
    rel_errs: every oracle comparison the operation produced.
    out_bytes: bytes the CLI wrote to stdout (0 for library calls).
    note: why the operation failed, for the report.
    """
    ok: bool
    silent: bool
    rel_errs: tuple
    out_bytes: int
    note: str


def rel_err(value, target):
    """The CLI's relative error: |value - target| / max(|target|, 1)."""
    return abs(value - target) / max(abs(target), 1.0)


def digits(err):
    return -math.log10(max(err, DIGITS_FLOOR))


# -- ladder -------------------------------------------------------------------

LADDER_BASES = ((1, 1), (1, 2), (1, 3), (2, 2), (1, 5), (2, 3))  # d+1 = 2..7
LADDER_MUS = (1.0, 0.8)
LADDER_POOL = 32  # distinct points per (rung, mu); passes cycle through them


def _ladder_point(rng, m, n, mu):
    """Interior point of the Hartogs domain over type1(m, n): z has operator
    norm below 0.7, |w|^2 is uniform in [0, 0.81 N(z)^mu) with uniform phase.
    Returns (base coordinates, fiber, N(z))."""
    z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    z *= rng.uniform(0.0, 0.7) / np.linalg.norm(z, 2)
    norm = float(np.linalg.det(np.eye(m) - z @ z.conj().T).real)
    t = rng.uniform(0.0, 0.81 * norm ** mu)
    w = math.sqrt(t) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return tuple(complex(x) for x in z.ravel()), w, norm


class Ladder:
    name = "ladder"

    def __init__(self, H, seed):
        self.H = H
        rng = np.random.default_rng([seed, 1])
        self.kinds = []  # (label, spec, rung, mu)
        self.points = {}  # kind index -> list of (HartogsPoint, N)
        for m, n in LADDER_BASES:
            base = H.type1(m, n)
            for mu in LADDER_MUS:
                kind = len(self.kinds)
                label = "d%d mu=%s" % (base.d + 1, "1" if mu == 1.0 else "4/5")
                self.kinds.append((label, H.HartogsSpec(base, mu), base.d + 1, mu))
                pool = []
                for _ in range(LADDER_POOL):
                    z, w, norm = _ladder_point(rng, m, n, mu)
                    pool.append((H.HartogsPoint(z, w), norm))
                self.points[kind] = pool
        # bound now, so that a traced run does not count the benchmark's own
        # oracle calls as work of the oracles layer
        self.oracle = (H.scalar_curvature_formula, H.OracleInputs)

    def warm_up(self):
        """One report per distinct num_vars, which builds every lazily cached
        index table the cap-(3,3) pipeline uses (caps (3,3), (2,2), (1,1))."""
        for _, spec, _, mu in self.kinds:
            if mu == 1.0:
                self.H.curvature_report(spec, self.H.HartogsPoint(
                    (0j,) * spec.base.d, 0.3 + 0j))

    def op(self, kind, rep):
        _, spec, _, _ = self.kinds[kind]
        point, _ = self.points[kind][rep % LADDER_POOL]
        return lambda: self.H.curvature_report(spec, point)

    def check(self, kind, rep, result):
        _, spec, _, mu = self.kinds[kind]
        point, norm = self.points[kind][rep % LADDER_POOL]
        formula, inputs = self.oracle
        inp = inputs(d=spec.base.d, genus=spec.base.genus, mu=mu, t=abs(point.fiber) ** 2)
        err = rel_err(result.k, float(formula(inp, n_mu=norm ** mu)))
        if not err <= TOL:
            return Outcome(False, True, (err,), 0, "k misses the oracle by %.2e" % err)
        return Outcome(True, False, (err,), 0, "")


# -- CLI workloads ------------------------------------------------------------

CATALOG_BASES = (
    ("--domain", "type1", "--m", "1", "--n", "1"),
    ("--domain", "type1", "--m", "1", "--n", "2"),
    ("--domain", "type1", "--m", "1", "--n", "3"),
    ("--domain", "type1", "--m", "2", "--n", "2"),
    ("--domain", "type1", "--m", "1", "--n", "5"),
    ("--domain", "type1", "--m", "2", "--n", "3"),
    ("--domain", "type2", "--n", "4"),
    ("--domain", "type3", "--n", "2"),
    ("--domain", "type3", "--n", "3"),
    ("--domain", "type4", "--n", "5"),
    ("--domain", "type4", "--n", "6"),
)
CATALOG_MUS = ("1", "4/5", "3")
# 2.0M exact pair checks, about 0.4 s per call. At 5000 (2.7 s per call) the
# machine's speed changed within a call often enough that rescaled per-run
# medians spread by 5-10%; at 2000 by about 2%.
CASE_N_MAX = 2000


def _run_cli(main, argv):
    """Run the CLI in-process; returns (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _oracle_errors(obj):
    """Every rel_err / max_rel_err number anywhere in a CLI JSON document."""
    found = []

    def walk(node, key=None):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        elif key in ("rel_err", "max_rel_err") and isinstance(node, (int, float)) \
                and not isinstance(node, bool):
            found.append(float(node))

    walk(obj)
    return tuple(found)


def _check_case_analysis(obj, n_max):
    """The exact case analysis must match its expected verdict: all n(n+1)/2
    rectangular pairs checked, and only the ball family m = 1 survives."""
    if obj.get("matches_expected") is not True:
        return "matches_expected is not true"
    verdicts = obj.get("verdicts") or []
    if not verdicts or verdicts[0].get("case_id") != 1:
        return "case 1 verdict missing"
    pairs = verdicts[0].get("evidence", {}).get("pairs_checked")
    if pairs != n_max * (n_max + 1) // 2:
        return "pairs_checked %r != %d" % (pairs, n_max * (n_max + 1) // 2)
    if any(p[0] != 1 for p in verdicts[0].get("surviving_parameters", [])) or \
            verdicts[0]["evidence"].get("non_ball_survivors"):
        return "case 1 has survivors outside the ball family m = 1"
    if any(v.get("surviving_parameters") for v in verdicts[1:]):
        return "a non-rectangular case has survivors"
    return ""


def check_command(argv, code, out, err=""):
    """Check one CLI command's result. Exit 1 is the CLI's own report of a
    failed mathematical check (or of an evaluation error it caught): a failed
    operation, but not a silent one."""
    nbytes = len(out.encode())
    if code == 1:
        return Outcome(False, False, (), nbytes, "exit 1 " + (
            err.strip().splitlines() or ["(status fail)"])[0])
    if code != 0:
        return Outcome(False, True, (), nbytes, "exit %r" % (code,))
    try:
        obj = json.loads(out)
    except ValueError:
        return Outcome(False, True, (), nbytes, "stdout is not JSON")
    if "status" not in obj or "config" not in obj:
        return Outcome(False, True, (), nbytes, "status or config missing")
    errs = _oracle_errors(obj)
    if obj["status"] != "ok":
        return Outcome(False, True, errs, nbytes, "exit 0 with status %r" % obj["status"])
    if argv[0] == "case-analysis":
        n_max = int(argv[argv.index("--n-max") + 1]) if "--n-max" in argv else 1000
        problem = _check_case_analysis(obj, n_max)
        if problem:
            return Outcome(False, True, errs, nbytes, problem)
        errs += (0.0,)  # the verdict is an exact comparison: no error at all
    return Outcome(True, False, errs, nbytes, "")


class _CliWorkload:
    def __init__(self, H, argvs):
        self.H = H
        self.argvs = argvs
        self.kinds = [(" ".join(a), None, None, None) for a in argvs]

    def op(self, kind, rep):
        argv = self.argvs[kind]
        cli = self.H.cli  # looked up per call, so a traced run sees its wrapper
        return lambda: _run_cli(cli.main, argv)

    def check(self, kind, rep, result):
        code, out, err = result
        return check_command(self.argvs[kind], code, out, err)


class Catalog(_CliWorkload):
    name = "catalog"

    def __init__(self, H, seed):
        # The sweep runs with the CLI's default seed at every benchmark seed.
        # A command that fails stops at the failing point, so a failure set
        # that moved with the seed moved the pass time with it (22-31 s over
        # seeds 1-5), far beyond any useful bound.
        argvs = []
        for i, base in enumerate(CATALOG_BASES):
            for command in ("report", "verify-lemmas"):
                argvs.append((command,) + base + ("--mu", CATALOG_MUS[i % len(CATALOG_MUS)]))
        argvs += [
            ("scan-a2", "--domain", "type1", "--m", "1", "--n", "2", "--mu", "1"),
            ("appendix-table",),
            ("case-analysis",),
        ]
        super().__init__(H, argvs)

    def warm_up(self):
        """One origin report on a ball base per num_vars 2..7 builds every
        index table the catalog uses (caps (3,3), (2,2) and (1,1))."""
        for n in range(1, 7):
            self.H.curvature_report(self.H.HartogsSpec(self.H.type1(1, n), 1.0),
                                    self.H.HartogsPoint((0j,) * n, 0.3 + 0j))


class CaseAnalysis(_CliWorkload):
    name = "case-analysis"

    def __init__(self, H, seed):
        # the case analysis has no random input: every seed runs the same call
        super().__init__(H, [("case-analysis", "--n-max", str(CASE_N_MAX))])

    def warm_up(self):
        _run_cli(self.H.cli.main, ("case-analysis", "--n-max", "5"))


WORKLOADS = {w.name: w for w in (Ladder, Catalog, CaseAnalysis)}
