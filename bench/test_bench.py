"""Self-tests of the benchmark itself (not of hartogslab). Run from the
repository root with `python3 -m pytest bench`."""

import json
import os

import numpy as np
import pytest

import run
import tracing
import workloads

H = run.load_package(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_tail_percentile_has_ten_samples_beyond():
    pct, value = run.tail_percentile(list(range(100, 0, -1)))
    assert (pct, value) == (90.0, 90)
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile([5.0, 1.0] + [9.0] * 10)
    assert value == 5.0 and pct == pytest.approx(100 * 2 / 12)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2], dtype=np.int32)
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_seed_fixes_the_inputs():
    a, b, c = (workloads.Ladder(H, s) for s in (0, 0, 1))
    assert a.points == b.points
    assert all(a.points[k][0][0] != c.points[k][0][0] for k in a.points)


def _bound_objects():
    return (H.jets.Jet.__mul__, H.jets.Jet.partial, H.geometry.jet_det,
            H.domains.jet_det, H.geometry.jet_log, H.geometry.generic_norm_jet)


class _Probe:
    """One-kind workload whose operation records the objects bound at call
    time and computes one small report."""
    name = "probe"
    kinds = [("probe", None, None, None)]

    def __init__(self):
        self.seen = []
        self.spec = H.HartogsSpec(H.type1(1, 1), 1.0)

    def op(self, kind, rep):
        def call():
            self.seen.append(_bound_objects())
            return H.curvature_report(self.spec, H.HartogsPoint((0.1j,), 0.2 + 0j))
        return call

    def check(self, kind, rep, result):
        return workloads.Outcome(True, False, (), 0, "")


def test_untraced_runs_see_the_original_objects():
    originals = _bound_objects()
    assert not any(hasattr(f, "__traced__") for f in originals)
    probe = _Probe()
    run.measure(probe, 0.0)
    assert probe.seen[-1] == originals

    tracer = tracing.Tracer(H)
    records, _ = run.measure(probe, 0.0, tracer=tracer)
    assert [r[4] for r in records] == [False, True]
    assert probe.seen[-2] == originals
    assert all(x is not y for x, y in zip(probe.seen[-1], originals))
    assert _bound_objects() == originals
    assert tracing.wrapped_bindings(H) == []
    run.measure(probe, 0.0)
    assert probe.seen[-1] == originals

    # the traced report was attributed: every span belongs to the traced
    # operation, and self times add up to the root spans' durations
    name, start, end, parent, op = tracer.arrays()
    assert len(name) > 0 and (op == 1).all()
    own = tracing.self_times(start, end, parent)
    roots = parent < 0
    assert own.sum() == pytest.approx((end - start)[roots].sum())
    metrics, _ = tracer.summary(1, np.zeros(2, dtype=np.int64), np.ones(2))
    assert metrics["jets.mul.calls.c33"] > 0 and metrics["jets.partial.calls"] > 0


def _case_analysis_json(n_max=6):
    code, out, _ = workloads._run_cli(H.cli.main, ("case-analysis", "--n-max", str(n_max)))
    assert code == 0
    return json.loads(out)


def test_command_checks_reject_bad_outputs():
    argv = ("case-analysis", "--n-max", "6")
    good = _case_analysis_json()
    assert workloads.check_command(argv, 0, json.dumps(good)).ok

    wrong_pairs = _case_analysis_json()
    wrong_pairs["verdicts"][0]["evidence"]["pairs_checked"] -= 1
    bad_survivor = _case_analysis_json()
    bad_survivor["verdicts"][0]["surviving_parameters"].append([2, 3])
    no_config = _case_analysis_json()
    del no_config["config"]
    for obj in (wrong_pairs, bad_survivor, no_config):
        outcome = workloads.check_command(argv, 0, json.dumps(obj))
        assert not outcome.ok and outcome.silent

    failed = workloads.check_command(("report",), 1, "", "error: imaginary residue")
    assert not failed.ok and not failed.silent
    assert workloads.check_command(("report",), 0, "not json").silent
