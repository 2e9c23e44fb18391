"""Benchmark of hartogslab: times calls into the package's public functions
from outside, checks every output against the exact oracles, and prints every
metric by name and unit. See README.md in this directory.

Run from the repository root:

    python3 bench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones, measured with no wrapper installed; with --trace 1 they are
the per-layer ones, from a run in which every operation runs untraced and then
traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

SETUP_REPEATS = 5  # fresh interpreters timed per run for setup_s
# Every reported time is rescaled to this speed: measured seconds times
# REFERENCE_SECONDS / (time of reference() right around the measurement). On
# the shared 2-core host the baseline was taken on, raw per-run medians of the
# same code moved by up to 20% between consecutive runs. The value is
# reference()'s time there when the host was quiet.
REFERENCE_SECONDS = 1.2e-3


class PackageMissing(Exception):
    """The checkout holds no importable src/hartogslab."""


def load_package(root):
    """Import hartogslab from root/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hartogslab", "__init__.py")):
        raise PackageMissing("no src/hartogslab under %s" % root)
    sys.path.insert(0, src)
    import hartogslab
    import hartogslab.cli  # noqa: F401  (the catalog calls hartogslab.cli.main)
    if os.path.dirname(os.path.abspath(hartogslab.__file__)) != \
            os.path.join(os.path.abspath(src), "hartogslab"):
        raise PackageMissing("hartogslab was imported from %s" % hartogslab.__file__)
    return hartogslab


def tail_percentile(samples):
    """The highest percentile that has at least ten samples beyond it, as
    (percent, value); None when there are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10  # 1-based rank of the value with exactly ten above it
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def reference():
    """A fixed computation that uses nothing from hartogslab: a Python integer
    loop like the case analysis and small complex einsums like the jet engine.
    Timed between operations, it measures how fast the machine is running."""
    hits = 0
    for m in range(1, 60):
        for n in range(m, 60):
            hits += (m * n + 1) ** 2 == (m + n) ** 2
    x = _REF_MATRIX
    for _ in range(40):
        x = np.einsum("ij,jk->ik", x, _REF_MATRIX) * 0.01
    return hits, x


_REF_MATRIX = np.random.default_rng(0).normal(size=(20, 20)) + 0j


def time_reference(reps):
    """Median time of `reps` runs of reference()."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescaled(seconds, before, after):
    """Seconds at the reference speed, the machine's speed during the timed
    interval being taken from the reference timed right before and after."""
    return seconds * 2.0 * REFERENCE_SECONDS / (before + after)


def _run_op(workload, kind, rep, tracer, op_id):
    call = workload.op(kind, rep)
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    t0 = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # a failed operation, counted and reported
        result, error = None, exc
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.op_id = -1
    if error is not None:
        return elapsed, workloads.Outcome(
            False, False, (), 0, "%s: %s" % (type(error).__name__, error))
    return elapsed, workload.check(kind, rep, result)


def measure(workload, seconds, tracer=None):
    """Closed loop over whole passes until `seconds` have elapsed (at least
    one pass). With a tracer, every operation runs twice in a row, untraced
    and then traced, so that drift in the machine's speed cancels from the
    tracing overhead. The reference is timed between operations, for about 2%
    of the previous operation's time, and each operation's time is rescaled
    by the reference times around it.

    Returns (records, reference medians); a record is (kind, pass, seconds,
    Outcome, traced, unscaled seconds)."""
    raw, refs = [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    elapsed = 0.0

    def reps():
        return min(50, max(3, round(0.02 * elapsed / REFERENCE_SECONDS)))

    while rep == 0 or time.perf_counter() < deadline:
        for kind in range(len(workload.kinds)):
            for t in (None,) if tracer is None else (None, tracer):
                refs.append(time_reference(reps()))
                elapsed, outcome = _run_op(workload, kind, rep, t, len(raw))
                raw.append((kind, rep, elapsed, outcome, t is not None))
        rep += 1
    refs.append(time_reference(reps()))
    records = [(k, p, rescaled(s, refs[i], refs[i + 1]), o, traced, s)
               for i, (k, p, s, o, traced) in enumerate(raw)]
    return records, refs


def kind_samples(workload, records):
    samples = [[] for _ in workload.kinds]
    for r in records:
        samples[r[0]].append(r[2])
    return samples


def pass_seconds(workload, records):
    """One pass of the workload: the sum over operation kinds of each kind's
    median time."""
    return sum(statistics.median(s) for s in kind_samples(workload, records))


def rung_medians(workload, records):
    """Ladder only: {d+1: (ms per point, samples)}, the per-point time of a
    rung being the mean of its mu = 1 and mu = 4/5 medians."""
    rungs = {}
    for kind, s in enumerate(kind_samples(workload, records)):
        rung = workload.kinds[kind][2]
        if rung is not None:
            rungs.setdefault(rung, []).append(s)
    return {r: (1e3 * statistics.mean(statistics.median(s) for s in ss),
                [x for s in ss for x in s]) for r, ss in sorted(rungs.items())}


def setup_times(args):
    """Times of fresh interpreters that import hartogslab, build this run's
    inputs and run the warm-up calls, rescaled like operations."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    before = time_reference(20)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = time_reference(20)
        times.append(rescaled(elapsed, before, after))
        before = after
    return times


def counts(records):
    failed = sum(1 for r in records if not r[3].ok)
    silent = sum(1 for r in records if r[3].silent)
    return len(records), failed, silent


def print_failures(workload, records):
    seen = {}
    for r in records:
        if not r[3].ok:
            key = (workload.kinds[r[0]][0], r[3].note.splitlines()[0][:100])
            seen[key] = seen.get(key, 0) + 1
    for (label, note), n in sorted(seen.items()):
        print("  failed x%d  %s: %s" % (n, label, note))


def end_to_end(H, workload, args):
    setup = setup_times(args)
    if tracing.wrapped_bindings(H):
        raise RuntimeError("a tracing wrapper is installed before an untraced run")
    records, refs = measure(workload, args.seconds)
    if tracing.wrapped_bindings(H):
        raise RuntimeError("a tracing wrapper appeared during an untraced run")
    samples = kind_samples(workload, records)
    medians = [statistics.median(s) for s in samples]
    errs = [e for r in records for e in r[3].rel_errs]
    attempted, failed, silent = counts(records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (sum(medians), "s"),
        "op_ms_geomean": (1e3 * statistics.geometric_mean(medians), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "oracle_digits_p50": (
            statistics.median(workloads.digits(e) for e in errs) if errs else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    passes = records[-1][1] + 1
    print("workload %s  seed %d  %d passes  %d operations  fail_ratio %d/%d"
          % (workload.name, args.seed, passes, attempted, failed, attempted))
    unscaled = sum(statistics.median(r[5] for r in records if r[0] == k)
                   for k in range(len(workload.kinds)))
    print("times rescaled to the reference speed: reference median %.4g ms "
          "(nominal %.4g ms); pass_s unscaled %.6g s"
          % (1e3 * statistics.median(refs), 1e3 * REFERENCE_SECONDS, unscaled))
    print("%-22s %12s  %-6s  %s" % ("metric", "value", "unit", "tail (n)"))
    totals = [sum(r[2] for r in records if r[1] == p) for p in range(passes)]
    tails = {"setup_s": setup, "pass_s": totals}
    for key, (value, unit) in metrics.items():
        tail = tail_percentile(tails[key]) if key in tails else None
        note = ("p%.0f %.6g (%d)" % (tail[0], tail[1], len(tails[key])) if tail
                else "n=%d" % len(tails[key]) if key in tails else "")
        print("%-22s %12.6g  %-6s  %s" % (key, value, unit, note))
    if workload.name == "ladder":
        print("rung   ms/point   tail (n)")
        for rung, (ms, xs) in rung_medians(workload, records).items():
            tail = tail_percentile(xs)
            print("d+1=%d %9.2f   %s" % (rung, ms, "p%.0f %.2f (%d)" % (
                tail[0], 1e3 * tail[1], len(xs)) if tail else "n=%d" % len(xs)))
    print_failures(workload, records)
    return records, silent, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


STAGES = (("potential", "geometry.hartogs_potential_jet"),
          ("metric", "geometry.metric_at"),
          ("log_det", "geometry.log_det"),
          ("jet_det", "jets.det"),
          ("R", "geometry.curvature_tensor"),
          ("norms", "geometry.tensor_norms"),
          ("delta_k", "geometry.laplacian"),
          ("total", "geometry.curvature_report"))


def per_layer(H, workload, args):
    tracer = tracing.Tracer(H)
    records, _ = measure(workload, args.seconds, tracer=tracer)
    if tracing.wrapped_bindings(H):
        raise RuntimeError("tracing wrappers were not all removed")
    tracer.save(os.path.join(".bench_out", "spans-%s-seed%d.npz"
                             % (workload.name, args.seed)))
    untraced = [r for r in records if not r[4]]
    traced = [r for r in records if r[4]]
    passes = records[-1][1] + 1

    op_kind = np.array([r[0] for r in records], dtype=np.int64)
    op_scale = np.array([r[2] / r[5] if r[5] else 1.0 for r in records])
    m, stages = tracer.summary(passes, op_kind, op_scale)
    plain, slow = pass_seconds(workload, untraced), pass_seconds(workload, traced)
    m["trace.overhead_s"] = slow - plain
    outs = [r[3].out_bytes for r in traced]
    m["cli.out_bytes"] = float(sum(outs)) / passes
    rungs = rung_medians(workload, untraced)
    for rung in range(2, 8):
        m["geometry.curvature_report.point_ms.d%d" % rung] = rungs.get(rung, (0.0,))[0]

    print("workload %s  seed %d  traced %d passes  overhead %.3f s per pass "
          "(%.1f%% of %.3f s untraced)" % (workload.name, args.seed, passes,
                                            slow - plain, 100 * (slow - plain) / plain, plain))
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))
    for key in sorted(m):
        print("%-48s %14.6g  %s" % (key, m[key], UNITS[key]))
    if workload.name == "ladder":
        print("stage split, traced ms per point (inclusive; jet_det includes the "
              "potential's own determinant)")
        print("rung  " + " ".join("%9s" % s for s, _ in STAGES))
        per_kind = [0] * len(workload.kinds)
        for r in traced:
            per_kind[r[0]] += 1
        for rung in range(2, 8):
            kinds = [k for k, spec in enumerate(workload.kinds) if spec[2] == rung]
            n = sum(per_kind[k] for k in kinds)
            row = [1e3 * sum(stages.get((k, span), 0.0) for k in kinds) / n
                   for _, span in STAGES]
            print("d+1=%d " % rung + " ".join("%9.2f" % x for x in row))
    print_failures(workload, records)
    _, _, silent = counts(records)
    return records, silent, {k: {"value": v, "unit": UNITS[k]} for k, v in m.items()}


def _units():
    units = {"trace.overhead_s": "s", "cli.out_bytes": "bytes",
             "domains.sample.accept_ratio": "ratio", "cases.pairs_checked": "count"}
    for rung in range(2, 8):
        units["geometry.curvature_report.point_ms.d%d" % rung] = "ms"
    for cap in tracing.MUL_CAPS:
        units["jets.mul.calls." + cap] = "count"
        units["jets.mul.self_ms." + cap] = "ms"
        units["jets.mul.bytes_computed." + cap] = "bytes"
    for layer in tracing.CALL_LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_ms"] = "ms"
    for span in tracing.SELF_TIME_SPANS:
        units[span + ".self_ms"] = "ms"
    return units


UNITS = _units()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build inputs and warm up, then exit "
                             "(the unit that setup_s times)")
    args = parser.parse_args(argv)
    try:
        H = load_package(os.getcwd())
    except PackageMissing as exc:
        sys.stderr.write("error: %s; run from the repository root\n" % exc)
        return 2
    workload = workloads.WORKLOADS[args.workload](H, args.seed)
    workload.warm_up()
    if args.setup_only:
        return 0
    if args.trace:
        records, silent, metrics = per_layer(H, workload, args)
    else:
        records, silent, metrics = end_to_end(H, workload, args)
    attempted, failed, _ = counts(records)
    print(json.dumps({"correct": silent == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
