"""End-to-end benchmark of ``recbench run``.

Usage::

    python3 perfbench/run.py --workload ml1m-bpr-full --seed 3 --seconds 60 --trace 0

Generates the workload's input from the seed (cached under
``perfbench/_work``, outside the measured window), then runs fresh
``recbench run`` processes back to back until ``--seconds`` have passed
(at least ``MIN_SAMPLES`` of each kind, after one warm-up sample).
Every sample's ``report.json``, the warm-up's included, must equal the
reference recorded for this workload and seed in ``references.json``;
for a seed without a recorded reference it must equal the first
sample's.  A nonzero exit, an exception or a mismatch counts as a
failed sample; none is dropped or retried.

A fixed reference loop (``speed.py``) is timed before the first timed
sample and after each one.  ``--trace 0`` reports the end-to-end
metrics as medians over the timed samples, their times scaled to the
host speed at which the loop takes ``speed.NOMINAL_S``, so that the
shared host's slow episodes cancel out; the raw wall times are printed
too.  ``--trace 1`` alternates traced and untraced samples and reports
the per-layer metrics (medians over the traced samples, not scaled),
the tracing overhead and the loop's time.  The last stdout line is the
JSON result; the line before it is the environment record.  Every sample, with its spans, is
also written to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time

import harness
import spans
import speed

MIN_SAMPLES = 3
RUN_LIMIT_S = 150.0   # never start a sample that could end after this


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def expected_report(workload, seed, digest):
    """The recorded reference report for (workload, seed), or None."""
    entry = harness.load_references().get(workload.name, {}).get(str(seed))
    if entry is None:
        return None
    if entry["input_sha256"] != digest:
        raise harness.BenchError(
            f"generated input for {workload.name} seed {seed} has digest "
            f"{digest}, the reference was recorded on {entry['input_sha256']}; "
            "the generator or numpy changed, re-record the references")
    return entry["report_json"].encode("utf-8")


def measure(workload, inter_path, seconds, trace, reference):
    """Run samples until the window closes; returns (samples, failures).

    The first sample, ``samples["warmup"]``, is checked like the others
    but left out of the metrics: in a fresh checkout it alone pays for
    writing the bytecode caches.
    """
    samples = {"warmup": [], False: [], True: []}
    failures = []

    def check(s):
        nonlocal reference
        if s.ok:
            if reference is None:
                reference = s.report
            if s.report != reference:
                s.ok, s.error = False, "report.json differs from the reference"
        if not s.ok:
            failures.append(s.error)
        return s

    begin = time.monotonic()
    warmup = check(harness.run_sample(workload, inter_path, False,
                                      timeout=RUN_LIMIT_S))
    samples["warmup"].append(warmup)
    ref_before = speed.reference_s()
    last = longest = warmup.run_s
    kinds = (False, True) if trace else (False,)
    while True:
        elapsed = time.monotonic() - begin
        done = all(len(samples[k]) >= MIN_SAMPLES for k in kinds)
        if (done and elapsed + last > seconds) or elapsed + longest > RUN_LIMIT_S:
            break
        traced = trace and len(samples[True]) < len(samples[False])
        s = harness.run_sample(workload, inter_path, traced,
                               timeout=max(1.0, RUN_LIMIT_S - elapsed))
        ref_after = speed.reference_s()
        s.ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
        last, longest = s.run_s, max(longest, s.run_s)
        samples[traced].append(check(s))
    return samples, failures


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced):
    ok = [s for s in untraced if s.ok]
    return {"run_s": (median([s.scaled(s.run_s) for s in ok]), "s"),
            "setup_s": (median([s.scaled(s.setup_s) for s in ok]), "s"),
            "peak_rss_mb": (median([s.peak_rss_mb for s in ok]), "MB")}


def per_layer(traced, untraced):
    traced = [s for s in traced if s.ok]
    untraced = [s for s in untraced if s.ok]
    rows = [spans.layer_metrics(s.spans, s.run_s) for s in traced]
    out = {name: (median([r[name][0] for r in rows]), unit)
           for name, (_, unit) in (rows[0].items() if rows else ())}
    out["process.cpu_s"] = (median([s.cpu_s for s in untraced]), "s")
    out["trace.run_s"] = (median([s.run_s for s in traced]), "s")
    # both sides scaled: they ran at different moments of the host's speed
    out["trace.overhead_s"] = (median([s.scaled(s.run_s) for s in traced])
                               - median([s.scaled(s.run_s) for s in untraced]),
                               "s")
    out["machine.ref_s"] = (median([s.ref_s for s in traced + untraced]), "s")
    return out


def describe(samples, key):
    values = sorted(getattr(s, key) for s in samples if s.ok)
    if not values:
        return f"{key}: no successful sample"
    return (f"{key}: median {statistics.median(values):.4f} "
            f"min {values[0]:.4f} max {values[-1]:.4f} n={len(values)}")


def main(argv=None):
    args = parse_args(argv)
    # turn a termination request into an exception, so the running sample
    # is killed and reaped before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        harness.check_checkout()
        workload = harness.workload_named(args.workload)
        inter_path, digest = harness.prepare_input(workload, args.seed)
        reference = expected_report(workload, args.seed, digest)
        env = harness.probe_env()
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    samples, failures = measure(workload, inter_path, args.seconds,
                                bool(args.trace), reference)
    for error in failures:
        print(f"failed sample: {error}", file=sys.stderr)
    everything = samples["warmup"] + samples[False] + samples[True]
    for key in ("run_s", "setup_s", "peak_rss_mb", "ref_s"):
        print(f"untraced {describe(samples[False], key)}")
    if args.trace:
        print(f"traced {describe(samples[True], 'run_s')}")
        metrics = per_layer(samples[True], samples[False])
    else:
        metrics = end_to_end(samples[False])
    env.update(workload=workload.name, seed=args.seed, input_sha256=digest,
               reference="recorded" if reference is not None else "first sample")
    result = {
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    save_results(args, env, everything, result)
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def save_results(args, env, samples, result):
    """Every sample, its spans and the environment, for later reading."""
    out = harness.WORK / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = [{k: v for k, v in vars(s).items() if k != "report"} for s in samples]
    out.write_text(json.dumps({"env": env, "result": result, "samples": rows}),
                   encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
