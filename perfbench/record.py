"""Record the reference ``report.json`` of workloads for a range of seeds.

Usage::

    python3 perfbench/record.py --seeds 0-31 [--workload NAME ...]

For each (workload, seed) this generates the input, runs one untraced
sample of the current code and stores the input digest and the exact
``report.json`` text in ``references.json``.  The benchmark then counts
every sample whose report differs from that text as failed.  Re-record
only when the generator or a deliberate change of results requires it,
and say so in the change that does.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import WORKLOADS


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    harness.check_checkout()
    refs = harness.load_references()
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        table = refs.setdefault(name, {})
        for seed in args.seeds:
            path, digest = harness.prepare_input(workload, seed)
            sample = harness.run_sample(workload, path, traced=False, timeout=170)
            if not sample.ok:
                print(f"{name} seed {seed}: {sample.error}", file=sys.stderr)
                return 1
            old = table.get(str(seed))
            table[str(seed)] = {"input_sha256": digest,
                                "report_json": sample.report.decode("utf-8")}
            state = ("new" if old is None else
                     "same" if old == table[str(seed)] else "CHANGED")
            print(f"{name} seed {seed}: {state} ({sample.run_s:.2f} s)")
            harness.REFERENCES.write_text(
                json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
