"""Command-line interface.

Subcommands::

    convert  --input raw.csv --kind inter --map src=dst:type,... --out f.inter
    run      --config cfg.yaml [--set key=value ...] [--eval-setting S] [--seed N]
    resume   --checkpoint model_last.ckpt [--config cfg.yaml] [--force]
    tune     --config cfg.yaml --space ranges.txt --method grid|random [--trials N]
             [--seed N] [--parallel]
    bench    --users N --items M --k K --repeats R [--seed N]

Exit code 0 on success; failures print one ``error: ...`` line on stderr
and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import RecbenchError
from .tables import FieldType, TableKind, convert_csv, write_table


def _parse_map(text):
    mapping = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        src, eq, rest = part.partition("=")
        dst, colon, tag = rest.partition(":")
        if not eq or not colon or not src or not dst:
            raise RecbenchError(f"bad --map entry {part!r} "
                                "(expected src=dst:type)")
        try:
            ftype = FieldType(tag)
        except ValueError:
            raise RecbenchError(f"bad --map entry {part!r}: unknown type {tag!r} "
                                "(expected token or float)") from None
        mapping[src.strip()] = (dst.strip(), ftype)
    if not mapping:
        raise RecbenchError("--map must assign at least one column")
    return mapping


def _cmd_convert(args):
    mapping = _parse_map(args.map)
    table = convert_csv(args.input, mapping, args.kind, delimiter=args.delimiter)
    write_table(table, args.out, sep=args.separator)
    print(f"wrote {table.row_count} rows to {args.out}")
    return 0


def _run_overrides(args):
    overrides = list(args.set or [])
    if args.eval_setting:
        overrides.append(f"eval_setting={args.eval_setting}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
        overrides.append(f"train.seed={args.seed}")
    return overrides


def _print_result(result):
    """Print a finished run's report, or how to resume an interrupted one."""
    if result.interrupted:
        print(f"interrupted; resume with: recbench resume "
              f"--checkpoint {result.checkpoint_last}")
    else:
        sys.stdout.write(result.report.to_text())
        print(f"report: {result.report_text_path}")
    return 0


def _cmd_run(args):
    from .runner import run_experiment

    cfg = load_config(args.config, _run_overrides(args))
    return _print_result(run_experiment(cfg, stop_after_epoch=args.stop_after_epoch,
                                        echo=not args.quiet))


def _cmd_resume(args):
    from .runner import resume_experiment

    return _print_result(resume_experiment(
        args.checkpoint, config_path=args.config, overrides=list(args.set or []),
        force=args.force, stop_after_epoch=args.stop_after_epoch,
        echo=not args.quiet))


def _cmd_tune(args):
    from .search import (grid_search, parse_range_file, random_search,
                         search_summary)

    cfg = load_config(args.config, list(args.set or []))
    space = parse_range_file(args.space)
    if args.method == "grid":
        trials = grid_search(cfg, space, parallel=args.parallel)
    else:
        trials = random_search(cfg, space, args.trials, seed=args.seed,
                               parallel=args.parallel)
    summary = search_summary(trials)
    out = Path(cfg.out_dir) / "search.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"best assignment: {summary['best_assignment']} "
          f"(valid={summary['best_valid_score']:.6f})")
    for trial in trials:
        print(f"  {trial.assignment} -> valid={trial.valid_score:.6f}")
    print(f"summary: {out}")
    return 0


def _cmd_bench(args):
    from .bench import bench_eval

    result = bench_eval(args.users, args.items, k=args.k,
                        repeats=args.repeats, seed=args.seed)
    sys.stdout.write(result.to_text())
    return 0 if result.reports_identical else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="recbench",
        description="Benchmarking engine for classic recommender models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a delimited file into a table file")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", required=True,
                   choices=[kind.value for kind in TableKind])
    p.add_argument("--map", required=True,
                   help="comma-separated src=dst:type assignments")
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", default=",", help="source file delimiter")
    p.add_argument("--separator", default=",", help="output file separator")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("run", help="train and evaluate one model")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--eval-setting", default=None, dest="eval_setting")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stop-after-epoch", type=int, default=None,
                   help="simulate an interruption after this epoch")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("resume", help="continue a run from its last checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--force", action="store_true",
                   help="proceed despite a config hash mismatch")
    p.add_argument("--stop-after-epoch", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_resume)

    p = sub.add_parser("tune", help="hyperparameter search")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--space", required=True, help="range file: name=[v1,v2,...]")
    p.add_argument("--method", choices=["grid", "random"], default="grid")
    p.add_argument("--trials", type=int, default=10,
                   help="random search: number of draws")
    p.add_argument("--seed", type=int, default=None,
                   help="random search: seed of the draws (default: the config's seed)")
    p.add_argument("--parallel", action="store_true",
                   help="run trials in a thread pool; changes only the wall time")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("bench", help="time the evaluation pipelines")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RecbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
