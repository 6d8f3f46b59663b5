"""Command line entry point.

    smclab <experiment> [--config cfg.json] [--seed N] [--particles M]
           [--replicates R] [--replicates2 R2] [--step N] [--tuple-size T]
           [--workers W] [--out PATH] [--format csv|json] [--no-timing]
           [--kind KIND] [--points N]

Flags override config-file values.  Exit code 0 when the experiment verdict
passes (or a beta-table grid was written), 2 when it fails, 1 on error,
including a malformed flag, a report or grid that cannot be written to
``--out``, a worker process that dies and a task that runs out of memory.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InvalidConfig, SmclabError
from .experiments import (
    EXPERIMENTS,
    beta_table_text,
    default_config,
    load_config,
    report_to_csv,
    report_to_json,
    run_experiment,
    validate_config,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, the code of a FAIL verdict
        raise InvalidConfig(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smclab", description="Stratified-resampling experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file (schema 1)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--particles", type=int)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--replicates2", type=int)
    parser.add_argument("--step", type=int)
    parser.add_argument("--tuple-size", type=int, dest="tuple_size")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out", help="write the report/table to this path")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--no-timing", action="store_true",
                        help="write wall_time_s as 0.000 for byte-reproducible output")
    parser.add_argument("--kind", dest="table_kind",
                        choices=("beta0", "beta1", "phi0", "phik"),
                        help="beta-table: which kernel grid to emit")
    parser.add_argument("--points", type=int, dest="table_points",
                        help="beta-table: grid points per axis")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {
            k: v
            for k, v in vars(args).items()
            if k not in ("experiment", "config", "no_timing") and v is not None
        }
        if args.no_timing:
            overrides["timing"] = False
        if args.config:
            cfg = load_config(args.config, **overrides)
            if cfg.experiment != args.experiment:
                raise InvalidConfig(f"config experiment {cfg.experiment!r} does not match "
                                    f"command {args.experiment!r}")
        else:
            cfg = default_config(args.experiment, **overrides)
        if cfg.experiment == "beta-table":
            validate_config(cfg)
            report, text = None, beta_table_text(cfg.table_kind, cfg.table_points)
        else:
            report = run_experiment(cfg)
            text = report_to_csv(report) if cfg.format == "csv" else report_to_json(report)
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (SmclabError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if report is None:
        if cfg.out:
            print(f"wrote {cfg.table_kind} grid to {cfg.out}")
        return 0
    for row in report.rows:
        print(f"# {row.quantity}: {row.estimate:.6g} "
              f"[{row.ci_lo:.6g}, {row.ci_hi:.6g}]", file=sys.stderr)
    print(f"# verdict: {'PASS' if report.verdict else 'FAIL'}", file=sys.stderr)
    return 0 if report.verdict else 2


if __name__ == "__main__":
    raise SystemExit(main())
