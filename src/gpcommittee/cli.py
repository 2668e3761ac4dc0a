"""Command-line benchmark driver.

``gpcommittee-bench run`` executes one experiment; ``gpcommittee-bench sweep``
repeats a toy experiment at the training sizes of ``--n-list``, with a fixed
subset size or expert count and no dataset flags, and tabulates each size's
scores and variances. A run writes results.csv, results.json and
partition.json to the output directory; a sweep writes sweep.json.

A run reads toy data (``--dataset toyN`` and ``--n-test``) or a CSV table
(``--csv PATH``, ``--target-col`` and ``--test-fraction``); a flag of the other
data source is a usage error. A flag left out, ``--dataset`` too, takes
ExperimentConfig's default.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bench import (ExperimentConfig, GPOE_MODES, PARTITION_CHOICES, check_n_list,
                    check_sweep_config, consistency_sweep, run_experiment)
from .errors import DataError

# per data source: its flag, and the flags (by config field) of the other source
_SOURCES = {
    "toy": ("--dataset", "CSV", {"target_column": "--target-col",
                                 "test_fraction": "--test-fraction"}),
    "csv": ("--csv", "toy", {"n": "--dataset", "n_test": "--n-test"}),
}


def _toy_size(raw: str) -> int:
    m = re.fullmatch(r"toy(\d+)", raw)
    if not m:
        raise argparse.ArgumentTypeError("must look like toy1000, or use --csv PATH")
    return int(m.group(1))


def _column(raw: str) -> int | str:
    try:
        return int(raw)
    except ValueError:
        return raw


def _method_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _size_list(raw: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}") from None
    try:
        check_n_list(sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {raw!r}") from None
    return sizes


def _add_dataset(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", dest="n", type=_toy_size, metavar="toyN",
                   help="toy dataset of N training points, e.g. toy1000")
    p.add_argument("--csv", dest="csv_path", metavar="PATH", help="CSV dataset path")
    p.add_argument("--target-col", dest="target_column", type=_column, metavar="COL",
                   help="target column index or header name (CSV only)")
    p.add_argument("--test-fraction", type=float, help="held-out share of rows (CSV only)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-test", type=int, help="toy test size")
    p.add_argument("--partition", dest="partition_kind", choices=PARTITION_CHOICES)
    p.add_argument("--experts", dest="M", type=int, metavar="M")
    p.add_argument("--subset-size", dest="m0", type=int, metavar="M0")
    p.add_argument("--methods", type=_method_list,
                   help="comma-separated aggregation methods")
    p.add_argument("--gpoe-beta", dest="gpoe_mode", choices=GPOE_MODES)
    p.add_argument("--reps", dest="repetitions", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-evals", type=int)
    p.add_argument("--workers", type=int,
                   help="parallel slots: training processes and prediction threads")
    p.add_argument("--out", dest="out_dir", help="output directory")


def _config_from_args(args) -> ExperimentConfig:
    # the subparsers suppress defaults, so ``given`` holds only the flags given
    given = {k: v for k, v in vars(args).items() if k not in ("command", "n_list")}
    given["dataset"] = "csv" if "csv_path" in given else "toy"
    flag, other, unread = _SOURCES[given["dataset"]]
    for field, unread_flag in unread.items():
        if field in given:
            raise ValueError(f"{unread_flag} is for {other} data; {flag} takes none")
    return ExperimentConfig(**given)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpcommittee-bench",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment",
                           argument_default=argparse.SUPPRESS)
    _add_dataset(run_p)
    _add_common(run_p)
    sweep_p = sub.add_parser("sweep", help="consistency sweep over training sizes",
                             argument_default=argparse.SUPPRESS)
    _add_common(sweep_p)
    sweep_p.add_argument("--n-list", type=_size_list, required=True,
                         help="comma-separated increasing training sizes")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "sweep":
            check_sweep_config(config, args.n_list)
        else:
            config.validate()
    except ValueError as exc:
        parser.error(str(exc))

    try:
        if args.command == "sweep":
            report = consistency_sweep(config, args.n_list)
        else:
            result = run_experiment(config)
    except (DataError, OSError) as exc:
        # unreadable or malformed input data: report it, not the call stack
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1

    if args.command == "sweep":
        print(json.dumps(report["flags"], indent=2))
    else:
        for rec in result.records:
            if rec.error:
                print(f"{rec.method:14s} rep {rec.repetition}: FAILED {rec.error}")
            else:
                print(f"{rec.method:14s} rep {rec.repetition}: "
                      f"smse={rec.smse:.4f} msll={rec.msll:+.4f} "
                      f"train={rec.train_time_seconds:.2f}s "
                      f"predict={rec.predict_time_seconds:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
