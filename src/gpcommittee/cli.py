"""Command-line benchmark driver.

``gpcommittee-bench run`` executes one experiment; ``gpcommittee-bench sweep``
repeats a toy experiment at the training sizes of ``--n-list``, with a fixed
subset size or expert count and no dataset flags, and tabulates each size's
scores and variances. A run writes results.csv, results.json and
partition.json to the output directory; a sweep writes sweep.json.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bench import (ExperimentConfig, PARTITION_CHOICES, check_n_list,
                    check_sweep_config, consistency_sweep, run_experiment)
from .errors import DataError


def _parse_dataset(args) -> dict:
    if args.command == "sweep":
        # toy data; the sweep sets n from --n-list
        return {"n_test": args.n_test}
    if args.csv:
        # a CSV run reads no toy flag, so one given is a mistake, not a no-op
        for flag, value in (("--dataset", args.dataset), ("--n-test", args.n_test)):
            if value is not None:
                raise ValueError(f"{flag} is for toy data; --csv takes none")
        target: int | str = args.target_col
        try:
            target = int(target)
        except (TypeError, ValueError):
            pass
        return {"dataset": "csv", "csv_path": args.csv, "target_column": target,
                "test_fraction": args.test_fraction}
    m = re.fullmatch(r"toy(\d+)", args.dataset or "")
    if not m:
        raise ValueError("--dataset must look like toy1000, or use --csv PATH")
    return {"dataset": "toy", "n": int(m.group(1)), "n_test": args.n_test}


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
    # every default here and in _add_common is ExperimentConfig's own, so the
    # CLI adds none
    p.add_argument("--dataset", default=None, help="toy dataset spec, e.g. toy1000")
    p.add_argument("--csv", default=None, help="CSV dataset path")
    p.add_argument("--target-col", default=ExperimentConfig.target_column,
                   help="target column index or header name (CSV only)")
    p.add_argument("--test-fraction", type=float, default=ExperimentConfig.test_fraction)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-test", type=int, default=None, help="toy test size")
    p.add_argument("--partition", choices=PARTITION_CHOICES,
                   default=ExperimentConfig.partition_kind)
    p.add_argument("--experts", type=int, default=None, metavar="M")
    p.add_argument("--subset-size", type=int, default=None, metavar="M0")
    p.add_argument("--methods", type=_method_list, default=ExperimentConfig.methods,
                   help="comma-separated aggregation methods")
    p.add_argument("--gpoe-beta", choices=("uniform", "entropy"),
                   default=ExperimentConfig.gpoe_mode)
    p.add_argument("--reps", type=int, default=ExperimentConfig.repetitions)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--max-evals", type=int, default=ExperimentConfig.max_evals)
    p.add_argument("--out", default=None, help="output directory")


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        partition_kind=args.partition,
        M=args.experts,
        m0=args.subset_size,
        methods=args.methods,
        gpoe_mode=args.gpoe_beta,
        max_evals=args.max_evals,
        seed=args.seed,
        repetitions=args.reps,
        out_dir=args.out,
        **_parse_dataset(args),
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpcommittee-bench",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment")
    _add_dataset(run_p)
    _add_common(run_p)
    sweep_p = sub.add_parser("sweep", help="consistency sweep over training sizes")
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
