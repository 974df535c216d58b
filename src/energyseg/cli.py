"""Command-line entry point.

One subcommand per pipeline stage plus ``report`` for the full run. Flags
override config-file fields. The CLI builds the config, resolves the output
directory and hands both to :func:`energyseg.pipeline.run_command`, which
echoes the effective configuration into that directory, so any run can be
reproduced from its artifacts alone. Exit codes: 0 success, 2 config,
3 schema, 4 data size, 5 numeric, 1 other.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import pipeline
from .config import OUTPUT_ROOT_ENV, PipelineConfig, load_config
from .errors import AnalysisError, InvalidConfig

_DATASET_COMMANDS = (
    ("ingest", "validate and normalize a dataset CSV"),
    ("segment", "supervised classes, clustering, cluster labelling, proportions"),
    ("glasso", "estimate the sparse feature-dependency graph"),
    ("causality", "Granger-causality grid per efficiency class"),
    ("report", "run every stage end to end and write report.json"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energyseg",
        description=(
            "Occupant energy-usage segmentation: dependency graphs, "
            "behavior clustering and causality tests."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config", metavar="PATH", help="JSON config file; flags override its fields"
        )
        p.add_argument("--seed", type=int, help="run seed (overrides config)")
        p.add_argument(
            "--out",
            metavar="DIR",
            help=f"output directory (overrides config and ${OUTPUT_ROOT_ENV})",
        )

    p_synth = sub.add_parser("synth", help="generate a synthetic per-minute dataset")
    common(p_synth)
    p_synth.add_argument("--days", type=int, help="number of days to simulate")
    p_synth.add_argument(
        "--players-per-class",
        metavar="LOW,MED,HIGH",
        help="player counts per latent efficiency class, e.g. 2,2,2",
    )

    for name, text in _DATASET_COMMANDS:
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--input", metavar="PATH", help="dataset CSV (overrides config)")

    return parser


def effective_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge the config file (if any) with command-line overrides."""
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)  # replace() re-runs validation
    if getattr(args, "input", None):
        config.input = args.input
    if args.out:
        config.output_dir = args.out
    if args.command == "synth":
        days = args.days if args.days is not None else config.synth.n_days
        per_class = config.synth.players_per_class
        if args.players_per_class:
            try:
                per_class = tuple(int(part) for part in args.players_per_class.split(","))
            except ValueError as exc:
                raise InvalidConfig(
                    f"--players-per-class expects comma-separated integers, "
                    f"got {args.players_per_class!r}"
                ) from exc
        # replace() re-runs validation on the overridden section
        config.synth = replace(config.synth, n_days=days, players_per_class=per_class)
    return config


def _summarize(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, default=str)
    return str(value)


def _print_stage(stage: pipeline.StageResult) -> None:
    parts = " ".join(f"{key}={_summarize(val)}" for key, val in stage.summary.items())
    print(f"[{stage.name}] {stage.seconds:.2f}s {parts}")
    for warning in stage.warnings:
        print(f"[{stage.name}] warning: {warning}", file=sys.stderr)


def run(args: argparse.Namespace) -> int:
    config = effective_config(args)
    out_dir = pipeline.resolve_output_dir(config, args.command)
    for stage in pipeline.run_command(args.command, config, out_dir):
        _print_stage(stage)
    print(f"output: {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except AnalysisError as exc:
        print(f"energyseg: [{args.command}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"energyseg: [{args.command}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
