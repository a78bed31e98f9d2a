"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numerical or degenerate
subtraction error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (
    ConfigError,
    from_dict,
    list_presets,
    merge_config,
    preset_config,
    validate_config,
)
from .dsp import DspError
from .fields import BandError
from .runner import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzbeat",
        description="Simulated squeezed-light beat-note detection with analytic noise budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a preset or config end to end")
    p_run.add_argument("--preset", help="preset name (see list-presets)")
    p_run.add_argument("--config", help="JSON config file; patches the preset when both are given")
    p_run.add_argument("--seed", type=int, help="master seed override")
    p_run.add_argument("--frames", type=int, help="frame-count override")
    p_run.add_argument("--out", help="output directory override")

    sub.add_parser("list-presets", help="name and describe the available presets")

    p_val = sub.add_parser("validate", help="validate a JSON config file")
    p_val.add_argument("--config", required=True)
    return parser


def _load_config(args) -> "Config":
    if not args.preset and not args.config:
        raise ConfigError("run", "need --preset and/or --config")
    cfg = preset_config(args.preset) if args.preset else None
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(args.config, f"cannot read: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(args.config, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(args.config, f"invalid JSON: {exc}") from None
        cfg = merge_config(cfg, data) if cfg is not None else from_dict(data)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name, desc in list_presets():
                print(f"{name:28s} {desc}")
            return EXIT_OK
        if args.command == "validate":
            cfg = _load_config(argparse.Namespace(preset=None, config=args.config))
            validate_config(cfg)
            print("ok")
            return EXIT_OK
        cfg = _load_config(args)
        summary = run(
            cfg,
            frames=args.frames,
            seed=args.seed,
            out_dir=args.out,
        )
        for line in summary.summary_lines():
            print(line)
        print(f"wall_time_s={summary.wall_time_s:.2f}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DspError, BandError, ArithmeticError) as exc:  # overflows and non-finite samples
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
