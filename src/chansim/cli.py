"""Command-line front end.

Subcommands:
  run           execute an experiment config and write CSV + manifest
  preset        print or save a named preset configuration
  list-presets  show all preset names

Exit codes: 0 success, 2 configuration error, 3 numeric/model error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import config_to_text, parse_config
from .errors import ChansimError, ConfigError, IoError
from .presets import preset, preset_names
from .runner import emit_csv, format_csv, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansim",
        description="Stochastic channel-model simulations for massive and XL-MIMO.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True, help="path to a config document")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the trial count")
    run_p.add_argument("--out", default=None,
                       help="CSV output path (default: stdout, no manifest)")

    pre_p = sub.add_parser("preset", help="emit a preset configuration")
    pre_p.add_argument("name", help="preset name (see list-presets)")
    pre_p.add_argument("--out", default=None,
                       help="write the config here instead of stdout")

    sub.add_parser("list-presets", help="list available preset names")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"chansim: cannot read config: {e}", file=sys.stderr)
        return EXIT_IO
    cfg = parse_config(text)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    result = run_experiment(cfg)
    if args.out is None:
        sys.stdout.write(format_csv(result))
    else:
        emit_csv(result, args.out)
    return EXIT_OK


def _cmd_preset(args) -> int:
    text = config_to_text(preset(args.name))
    if args.out is None:
        print(text, end="")
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(f"cannot write preset: {e}") from e
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "list-presets":
            print("\n".join(preset_names()))
            return EXIT_OK
        return EXIT_CONFIG
    except ConfigError as e:
        print(f"chansim: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IoError as e:
        print(f"chansim: i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except ChansimError as e:
        print(f"chansim: model error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
