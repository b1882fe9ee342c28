"""Console entry point.

Usage: bergmanlab COMMAND [--config PATH] [--out DIR] [--resolution H]
       [--domain NAME] [--symbol EXPR]

COMMAND is one of harness.COMMANDS.  Exit codes: 0 success, 2 config
error, 3 symbol parse error, 4 unsupported domain/command pair,
5 computation failure.  A symbol that starts with "-" is passed
as --symbol=EXPR.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (COMMANDS, ConfigError, EXIT_CONFIG, ExperimentConfig,
                      run)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors, reported on
    one line by main rather than with a usage block."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    p = _Parser(
        prog="bergmanlab",
        description="Bergman kernel, metric, and operator experiments "
                    "on model domains.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="JSON config file (flat key-value)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--resolution", type=float,
                   help="grid spacing override")
    p.add_argument("--domain", help="domain name override")
    p.add_argument("--symbol", help="symbol expression override")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = (ExperimentConfig.from_json(args.config)
                  if args.config else ExperimentConfig())
        overrides = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.resolution is not None:
            overrides["resolution"] = args.resolution
        if args.domain is not None:
            overrides["domain"] = args.domain
            overrides.setdefault("resolution", 0.0)
        if args.symbol is not None:
            overrides["symbol"] = args.symbol
        # rebuilding runs __post_init__, which validates the overrides
        config = dataclasses.replace(config, **overrides)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config, args.command)


if __name__ == "__main__":
    sys.exit(main())
