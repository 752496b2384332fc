"""Command-line entry point.

    speclp <scenario> --config FILE [--out DIR]
    speclp reproduce [--out DIR]

Scenario names are case-insensitive; hyphens and underscores are
interchangeable.  ``reproduce`` runs the full verification suite and prints
one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SpecLPError
from .harness import SCENARIOS, ScenarioConfig, parse_config, run_scenario


def _normalize(name: str) -> str:
    return name.strip().upper().replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="speclp",
        description="Spectral operator verification scenarios",
        epilog="Scenarios: " + ", ".join(s.lower().replace("_", "-") for s in SCENARIOS),
    )
    ap.add_argument("scenario", help="scenario name or 'reproduce'")
    ap.add_argument("--config", help="flat key = value config file")
    ap.add_argument("--out", help="override the output directory")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenario = _normalize(args.scenario)
    try:
        if scenario == "REPRODUCE":
            cfg = ScenarioConfig(scenario="REPRODUCE")
        else:
            if args.config is None:
                print("error: --config is required for this scenario", file=sys.stderr)
                return 2
            cfg = parse_config(args.config)
            cfg.scenario = scenario
        if args.out is not None:
            cfg.output_dir = args.out
        return run_scenario(cfg)
    except SpecLPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
