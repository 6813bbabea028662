"""Benchmark CLI: sweep-qd, sweep-callback, scaling-trace, verify.

Exit codes: 0 success / all checks pass, 1 verify check failures,
2 configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import bench, config as config_mod
from .config import ConfigInvalid, ExperimentConfig
from .verify import cmd_verify

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_CONFIG_ERROR = 2


def _int_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringbench",
        description="Async-I/O architecture benchmarks over a deterministic "
                    "simulated device (optionally a native ring backend).")
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print the full default config as JSON and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--backend", choices=("sim", "native"),
                       help="override config backend")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("sweep-qd", help="IOPS vs queue depth sweep")
    common(p)
    p.add_argument("--qd-list", type=_int_list,
                   default=[1, 2, 4, 8, 16, 32, 64, 128],
                   help="comma-separated queue depths")

    p = sub.add_parser("sweep-callback",
                       help="IOPS vs post-I/O callback cost, both exec modes")
    common(p)
    p.add_argument("--cost-list", type=_int_list,
                   default=[0, 1_000, 10_000, 100_000],
                   help="comma-separated callback costs in ns")

    p = sub.add_parser("scaling-trace",
                       help="dynamic vs static pool on a load profile")
    common(p)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    return parser


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = config_mod.load(args.config)
    else:
        cfg = config_mod.defaults()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "backend", None):
        cfg = replace(cfg, backend=args.backend)
    config_mod.validate(cfg)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        sys.stdout.write(config_mod.serialize(config_mod.defaults()))
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_CONFIG_ERROR

    if args.command == "verify":
        cfg = None
        try:
            cfg = _load_config(args)
        except (ConfigInvalid, OSError, ValueError) as exc:
            # an invalid config is a failing check for verify, not an abort
            print(f"CHECK config_valid FAIL {exc}")
            print("VERIFY FAIL checks=1 failures=1")
            return EXIT_CHECK_FAIL
        failures = cmd_verify(cfg)
        return EXIT_OK if failures == 0 else EXIT_CHECK_FAIL

    try:
        cfg = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "sweep-qd":
            paths = [bench.cmd_sweep_qd(cfg, args.qd_list, args.out)]
        elif args.command == "sweep-callback":
            paths = [bench.cmd_sweep_callback(cfg, args.cost_list, args.out)]
        else:  # scaling-trace: argparse restricts the choices
            paths = bench.cmd_scaling_trace(cfg, args.out)[:2]
        print(*paths, sep="\n")
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
