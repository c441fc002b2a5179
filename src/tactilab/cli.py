"""Command-line front end: run experiments, build test sets, emit reports,
validate configs, and generate prior-group config variants."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .assets import (
    build_test_set,
    check_catalog_objects,
    fit_projectors_from_pool,
    held_out_jobs,
    projector_pool_jobs,
    set_up_features,
    test_samples_for,
)
from .config import Mode, config_hash, load_config, parse_config
from .errors import ConfigError, SchemaError, TactilabError
from .harness import run_experiment
from .results import RunResult, write_report
from .signals import load_catalog

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRIAL_FAILURES = 3


def _apply_overrides(args):
    config = load_config(args.config)
    raw = config.to_dict()
    if args.mode:
        raw["mode"] = args.mode
    if args.seed_offset:
        raw["seeds"] = [s + args.seed_offset for s in raw["seeds"]]
    return parse_config(raw, base_dir=config.base_dir)


def _int_at_least(low: int, text: str) -> int:
    """An argparse type, bound to ``low`` with ``partial``; argparse names
    the flag."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _check_out(out: str) -> None:
    """Fail before any work when ``--out`` cannot be a directory: it, or
    the nearest of its parents that exists, is not one."""
    for path in (Path(out), *Path(out).parents):
        if os.path.lexists(path):
            if not path.is_dir():
                raise SchemaError(f"--out {out}: {path} is not a directory")
            return


def _cmd_run(args) -> int:
    config = _apply_overrides(args)
    result = run_experiment(config, jobs=args.jobs)
    paths = write_report(result, args.out)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    if result.failures:
        print(f"{len(result.failures)} trial(s) failed", file=sys.stderr)
        return EXIT_TRIAL_FAILURES
    return EXIT_OK


def _cmd_testset(args) -> int:
    config = load_config(args.config)
    catalog = load_catalog(config.catalog_path())
    check_catalog_objects(config, catalog)
    projectors = fit_projectors_from_pool(set_up_features(catalog, projector_pool_jobs(config)))
    test = build_test_set(projectors, set_up_features(catalog, held_out_jobs(config)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    per_action = {
        action: {
            "samples_per_object": test_samples_for(config, action),
            "total": sum(len(block) for block in test.groups[action].values()),
        }
        for action in config.actions
    }
    summary = {
        "config_hash": config_hash(config),
        "objects": len(config.prior_objects) + len(config.new_objects),
        "actions": list(config.actions),
        "per_action": per_action,
        "total_samples": test.size(),
    }
    path = out / "testset_summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({test.size()} samples)")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.result)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot parse result {path}: {exc}") from exc
    result = RunResult.from_dict(raw)
    paths = write_report(result, args.out)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    catalog = load_catalog(config.catalog_path())
    check_catalog_objects(config, catalog)
    print(f"config ok: hash {config_hash(config)}, {len(catalog)} catalog objects")
    return EXIT_OK


def _cmd_gen_groups(args) -> int:
    config = load_config(args.config)
    pool = list(config.prior_objects)
    if len(pool) < args.size:
        raise ConfigError(
            f"prior pool has {len(pool)} objects, cannot draw groups of {args.size}"
        )
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # A relative catalog resolves against the group config's directory.
    catalog = config.catalog
    if not Path(catalog).is_absolute():
        catalog = os.path.relpath(config.catalog_path(), out)
    written = []
    for g in range(args.groups):
        group = sorted(int(i) for i in rng.choice(pool, size=args.size, replace=False))
        raw = config.to_dict()
        raw["prior_objects"] = group
        raw["catalog"] = catalog
        path = out / f"group_{g:02d}.json"
        path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        written.append(str(path))
    print(f"wrote {len(written)} group config(s) to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tactilab",
        description="Active tactile transfer-learning experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    run.add_argument("--seed-offset", type=int, default=0, dest="seed_offset")
    run.add_argument(
        "--jobs", type=partial(_int_at_least, 1), default=1,
        help="worker processes for the set-up tasks and the trial seeds (>= 1)",
    )
    run.set_defaults(func=_cmd_run)

    testset = sub.add_parser("testset", help="build the held-out test set")
    testset.add_argument("config")
    testset.add_argument("--out", default="out")
    testset.set_defaults(func=_cmd_testset)

    report = sub.add_parser("report", help="re-emit report files from result.json")
    report.add_argument("result")
    report.add_argument("--out", default="out")
    report.set_defaults(func=_cmd_report)

    validate = sub.add_parser("validate", help="check a config file")
    validate.add_argument("config")
    validate.set_defaults(func=_cmd_validate)

    gen = sub.add_parser("gen-groups", help="emit prior-group config variants")
    gen.add_argument("config")
    gen.add_argument("--groups", type=partial(_int_at_least, 1), default=10)
    gen.add_argument("--size", type=partial(_int_at_least, 1), default=3)
    gen.add_argument("--seed", type=partial(_int_at_least, 0), default=0)
    gen.add_argument("--out", default="groups")
    gen.set_defaults(func=_cmd_gen_groups)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.func(args)
    except (ConfigError, SchemaError) as exc:
        kind = "config" if isinstance(exc, ConfigError) else "input"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TactilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRIAL_FAILURES
    except MemoryError as exc:  # an array this machine cannot allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_TRIAL_FAILURES


if __name__ == "__main__":
    sys.exit(main())
