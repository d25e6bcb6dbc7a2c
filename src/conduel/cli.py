"""Command-line surface.

Subcommands: ``synth`` (generate a synthetic environment file), ``prep``
(build one from a tag-assignment dataset), ``run`` (regret experiment over
one or more algorithms), and ``plot`` (render aggregate CSVs into an SVG
chart).

Every setting is a flag, and a command registers as flags only the keys it
reads: ``synth`` the seven synthetic-universe keys (``UNIVERSE_KEYS``),
``prep`` ``d`` and ``link``, and ``run`` every key, except that a given
``env`` excludes the universe keys.  Any other flag is a configuration
error, raised before any input file is read; so is an out-of-range value.
Progress goes to stderr, the machine-readable summary to stdout.  Exit
codes: 0 success, 1 configuration error, 2 runtime error.  ``CONDUEL_OUT``
sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from .dueling import DuelConfig
from .env import Schedule, SyntheticConfig, gen_synthetic
from .envfile import export_environment, import_environment, write_text
from .errors import ConduelError, ConfigError
from .harness import ALL_KINDS, needs_spanner, regret_kind_of, run_experiment
from .hetrec import IngestConfig, build_environment, parse_hetrec
from .mnl import MnlConfig
from .report import read_aggregate_csv, render_chart, write_aggregate_csv, write_trace_csv
from .spanner import build_spanner

__all__ = ["RunConfig", "main"]


@dataclass
class RunConfig:
    # environment source: a file, or the synthetic spec below
    env: str = ""
    link: str = SyntheticConfig.link
    n_users: int = SyntheticConfig.n_users
    n_keyterms: int = SyntheticConfig.n_keyterms
    n_arms: int = SyntheticConfig.n_arms
    d: int = SyntheticConfig.dim
    max_arms_per_keyterm: int = SyntheticConfig.max_arms_per_keyterm
    env_seed: int = 0
    # experiment
    algorithms: str = "conduel"
    t: int = 1000
    seeds: str = "0:10"
    users: int = 1
    schedule: str = "linear:10"
    pool_size: int = 50
    workers: int = 0  # 0: one per processor
    out: str = ""
    # dueling policies
    radius_scale: float = DuelConfig.radius_scale
    # choice model
    q: int = MnlConfig.q
    t0: int = MnlConfig.t0
    mnl_radius_scale: float = MnlConfig.radius_scale


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# the keys of a synthetic universe; an environment file fixes all of them
UNIVERSE_KEYS = (
    "link", "n_users", "n_keyterms", "n_arms", "d", "max_arms_per_keyterm", "env_seed",
)

# the keys each command can read, registered as its flags
COMMAND_KEYS = {
    "synth": UNIVERSE_KEYS,
    "prep": ("d", "link"),
    "run": tuple(_FIELDS),
}


def _coerce(key: str, value: str):
    field = _FIELDS[key]
    try:
        if field.type in ("int",):
            return int(value)
        if field.type in ("float",):
            number = float(value)
            if not math.isfinite(number):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            return number
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def load_config(args) -> RunConfig:
    given = {}
    for key in COMMAND_KEYS[args.command]:
        flag = getattr(args, key)
        if flag is not None:
            given[key] = _coerce(key, flag)
    cfg = RunConfig(**given)
    if not cfg.out:
        cfg.out = os.environ.get("CONDUEL_OUT", ".")
    # a bad value is reported as such, also where its key goes unread
    if cfg.env_seed < 0:
        raise ConfigError(f"env_seed must be nonnegative, got {cfg.env_seed}")
    # only run reads env, and the environment file fixes the universe
    for key in given:
        if cfg.env and key in UNIVERSE_KEYS:
            raise ConfigError(f"run with env= does not read {key!r}")
    return cfg


def parse_seed_spec(spec: str) -> list:
    spec = str(spec).strip()
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad seed range {spec!r}") from exc
        if hi_i <= lo_i:
            raise ConfigError(f"empty seed range {spec!r}")
        seeds = list(range(lo_i, hi_i))
    else:
        try:
            seeds = [int(s) for s in spec.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad seed list {spec!r}") from exc
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be nonnegative, got {spec!r}")
    return seeds


def _load_envset(cfg: RunConfig):
    if cfg.env:
        return import_environment(cfg.env)
    universe = SyntheticConfig(
        n_users=cfg.n_users,
        n_keyterms=cfg.n_keyterms,
        n_arms=cfg.n_arms,
        dim=cfg.d,
        max_arms_per_keyterm=cfg.max_arms_per_keyterm,
        link=cfg.link,
    )
    return gen_synthetic(universe, cfg.env_seed)


def _progress(tag, done, total):
    print(f"{tag}: {done}/{total} cells", file=sys.stderr, flush=True)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _export(envset, out_file, details: dict) -> int:
    """Write the environment file and print its summary with ``details``."""
    os.makedirs(os.path.dirname(os.path.abspath(out_file)), exist_ok=True)
    digest = export_environment(envset, out_file)
    _emit(
        {
            "environment": out_file,
            "checksum": digest,
            "n_arms": envset.n_arms,
            "n_keyterms": envset.n_keyterms,
            "n_users": envset.n_users,
            "d": envset.dim,
            **details,
        }
    )
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args)
    return _export(_load_envset(cfg), args.out_file, {})


def cmd_prep(args) -> int:
    cfg = load_config(args)
    ingest = IngestConfig(
        n_items=args.items,
        n_users=args.top_users,
        tags_per_item=args.tags_per_item,
        dim=cfg.d,
        link=cfg.link,
    )
    raw = parse_hetrec(args.tags)
    envset = build_environment(raw, ingest)
    return _export(envset, args.out_file, {"n_raw_records": raw.n_raw})


def cmd_run(args) -> int:
    """Play every listed algorithm's cells on one pool, writing each
    algorithm's CSVs as soon as its last cell is in."""
    cfg = load_config(args)
    # every setting is checked before the environment is read
    schedule = Schedule.parse(cfg.schedule)
    duel_cfg = DuelConfig(radius_scale=cfg.radius_scale)
    mnl_cfg = MnlConfig(q=cfg.q, t0=cfg.t0, radius_scale=cfg.mnl_radius_scale)
    seeds = parse_seed_spec(cfg.seeds)
    algorithms = tuple(a.strip() for a in cfg.algorithms.split(","))
    envset = _load_envset(cfg)
    traces = run_experiment(
        envset,
        algorithms,
        cfg.t,
        seeds,
        schedule,
        pool_size=cfg.pool_size,
        users=cfg.users,
        duel_config=duel_cfg,
        mnl_config=mnl_cfg,
        spanner=build_spanner(envset.keyterm_feats) if needs_spanner(algorithms) else None,
        workers=cfg.workers,
        progress=_progress,
    )
    os.makedirs(cfg.out, exist_ok=True)
    summary = {}
    for trace in traces:
        algo = trace.algorithm
        trace_path = os.path.join(cfg.out, f"{algo}.csv")
        agg_path = os.path.join(cfg.out, f"{algo}_agg.csv")
        write_trace_csv(trace_path, trace)
        write_aggregate_csv(agg_path, trace)
        summary[algo] = {
            "final_mean_cum_regret": trace.final_mean(),
            "final_stderr": trace.final_stderr(),
            "regret_kind": trace.regret_kind,
            "trace_csv": trace_path,
            "aggregate_csv": agg_path,
            "fingerprint": trace.fingerprint,
        }
    summary_text = json.dumps(summary, indent=2, sort_keys=True)
    write_text(os.path.join(cfg.out, "summary.json"), summary_text + "\n")
    print(summary_text)
    return 0


def cmd_plot(args) -> int:
    curves = []
    absolute = []
    for path in args.csvs:
        t, mean, err = read_aggregate_csv(path)
        label = os.path.basename(path)
        for suffix in ("_agg.csv", ".csv"):
            if label.endswith(suffix):
                label = label[: -len(suffix)]
                break
        curves.append((label, t, mean, err))
        if regret_kind_of_label(label) == "absolute":
            absolute.append(label)
    render_chart(curves, args.out_file, absolute_labels=absolute)
    _emit({"chart": args.out_file, "curves": [c[0] for c in curves]})
    return 0


def regret_kind_of_label(label: str) -> str:
    for kind in ALL_KINDS:
        if label.startswith(kind):
            return regret_kind_of(kind)
    return "dueling"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are config errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conduel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, command):
        for name in COMMAND_KEYS[command]:
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)

    # no abbreviated flags: a prefix of a flag is not that flag (`--out` or
    # `--env` would be taken for `--out-file` or `--env-seed`, and `--seed`
    # for `--seeds`)
    p_synth = sub.add_parser(
        "synth", help="generate a synthetic environment file", allow_abbrev=False
    )
    add_config_flags(p_synth, "synth")
    p_synth.add_argument("--out-file", required=True, help="environment file to write")
    p_synth.set_defaults(func=cmd_synth)

    p_prep = sub.add_parser(
        "prep", help="build an environment from tag assignments", allow_abbrev=False
    )
    add_config_flags(p_prep, "prep")
    p_prep.add_argument("--tags", required=True, help="user/item/tag assignment file")
    p_prep.add_argument("--out-file", required=True)
    p_prep.add_argument("--items", type=int, default=IngestConfig.n_items, help="items to keep")
    p_prep.add_argument(
        "--top-users", type=int, default=IngestConfig.n_users, help="users to keep"
    )
    p_prep.add_argument("--tags-per-item", type=int, default=IngestConfig.tags_per_item)
    p_prep.set_defaults(func=cmd_prep)

    p_run = sub.add_parser("run", help="run a regret experiment", allow_abbrev=False)
    add_config_flags(p_run, "run")
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser(
        "plot", help="render aggregate CSVs as an SVG chart", allow_abbrev=False
    )
    p_plot.add_argument("csvs", nargs="+", help="aggregate regret CSV paths")
    p_plot.add_argument("--out-file", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ConduelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
