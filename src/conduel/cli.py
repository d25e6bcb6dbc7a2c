"""Command-line surface.

Subcommands: ``synth`` (generate a synthetic environment file), ``prep``
(build one from a tag-assignment dataset), ``run`` (regret experiment over
one or more algorithms), ``sweep`` (conversation-frequency or dimension
ablations), and ``plot`` (render aggregate CSVs into an SVG chart).

Configuration is a flat ``key = value`` text file; every key is also a flag
and flags win.  A command takes, as flag or as file line, only the keys it
reads: ``synth`` the seven synthetic-universe keys (``UNIVERSE_KEYS``),
``prep`` ``d`` and ``link``, and ``run`` and ``sweep`` every key, except
that a given ``env`` excludes the universe keys, a frequency sweep does not
read ``schedule`` and a dimension sweep reads neither ``d`` nor ``env``.
Any other key, known or unknown, is a configuration error, raised before
any input file is read; so is an out-of-range value.  ``sweep`` builds every
axis value's schedule or universe, and rejects a repeated value, before the
first cell plays.  Progress goes to stderr, the machine-readable
summary to stdout.  Exit codes: 0 success, 1 configuration error, 2 runtime
error.  ``CONDUEL_OUT`` sets the default output directory.
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
from .harness import ALL_KINDS, regret_kind_of, reject_repeats, run_experiment
from .hetrec import IngestConfig, build_environment, parse_hetrec
from .mnl import MnlConfig
from .report import read_aggregate_csv, render_chart, write_aggregate_csv, write_trace_csv
from .spanner import build_spanner

__all__ = ["RunConfig", "main"]

FREQUENCY_VALUES = (1, 5, 10, 20)
FREQUENCY_FAMILIES = ("linear", "log")
DIMENSION_VALUES = (20, 30, 40, 50)


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
    pair_mode: str = DuelConfig.pair_mode
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
    "sweep": tuple(_FIELDS),
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


def parse_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, value = body.partition("=")
        key = key.strip().replace("-", "_")
        if not eq or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value.strip())
    return out


def _unread_keys(args, env: str) -> tuple:
    """Who reads the settings, named for messages, and the keys of its
    command that it does not read."""
    if args.command == "sweep":
        if args.axis == "dimension":
            return "a dimension sweep of synthetic universes", ("d", "env")
        reader, unread = "a frequency sweep", ("schedule",)
    else:
        reader, unread = args.command, ()
    if env:
        return f"{reader} with env=", unread + UNIVERSE_KEYS
    return reader, unread


def load_config(args) -> RunConfig:
    given = parse_config_file(args.config) if args.config else {}
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
    reader, unread = _unread_keys(args, cfg.env)
    for key in given:
        if key in unread or key not in COMMAND_KEYS[args.command]:
            raise ConfigError(f"{reader} does not read {key!r}")
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


def _universe(cfg: RunConfig) -> SyntheticConfig:
    """The synthetic universe of the settings; building it checks them."""
    return SyntheticConfig(
        n_users=cfg.n_users,
        n_keyterms=cfg.n_keyterms,
        n_arms=cfg.n_arms,
        dim=cfg.d,
        max_arms_per_keyterm=cfg.max_arms_per_keyterm,
        link=cfg.link,
    )


def _load_envset(cfg: RunConfig):
    if cfg.env:
        return import_environment(cfg.env)
    return gen_synthetic(_universe(cfg), cfg.env_seed)


def _progress(tag, done, total):
    print(f"{tag}: {done}/{total} cells", file=sys.stderr, flush=True)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _write_summary(path, summary) -> None:
    write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


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


def _run_settings(cfg: RunConfig) -> tuple:
    """The seeds and the dueling and choice-model configs; building them
    checks every setting."""
    duel = DuelConfig(radius_scale=cfg.radius_scale, pair_mode=cfg.pair_mode)
    mnl = MnlConfig(q=cfg.q, t0=cfg.t0, radius_scale=cfg.mnl_radius_scale)
    return parse_seed_spec(cfg.seeds), duel, mnl


def _run_algorithms(cfg: RunConfig, envset, out_dir, schedule: Schedule, settings) -> dict:
    """Play every listed algorithm's cells on one pool, writing each
    algorithm's CSVs as soon as its last cell is in."""
    seeds, duel_cfg, mnl_cfg = settings
    spanner = build_spanner(envset.keyterm_feats)
    traces = run_experiment(
        envset,
        tuple(a.strip() for a in cfg.algorithms.split(",")),
        cfg.t,
        seeds,
        schedule,
        pool_size=cfg.pool_size,
        users=cfg.users,
        duel_config=duel_cfg,
        mnl_config=mnl_cfg,
        spanner=spanner,
        workers=cfg.workers,
        progress=_progress,
    )
    os.makedirs(out_dir, exist_ok=True)
    summary = {}
    for trace in traces:
        algo = trace.algorithm
        trace_path = os.path.join(out_dir, f"{algo}.csv")
        agg_path = os.path.join(out_dir, f"{algo}_agg.csv")
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
    return summary


def cmd_run(args) -> int:
    cfg = load_config(args)
    schedule = Schedule.parse(cfg.schedule)
    settings = _run_settings(cfg)
    envset = _load_envset(cfg)
    summary = _run_algorithms(cfg, envset, cfg.out, schedule, settings)
    _write_summary(os.path.join(cfg.out, "summary.json"), summary)
    _emit(summary)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    default = FREQUENCY_VALUES if args.axis == "frequency" else DIMENSION_VALUES
    try:
        values = [int(v) for v in args.values.split(",")] if args.values else default
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}") from exc
    reject_repeats("sweep value", values)
    settings = _run_settings(cfg)
    # every cell's schedule or universe is built, and so checked, before
    # the first cell plays
    summary = {}
    if args.axis == "frequency":
        schedules = {
            f"freq_{fam}_{n}": Schedule(fam, float(n)) for fam in FREQUENCY_FAMILIES for n in values
        }
        envset = _load_envset(cfg)
        for cell, schedule in schedules.items():
            out_dir = os.path.join(cfg.out, cell)
            summary[cell] = _run_algorithms(cfg, envset, out_dir, schedule, settings)
    else:  # dimension: argparse admits only the two axes
        schedule = Schedule.parse(cfg.schedule)
        universes = {f"dim_{d}": _universe(dataclasses.replace(cfg, d=d)) for d in values}
        for cell, universe in universes.items():
            envset = gen_synthetic(universe, cfg.env_seed)
            out_dir = os.path.join(cfg.out, cell)
            summary[cell] = _run_algorithms(cfg, envset, out_dir, schedule, settings)
    _write_summary(os.path.join(cfg.out, f"sweep_{args.axis}_summary.json"), summary)
    _emit(summary)
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
    base = label.split("/")[-1]
    for kind in ALL_KINDS:
        if base == kind or base.startswith(kind):
            return regret_kind_of(kind)
    return "dueling"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are config errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conduel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, command):
        p.add_argument("--config", "-c", help="flat key = value config file")
        for name in COMMAND_KEYS[command]:
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)

    # no abbreviated flags: `--out` or `--env` would be taken for `--out-file`
    # or `--env-seed`, keys these commands do not read
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

    p_run = sub.add_parser("run", help="run a regret experiment")
    add_config_flags(p_run, "run")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="frequency or dimension ablation")
    add_config_flags(p_sweep, "sweep")
    p_sweep.add_argument("--axis", required=True, choices=("frequency", "dimension"))
    p_sweep.add_argument("--values", help="override the default axis values (csv)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="render aggregate CSVs as an SVG chart")
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
