"""Multi-seed experiment runner and regret traces.

One cell is (algorithm, user, seed): a fresh policy plays T rounds against
that user's feedback, with a fresh uniform pool each round.  Cells are
embarrassingly parallel; aggregation is a deterministic reduction over each
algorithm's (user, seed) grid, so results do not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from .dueling import DUEL_KINDS, DuelConfig, DuelPolicy, RCONUCB_KINDS, RconucbPolicy
from .env import EnvironmentSet, Schedule, dueling_regret, mnl_regret
from .errors import ConfigError, NumericalError
from .mnl import MNL_KINDS, MnlConfig, MnlPolicy
from .spanner import Spanner, build_spanner

__all__ = ["ALL_KINDS", "RegretTrace", "regret_kind_of", "run_experiment", "config_fingerprint"]

ALL_KINDS = DUEL_KINDS + MNL_KINDS


def regret_kind_of(algorithm: str) -> str:
    """Which regret definition an algorithm's trace records."""
    if algorithm in MNL_KINDS:
        return "revenue"
    if algorithm in RCONUCB_KINDS:
        return "absolute"
    return "dueling"


@dataclass
class RegretTrace:
    """Per-round regret across (user, seed) cells plus their aggregate."""

    algorithm: str
    regret_kind: str
    cells: list  # (user, seed) in run order
    inst: np.ndarray  # n_cells x T instantaneous regret
    fingerprint: str = ""

    @property
    def horizon(self) -> int:
        return self.inst.shape[1]

    @property
    def cum(self) -> np.ndarray:
        return np.cumsum(self.inst, axis=1)

    @property
    def mean_cum(self) -> np.ndarray:
        return self.cum.mean(axis=0)

    @property
    def stderr_cum(self) -> np.ndarray:
        cum = self.cum
        if cum.shape[0] < 2:
            return np.zeros(cum.shape[1])
        return cum.std(axis=0, ddof=1) / np.sqrt(cum.shape[0])

    def final_mean(self) -> float:
        return float(self.mean_cum[-1])

    def final_stderr(self) -> float:
        return float(self.stderr_cum[-1])


def _policy_fields(algorithm: str, duel_config: DuelConfig, mnl_config: MnlConfig) -> dict:
    """The config the algorithm's policy takes, for its fingerprint."""
    if algorithm in MNL_KINDS:
        return {"mnl_config": vars(mnl_config)}
    if algorithm in RCONUCB_KINDS:
        return {}
    return {"duel_config": vars(duel_config)}


def config_fingerprint(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _play_cell(
    envset: EnvironmentSet,
    spanner: Spanner,
    horizon: int,
    schedule: Schedule,
    pool_size: int,
    duel_config: DuelConfig,
    mnl_config: MnlConfig,
    algorithm: str,
    user: int,
    seed: int,
) -> np.ndarray:
    oracle = envset.user(user)
    stream = streams.RunStream(seed)
    if algorithm in MNL_KINDS:
        policy = MnlPolicy(algorithm, envset.keyterm_feats, spanner, stream, mnl_config)
    elif algorithm in RCONUCB_KINDS:
        policy = RconucbPolicy(algorithm, envset.keyterm_feats, stream)
    else:
        policy = DuelPolicy(
            algorithm, envset.link, envset.keyterm_feats, spanner, stream, duel_config
        )
    n_arms = envset.n_arms
    size = min(pool_size, n_arms)
    inst = np.empty(horizon)
    for t in range(1, horizon + 1):
        pool = np.sort(stream.at(t, streams.POOL).choice(n_arms, size=size, replace=False))
        pool_feats = envset.arms[pool]
        try:
            rec = policy.play_round(
                pool, pool_feats, oracle, t, schedule.conversations(t), schedule.b(t)
            )
            if rec.assortment is None:
                r = dueling_regret(oracle, pool_feats, rec.pair[0], rec.pair[1])
            else:
                r = mnl_regret(oracle, pool_feats, rec.assortment, mnl_config.q)
        except Exception as exc:
            raise NumericalError(
                f"run failed at algorithm={algorithm} user={user} seed={seed} round={t}: {exc}"
            ) from exc
        if r < -1e-12:
            raise NumericalError(
                f"negative regret {r!r} at algorithm={algorithm} user={user} "
                f"seed={seed} round={t}"
            )
        inst[t - 1] = max(r, 0.0)
    return inst


# _play_cell's arguments before (algorithm, user, seed), set once in each pool worker
_CELL_ARGS: tuple = ()


def _worker_init(cell_args: tuple) -> None:
    global _CELL_ARGS
    _CELL_ARGS = cell_args


def _worker_run(cell) -> np.ndarray:
    return _play_cell(*_CELL_ARGS, *cell)


def _cell_rows(cell_args: tuple, cells: list, workers: int):
    """Each cell's regret row, in cell order, on ``workers`` processes."""
    if workers == 1:
        for cell in cells:
            yield _play_cell(*cell_args, *cell)
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(cell_args,)
    ) as pool:
        yield from pool.map(_worker_run, cells, chunksize=1)


def reject_repeats(what: str, values) -> None:
    """Raise a ``ConfigError`` naming the first value listed twice: its
    cells would be played twice."""
    repeats = [v for i, v in enumerate(values) if v in values[:i]]
    if repeats:
        raise ConfigError(f"{what} {repeats[0]!r} is listed more than once")


def run_experiment(
    envset: EnvironmentSet,
    algorithm,
    horizon: int,
    seeds,
    schedule: Schedule,
    pool_size: int = 50,
    users=None,
    duel_config: DuelConfig | None = None,
    mnl_config: MnlConfig | None = None,
    spanner: Spanner | None = None,
    workers: int = 1,
    progress=None,
):
    """Run algorithms over the (user, seed) grid and aggregate regret.

    ``algorithm`` is one name, which returns its ``RegretTrace``, or a tuple
    of names, which returns an iterator over their traces in that order.  All
    cells of a call play on one pool of ``workers`` processes, algorithm by
    algorithm, and a trace is yielded as soon as its algorithm's last cell is
    in.  Every argument is checked before any cell plays; an algorithm, seed
    or user listed twice is an error.

    ``users`` may be a count (the first k users) or an explicit index list.
    ``workers`` 0 takes one process per processor.  The spanner is built
    once per environment set and shared read-only.
    """
    algorithms = (algorithm,) if isinstance(algorithm, str) else tuple(algorithm)
    if not algorithms:
        raise ConfigError("need at least one algorithm")
    for name in algorithms:
        if name not in ALL_KINDS:
            raise ConfigError(f"unknown algorithm {name!r}; known: {', '.join(ALL_KINDS)}")
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    if pool_size < 2:
        raise ConfigError("pool size must be at least 2")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {min(seeds)}")
    if workers < 0:
        raise ConfigError(f"workers must be nonnegative, got {workers}")
    if users is None:
        users = [0]
    elif isinstance(users, int):
        if not 1 <= users <= envset.n_users:
            raise ConfigError(f"user count must be in [1, {envset.n_users}]")
        users = list(range(users))
    else:
        users = [int(u) for u in users]
        if not users:
            raise ConfigError("need at least one user")
        bad = [u for u in users if not 0 <= u < envset.n_users]
        if bad:
            raise ConfigError(f"user index {bad[0]} out of range [0, {envset.n_users})")
    for what, values in (("algorithm", algorithms), ("seed", seeds), ("user", users)):
        reject_repeats(what, values)
    duel_config = duel_config or DuelConfig()
    mnl_config = mnl_config or MnlConfig()
    if spanner is None:
        spanner = build_spanner(envset.keyterm_feats)
    if workers == 0:
        workers = os.cpu_count() or 1

    run_fields = {
        "horizon": horizon,
        "seeds": seeds,
        "users": users,
        "schedule": schedule.label(),
        "pool_size": pool_size,
        "env": envset.provenance,
    }
    grid = [(u, s) for u in users for s in seeds]
    cells = [(name, u, s) for name in algorithms for u, s in grid]
    cell_args = (envset, spanner, horizon, schedule, pool_size, duel_config, mnl_config)

    def traces():
        rows = []
        for i, row in enumerate(_cell_rows(cell_args, cells, min(workers, len(cells)))):
            name = cells[i][0]
            rows.append(row)
            if progress:
                progress(name, len(rows), len(grid))
            if len(rows) == len(grid):
                payload = {"algorithm": name, **run_fields}
                payload.update(_policy_fields(name, duel_config, mnl_config))
                yield RegretTrace(
                    algorithm=name,
                    regret_kind=regret_kind_of(name),
                    cells=list(grid),
                    inst=np.vstack(rows),
                    fingerprint=config_fingerprint(payload),
                )
                rows = []

    if isinstance(algorithm, str):
        (trace,) = traces()
        return trace
    return traces()
