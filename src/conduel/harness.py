"""Multi-seed experiment runner and regret traces.

One cell is (user, seed): a fresh policy plays T rounds against that user's
feedback, with a fresh uniform pool each round.  Cells are embarrassingly
parallel; aggregation is a deterministic reduction over the (user, seed)
grid, so results do not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from .dueling import DUEL_KINDS, DuelConfig, RCONUCB_KINDS, make_duel_policy
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


def config_fingerprint(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _play_cell(
    envset: EnvironmentSet,
    spanner: Spanner,
    algorithm: str,
    user: int,
    seed: int,
    horizon: int,
    schedule: Schedule,
    pool_size: int,
    duel_config: DuelConfig,
    mnl_config: MnlConfig,
) -> np.ndarray:
    oracle = envset.user(user)
    theta_star = oracle.theta_star
    stream = streams.RunStream(seed)
    is_mnl = algorithm in MNL_KINDS
    if is_mnl:
        policy = MnlPolicy(algorithm, envset.keyterm_feats, spanner, stream, mnl_config)
    else:
        policy = make_duel_policy(
            algorithm, envset.link, envset.keyterm_feats, spanner, stream, duel_config
        )
    n_arms = envset.n_arms
    size = min(pool_size, n_arms)
    inst = np.empty(horizon)
    for t in range(1, horizon + 1):
        pool = np.sort(stream.at(t, streams.POOL).choice(n_arms, size=size, replace=False))
        pool_feats = envset.arms[pool]
        q_t = schedule.conversations(t)
        b_t = schedule.b(t)
        try:
            if is_mnl:
                revenues = pool_feats @ theta_star
                rec = policy.play_round(pool, pool_feats, oracle, t, q_t, b_t, revenues)
                r = mnl_regret(theta_star, pool_feats, rec.assortment, mnl_config.q)
            else:
                rec = policy.play_round(pool, pool_feats, oracle, t, q_t, b_t)
                r = dueling_regret(theta_star, pool_feats, rec.pair[0], rec.pair[1])
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


_WORKER_STATE: dict = {}


def _worker_init(payload):
    _WORKER_STATE["payload"] = payload


def _worker_run(cell):
    user, seed = cell
    p = _WORKER_STATE["payload"]
    return _play_cell(
        p["envset"], p["spanner"], p["algorithm"], user, seed, p["horizon"],
        p["schedule"], p["pool_size"], p["duel_config"], p["mnl_config"],
    )


def run_experiment(
    envset: EnvironmentSet,
    algorithm: str,
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
) -> RegretTrace:
    """Run one algorithm over the (user, seed) grid and aggregate regret.

    ``users`` may be a count (the first k users) or an explicit index list.
    The spanner is built once per environment set and shared read-only.
    """
    if algorithm not in ALL_KINDS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    if pool_size < 2:
        raise ConfigError("pool size must be at least 2")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    if users is None:
        users = [0]
    elif isinstance(users, int):
        if not 1 <= users <= envset.n_users:
            raise ConfigError(f"user count must be in [1, {envset.n_users}]")
        users = list(range(users))
    else:
        users = [int(u) for u in users]
    duel_config = duel_config or DuelConfig()
    mnl_config = mnl_config or MnlConfig()
    if spanner is None:
        spanner = build_spanner(envset.keyterm_feats)

    cells = [(u, s) for u in users for s in seeds]
    payload = {
        "envset": envset,
        "spanner": spanner,
        "algorithm": algorithm,
        "horizon": horizon,
        "schedule": schedule,
        "pool_size": pool_size,
        "duel_config": duel_config,
        "mnl_config": mnl_config,
    }
    if workers <= 0:
        workers = os.cpu_count() or 1
    rows = []
    if workers == 1 or len(cells) == 1:
        _worker_init(payload)
        for i, cell in enumerate(cells):
            rows.append(_worker_run(cell))
            if progress:
                progress(algorithm, i + 1, len(cells))
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cells)),
            initializer=_worker_init,
            initargs=(payload,),
        ) as pool:
            for i, row in enumerate(pool.map(_worker_run, cells, chunksize=1)):
                rows.append(row)
                if progress:
                    progress(algorithm, i + 1, len(cells))
    inst = np.vstack(rows)
    fp = config_fingerprint(
        {
            "algorithm": algorithm,
            "horizon": horizon,
            "seeds": seeds,
            "users": users,
            "schedule": schedule.label(),
            "pool_size": pool_size,
            "duel_config": vars(duel_config),
            "mnl_config": vars(mnl_config),
            "env": envset.provenance,
        }
    )
    return RegretTrace(
        algorithm=algorithm,
        regret_kind=regret_kind_of(algorithm),
        cells=cells,
        inst=inst,
        fingerprint=fp,
    )
