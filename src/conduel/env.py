"""Synthetic environments, conversation schedules, stochastic feedback, and
regret accounting.

An environment set is one arm/key-term universe shared by many simulated
users; each user is a hidden unit preference vector.  ``SimulatedUser`` draws
duel outcomes and choice-model picks from the true model, and regret is
measured against the per-round pool optimum.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, StructuralError
from .glm import LinkFunction, WeightGraph, get_link
from .mnl import expected_revenue, mnl_probs, optimal_assortment
from .rng import env_rng

__all__ = [
    "EnvironmentSet",
    "SyntheticConfig",
    "Schedule",
    "SimulatedUser",
    "gen_synthetic",
    "dueling_regret",
    "mnl_regret",
]


@dataclass
class EnvironmentSet:
    """Shared universe with one preference vector per user.

    Construction derives the key-term features from the graph and the arms,
    then validates the set.
    """

    arms: np.ndarray
    graph: WeightGraph
    keyterm_feats: np.ndarray = field(init=False)
    link: LinkFunction
    theta_stars: np.ndarray  # U x d, unit rows
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.keyterm_feats = self.graph.keyterm_features(self.arms)
        self.validate()

    @property
    def n_users(self) -> int:
        return self.theta_stars.shape[0]

    @property
    def n_arms(self) -> int:
        return self.arms.shape[0]

    @property
    def n_keyterms(self) -> int:
        return self.keyterm_feats.shape[0]

    @property
    def dim(self) -> int:
        return self.arms.shape[1]

    def user(self, index: int) -> SimulatedUser:
        if not 0 <= index < self.n_users:
            raise StructuralError(f"user index {index} out of range")
        return SimulatedUser(self.theta_stars[index], self.link)

    def validate(self) -> None:
        if not np.allclose(np.linalg.norm(self.theta_stars, axis=1), 1.0, atol=1e-9):
            raise StructuralError("preference vectors must be unit norm")
        if not np.allclose(np.linalg.norm(self.arms, axis=1), 1.0, atol=1e-9):
            raise StructuralError("arm features must be unit norm")
        self.graph.validate()


def check_link(kind: str) -> None:
    """Raise a ``ConfigError`` unless ``kind`` names a link function."""
    try:
        get_link(kind)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SyntheticConfig:
    n_users: int = 200
    n_keyterms: int = 500
    n_arms: int = 5000
    dim: int = 10
    max_arms_per_keyterm: int = 10
    link: str = "sigmoid"

    def __post_init__(self):
        if min(self.n_users, self.n_keyterms, self.n_arms, self.dim) < 1:
            raise ConfigError("environment sizes must be positive")
        if self.max_arms_per_keyterm < 1:
            raise ConfigError("max arms per key-term must be at least 1")
        check_link(self.link)


def _unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def gen_synthetic(config: SyntheticConfig, seed: int) -> EnvironmentSet:
    """Standard-normal features normalized to the sphere, plus a random
    bipartite relation: each key-term picks 1..M arms uniformly, each arm
    splits unit weight equally over its key-terms, and an arm left stranded
    by the key-term draws is related to one uniformly random key-term.

    Draw order is fixed (users, arms, per-key-term degrees and subsets,
    stranded-arm fixes), so the result is a pure function of (config, seed).
    """
    rng = env_rng(seed)
    theta = _unit_rows(rng, config.n_users, config.dim)
    arms = _unit_rows(rng, config.n_arms, config.dim)

    related = [[] for _ in range(config.n_arms)]
    for k in range(config.n_keyterms):
        n_k = int(rng.integers(1, config.max_arms_per_keyterm + 1))
        for a in rng.choice(config.n_arms, size=min(n_k, config.n_arms), replace=False):
            related[a].append(k)
    for a in range(config.n_arms):
        if not related[a]:
            related[a].append(int(rng.integers(config.n_keyterms)))

    triples = []
    for a, keys in enumerate(related):
        w = 1.0 / len(keys)
        triples.extend((a, k, w) for k in keys)
    # every key-term drew at least one arm and every arm holds at least one
    # key-term, so the graph has no empty rows or columns
    return EnvironmentSet(
        arms=arms,
        graph=WeightGraph.from_triples(config.n_arms, config.n_keyterms, triples),
        link=get_link(config.link),
        theta_stars=theta,
        provenance={"source": "synthetic", "seed": int(seed), "config": dataclasses.asdict(config)},
    )


@dataclass(frozen=True)
class Schedule:
    """Cumulative conversation budget b(t).

    kinds: ``linear`` n * floor(t / 50); ``log`` n * floor(ln t);
    ``prop`` b * t.  Budgets are clamped at t so conversations never outpace
    arm interactions; the round count is the floored budget difference, which
    telescopes to floor(b(T)).
    """

    kind: str
    param: float

    _KINDS = ("linear", "log", "prop")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not math.isfinite(self.param) or self.param < 0:
            raise ConfigError("schedule parameter must be finite and nonnegative")
        if self.kind == "prop" and self.param >= 1.0:
            raise ConfigError("proportional budget must satisfy b < 1")

    def b(self, t: int) -> float:
        if t <= 0:
            return 0.0
        if self.kind == "linear":
            raw = self.param * (t // 50)
        elif self.kind == "log":
            raw = self.param * math.floor(math.log(t))
        else:
            raw = self.param * t
        return min(float(raw), float(t))

    def conversations(self, t: int) -> int:
        if t < 1:
            raise DomainError("round index must be at least 1")
        return int(math.floor(self.b(t)) - math.floor(self.b(t - 1)))

    def label(self) -> str:
        param = int(self.param) if float(self.param).is_integer() else self.param
        return f"{self.kind}:{param}"

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        name, _, value = text.partition(":")
        name = name.strip().lower()
        if not value:
            raise ConfigError(f"schedule {text!r} needs a parameter, e.g. linear:10")
        try:
            param = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad schedule parameter in {text!r}") from exc
        return cls(name, param)


class SimulatedUser:
    """One user's hidden preference and the feedback oracles it answers."""

    __slots__ = ("theta_star", "link")

    def __init__(self, theta_star: np.ndarray, link: LinkFunction):
        self.theta_star = theta_star
        self.link = link

    def duel(self, x_first, x_second, rng) -> int:
        """1 when the first presented item wins the duel."""
        p = self.link.mu(float((np.asarray(x_first) - np.asarray(x_second)) @ self.theta_star))
        return int(rng.random() < p)

    def click(self, x, rng) -> int:
        # adapted absolute-feedback reward used by the linear baselines
        p = get_link("sigmoid").mu(float(np.asarray(x) @ self.theta_star))
        return int(rng.random() < p)

    def choice(self, offered, rng) -> int:
        """Index of the chosen offered item, or -1 for the outside option."""
        probs, _ = mnl_probs(self.theta_star, offered)
        u = float(rng.random())
        acc = 0.0
        for i, p in enumerate(probs):
            acc += float(p)
            if u < acc:
                return i
        return -1

    def revenues(self, pool_feats) -> np.ndarray:
        """Per-item revenue of the given features; it equals the true utility."""
        return np.asarray(pool_feats) @ self.theta_star


def dueling_regret(user: SimulatedUser, pool_feats, first: int, second: int) -> float:
    """Pool-best utility minus the offered pair's average utility."""
    util = np.asarray(pool_feats) @ user.theta_star
    return float(util.max() - 0.5 * (util[first] + util[second]))


def mnl_regret(user: SimulatedUser, pool_feats, offered_positions, q: int) -> float:
    """Revenue gap to the exact optimal assortment under the true model, with
    the user's revenues.

    Nonnegative up to floating-point rounding, since the optimizer is exact
    over all sets of at most q items.
    """
    pool_feats = np.asarray(pool_feats)
    util = pool_feats @ user.theta_star
    revenues = user.revenues(pool_feats)
    best = optimal_assortment(util, revenues, q)
    offered = np.asarray(offered_positions, dtype=int)
    got = expected_revenue(pool_feats[offered], user.theta_star, revenues[offered])
    return float(expected_revenue(pool_feats[best], user.theta_star, revenues[best]) - got)
