"""Link functions, key-term feature aggregation, the incrementally
maintained design matrix, and optimistic utilities under it.

These are the pieces every policy shares.  Arm features are unit vectors, so
utility differences live in [-2, 2]; the link maps a difference to a win
probability.  The design matrix accumulates rank-one updates of observed
difference (or offered-item) vectors and keeps its inverse current so
Mahalanobis norms cost O(d^2) per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError

__all__ = [
    "LinkFunction",
    "get_link",
    "WeightGraph",
    "DesignMatrix",
    "ucb_utilities",
]


class LinkFunction:
    """Monotone map from a utility difference to a win probability.

    Two kinds are supported:

    * ``sigmoid``:          mu(z) = 1 / (1 + exp(-z))
    * ``clamped_linear``:   mu(z) = max(0, min(1, 0.5 * (1 + z)))

    ``kappa1`` is the smallest slope mu'(z) over |z| <= 2, the range a duel
    of unit-norm features can produce.  For the sigmoid this is mu'(2).  The
    clamped-linear slope is exactly zero outside (-1, 1), so its kappa1 is
    reported as the interior slope 0.5 and is valid only while |z| < 1.

    ``mu``, ``slope`` (mu', with the interior 0.5 at the clamp boundary) and
    ``anti`` (a primitive m with m' = mu, used by the log-likelihood) are
    vectorized and unvalidated: their inputs are utilities of unit-norm rows,
    which ``EnvironmentSet.validate`` checked, under a finite estimate.
    sigmoid: m(z) = log(1 + e^z), every function stable for large |z|;
    clamped_linear: m(-1) = 0, quadratic on [-1, 1], slope one beyond.
    All three are built from ``tail(z)``, exp(-|z|) for the sigmoid and
    nothing for the clamped-linear link; a caller that evaluates several of
    them at one z passes the tail it already has, so the exponential is
    taken once.
    """

    __slots__ = ("kind", "kappa1", "tail", "_mu", "_slope", "_anti")

    def __init__(self, kind: str):
        if kind == "sigmoid":
            s2 = 1.0 / (1.0 + math.exp(-2.0))
            self.kappa1 = s2 * (1.0 - s2)
            self.tail, self._mu, self._slope, self._anti = (
                _sig_tail, _sig, _sig_slope, _sig_anti
            )
        elif kind == "clamped_linear":
            # Slope on the clamp region is 0; 0.5 is the interior value.
            self.kappa1 = 0.5
            self.tail, self._mu, self._slope, self._anti = (
                _no_tail, _clamp, _clamp_slope, _clamp_anti
            )
        else:
            raise DomainError(f"unknown link kind: {kind!r}")
        self.kind = kind

    def mu(self, z, tail=None):
        return self._mu(z, self.tail(z) if tail is None else tail)

    def slope(self, z, tail=None):
        return self._slope(z, self.tail(z) if tail is None else tail)

    def anti(self, z, tail=None):
        return self._anti(z, self.tail(z) if tail is None else tail)


def _sig_tail(z):
    return np.exp(-np.abs(z))


def _sig(z, e):
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _sig_slope(z, e):
    return e / (1.0 + e) ** 2


def _sig_anti(z, e):
    return np.maximum(z, 0.0) + np.log1p(e)


def _no_tail(z):
    return None


def _clamp(z, _tail):
    return np.clip(0.5 * (1.0 + z), 0.0, 1.0)


def _clamp_slope(z, _tail):
    return np.where(np.abs(z) <= 1.0, 0.5, 0.0)


def _clamp_anti(z, _tail):
    return np.where(z <= -1.0, 0.0, np.where(z >= 1.0, z, 0.25 * (1.0 + z) ** 2))


_LINKS = {}


def get_link(kind: str) -> LinkFunction:
    """Shared immutable link instance for ``kind``."""
    if kind not in _LINKS:
        _LINKS[kind] = LinkFunction(kind)
    return _LINKS[kind]


@dataclass
class WeightGraph:
    """Sparse arm/key-term bipartite weights.

    Stored as parallel triple arrays (arm_idx, key_idx, weight).  Weights are
    nonnegative; environment constructors normalize each arm's row to sum to
    one, which ``validate`` checks.
    """

    n_arms: int
    n_keyterms: int
    arm_idx: np.ndarray
    key_idx: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_triples(cls, n_arms, n_keyterms, triples) -> "WeightGraph":
        """Build from an iterable of (arm, key, weight), sorted canonically."""
        trip = sorted((int(a), int(k), float(w)) for a, k, w in triples)
        arm = np.array([t[0] for t in trip], dtype=np.int64)
        key = np.array([t[1] for t in trip], dtype=np.int64)
        w = np.array([t[2] for t in trip], dtype=float)
        if len(arm) and (arm.min() < 0 or arm.max() >= n_arms):
            raise StructuralError("arm index out of range")
        if len(key) and (key.min() < 0 or key.max() >= n_keyterms):
            raise StructuralError("key-term index out of range")
        if np.any(w < 0):
            raise StructuralError("weights must be nonnegative")
        return cls(n_arms, n_keyterms, arm, key, w)

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.n_arms)
        np.add.at(out, self.arm_idx, self.weight)
        return out

    def column_sums(self) -> np.ndarray:
        out = np.zeros(self.n_keyterms)
        np.add.at(out, self.key_idx, self.weight)
        return out

    def validate(self) -> None:
        """Check every arm's weights sum to one within 1e-9."""
        rs = self.row_sums()
        bad = np.nonzero(np.abs(rs - 1.0) > 1e-9)[0]
        if bad.size:
            raise StructuralError(
                f"weight rows must sum to 1: arm {bad[0]} sums to {rs[bad[0]]!r}"
            )

    def keyterm_features(self, arm_features: np.ndarray) -> np.ndarray:
        """All key-term features: weight-normalized averages of related arms."""
        arm_features = np.asarray(arm_features, dtype=float)
        sums = np.zeros((self.n_keyterms, arm_features.shape[1]))
        np.add.at(sums, self.key_idx, self.weight[:, None] * arm_features[self.arm_idx])
        tot = self.column_sums()
        empty = np.nonzero(tot <= 0.0)[0]
        if empty.size:
            raise StructuralError(f"key-term {empty[0]} has no related arm")
        return sums / tot[:, None]


class DesignMatrix:
    """Symmetric positive-definite accumulator M with maintained inverse.

    Initialized to ``regularizer * I``.  ``update(v)`` adds v v^T and patches
    the inverse with the rank-one downdate.  A full refactorization every
    ``refactor_every`` updates keeps accumulated round-off below 1e-6 in
    max norm of M @ M_inv - I.
    """

    refactor_every = 256

    __slots__ = ("dim", "regularizer", "m", "m_inv", "_since_refactor")

    def __init__(self, dim: int, regularizer: float):
        if regularizer <= 0.0 or not math.isfinite(regularizer):
            raise DomainError("regularizer must be positive and finite")
        self.dim = int(dim)
        self.regularizer = float(regularizer)
        self.m = np.eye(self.dim) * self.regularizer
        self.m_inv = np.eye(self.dim) / self.regularizer
        self._since_refactor = 0

    def update(self, v: np.ndarray) -> None:
        """M <- M + v v^T with Sherman-Morrison inverse maintenance."""
        v = np.asarray(v, dtype=float)
        w = self.m_inv @ v
        q = float(v @ w)
        self.m += v[:, None] * v
        self.m_inv -= (w[:, None] * w) / (1.0 + q)
        self._since_refactor += 1
        if self._since_refactor >= self.refactor_every:
            self.refactor()

    def refactor(self) -> None:
        """Recompute the inverse from M itself."""
        self.m = 0.5 * (self.m + self.m.T)
        sign, _ = np.linalg.slogdet(self.m)
        if sign <= 0:
            raise StructuralError("design matrix lost positive-definiteness")
        self.m_inv = np.linalg.inv(self.m)
        self.m_inv = 0.5 * (self.m_inv + self.m_inv.T)
        self._since_refactor = 0

    def inv_quad_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise v^T M^-1 v for a stack of vectors (clipped at 0)."""
        rows = np.asarray(rows, dtype=float)
        vals = np.einsum("ij,jk,ik->i", rows, self.m_inv, rows)
        return np.clip(vals, 0.0, None)


def ucb_utilities(theta, design: DesignMatrix, alpha: float, pool_feats) -> np.ndarray:
    """Optimistic utility x^T theta + alpha ||x||_{M^-1} per arm."""
    if alpha < 0.0:
        raise DomainError("alpha must be nonnegative")
    pool_feats = np.asarray(pool_feats, dtype=float)
    return pool_feats @ np.asarray(theta, dtype=float) + alpha * np.sqrt(
        design.inv_quad_rows(pool_feats)
    )
