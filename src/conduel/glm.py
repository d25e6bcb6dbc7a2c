"""Link functions, key-term feature aggregation, duel probabilities, and the
incrementally maintained design matrix.

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
    "duel_prob",
    "WeightGraph",
    "keyterm_feature",
    "DesignMatrix",
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

    The public methods validate their input and return a float for a scalar;
    ``raw_funcs`` hands the same functions to hot loops without either step.
    """

    __slots__ = ("kind", "kappa1")

    def __init__(self, kind: str):
        if kind == "sigmoid":
            s2 = 1.0 / (1.0 + math.exp(-2.0))
            self.kappa1 = s2 * (1.0 - s2)
        elif kind == "clamped_linear":
            # Slope on the clamp region is 0; 0.5 is the interior value.
            self.kappa1 = 0.5
        else:
            raise DomainError(f"unknown link kind: {kind!r}")
        self.kind = kind

    def mu(self, z):
        """Win probability mu(z); stable for large |z|."""
        return _checked(self.raw_funcs()[0], z)

    def mu_prime(self, z):
        """Slope mu'(z) >= 0.  Clamp boundary points report the interior 0.5."""
        return _checked(self.raw_funcs()[1], z)

    def antiderivative(self, z):
        """A primitive m with m' = mu, used by the log-likelihood.

        sigmoid: m(z) = log(1 + e^z).  clamped_linear: m(-1) = 0, quadratic
        on [-1, 1], slope one beyond.
        """
        return _checked(self.raw_funcs()[2], z)

    def raw_funcs(self):
        """Unvalidated vectorized (mu, slope, antiderivative) for hot loops.

        Callers guarantee finite float arrays.
        """
        if self.kind == "sigmoid":
            return _sig, _sig_slope, _sig_anti
        return _clamp, _clamp_slope, _clamp_anti


def _sig(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sig_slope(z):
    e = np.exp(-np.abs(z))
    return e / (1.0 + e) ** 2


def _sig_anti(z):
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _clamp(z):
    return np.clip(0.5 * (1.0 + z), 0.0, 1.0)


def _clamp_slope(z):
    return np.where(np.abs(z) <= 1.0, 0.5, 0.0)


def _clamp_anti(z):
    return np.where(z <= -1.0, 0.0, np.where(z >= 1.0, z, 0.25 * (1.0 + z) ** 2))


_LINKS = {}


def get_link(kind: str) -> LinkFunction:
    """Shared immutable link instance for ``kind``."""
    if kind not in _LINKS:
        _LINKS[kind] = LinkFunction(kind)
    return _LINKS[kind]


def _checked(func, z):
    """``func`` on finite input only; a scalar input gives a float back."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("link input must be finite")
    out = func(z)
    return out if np.ndim(out) else float(out)


def duel_prob(link: LinkFunction, theta: np.ndarray, x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Probability that the arm with feature ``x_i`` beats ``x_j``."""
    theta = np.asarray(theta, dtype=float)
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    if x_i.shape != x_j.shape or x_i.shape != theta.shape:
        raise DomainError(
            f"dimension mismatch: theta {theta.shape}, x_i {x_i.shape}, x_j {x_j.shape}"
        )
    return float(link.mu(float((x_i - x_j) @ theta)))


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

    @classmethod
    def from_dense(cls, w_matrix) -> "WeightGraph":
        w_matrix = np.asarray(w_matrix, dtype=float)
        a, k = np.nonzero(w_matrix)
        triples = zip(a.tolist(), k.tolist(), w_matrix[a, k].tolist())
        return cls.from_triples(w_matrix.shape[0], w_matrix.shape[1], triples)

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.n_arms)
        np.add.at(out, self.arm_idx, self.weight)
        return out

    def column_sums(self) -> np.ndarray:
        out = np.zeros(self.n_keyterms)
        np.add.at(out, self.key_idx, self.weight)
        return out

    def validate(self, tol: float = 1e-9) -> None:
        """Check every arm's weights sum to one within ``tol``."""
        rs = self.row_sums()
        bad = np.nonzero(np.abs(rs - 1.0) > tol)[0]
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


def keyterm_feature(graph: WeightGraph, arm_features, k: int) -> np.ndarray:
    """Feature of key-term ``k``: sum_a w[a,k] x_a / sum_a w[a,k].

    The result is intentionally not renormalized.
    """
    arm_features = np.asarray(arm_features, dtype=float)
    sel = graph.key_idx == k
    if not np.any(sel) or graph.weight[sel].sum() <= 0.0:
        raise StructuralError(f"key-term {k} has no related arm")
    w = graph.weight[sel]
    return (w[:, None] * arm_features[graph.arm_idx[sel]]).sum(axis=0) / w.sum()


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
        self.m += np.outer(v, v)
        self.m_inv -= np.outer(w, w) / (1.0 + q)
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

    def mahalanobis(self, v: np.ndarray) -> float:
        """sqrt(v^T M^-1 v)."""
        v = np.asarray(v, dtype=float)
        return math.sqrt(max(float(v @ self.m_inv @ v), 0.0))

    def inv_quad_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise v^T M^-1 v for a stack of vectors (clipped at 0)."""
        rows = np.asarray(rows, dtype=float)
        vals = np.einsum("ij,jk,ik->i", rows, self.m_inv, rows)
        return np.clip(vals, 0.0, None)
