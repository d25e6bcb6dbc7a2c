"""Multinomial-logit choice policies: choice probabilities, the multinomial
MLE, and exact cardinality-constrained assortment optimization by
Dinkelbach's fixed-point iteration on the revenue threshold.

A choice observation offers up to q features (arms or key-terms); the user
picks one of them or the outside option.  ``ChoiceHistory`` stores each
observation once, slot-major: the offer and its pad offsets sit in arrays
whose last axis runs over observations, so every reduction of the
likelihood runs over the q slots with rows as long as the history; the pick
is kept only as its slot index.  ``MnlObjective`` is the only
implementation of the choice log-likelihood, its score and its observed
information; the fit runs the shared Newton solver of ``estimator`` on it.
The likelihood carries the dueling likelihood's ridge
-(lam / 2) ||theta||^2, lam = ``estimator.LAM``, so it is strictly concave
and its maximizer exists after any history, the empty one included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from .dueling import RoundRecord
from .errors import ConfigError, DomainError, StructuralError
from .estimator import _TOL, LAM, WarmStart, _grown, _newton
from .glm import DesignMatrix, ucb_utilities
from .spanner import Spanner

__all__ = [
    "MNL_KINDS",
    "MNL_SPANNER_KINDS",
    "MnlConfig",
    "ChoiceHistory",
    "mnl_probs",
    "MnlObjective",
    "mnl_mle_fit",
    "mnl_radius",
    "optimal_assortment",
    "expected_revenue",
    "MnlPolicy",
]

# the kinds that converse: each draws its key-terms from the barycentric
# spanner, up to t0 at least
MNL_SPANNER_KINDS = ("conmnl", "conmnl-ucb", "conmnl-random")
MNL_KINDS = MNL_SPANNER_KINDS + ("ucb-mnl",)

OUTSIDE = -1

# Shares the rationale of the dueling radius shrink: the closed-form radius
# constants are dominated by 1/kappa2 and would drown every utility signal.
DEFAULT_MNL_RADIUS_SCALE = 0.05

# Curvature bound kappa2 of the choice model in its confidence radius, where
# it is a factor 1 / (2 kappa2) and so sets the same number as the shrink.
KAPPA2 = 0.005


@dataclass
class MnlConfig:
    q: int = 4
    t0: int = 50
    radius_scale: float = DEFAULT_MNL_RADIUS_SCALE

    def __post_init__(self):
        if not self.q >= 1:
            raise ConfigError(f"q must be at least 1, got {self.q!r}")
        if not self.t0 >= 0:
            raise ConfigError(f"t0 must be nonnegative, got {self.t0!r}")
        if not self.radius_scale >= 0.0:
            raise ConfigError(f"radius_scale must be nonnegative, got {self.radius_scale!r}")


class ChoiceHistory:
    """Append-only store of choice observations and their design matrix.

    Every array is slot-major, with its last axis running over observations:
    ``slots`` (width, d, n) holds the padded offers, ``slot_pad`` (width, n)
    their pad offsets (0 on offered slots, -inf on padding), and ``chosen``
    (n,) the picked slot or ``OUTSIDE``, the one record of each pick.  Each
    is written once, on append.  ``design`` is ``ridge * I`` plus the sum of
    x x^T over every offered feature.
    """

    __slots__ = ("dim", "width", "design", "_slots", "_pad", "_chosen", "n")

    def __init__(self, dim: int, width: int, ridge: float):
        if width < 1:
            raise StructuralError("offer width must be at least 1")
        self.dim = int(dim)
        self.width = int(width)
        self.design = DesignMatrix(self.dim, ridge)
        self._slots = np.empty((self.width, self.dim, 64))
        self._pad = np.empty((self.width, 64))
        self._chosen = np.empty(64, dtype=np.int64)
        self.n = 0

    def append(self, offered, chosen: int) -> None:
        offered = np.asarray(offered, dtype=float)
        if offered.ndim != 2 or offered.shape[1] != self.dim:
            raise StructuralError(f"offered features must be (m, {self.dim})")
        m = offered.shape[0]
        if not 1 <= m <= self.width:
            raise StructuralError(f"offer size must be in [1, {self.width}]")
        if not (chosen == OUTSIDE or 0 <= chosen < m):
            raise StructuralError("chosen index out of range")
        n = self.n
        if n == len(self._chosen):
            grow = max(2 * n, 64)
            bufs = (self._slots, self._pad, self._chosen)
            self._slots, self._pad, self._chosen = (_grown(b, n, grow) for b in bufs)
        # every slot of column n is written, so nothing reads a stale entry
        self._slots[:m, :, n] = offered
        self._slots[m:, :, n] = 0.0
        self._pad[:m, n] = 0.0
        self._pad[m:, n] = -np.inf
        self._chosen[n] = chosen
        self.n += 1
        for row in offered:
            self.design.update(row)

    @property
    def slots(self):
        return self._slots[:, :, : self.n]

    @property
    def slot_pad(self):
        return self._pad[:, : self.n]

    @property
    def chosen(self):
        return self._chosen[: self.n]

    def __len__(self) -> int:
        return self.n


def mnl_probs(theta, offered):
    """Choice probabilities over the offered items plus the outside option.

    p_i = exp(x_i^T theta) / (1 + sum_j exp(x_j^T theta)); the outside option
    carries the 1.  Max-shifted so arbitrarily large utilities stay finite.
    """
    offered = np.asarray(offered, dtype=float)
    if offered.ndim != 2 or offered.shape[0] < 1:
        raise DomainError("offered set must contain at least one item")
    z = offered @ np.asarray(theta, dtype=float)
    shift = max(float(z.max()), 0.0)
    e = np.exp(z - shift)
    e0 = math.exp(-shift)
    den = e0 + float(e.sum())
    return e / den, e0 / den


class MnlObjective:
    """Choice log-likelihood over one history, built once per fit.

    Holds slot-major views of the history (offers, and pad offsets that mask
    padded slots with -inf) and the pick as one index pair (picked slot,
    observation) over the observations whose pick is not the outside
    option.  Serves the value, the (width, n) choice probabilities, the
    score and the observed information (minus the Hessian of the value) of
    the regularized log-likelihood sum log p(choice) - (lam / 2) ||theta||^2;
    the last two take the probabilities when the caller already has them.
    Every method reduces over slots: the utilities are
    ``z = theta @ slots + pad``, a (width, n) array whose max and sum run
    over axis 0, and the picked utilities are ``z`` at the pick pair, zero
    for an outside-option pick.  Inputs are not validated.

    ``start`` > 0 keeps only the observations from ``start`` on and drops
    the ridge: what they add to the objective over the first ``start``.
    """

    __slots__ = ("history", "lam", "_slots", "_pad", "_pick", "_ridge")

    def __init__(self, history: ChoiceHistory, start: int = 0):
        chosen = history.chosen[start:]
        (cols,) = np.nonzero(chosen != OUTSIDE)
        self.history = history
        self._slots = history.slots[:, :, start:]
        self._pad = history.slot_pad[:, start:]
        self._pick = (chosen[cols], cols)
        self.lam = 0.0 if start else LAM
        self._ridge = self.lam * np.eye(history.dim)

    def since(self, start: int) -> "MnlObjective":
        """The unregularized likelihood of the observations from ``start`` on."""
        return MnlObjective(self.history, start)

    def _pass(self, theta):
        z = theta @ self._slots + self._pad
        shift = np.maximum(z.max(axis=0), 0.0)
        e = np.exp(z - shift)
        den = np.exp(-shift) + e.sum(axis=0)
        picked = np.zeros(z.shape[1])
        picked[self._pick[1]] = z[self._pick]
        reg = 0.5 * self.lam * float(theta @ theta)
        return float(np.sum(picked - shift - np.log(den))) - reg, e, den

    def value(self, theta) -> float:
        """Sum of log-probabilities of the recorded choices (arm and key-term
        offers), less the ridge."""
        return self._pass(theta)[0]

    def value_and_pass(self, theta):
        """The value and the (width, n) choice probabilities, from one pass."""
        value, e, den = self._pass(theta)
        return value, e / den

    def score(self, theta, probs=None) -> np.ndarray:
        """Gradient of the value, sum_j X_j (one_hot_j - P_j) - lam theta,
        with one_hot_j 1 where slot j was picked; zero at the MLE."""
        if probs is None:
            probs = self.value_and_pass(theta)[1]
        resid = -probs
        resid[self._pick] += 1.0
        return (self._slots @ resid[:, :, None]).sum(axis=0)[:, 0] - self.lam * theta

    def information(self, theta, probs=None) -> np.ndarray:
        """sum_j (X_j o P_j) X_j^T - xbar xbar^T + lam I, with X_j the (d, n)
        features of slot j, P_j its probabilities and xbar = sum_j X_j o P_j."""
        if probs is None:
            probs = self.value_and_pass(theta)[1]
        weighted = self._slots * probs[:, None, :]
        xbar = weighted.sum(axis=0)
        info = np.matmul(weighted, self._slots.transpose(0, 2, 1)).sum(axis=0) - xbar @ xbar.T
        return info + self._ridge


def mnl_mle_fit(history: ChoiceHistory, warm: WarmStart | None = None) -> np.ndarray:
    """Newton maximizer of the regularized multinomial log-likelihood.

    ``warm``, the last fit of this history, gives the solve a predicted start
    and is advanced to this fit; without it the solve starts at zero.
    """
    obj = MnlObjective(history)
    return _newton(obj, _TOL, "choice-model", warm or WarmStart(history.dim))[0]


def mnl_radius(t: int, b_of_t: float, d: int) -> float:
    """Confidence radius (1 / 2 kappa2) sqrt(2 d log(1 + (b(t)+t)/d) + 2 log t),
    with kappa2 = ``KAPPA2``."""
    if t < 1:
        raise DomainError("round index must be at least 1")
    if d <= 0:
        raise DomainError("d must be positive")
    if b_of_t < 0.0:
        raise DomainError("b(t) must be nonnegative")
    return (0.5 / KAPPA2) * math.sqrt(
        2.0 * d * math.log(1.0 + (b_of_t + t) / d) + 2.0 * math.log(t)
    )


def optimal_assortment(z, revenues, q: int) -> np.ndarray:
    """Exact revenue-optimal assortment of size at most q.

    Dinkelbach's iteration on the revenue threshold lam: the set picked at lam
    keeps the up-to-q items with the largest positive (r_i - lam) * exp(z_i);
    lam starts at 0 and moves to the revenue of the set just picked, and the
    loop stops once that revenue no longer rises strictly.  lam strictly
    increases over finitely many sets, so the loop ends, and the revenue at
    which it stops is the optimum.  The best set seen is returned, so a
    revenue that rounds onto a threshold cannot lose the set that reached it.

    Ties: within a pick, equal weights go to the lowest id.  Among sets of
    equal revenue the one the iteration reaches first, at the lowest
    threshold, is returned, so it keeps items that leave the revenue
    unchanged in floating point.  The empty set is returned when no revenue
    is positive.  Utilities may be arbitrarily large: weights are max-shifted.
    """
    z = np.asarray(z, dtype=float)
    r = np.asarray(revenues, dtype=float)
    if z.shape != r.shape or z.ndim != 1:
        raise DomainError("utilities and revenues must be matching vectors")
    if q < 1:
        raise DomainError("assortment size cap must be at least 1")
    shift = max(float(z.max()), 0.0)
    v = np.exp(z - shift)
    v0 = math.exp(-shift)
    best = np.empty(0, dtype=np.intp)
    lam = 0.0
    while True:
        s = (r - lam) * v
        order = np.argsort(-s, kind="stable")[:q]
        sel = order[s[order] > 0.0]
        if sel.size == 0:
            break
        val = float((r[sel] * v[sel]).sum() / (v0 + float(v[sel].sum())))
        if not val > lam:  # also stops on a NaN revenue
            break
        best, lam = sel, val
    return np.sort(best)


def expected_revenue(offered_feats, theta, revenues) -> float:
    """sum_j r_j p_j(C, theta); zero for an empty offer."""
    offered_feats = np.asarray(offered_feats, dtype=float)
    if offered_feats.shape[0] == 0:
        return 0.0
    p, _ = mnl_probs(theta, offered_feats)
    return float(np.asarray(revenues, dtype=float) @ p)


class MnlPolicy:
    """Choice-model policy with a forced-exploration initialization phase.

    Rounds up to t0 offer random size-q assortments and (for conversational
    kinds) query q spanner key-terms per conversation, recording outcomes and
    growing the design matrix with every offered feature.  Afterwards each
    round refits the MLE (from the start its last fit, carried in a
    ``WarmStart``, predicts), forms optimistic utilities, and offers the exact
    revenue-optimal assortment under the revenues of the user it offers to.
    The warm start's ``theta`` is the policy's one estimate: zero until the
    first fit, the last fit after it.  The plain kind skips conversations.
    """

    def __init__(
        self,
        kind: str,
        keyterm_feats: np.ndarray,
        spanner: Spanner | None,
        stream: streams.RunStream,
        config: MnlConfig | None = None,
    ):
        if kind not in MNL_KINDS:
            raise DomainError(f"unknown choice-model policy kind {kind!r}")
        self.kind = kind
        self.keyterm_feats = np.asarray(keyterm_feats, dtype=float)
        self.spanner = spanner
        self.stream = stream
        self.config = config or MnlConfig()
        self.d = self.keyterm_feats.shape[1]
        self.history = ChoiceHistory(self.d, self.config.q, LAM)
        self._warm = WarmStart(self.d)
        self.converses = kind in MNL_SPANNER_KINDS
        if kind in MNL_SPANNER_KINDS and spanner is None:
            raise StructuralError(f"{kind} requires a spanner")

    def radius(self, t: int, b_of_t: float) -> float:
        return self.config.radius_scale * mnl_radius(t, b_of_t, self.d)

    def _select_keyterms(self, t, b_of_t, rng_sel) -> np.ndarray:
        q = self.config.q
        if t <= self.config.t0 or self.kind == "conmnl":
            members = np.asarray(self.spanner.member_ids)
            return members[rng_sel.integers(len(members), size=q)]
        if self.kind == "conmnl-random":
            return rng_sel.integers(self.keyterm_feats.shape[0], size=q)
        # conmnl-ucb: the q key-terms with the largest optimistic utility
        # under the last fit
        alpha = self.radius(t, b_of_t)
        u = ucb_utilities(self._warm.theta, self.history.design, alpha, self.keyterm_feats)
        return np.sort(np.argsort(-u, kind="stable")[:q])

    def play_round(self, pool_ids, pool_feats, oracle, t, n_conversations, b_of_t) -> RoundRecord:
        cfg = self.config
        conversations = []
        if self.converses and n_conversations > 0:
            rng_sel = self.stream.at(t, streams.KEYTERM_SELECT)
            rng_fb = self.stream.at(t, streams.KEYTERM_CHOICE_FEEDBACK)
            for _ in range(n_conversations):
                kt = self._select_keyterms(t, b_of_t, rng_sel)
                offered = self.keyterm_feats[kt]
                chosen = oracle.choice(offered, rng_fb)
                self.history.append(offered, chosen)
                conversations.append((kt, chosen))

        n_pool = len(pool_ids)
        if t <= cfg.t0:
            rng_a = self.stream.at(t, streams.ASSORTMENT_RANDOM)
            sel = np.sort(rng_a.choice(n_pool, size=min(cfg.q, n_pool), replace=False))
        else:
            theta = mnl_mle_fit(self.history, warm=self._warm)
            # policies without a conversation module have no key-term
            # observations, so their radius counts offered rounds only
            alpha = self.radius(t, b_of_t if self.converses else 0.0)
            z = ucb_utilities(theta, self.history.design, alpha, pool_feats)
            sel = optimal_assortment(z, oracle.revenues(pool_feats), cfg.q)

        if sel.size:
            offered = pool_feats[sel]
            chosen = oracle.choice(offered, self.stream.at(t, streams.CHOICE_FEEDBACK))
            self.history.append(offered, chosen)
            chosen_id = int(pool_ids[sel[chosen]]) if chosen != OUTSIDE else OUTSIDE
        else:
            chosen = OUTSIDE
            chosen_id = OUTSIDE
        return RoundRecord(
            outcome=chosen_id,
            conversations=conversations,
            n_candidates=n_pool,
            assortment=np.asarray(sel, dtype=int),
        )
