"""Dueling-bandit policies: the conversational GLM algorithm, its key-term
selection variants, the no-conversation baselines, and the adapted
linear-bandit baselines.

Every policy exposes ``play_round``; the harness owns pools, schedules, and
regret accounting.  All randomness flows through (seed, round, purpose)
substreams, so two policies that make the same kind of draws see the same
random numbers under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as streams
from .errors import ConfigError, DomainError, StructuralError
from .estimator import (
    DELTA,
    LAM,
    HistoryStack,
    InteractionHistory,
    ThetaEstimate,
    WarmStart,
    dueling_radius,
    mle_fit,
    mle_fit_stack,
)
from .glm import DesignMatrix, LinkFunction, ucb_utilities
from .spanner import Spanner

__all__ = [
    "DUEL_KINDS",
    "DuelConfig",
    "RoundRecord",
    "select_keyterm_pair",
    "build_candidate_set",
    "select_arm_pair",
    "DuelPolicy",
    "DuelGroup",
    "RconucbPolicy",
]

# GLM policies with a conversation module, without one, and the adapted
# linear-bandit baselines (which keep their own ridge state and absolute
# single-arm regret accounting).
CONVERSATIONAL_KINDS = ("conduel", "conduel-random", "conduel-maxinp")
PLAIN_KINDS = ("maxinp", "random-opt")
RCONUCB_KINDS = ("rconucb-posneg", "rconucb-diff")
DUEL_KINDS = CONVERSATIONAL_KINDS + PLAIN_KINDS + RCONUCB_KINDS

# Empirical shrink applied to the theoretical confidence radius.  The
# closed-form radius is a high-probability bound whose constants are far too
# conservative to act on directly (it exceeds the largest possible utility
# gap for every horizon we run); all GLM dueling policies share this
# calibration.  The adapted linear baselines keep their standard width.
DEFAULT_RADIUS_SCALE = 0.03

# Sub-Gaussian level of a Bernoulli click, in the linear baselines' radius
# (whose norm bound on theta is 1).
_CLICK_NOISE_LEVEL = 0.5

# Multiply-adds (rows x columns x d) in one block of ``_max_info_pair``,
# conduel-maxinp's key-term pair scan:
# half of 2^18, the size up to which OpenBLAS keeps a gemm on one thread.
# A threaded product inside a pool worker wakes a second BLAS thread that
# spins on the other worker's core.  At d=10 a block holds about 13,000
# pairs, about 100 KB per temporary.
_PAIR_BLOCK_MULADDS = 2**17


@dataclass
class DuelConfig:
    radius_scale: float = DEFAULT_RADIUS_SCALE

    def __post_init__(self):
        if not self.radius_scale >= 0.0:
            raise ConfigError(f"radius_scale must be nonnegative, got {self.radius_scale!r}")


@dataclass
class RoundRecord:
    """What one round produced; regret is attributed by the harness."""

    pair: tuple | None = None  # positions within the round's pool
    pair_ids: tuple | None = None  # arm ids
    outcome: int | None = None
    conversations: list = field(default_factory=list)  # (k, k', outcome)
    n_candidates: int = 0
    assortment: np.ndarray | None = None  # positions offered by choice policies


def select_keyterm_pair(kind, rng_sel, spanner: Spanner, keyterm_feats, design: DesignMatrix):
    """Pick the key-term pair to query for one conversation.

    conduel draws two members independently from the spanner (they may
    coincide; a coincident pair is a no-op update).  conduel-random draws
    from the whole key-term set.  conduel-maxinp takes the pair with the
    largest computed difference norm under the current inverse design matrix:
    the first maximum in row-major order.  x_k M^-1 x_j is not bitwise
    symmetric, so key-terms of identical features may break a tie either way.
    """
    n = keyterm_feats.shape[0]
    if n == 0:
        raise StructuralError("key-term set is empty")
    if kind == "conduel":
        ids = spanner.member_ids
        return ids[int(rng_sel.integers(len(ids)))], ids[int(rng_sel.integers(len(ids)))]
    if kind == "conduel-random":
        return int(rng_sel.integers(n)), int(rng_sel.integers(n))
    if kind == "conduel-maxinp":
        return _max_info_pair(keyterm_feats, design)
    raise DomainError(f"policy kind {kind!r} does not converse")


def _max_info_pair(feats: np.ndarray, design: DesignMatrix):
    """argmax over pairs k < k' of ||x_k - x_k'||_{M^-1}; first hit in
    row-major order.

    Scans the upper triangle of the pair matrix in row blocks.  A block
    starting at row s covers only the columns right of s, and takes as many
    rows as keep rows x columns x d within ``_PAIR_BLOCK_MULADDS``, so its
    cross product stays a single-threaded gemm and its temporaries stay in
    L2.  A block shape can move the last bit of a cross product, so two
    pairs whose distances agree to within rounding may tie-break
    differently than under another blocking.
    """
    n, d = feats.shape
    proj = feats @ design.m_inv  # n x d
    quad = np.einsum("ij,ij->i", proj, feats)
    best_val, best_pair = -np.inf, (0, min(1, n - 1))
    start = 0
    while start < n - 1:
        width = n - 1 - start  # columns start + 1 .. n - 1
        stop = min(start + max(1, _PAIR_BLOCK_MULADDS // (width * d)), n - 1)
        cross = proj[start:stop] @ feats[start + 1 :].T
        cross *= 2.0
        dist2 = quad[start:stop, None] + quad[None, start + 1 :]
        dist2 -= cross
        # entries at or left of the diagonal are self-pairs or repeat a
        # pair as (high, low)
        dist2[np.tri(stop - start, width, -1, dtype=bool)] = -np.inf
        r, c = divmod(int(np.argmax(dist2)), width)
        val = float(dist2[r, c])
        if val > best_val:  # strict: earliest block wins ties
            best_val, best_pair = val, (start + r, start + 1 + c)
        start = stop
    return best_pair


def build_candidate_set(pool_feats, theta_proj, design: DesignMatrix, alpha: float) -> np.ndarray:
    """Positions of arms whose optimistic estimate beats every pool member.

    Keeps a iff (x_a - x_a')^T theta + alpha ||x_a - x_a'||_{M^-1} > 0 for
    every a' whose features differ from x_a (strict).  An arm ties with itself
    and with its twins, arms of identical features, so twins never eliminate
    each other.  Numerically empty output falls back to the whole pool.
    """
    if alpha < 0.0:
        raise DomainError("alpha must be nonnegative")
    pool_feats = np.asarray(pool_feats, dtype=float)
    util = pool_feats @ np.asarray(theta_proj, dtype=float)
    gram = pool_feats @ design.m_inv @ pool_feats.T
    diag = np.diag(gram).copy()
    # sqrt(max(diag_a + diag_b - 2 gram, 0)) in place, in that order
    gram *= 2.0
    dist = diag[:, None] + diag[None, :]
    dist -= gram
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    ucb = util[:, None] - util[None, :] + alpha * dist
    # Twins are masked rather than tested with ">= 0": round-off in the gram
    # matrix can leave a twin pair's entry slightly negative.  Twins share
    # their first coordinate, so a pool without a repeated one has no twins
    # and needs only the diagonal (the full mask costs several times more).
    first = np.sort(pool_feats[:, 0])
    if np.any(first[1:] == first[:-1]):
        ucb[(pool_feats[:, None] == pool_feats[None]).all(axis=2)] = np.inf
    else:
        np.fill_diagonal(ucb, np.inf)
    keep = np.nonzero(ucb.min(axis=1) > 0.0)[0]
    if keep.size == 0:
        return np.arange(pool_feats.shape[0])
    return keep


def select_arm_pair(kind, candidates, pool_feats, design: DesignMatrix, rng_sel):
    """Pick the duel pair from the candidate positions.

    random-opt draws both uniformly without replacement.  Every other GLM
    dueling kind draws the first arm uniformly and duels it against the
    candidate most uncertain relative to it, the first maximum of
    ||x_a - x_first||_{M^-1}.  That departs from MaxInP, which duels the
    most uncertain pair overall.  A single candidate duels itself.
    """
    if kind not in CONVERSATIONAL_KINDS + PLAIN_KINDS:
        raise DomainError(f"policy kind {kind!r} does not duel arms")
    candidates = np.asarray(candidates, dtype=int)
    if candidates.size == 0:
        raise StructuralError("candidate set is empty")
    if candidates.size == 1:
        a = int(candidates[0])
        return a, a
    if kind == "random-opt":
        i, j = rng_sel.choice(candidates.size, size=2, replace=False)
        return int(candidates[i]), int(candidates[j])
    feats = pool_feats[candidates]
    first = int(rng_sel.integers(candidates.size))
    gaps = feats - feats[first]
    second = int(np.argmax(design.inv_quad_rows(gaps)))
    return int(candidates[first]), int(candidates[second])


class DuelPolicy:
    """GLM dueling policy driven by the shared Newton estimate.

    A round is the conversation phase (``converse``), a refit, and the duel
    phase (``duel``).  Conversational kinds spend the round's conversation
    budget on key-term duels before refitting; the plain kinds skip that
    phase entirely, which makes a zero-budget conversational run and its
    plain counterpart trace-identical under one seed.  Each refit carries
    its last fit forward in a ``WarmStart``.
    """

    def __init__(
        self,
        kind: str,
        link: LinkFunction,
        keyterm_feats: np.ndarray,
        spanner: Spanner | None,
        stream: streams.RunStream,
        config: DuelConfig | None = None,
    ):
        if kind not in CONVERSATIONAL_KINDS + PLAIN_KINDS:
            raise DomainError(f"unknown GLM dueling policy kind {kind!r}")
        self.kind = kind
        self.link = link
        self.keyterm_feats = np.asarray(keyterm_feats, dtype=float)
        self.spanner = spanner
        self.stream = stream
        self.config = config or DuelConfig()
        self.d = self.keyterm_feats.shape[1]
        self.history = InteractionHistory(self.d, LAM / link.kappa1)
        zero = np.zeros(self.d)
        self.estimate = ThetaEstimate(zero, zero.copy(), False, 0)
        self._warm = WarmStart(self.d)
        self.converses = kind in CONVERSATIONAL_KINDS
        if self.converses and kind == "conduel" and spanner is None:
            raise StructuralError("conduel requires a spanner")

    def radius(self, t: int, b_of_t: float) -> float:
        return self.config.radius_scale * dueling_radius(t, b_of_t, self.d, self.link.kappa1)

    def play_round(self, pool_ids, pool_feats, oracle, t, n_conversations, b_of_t) -> RoundRecord:
        conversations = self.converse(oracle, t, n_conversations)
        self.estimate = mle_fit(self.history, LAM, self.link, warm=self._warm)
        return self.duel(pool_ids, pool_feats, oracle, t, b_of_t, conversations)

    def converse(self, oracle, t, n_conversations) -> list:
        """The conversation phase: (k, k', outcome) of each key-term duel."""
        conversations = []
        if self.converses and n_conversations > 0:
            rng_sel = self.stream.at(t, streams.KEYTERM_SELECT)
            rng_fb = self.stream.at(t, streams.KEYTERM_FEEDBACK)
            for _ in range(n_conversations):
                k1, k2 = select_keyterm_pair(
                    self.kind, rng_sel, self.spanner, self.keyterm_feats, self.history.design
                )
                diff = self.keyterm_feats[k1] - self.keyterm_feats[k2]
                won = oracle.duel(self.keyterm_feats[k1], self.keyterm_feats[k2], rng_fb)
                self.history.append(diff, won)
                conversations.append((k1, k2, won))
        return conversations

    def duel(self, pool_ids, pool_feats, oracle, t, b_of_t, conversations) -> RoundRecord:
        """The duel phase, on the estimate of this round's refit."""
        # policies without a conversation module have no key-term observations,
        # so their radius counts arm rounds only
        alpha = self.radius(t, b_of_t if self.converses else 0.0)
        design = self.history.design
        candidates = build_candidate_set(pool_feats, self.estimate.theta_proj, design, alpha)
        i, j = select_arm_pair(
            self.kind, candidates, pool_feats, design, self.stream.at(t, streams.ARM_SELECT)
        )
        won = oracle.duel(pool_feats[i], pool_feats[j], self.stream.at(t, streams.ARM_FEEDBACK))
        self.history.append(pool_feats[i] - pool_feats[j], won)
        return RoundRecord(
            pair=(i, j),
            pair_ids=(int(pool_ids[i]), int(pool_ids[j])),
            outcome=won,
            conversations=conversations,
            n_candidates=int(len(candidates)),
        )


class DuelGroup:
    """GLM dueling policies of one kind played in lockstep.

    Their histories share one ``HistoryStack``.  A round is every policy's
    conversation phase, one ``fit`` of them all (one stacked Newton solve
    and projection), then every policy's duel phase.  Each policy draws,
    observes and estimates exactly what ``DuelPolicy.play_round`` gives it
    alone, since every cell of a kind appends the same number of rows a
    round and the stacked fit is bit for bit the fit of each history.
    """

    def __init__(self, policies: list):
        self.policies = policies
        self.stack = HistoryStack(len(policies), policies[0].d)
        for policy in policies:
            policy.history.join(self.stack)

    def fit(self) -> None:
        """Refit every policy's estimate."""
        warms = [policy._warm for policy in self.policies]
        estimates = mle_fit_stack(self.stack, LAM, self.policies[0].link, warms)
        for policy, estimate in zip(self.policies, estimates):
            policy.estimate = estimate


class RconucbPolicy:
    """Adapted relative-feedback linear baseline.

    Two ridge regressions: key-term duels become absolute observations
    (posneg: winner 1, loser 0; diff: winner-minus-loser difference with
    label 1), and the key-term estimate is blended into the arm-level ridge
    as a prior with weight one half.  Arm selection is single-arm linear UCB
    on a Bernoulli(sigmoid(utility)) click; the round record repeats the
    single arm so the harness attributes the full utility gap.
    """

    prior_weight = 0.5

    def __init__(self, kind: str, keyterm_feats: np.ndarray, stream: streams.RunStream):
        if kind not in RCONUCB_KINDS:
            raise DomainError(f"unknown linear baseline kind {kind!r}")
        self.kind = kind
        self.keyterm_feats = np.asarray(keyterm_feats, dtype=float)
        self.stream = stream
        self.d = self.keyterm_feats.shape[1]
        self.arm_design = DesignMatrix(self.d, LAM)
        self.arm_b = np.zeros(self.d)
        self.key_design = DesignMatrix(self.d, LAM)
        self.key_b = np.zeros(self.d)

    def radius(self, t: int) -> float:
        # the baseline runs with its own standard width, not the calibrated
        # shrink the GLM policies share
        d = self.d
        return math.sqrt(LAM) + _CLICK_NOISE_LEVEL * math.sqrt(
            2.0 * math.log(1.0 / DELTA) + d * math.log(1.0 + t / (d * LAM))
        )

    def play_round(self, pool_ids, pool_feats, oracle, t, n_conversations, b_of_t) -> RoundRecord:
        conversations = []
        if n_conversations > 0:
            rng_sel = self.stream.at(t, streams.KEYTERM_SELECT)
            rng_fb = self.stream.at(t, streams.KEYTERM_FEEDBACK)
            n_key = self.keyterm_feats.shape[0]
            for _ in range(n_conversations):
                k1 = int(rng_sel.integers(n_key))
                k2 = int(rng_sel.integers(n_key))
                won = oracle.duel(self.keyterm_feats[k1], self.keyterm_feats[k2], rng_fb)
                win, lose = (k1, k2) if won else (k2, k1)
                if self.kind == "rconucb-posneg":
                    self.key_design.update(self.keyterm_feats[win])
                    self.key_b += self.keyterm_feats[win]
                    self.key_design.update(self.keyterm_feats[lose])
                else:
                    diff = self.keyterm_feats[win] - self.keyterm_feats[lose]
                    self.key_design.update(diff)
                    self.key_b += diff
                conversations.append((k1, k2, won))

        theta_key = self.key_design.m_inv @ self.key_b
        theta = self.arm_design.m_inv @ (self.arm_b + self.prior_weight * LAM * theta_key)
        a = int(np.argmax(ucb_utilities(theta, self.arm_design, self.radius(t), pool_feats)))
        click = oracle.click(pool_feats[a], self.stream.at(t, streams.ARM_FEEDBACK))
        self.arm_design.update(pool_feats[a])
        self.arm_b += click * pool_feats[a]
        return RoundRecord(
            pair=(a, a),
            pair_ids=(int(pool_ids[a]), int(pool_ids[a])),
            outcome=click,
            conversations=conversations,
            n_candidates=len(pool_ids),
        )
