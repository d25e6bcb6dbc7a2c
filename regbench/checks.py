"""Correctness checks computed apart from the library.

Every quantity here is recomputed with plain numpy from the model's
definitions (logistic link, pool-best dueling regret, multinomial-logit
revenue), never by calling back into ``conduel``.  Each check returns a list
of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# Regret traces are clamped at 0 and rounded to float64; a recomputation in a
# different order agrees to well below this.
REGRET_ATOL = 1e-12
# optimal_assortment stops its threshold bisection at 1e-10 in revenue.
REVENUE_ATOL = 1e-9


def duel_regret_failures(label, inst, rounds, arms, theta_star):
    """Recompute each round's regret from the pool and the played pair.

    ``rounds`` holds (t, pool_ids, (i, j)) per round, with pair positions
    relative to the pool; the adapted linear baselines report (a, a).
    """
    bad = []
    if len(rounds) != len(inst):
        return [f"{label}: captured {len(rounds)} rounds, trace has {len(inst)}"]
    for t, pool_ids, (i, j) in rounds:
        util = arms[pool_ids] @ theta_star
        mine = util.max() - 0.5 * (util[i] + util[j])
        got = inst[t - 1]
        if mine < -REGRET_ATOL or got < 0.0:
            bad.append(f"{label} round {t}: negative regret (recomputed {float(mine)!r}, trace {float(got)!r})")
        elif abs(max(mine, 0.0) - got) > REGRET_ATOL:
            bad.append(f"{label} round {t}: trace regret {float(got)!r} but pool and pair give {float(mine)!r}")
        if len(bad) >= 5:
            break
    return bad


def regret_fall_failures(label, inst_rows, band: float = 0.1):
    """Mean instantaneous regret over the first band of rounds must exceed
    the mean over the last band (averaged over cells)."""
    inst = np.asarray(inst_rows)
    width = max(1, int(inst.shape[1] * band))
    first = float(inst[:, :width].mean())
    last = float(inst[:, -width:].mean())
    if not last < first:
        return [f"{label}: mean regret did not fall (first {width} rounds {first:.4g}, last {last:.4g})"]
    return []


def sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def estimator_failures(label, fits):
    """Each fit: (diffs, outcomes, lam, tol, theta_raw, theta_proj).

    The score of the regularized logistic likelihood at theta_raw must have
    norm at most tol, and the projected estimate must lie in the unit ball.
    """
    bad = []
    for diffs, outcomes, lam, tol, theta_raw, theta_proj in fits:
        score = diffs.T @ (outcomes - sigmoid(diffs @ theta_raw)) - lam * theta_raw
        norm = float(np.linalg.norm(score))
        # the fit stops once its own evaluation of the same norm is <= tol;
        # allow the rounding of a differently ordered sum on top
        if norm > tol + 1e-12:
            bad.append(f"{label}: score norm {norm:.3e} > tol {tol:g} after {len(outcomes)} observations")
        if float(np.linalg.norm(theta_proj)) > 1.0 + 1e-12:
            bad.append(f"{label}: projected estimate has norm {float(np.linalg.norm(theta_proj))!r} > 1")
        if len(bad) >= 5:
            break
    return bad


class BruteForceAssortment:
    """Exact optimum over every assortment of size 1..q from an n-item pool."""

    def __init__(self, n: int, q: int):
        # rows of ascending item indices, padded with n (a zero-weight item);
        # size-k rows extend each size-(k-1) row by every larger index
        level = np.arange(n, dtype=np.int32)[:, None]
        blocks = [level]
        for _ in range(1, q):
            grow = n - 1 - level[:, -1]
            first = np.repeat(level[:, -1] + 1, grow)
            step = np.arange(grow.sum()) - np.repeat(np.cumsum(grow) - grow, grow)
            level = np.hstack([np.repeat(level, grow, axis=0), (first + step)[:, None]])
            blocks.append(level)
        self.index = np.vstack([
            np.hstack([b, np.full((len(b), q - b.shape[1]), n, dtype=np.int32)]) for b in blocks
        ])

    def revenues(self, z, r):
        """Expected revenue of every assortment under utilities z, revenues r."""
        z = np.asarray(z, dtype=float)
        shift = max(float(z.max()), 0.0)
        v = np.append(np.exp(z - shift), 0.0)
        rv = np.append(np.asarray(r, dtype=float) * v[:-1], 0.0)
        return rv[self.index].sum(axis=1) / (math.exp(-shift) + v[self.index].sum(axis=1))

    def best(self, z, r) -> float:
        # the empty offer earns 0
        return max(float(self.revenues(z, r).max()), 0.0)


def revenue(z, r, offered) -> float:
    offered = np.asarray(offered, dtype=int)
    if offered.size == 0:
        return 0.0
    z = np.asarray(z, dtype=float)
    shift = max(float(z[offered].max()), 0.0)
    v = np.exp(z[offered] - shift)
    return float((np.asarray(r, dtype=float)[offered] * v).sum() / (math.exp(-shift) + v.sum()))


def assortment_failures(label, calls, brute: BruteForceAssortment):
    """Each call: (z, revenues, q, selection) as passed to and returned by the
    optimizer.  The selection's revenue must match the brute-force optimum."""
    bad = []
    for z, r, q, sel in calls:
        if len(sel) > q:
            bad.append(f"{label}: assortment of size {len(sel)} exceeds q={q}")
            continue
        opt = brute.best(z, r)
        got = revenue(z, r, sel)
        if abs(opt - got) > REVENUE_ATOL * max(1.0, abs(opt)):
            bad.append(f"{label}: assortment earns {got!r}, brute-force optimum {opt!r}")
        if len(bad) >= 5:
            break
    return bad


def mnl_regret_failures(label, inst, rounds, arms, theta_star, brute: BruteForceAssortment):
    """Revenue regret on captured rounds: brute-force optimum under the true
    model (revenues are the true utilities) minus the offered set's revenue."""
    bad = []
    for t, pool_ids, offered in rounds:
        util = arms[pool_ids] @ theta_star
        mine = brute.best(util, util) - revenue(util, util, offered)
        got = inst[t - 1]
        if mine < -REVENUE_ATOL or got < 0.0:
            bad.append(f"{label} round {t}: negative revenue regret (recomputed {float(mine)!r}, trace {float(got)!r})")
        elif abs(max(mine, 0.0) - got) > REVENUE_ATOL:
            bad.append(f"{label} round {t}: trace regret {float(got)!r} but brute force gives {float(mine)!r}")
        if len(bad) >= 5:
            break
    return bad


def paired_not_worse_failures(label, ours, baseline, t_limit: float = 3.0):
    """Final regret, paired by cell: ours may not exceed the baseline's by
    more than ``t_limit`` standard errors of the mean paired difference.

    A plain "lower on average" test is too weak a signal for a per-run check
    at a few hundred rounds: it failed on 2 of 21 seeds of correct code.
    """
    gap = np.asarray(baseline).sum(axis=1) - np.asarray(ours).sum(axis=1)
    se = float(gap.std(ddof=1)) / math.sqrt(len(gap))
    if gap.mean() < -t_limit * se:
        return [f"{label}: final regret above the baseline's by {-gap.mean():.4g} "
                f"(> {t_limit:g} standard errors of {se:.4g}, {len(gap)} paired cells)"]
    return []


def nonnegative_failures(label, inst_rows):
    low = float(np.min(inst_rows))
    return [f"{label}: trace holds negative regret {low!r}"] if low < 0.0 else []
