"""Regularized maximum-likelihood estimation from dueling observations.

Observations are difference vectors with binary outcomes, from arm duels and
key-term duels alike; both enter one likelihood.  ``InteractionHistory``
stores them feature-major, one column per difference vector, so every pass
of a fit over the history reads contiguous length-n rows.  ``DuelObjective``
is the likelihood's only implementation: the strictly concave

    sum_s [ o_s * d_s^T theta - m(d_s^T theta) ] - (lam / 2) ||theta||^2,

with m the primitive of the link (``link.anti``), together with its score, the
regularized mean-value map g and the Jacobian of g.  ``_newton`` is the one
damped-Newton solver; it fits this objective and the choice-model
likelihood of ``mnl`` alike, and ``_start`` is its one entry: a refit of a
growing history starts from the estimate that its previous fit, carried in a
``WarmStart``, predicts for the rows appended since, when that start passes
a likelihood check; a cold fit is a fresh ``WarmStart`` and starts at zero.
When the fit leaves the unit ball it is pulled back by minimizing
|| g(theta) - g(theta_hat) ||_{M^-1} over the ball, a Gauss-Newton solve on
the unit sphere built from the same object's g and Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, StructuralError
from .glm import DesignMatrix, LinkFunction

__all__ = [
    "InteractionHistory",
    "ThetaEstimate",
    "WarmStart",
    "DuelObjective",
    "mle_fit",
    "project_theta",
    "dueling_radius",
]

_MAX_DIFF_NORM = 2.0 + 1e-9

# Ridge lam of both likelihoods, the dueling one here and the choice-model one
# of ``mnl``, and of the linear baselines' ridge regressions.
LAM = 1.0

# Newton stopping rule: the score norm at which a fit stops, and the cap on
# iterations before it is declared unconverged.
_TOL = 1e-8
_MAX_ITERS = 100

# Round-off allowed when a predicted start is checked against the value of
# the last estimate: that value sums the same terms in another order.
_START_REL_SLACK = 1e-12

# Projection stopping rule: the relative decrease of F below which it stops,
# and the cap on Gauss-Newton steps.
_PROJECT_REL_TOL = 1e-9
_PROJECT_MAX_ITERS = 500


class InteractionHistory:
    """Append-only store of dueling observations and their design matrix.

    The store is feature-major, with its last axis running over
    observations like ``ChoiceHistory.slots``: ``cols`` (d, n) holds one
    difference vector per column, so each feature's values over the history
    are one contiguous row.  ``diffs`` (n, d) is its transposed view and
    ``outcomes`` (n,) the binary outcomes.  ``design`` is ``ridge * I`` plus
    the sum of d d^T over every stored difference.
    """

    __slots__ = ("dim", "design", "_cols", "_outcomes", "n")

    def __init__(self, dim: int, ridge: float):
        self.dim = int(dim)
        self.design = DesignMatrix(self.dim, ridge)
        self._cols = np.empty((self.dim, 64))
        self._outcomes = np.empty(64)
        self.n = 0

    def append(self, diff, outcome: int) -> None:
        diff = np.asarray(diff, dtype=float)
        if diff.shape != (self.dim,):
            raise StructuralError(f"difference vector must have shape ({self.dim},)")
        if math.sqrt(float(diff @ diff)) > _MAX_DIFF_NORM:
            raise StructuralError("difference vector norm exceeds 2")
        if outcome not in (0, 1):
            raise StructuralError("outcome must be 0 or 1")
        n = self.n
        if n == len(self._outcomes):
            grow = max(2 * n, 64)
            self._cols = _grown(self._cols, n, grow)
            self._outcomes = _grown(self._outcomes, n, grow)
        self._cols[:, n] = diff
        self._outcomes[n] = outcome
        self.n += 1
        self.design.update(diff)

    @property
    def cols(self) -> np.ndarray:
        return self._cols[:, : self.n]

    @property
    def diffs(self) -> np.ndarray:
        return self.cols.T

    @property
    def outcomes(self) -> np.ndarray:
        return self._outcomes[: self.n]

    def __len__(self) -> int:
        return self.n


def _grown(buf, n: int, size: int):
    """A copy of ``buf`` with its last axis grown to ``size``; the first n
    entries along it are kept."""
    out = np.empty(buf.shape[:-1] + (size,), dtype=buf.dtype)
    out[..., :n] = buf[..., :n]
    return out


@dataclass
class ThetaEstimate:
    theta_raw: np.ndarray
    theta_proj: np.ndarray
    projected: bool
    newton_iters: int


class WarmStart:
    """The last fit of a growing history, from which its next refit starts.

    ``theta`` is the raw estimate, ``info`` the information of Newton's last
    iteration (kept from an earlier fit when no iteration ran; None before
    the first iteration), ``value`` the objective at ``theta`` and ``rows``
    the history length at that fit.  A fresh one starts a cold fit at zero.
    A fit given a ``WarmStart`` advances it to its own result.
    """

    __slots__ = ("theta", "info", "value", "rows")

    def __init__(self, dim: int):
        self.theta = np.zeros(dim)
        self.info = None
        self.value = 0.0
        self.rows = 0


class DuelObjective:
    """Regularized dueling log-likelihood over one history, built once per fit.

    Serves the value, the score, the mean-value map
    g(theta) = sum mu(d^T theta) d + lam theta, its Jacobian
    J(theta) = sum mu'(d^T theta) d d^T + lam I (minus the Hessian of the
    value, hence ``information``).  It reads the history's feature-major
    view ``cols`` (d, n): the utilities are ``theta @ cols``, the score and
    the mean-value map ``cols @ r`` for a per-observation r, and the
    information ``cols @ (cols * w).T``, so each product runs over length-n
    rows.  Each method takes the pass of ``pass_at(theta)`` when the caller
    already has it: the utilities z and the link's tail of z, so every
    evaluated point pays for one exponential.  Inputs are not validated:
    callers pass finite float arrays of the history's dimension.

    ``start`` > 0 keeps only the rows from ``start`` on and drops the ridge:
    what those rows add to the objective over the first ``start`` rows.
    """

    __slots__ = ("history", "cols", "outcomes", "lam", "link", "_ridge")

    def __init__(self, history: InteractionHistory, lam: float, link: LinkFunction, start: int = 0):
        if lam <= 0.0:
            raise DomainError("lam must be positive")
        self.history = history
        self.cols = history.cols[:, start:]
        self.outcomes = history.outcomes[start:]
        self.lam = lam if start == 0 else 0.0
        self.link = link
        self._ridge = self.lam * np.eye(history.dim)

    def since(self, start: int) -> "DuelObjective":
        """The unregularized likelihood of the rows from ``start`` on."""
        return DuelObjective(self.history, self.lam, self.link, start)

    def pass_at(self, theta) -> tuple:
        """The utilities z = theta @ cols and the link's tail of z."""
        z = theta @ self.cols
        return z, self.link.tail(z)

    def value(self, theta, p=None) -> float:
        z, tail = self.pass_at(theta) if p is None else p
        reg = 0.5 * self.lam * float(theta @ theta)
        return float(self.outcomes @ z - self.link.anti(z, tail).sum()) - reg

    def value_and_pass(self, theta):
        """The value and the pass, which the other methods reuse."""
        p = self.pass_at(theta)
        return self.value(theta, p), p

    def score(self, theta, p=None) -> np.ndarray:
        """Gradient of the value; zero exactly at the MLE."""
        z, tail = self.pass_at(theta) if p is None else p
        return self.cols @ (self.outcomes - self.link.mu(z, tail)) - self.lam * theta

    def mean_map(self, theta, p=None) -> np.ndarray:
        z, tail = self.pass_at(theta) if p is None else p
        return self.cols @ self.link.mu(z, tail) + self.lam * theta

    def information(self, theta, p=None) -> np.ndarray:
        z, tail = self.pass_at(theta) if p is None else p
        w = self.link.slope(z, tail)
        return self.cols @ (self.cols * w).T + self._ridge


def _start(obj, warm: WarmStart) -> tuple:
    """A refit's start, its value and its pass.

    The rows appended since the fit in ``warm`` give, at its estimate
    theta_prev, their log-likelihood l, score g and information J_new; the
    predicted start is theta_prev + (J_prev + J_new)^-1 g, one Newton step on
    the whole history with the old rows' information taken from the last
    fit.  It is kept only when its value is at least f_prev + l, the value at
    theta_prev, less round-off, so a step that overshoots (J_prev is the
    information at the last fit's iterate, not at theta_prev) never starts
    the solve below the last estimate.  Otherwise, and before any Newton
    iteration has run, the start is theta_prev.
    """
    theta = warm.theta
    if warm.info is not None and len(obj.history) > warm.rows:
        new = obj.since(warm.rows)
        ell, p = new.value_and_pass(theta)
        pred = theta + np.linalg.solve(warm.info + new.information(theta, p), new.score(theta, p))
        floor = warm.value + ell
        f, aux = obj.value_and_pass(pred)
        if f >= floor - _START_REL_SLACK * (1.0 + abs(floor)):
            return pred, f, aux
    theta = theta.copy()
    f, aux = obj.value_and_pass(theta)
    return theta, f, aux


def _newton(obj, tol: float, what: str, warm: WarmStart) -> tuple:
    """Damped Newton ascent on a strictly concave objective; (theta,
    iterations, the pass at theta).

    ``obj`` serves ``value_and_pass(theta)``, which returns the value and a
    per-point pass (utilities and their link tail, or choice
    probabilities), ``score`` and ``information`` (minus the Hessian), which
    reuse that pass, and ``since(rows)`` and ``history`` for ``_start``.
    ``warm`` holds the last fit of the same growing history, or is fresh
    (zero) for a cold fit; the solve starts where ``_start`` says, and
    ``warm`` is advanced to this fit.  Each step is the Newton direction,
    halved until the value falls by no more than round-off; the accepted
    trial's value and pass carry over, so every point is evaluated once.
    When no trial down to 2^-40 is accepted, that smallest step is taken.
    Stops once ||score|| <= tol, and fails after ``_MAX_ITERS`` steps.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    theta, f0, aux = _start(obj, warm)
    grad = obj.score(theta, aux)
    grad_norm = math.sqrt(float(grad @ grad))
    iters = 0
    info = None
    while grad_norm > tol:
        if iters >= _MAX_ITERS:
            raise NumericalError(
                f"{what} Newton failed to converge: ||score|| = {grad_norm:.3e} "
                f"after {_MAX_ITERS} iterations"
            )
        info = obj.information(theta, aux)
        step = np.linalg.solve(info, grad)
        slack = 1e-13 * (1.0 + abs(f0))  # tolerate round-off near the optimum
        scale = 1.0
        while True:
            trial = theta + scale * step
            f, aux = obj.value_and_pass(trial)
            # the smallest step is taken even when no trial is accepted
            if f >= f0 - slack or scale <= 2.0 ** -40:
                break
            scale *= 0.5
        theta = trial
        if not np.all(np.isfinite(theta)):
            raise NumericalError(f"{what} estimate diverged")
        f0 = f
        grad = obj.score(theta, aux)
        grad_norm = math.sqrt(float(grad @ grad))
        iters += 1
    warm.theta, warm.value, warm.rows = theta, f0, len(obj.history)
    if info is not None:
        warm.info = info
    return theta, iters, aux


def mle_fit(
    history: InteractionHistory,
    lam: float,
    link: LinkFunction,
    tol: float = _TOL,
    warm: WarmStart | None = None,
) -> ThetaEstimate:
    """Newton fit of the regularized MLE, with projection onto the unit ball.

    ``warm``, the last fit of this history, gives the solve a predicted
    start (see ``_start``) and is advanced to this fit; without it the solve
    starts at zero.  The objective is strictly concave, so the solution does
    not depend on the start.  The projection measures in the history's own
    design matrix and reuses the fit's last pass.
    """
    obj = DuelObjective(history, lam, link)
    theta, iters, p = _newton(obj, tol, "MLE", warm or WarmStart(history.dim))
    if math.sqrt(float(theta @ theta)) > 1.0:
        return ThetaEstimate(theta, project_theta(theta, obj, history.design, p), True, iters)
    return ThetaEstimate(theta, theta.copy(), False, iters)


def project_theta(theta_raw, obj: DuelObjective, design: DesignMatrix, raw_pass=None) -> np.ndarray:
    """Pull an out-of-ball estimate back to the unit ball.

    Minimizes F(theta) = ||g(theta) - g(theta_raw)||^2_{M^-1} over the ball,
    with g the mean-value map of ``obj``.  The minimum lies on the sphere:
    grad F = 2 J M^-1 r, with r = g(theta) - g(theta_raw) and J the
    Jacobian of g, which is SPD for lam > 0, so the gradient vanishes only
    where r = 0, at theta_raw itself, outside the ball.  So the solve is
    Gauss-Newton on ||theta|| = 1 from the radially shrunk start.  Each
    iteration takes one ``information`` pass for J, forms H = J M^-1 J and
    the half-gradient q = J M^-1 r, takes the multiplier
    nu = max(-theta^T q, 0) of the sphere constraint, and solves the
    bordered system [[H + nu I, theta], [theta^T, 0]] for a tangent step.
    The stepped point is renormalized and accepted only when F strictly
    falls, the step halving otherwise, so the last iterate is the best one
    seen.  Stops on a relative decrease below the tolerance, on F at the
    floor, on a zero tangent step (always, at d=1), on no accepted step, or
    at the iteration cap.  ``raw_pass`` is ``obj.pass_at(theta_raw)`` when
    the caller has it.
    """
    theta_raw = np.asarray(theta_raw, dtype=float)
    raw_norm = float(np.linalg.norm(theta_raw))
    if raw_norm <= 1.0:
        return theta_raw.copy()
    m_inv = design.m_inv
    g_target = obj.mean_map(theta_raw, raw_pass)

    def residual(th):
        # F(th), the M^-1 residual, and the pass for the Jacobian
        p = obj.pass_at(th)
        r = obj.mean_map(th, p) - g_target
        w = m_inv @ r
        return float(r @ w), w, p

    dim = theta_raw.shape[0]
    # the bordered system; H + nu I is written in place through views
    kkt = np.zeros((dim + 1, dim + 1))
    rhs = np.zeros(dim + 1)
    gn_block = kkt[:dim, :dim]
    gn_diag = kkt.reshape(-1)[: dim * (dim + 2) : dim + 2]
    theta = theta_raw / raw_norm
    f_cur, w, p = residual(theta)
    floor = 1e-24  # below any scale the confidence radius can distinguish
    for _ in range(_PROJECT_MAX_ITERS):
        if f_cur <= floor:
            break
        jac = obj.information(theta, p)
        half_grad = jac @ w
        nu = max(-float(theta @ half_grad), 0.0)
        np.matmul(jac, m_inv @ jac, out=gn_block)
        gn_diag += nu
        kkt[:dim, dim] = theta
        kkt[dim, :dim] = theta
        rhs[:dim] = -half_grad
        step = np.linalg.solve(kkt, rhs)[:dim]
        if not step.any():  # at d=1 the tangent space is a point
            break
        moved = False
        scale = 1.0
        for _halving in range(30):
            cand = theta + scale * step
            cand = cand / math.sqrt(float(cand @ cand))
            f_new, w_new, p_new = residual(cand)
            if f_new < f_cur:
                moved = True
                break
            scale *= 0.5
        if not moved:
            break
        rel = (f_cur - f_new) / f_cur
        theta, f_cur, w, p = cand, f_new, w_new, p_new
        if rel < _PROJECT_REL_TOL:
            break
    return theta


def dueling_radius(
    t: int, b_of_t: float, d: int, lam: float, kappa1: float, delta: float
) -> float:
    """Confidence radius for pairwise estimates after round t.

    (2 / kappa1) * (R sqrt(d log((1 + 4 kappa1 (t + b(t)) / (d lam)) / delta))
                    + sqrt(lam kappa1) * S)
    with R = 1/2, the sub-Gaussian level of a coin-flip outcome, and S = 1,
    the norm bound on theta (preference vectors are unit norm).
    """
    if min(t, d, lam, kappa1) <= 0:
        raise DomainError("t, d, lam and kappa1 must be positive")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if b_of_t < 0.0:
        raise DomainError("b(t) must be nonnegative")
    # t, d, lam, kappa1 > 0, b >= 0 and delta < 1 put the argument above 1
    inner = d * math.log((1.0 + 4.0 * kappa1 * (t + b_of_t) / (d * lam)) / delta)
    return (2.0 / kappa1) * (0.5 * math.sqrt(inner) + math.sqrt(lam * kappa1))
