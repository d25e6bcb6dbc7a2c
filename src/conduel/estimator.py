"""Regularized maximum-likelihood estimation from dueling observations.

Observations are difference vectors with binary outcomes, from arm duels and
key-term duels alike; both enter one likelihood.  ``DuelObjective`` is its
only implementation: the strictly concave

    sum_s [ o_s * d_s^T theta - m(d_s^T theta) ] - (lam / 2) ||theta||^2,

with m the primitive of the link (``link.anti``), together with its score, the
regularized mean-value map g and the Jacobian of g.  ``_newton`` is the one
damped-Newton solver; it fits this objective and the choice-model
likelihood of ``mnl`` alike.  When the fit leaves the unit ball it is pulled
back by minimizing || g(theta) - g(theta_hat) ||_{M^-1} over the ball, a
Gauss-Newton solve on the unit sphere built from the same object's g and
Jacobian.
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
    "DuelObjective",
    "mle_fit",
    "project_theta",
    "dueling_radius",
]

_MAX_DIFF_NORM = 2.0 + 1e-9

# Newton stopping rule: the score norm at which a fit stops, and the cap on
# iterations before it is declared unconverged.
_TOL = 1e-8
_MAX_ITERS = 100

# Projection stopping rule: the relative decrease of F below which it stops,
# and the cap on Gauss-Newton steps.
_PROJECT_REL_TOL = 1e-9
_PROJECT_MAX_ITERS = 500


class InteractionHistory:
    """Append-only store of dueling observations and their design matrix.

    Keeps difference vectors and outcomes in growing buffers so fits can
    read contiguous array views without copying, and ``design``, the
    ``ridge * I`` plus the sum of d d^T over every stored difference.
    """

    __slots__ = ("dim", "design", "_diffs", "_outcomes", "n")

    def __init__(self, dim: int, ridge: float):
        self.dim = int(dim)
        self.design = DesignMatrix(self.dim, ridge)
        self._diffs = np.empty((64, self.dim))
        self._outcomes = np.empty(64)
        self.n = 0

    def append(self, diff, outcome: int) -> None:
        diff = np.asarray(diff, dtype=float)
        if diff.shape != (self.dim,):
            raise StructuralError(f"difference vector must have shape ({self.dim},)")
        if float(np.linalg.norm(diff)) > _MAX_DIFF_NORM:
            raise StructuralError("difference vector norm exceeds 2")
        if outcome not in (0, 1):
            raise StructuralError("outcome must be 0 or 1")
        if self.n == len(self._outcomes):
            grow = max(2 * self.n, 64)
            self._diffs = np.resize(self._diffs, (grow, self.dim))
            self._outcomes = np.resize(self._outcomes, grow)
        self._diffs[self.n] = diff
        self._outcomes[self.n] = outcome
        self.n += 1
        self.design.update(diff)

    @property
    def diffs(self) -> np.ndarray:
        return self._diffs[: self.n]

    @property
    def outcomes(self) -> np.ndarray:
        return self._outcomes[: self.n]

    def __len__(self) -> int:
        return self.n


@dataclass
class ThetaEstimate:
    theta_raw: np.ndarray
    theta_proj: np.ndarray
    projected: bool
    newton_iters: int


class DuelObjective:
    """Regularized dueling log-likelihood over one history, built once per fit.

    Serves the value, the score, the mean-value map
    g(theta) = sum mu(d^T theta) d + lam theta, its Jacobian
    J(theta) = sum mu'(d^T theta) d d^T + lam I (minus the Hessian of the
    value, hence ``information``).  Each method
    takes the utility pass ``z = diffs @ theta`` when the caller already has
    it.  Inputs are not validated: callers pass finite float arrays of the
    history's dimension.
    """

    __slots__ = ("diffs", "outcomes", "lam", "link", "_ridge")

    def __init__(self, history: InteractionHistory, lam: float, link: LinkFunction):
        if lam <= 0.0:
            raise DomainError("lam must be positive")
        self.diffs = history.diffs
        self.outcomes = history.outcomes
        self.lam = lam
        self.link = link
        self._ridge = lam * np.eye(history.dim)

    def value(self, theta, z=None) -> float:
        if z is None:
            z = self.diffs @ theta
        reg = 0.5 * self.lam * float(theta @ theta)
        return float(self.outcomes @ z - self.link.anti(z).sum()) - reg

    def value_and_pass(self, theta):
        """The value and the utility pass z, which the other methods reuse."""
        z = self.diffs @ theta
        return self.value(theta, z), z

    def score(self, theta, z=None) -> np.ndarray:
        """Gradient of the value; zero exactly at the MLE."""
        if z is None:
            z = self.diffs @ theta
        return self.diffs.T @ (self.outcomes - self.link.mu(z)) - self.lam * theta

    def mean_map(self, theta, z=None) -> np.ndarray:
        if z is None:
            z = self.diffs @ theta
        return self.diffs.T @ self.link.mu(z) + self.lam * theta

    def information(self, theta, z=None) -> np.ndarray:
        if z is None:
            z = self.diffs @ theta
        w = self.link.slope(z)
        return self.diffs.T @ (w[:, None] * self.diffs) + self._ridge


def _newton(obj, dim: int, theta0, tol: float, max_iters: int, what: str) -> tuple:
    """Damped Newton ascent on a strictly concave objective; (theta, iterations).

    ``obj`` serves ``value_and_pass(theta)``, which returns the value and a
    per-point pass (utilities or choice probabilities), and ``score`` and
    ``information`` (minus the Hessian), which reuse that pass.  Each step
    is the Newton direction, halved until the value falls by no more than
    round-off; the accepted trial's value and pass carry over, so every
    point is evaluated once.  When no trial down to 2^-40 is accepted, that
    smallest step is taken.  Stops once ||score|| <= tol.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    theta = np.zeros(dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    f0, aux = obj.value_and_pass(theta)
    grad = obj.score(theta, aux)
    grad_norm = math.sqrt(float(grad @ grad))
    iters = 0
    while grad_norm > tol:
        if iters >= max_iters:
            raise NumericalError(
                f"{what} Newton failed to converge: ||score|| = {grad_norm:.3e} "
                f"after {max_iters} iterations"
            )
        step = np.linalg.solve(obj.information(theta, aux), grad)
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
    return theta, iters


def mle_fit(
    history: InteractionHistory,
    lam: float,
    link: LinkFunction,
    tol: float = _TOL,
    max_iters: int = _MAX_ITERS,
    theta0=None,
) -> ThetaEstimate:
    """Newton fit of the regularized MLE, with projection onto the unit ball.

    ``theta0`` warm-starts the solve (the objective is strictly concave, so
    the solution does not depend on it).  The projection measures in the
    history's own design matrix.
    """
    obj = DuelObjective(history, lam, link)
    theta, iters = _newton(obj, history.dim, theta0, tol, max_iters, "MLE")
    if float(np.linalg.norm(theta)) > 1.0:
        return ThetaEstimate(theta, project_theta(theta, obj, history.design), True, iters)
    return ThetaEstimate(theta, theta.copy(), False, iters)


def project_theta(theta_raw, obj: DuelObjective, design: DesignMatrix) -> np.ndarray:
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
    floor, on no accepted step, or at the iteration cap.
    """
    theta_raw = np.asarray(theta_raw, dtype=float)
    raw_norm = float(np.linalg.norm(theta_raw))
    if raw_norm <= 1.0:
        return theta_raw.copy()
    m_inv = design.m_inv
    g_target = obj.mean_map(theta_raw)

    def residual(th):
        # F(th), the M^-1 residual, and the utility pass for the Jacobian
        z = obj.diffs @ th
        r = obj.mean_map(th, z) - g_target
        w = m_inv @ r
        return float(r @ w), w, z

    dim = theta_raw.shape[0]
    # the bordered system; H + nu I is written in place through views
    kkt = np.zeros((dim + 1, dim + 1))
    rhs = np.zeros(dim + 1)
    gn_block = kkt[:dim, :dim]
    gn_diag = kkt.reshape(-1)[: dim * (dim + 2) : dim + 2]
    theta = theta_raw / raw_norm
    f_cur, w, z = residual(theta)
    floor = 1e-24  # below any scale the confidence radius can distinguish
    for _ in range(_PROJECT_MAX_ITERS):
        if f_cur <= floor:
            break
        jac = obj.information(theta, z)
        half_grad = jac @ w
        nu = max(-float(theta @ half_grad), 0.0)
        np.matmul(jac, m_inv @ jac, out=gn_block)
        gn_diag += nu
        kkt[:dim, dim] = theta
        kkt[dim, :dim] = theta
        rhs[:dim] = -half_grad
        step = np.linalg.solve(kkt, rhs)[:dim]
        moved = False
        scale = 1.0
        for _halving in range(30):
            cand = theta + scale * step
            cand = cand / math.sqrt(float(cand @ cand))
            f_new, w_new, z_new = residual(cand)
            if f_new < f_cur:
                moved = True
                break
            scale *= 0.5
        if not moved:
            break
        rel = (f_cur - f_new) / f_cur
        theta, f_cur, w, z = cand, f_new, w_new, z_new
        if rel < _PROJECT_REL_TOL:
            break
    return theta


def dueling_radius(
    t: int, b_of_t: float, d: int, lam: float, kappa1: float, delta: float = 0.1
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
