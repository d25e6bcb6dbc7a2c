"""Regularized maximum-likelihood estimation from dueling observations.

Observations are difference vectors with binary outcomes, from arm duels and
key-term duels alike; both enter one likelihood.  ``InteractionHistory``
stores them feature-major, one column per difference vector, so every pass
of a fit over the history reads contiguous length-n rows; the histories of
cells played in lockstep are the rows of one ``HistoryStack``.
``DuelObjective`` is the likelihood's only implementation: the strictly
concave

    sum_s [ o_s * d_s^T theta - m(d_s^T theta) ] - (lam / 2) ||theta||^2,

with m the primitive of the link (``link.anti``), together with its score, the
regularized mean-value map g and the Jacobian of g, over one history or, cell
by cell, over a stack.  ``_newton`` is the one damped-Newton solver; it fits
this objective and the choice-model likelihood of ``mnl`` alike, and
``_start`` is its one entry: a refit of a growing history starts from the
estimate that its previous fit, carried in a ``WarmStart``, predicts for the
rows appended since, when that start passes a likelihood check; a cold fit
is a fresh ``WarmStart`` and starts at zero.  When the fit leaves the unit
ball it is pulled back by minimizing || g(theta) - g(theta_hat) ||_{M^-1}
over the ball, a Gauss-Newton solve on the unit sphere built from the same
object's g and Jacobian (``_project``).  The solver and the projection run
over one history, the one-cell calls ``mle_fit`` and ``project_theta``, or
over every row of a stack at once (``mle_fit_stack``): each step is one
stacked product, solve or pass over every cell, a cell that has stopped
held at its point by a mask until the last one stops, and every slice of a
stacked ``np.matmul``, ``np.vecmat``, ``np.matvec``, ``np.vecdot`` or
``np.linalg.solve`` is bit for bit the one-history result, so a cell's
estimate does not depend on the cells it is stacked with.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CellError, DomainError, StructuralError
from .glm import DesignMatrix, LinkFunction

__all__ = [
    "HistoryStack",
    "InteractionHistory",
    "ThetaEstimate",
    "WarmStart",
    "DuelObjective",
    "mle_fit",
    "mle_fit_stack",
    "project_theta",
    "dueling_radius",
]

_MAX_DIFF_NORM = 2.0 + 1e-9

# Ridge lam of both likelihoods, the dueling one here and the choice-model one
# of ``mnl``, and of the linear baselines' ridge regressions.
LAM = 1.0

# Confidence level delta of the GLM dueling radius and the linear baselines'.
DELTA = 0.1

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

# History columns (bytes) one block of a stacked fit works on: past about
# this size a stack's passes leave the core's cache, and a block of fewer
# rows beats one of all of them (see ``mle_fit_stack``).
_STACK_BLOCK_BYTES = 2**20


class HistoryStack:
    """One buffer for the dueling histories of cells played in lockstep.

    ``rows`` lists the ``InteractionHistory`` of each cell.  Their
    differences share the buffer (cells, d, capacity) and their outcomes the
    buffer (cells, capacity), so a fit of every cell at once reads them as
    ``cols`` (cells, d, n) and ``outcomes`` (cells, n), whose slices keep the
    strides of a single history's views.  That takes every row to hold the
    same n observations, as it does when each cell of a lockstep round
    appends the same number.  A history made on its own is the one row of
    its own stack.
    """

    __slots__ = ("dim", "rows", "_cols", "_outcomes")

    def __init__(self, cells: int, dim: int):
        self.dim = int(dim)
        self.rows = []
        self._cols = np.empty((cells, self.dim, 64))
        self._outcomes = np.empty((cells, 64))

    def __len__(self) -> int:
        counts = {h.n for h in self.rows}
        if len(self.rows) != len(self._cols) or len(counts) != 1:
            raise StructuralError("a stack's histories must all hold the same number of rows")
        return counts.pop()

    @property
    def cols(self) -> np.ndarray:
        return self._cols[:, :, : len(self)]

    @property
    def outcomes(self) -> np.ndarray:
        return self._outcomes[:, : len(self)]

    def _grow(self) -> None:
        size = self._outcomes.shape[1]
        self._cols = _grown(self._cols, size, 2 * size)
        self._outcomes = _grown(self._outcomes, size, 2 * size)


class InteractionHistory:
    """Append-only store of one cell's dueling observations and its design
    matrix.

    The store is feature-major, with its last axis running over
    observations like ``ChoiceHistory.slots``: ``cols`` (d, n) holds one
    difference vector per column, so each feature's values over the history
    are one contiguous row.  ``diffs`` (n, d) is its transposed view and
    ``outcomes`` (n,) the binary outcomes.  ``design`` is ``ridge * I`` plus
    the sum of d d^T over every stored difference.  The columns live in one
    row of a ``HistoryStack``: a new history's own, until ``join`` moves it
    onto a row of a shared one.
    """

    __slots__ = ("dim", "design", "n", "_stack", "_row")

    def __init__(self, dim: int, ridge: float):
        self.dim = int(dim)
        self.design = DesignMatrix(self.dim, ridge)
        self.n = 0
        self.join(HistoryStack(1, self.dim))

    def join(self, stack: HistoryStack) -> None:
        """Keep this history's rows on the next free row of ``stack``; only
        an empty history moves."""
        if self.n or stack.dim != self.dim or len(stack.rows) == len(stack._cols):
            raise StructuralError(
                "only an empty history joins a stack, on a free row of its dimension"
            )
        self._stack, self._row = stack, len(stack.rows)
        stack.rows.append(self)

    def append(self, diff, outcome: int) -> None:
        diff = np.asarray(diff, dtype=float)
        if diff.shape != (self.dim,):
            raise StructuralError(f"difference vector must have shape ({self.dim},)")
        if math.sqrt(float(diff @ diff)) > _MAX_DIFF_NORM:
            raise StructuralError("difference vector norm exceeds 2")
        if outcome not in (0, 1):
            raise StructuralError("outcome must be 0 or 1")
        n, stack = self.n, self._stack
        if n == stack._outcomes.shape[1]:
            stack._grow()
        stack._cols[self._row, :, n] = diff
        stack._outcomes[self._row, n] = outcome
        self.n += 1
        self.design.update(diff)

    @property
    def cols(self) -> np.ndarray:
        return self._stack._cols[self._row, :, : self.n]

    @property
    def diffs(self) -> np.ndarray:
        return self.cols.T

    @property
    def outcomes(self) -> np.ndarray:
        return self._stack._outcomes[self._row, : self.n]

    def __len__(self) -> int:
        return self.n


def _grown(buf, n: int, size: int):
    """A copy of ``buf`` with its last axis grown to ``size``; the first n
    entries along it are kept."""
    out = np.empty(buf.shape[:-1] + (size,), dtype=buf.dtype)
    out[..., :n] = buf[..., :n]
    return out


@functools.lru_cache(maxsize=None)
def _ridge(lam: float, dim: int) -> np.ndarray:
    """lam * I, built once per (lam, dim) and read only."""
    out = lam * np.eye(dim)
    out.flags.writeable = False
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
    """Regularized dueling log-likelihood over one history, or over a
    ``HistoryStack`` cell by cell, built once per fit.

    Serves the value, the score, the mean-value map
    g(theta) = sum mu(d^T theta) d + lam theta, its Jacobian
    J(theta) = sum mu'(d^T theta) d d^T + lam I (minus the Hessian of the
    value, hence ``information``).  It reads the feature-major view ``cols``:
    (d, n) of a history, with points theta of shape (d,), or (cells, d, n)
    of a stack, with one point per cell, (cells, d).  The utilities are
    ``theta @ cols``, the score and the mean-value map ``cols @ r`` for a
    per-observation r, and the information ``cols @ (cols * w).T``, so each
    product runs over length-n rows; over a stack each is one stacked
    matmul, whose every slice sums exactly as the product over that cell's
    history does.  Each method takes the pass of ``pass_at(theta)`` when
    the caller already has it: the utilities z and the link's tail of z, so
    every evaluated point pays for one exponential.  Inputs are not
    validated: callers pass finite float arrays of the history's dimension.
    """

    __slots__ = ("history", "cols", "outcomes", "lam", "link", "_ridge")

    def __init__(self, history, lam: float, link: LinkFunction):
        if lam <= 0.0:
            raise DomainError("lam must be positive")
        self.history = history
        self.cols = history.cols
        self.outcomes = history.outcomes
        self.lam = lam
        self.link = link
        self._ridge = _ridge(lam, history.dim)

    def _with(self, cols, outcomes, lam) -> "DuelObjective":
        sub = DuelObjective.__new__(DuelObjective)
        sub.history, sub.cols, sub.outcomes, sub.link = self.history, cols, outcomes, self.link
        sub.lam, sub._ridge = lam, _ridge(lam, self.history.dim)
        return sub

    def since(self, start: int) -> "DuelObjective":
        """The unregularized likelihood of the rows from ``start`` on: what
        they add to the objective over the first ``start`` rows."""
        return self._with(self.cols[..., start:], self.outcomes[..., start:], 0.0)

    def take(self, cells: slice) -> "DuelObjective":
        """The objective of the slice ``cells`` of a stack's rows, as views."""
        return self._with(self.cols[cells], self.outcomes[cells], self.lam)

    def pass_at(self, theta) -> tuple:
        """The utilities z = theta @ cols and the link's tail of z."""
        z = np.vecmat(theta, self.cols)
        return z, self.link.tail(z)

    def value(self, theta, p=None):
        z, tail = self.pass_at(theta) if p is None else p
        reg = 0.5 * self.lam * np.vecdot(theta, theta)
        return np.vecdot(self.outcomes, z) - np.add.reduce(self.link.anti(z, tail), axis=-1) - reg

    def value_and_pass(self, theta):
        """The value and the pass, which the other methods reuse."""
        p = self.pass_at(theta)
        return self.value(theta, p), p

    def score(self, theta, p=None) -> np.ndarray:
        """Gradient of the value; zero exactly at the MLE."""
        z, tail = self.pass_at(theta) if p is None else p
        return np.matvec(self.cols, self.outcomes - self.link.mu(z, tail)) - self.lam * theta

    def mean_map(self, theta, p=None) -> np.ndarray:
        z, tail = self.pass_at(theta) if p is None else p
        return np.matvec(self.cols, self.link.mu(z, tail)) + self.lam * theta

    def information(self, theta, p=None) -> np.ndarray:
        z, tail = self.pass_at(theta) if p is None else p
        w = self.link.slope(z, tail)
        info = self.cols @ (self.cols * w[..., None, :]).mT
        info += self._ridge
        return info


def _floats(x) -> list:
    """Per-cell scalars as a list of Python scalars: one for one history,
    one per row of a stack."""
    if type(x) is float:
        return [x]
    v = x.tolist()
    return v if type(v) is list else [v]


def _moving(step) -> list:
    """Per cell, whether its step has a nonzero entry."""
    return step.any(axis=-1).tolist() if step.ndim > 1 else [bool(np.count_nonzero(step))]


def _column(values, like):
    """Per-cell ``values`` shaped to scale the rows of ``like``."""
    return np.array(values).reshape(like.shape[:-1] + (1,))


def _solve(a, b):
    """a^-1 b for a matrix a (m, m) and a vector b (m,), or for stacks of
    them (cells, m, m) and (cells, m)."""
    if b.ndim == 1:
        return np.linalg.solve(a, b)
    return np.linalg.solve(a, b[..., None])[..., 0]


def _start(obj, warm) -> tuple:
    """A refit's start, its value and its pass.

    ``warm`` is the last fit of the history of ``obj``; over a stack it is
    a list, the last fits of its rows, which were fitted together and so
    saw the same number of rows.  The rows appended since give, at the last
    estimate theta_prev, their log-likelihood l, score g and information
    J_new; the predicted start is theta_prev + (J_prev + J_new)^-1 g, one
    Newton step on the whole history with the old rows' information J_prev
    taken from the last fit.  A cell keeps it only when its last fit ran a
    Newton iteration and its value is at least f_prev + l, the value at
    theta_prev, less round-off, so a step that overshoots (J_prev is the
    information at the last fit's iterate, not at theta_prev) never starts
    the solve below the last estimate.  Otherwise the start is theta_prev.
    Over a stack every row is predicted in one stacked solve, with lam I in
    place of J_prev on a row that has no stored information.
    """
    stacked = isinstance(warm, list)
    warms = warm if stacked else [warm]
    theta = np.array([w.theta for w in warms]) if stacked else warm.theta
    rows = warms[0].rows
    told = [w.info is not None for w in warms]
    if any(told) and len(obj.history) > rows:
        new = obj.since(rows)
        if stacked:
            info = np.array([w.info if t else obj._ridge for w, t in zip(warms, told)])
        else:
            info = warm.info
        ell, p = new.value_and_pass(theta)
        pred = theta + _solve(info + new.information(theta, p), new.score(theta, p))
        f, aux = obj.value_and_pass(pred)
        floors = [w.value + x for w, x in zip(warms, _floats(ell))]
        kept = [
            t and a >= b - _START_REL_SLACK * (1.0 + abs(b))
            for t, a, b in zip(told, _floats(f), floors)
        ]
        if all(kept):
            return pred, f, aux
        if stacked:
            theta[kept] = pred[kept]
    if not stacked:
        theta = theta.copy()
    f, aux = obj.value_and_pass(theta)
    return theta, f, aux


def _newton(obj, tol: float, what: str, warm) -> tuple:
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

    Over a ``HistoryStack`` the same loop solves every row at once: the
    points are (cells, d), ``warm`` is a list with one last fit per row,
    and the iterations come back as a list.  Every cell stays in the stack
    until the last one stops.  A cell that has stopped takes a zero step:
    its trial is its own point, whose value, pass and score come out bit
    for bit as before, so the line search accepts it.  It keeps the
    information of its own last iteration and counts only the iterations
    it took.  A cell that halves its step evaluates the others' accepted
    trials again.  A failure is a ``CellError`` naming the first failing
    cell by its row in ``obj``.  The per-cell scalars are kept as Python
    floats, so one history pays little for the stack's bookkeeping.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    stacked = isinstance(warm, list)
    warms = warm if stacked else [warm]
    theta, f, p = _start(obj, warm)
    f = _floats(f)
    grad = obj.score(theta, p)
    norm = _floats(np.vecdot(grad, grad))
    iters, info = [0] * len(warms), None
    while True:
        going = [math.sqrt(x) > tol for x in norm]
        if not any(going):
            break
        first = going.index(True)
        if iters[first] >= _MAX_ITERS:
            raise CellError(
                first,
                f"{what} Newton failed to converge: ||score|| = {math.sqrt(norm[first]):.3e} "
                f"after {_MAX_ITERS} iterations",
            )
        held = None if all(going) else np.logical_not(going)
        jac = obj.information(theta, p)
        info = jac if held is None or info is None else np.where(held[:, None, None], info, jac)
        step = _solve(info, grad)
        if held is not None:
            step[held] = -0.0  # x + -0.0 is x bit for bit, whatever the sign of x
        # tolerate round-off near the optimum
        least = [x - 1e-13 * (1.0 + abs(x)) for x in f]
        trial = theta + step
        f_trial, p = obj.value_and_pass(trial)
        f_trial = _floats(f_trial)
        if not all(map(operator.ge, f_trial, least)):
            scale = [1.0] * len(warms)
            while True:
                # the smallest step is taken even when no trial is accepted
                short = [not (a >= b or s <= 2.0 ** -40) for a, b, s in zip(f_trial, least, scale)]
                if not any(short):
                    break
                scale = [0.5 * s if h else s for s, h in zip(scale, short)]
                trial = theta + _column(scale, step) * step
                f_trial, p = obj.value_and_pass(trial)
                f_trial = _floats(f_trial)
        theta, f = trial, f_trial
        if not np.isfinite(theta).all():
            bad = int(np.argmin(np.isfinite(theta).all(axis=-1)))
            raise CellError(bad, f"{what} estimate diverged")
        grad = obj.score(theta, p)
        norm = _floats(np.vecdot(grad, grad))
        iters = [n + g for n, g in zip(iters, going)]
    rows = len(obj.history)
    if not stacked:
        warm.theta, warm.value, warm.rows = theta, f[0], rows
        if info is not None:
            warm.info = info
        return theta, iters[0], p
    for c, w in enumerate(warms):
        w.theta, w.value, w.rows = theta[c], f[c], rows
        if iters[c]:
            w.info = info[c]
    return theta, iters, p


def mle_fit(
    history: InteractionHistory,
    lam: float,
    link: LinkFunction,
    tol: float = _TOL,
    warm: WarmStart | None = None,
) -> ThetaEstimate:
    """Newton fit of the regularized MLE, with projection onto the unit ball.

    The one-cell call of the solver and projection ``mle_fit_stack`` runs
    over a stack.  ``warm``, the last fit of this history, gives the solve a
    predicted start (see ``_start``) and is advanced to this fit; without
    it the solve starts at zero.  The objective is strictly concave, so the
    solution does not depend on the start.  The projection measures in the
    history's own design matrix and reuses the fit's last pass.
    """
    obj = DuelObjective(history, lam, link)
    theta, iters, p = _newton(obj, tol, "MLE", warm or WarmStart(history.dim))
    if math.sqrt(float(theta @ theta)) > 1.0:
        return ThetaEstimate(theta, project_theta(theta, obj, history.design, p), True, iters)
    return ThetaEstimate(theta, theta.copy(), False, iters)


def mle_fit_stack(stack: HistoryStack, lam: float, link: LinkFunction, warms: list) -> list:
    """``mle_fit`` of every history of ``stack``, one estimate per row.

    ``warms`` holds each row's last fit.  The rows are fitted in contiguous
    blocks, each one stacked Newton solve and, when an estimate leaves the
    unit ball, one stacked projection of the block, in which the rows
    inside the ball are held from the start.  A block holds as many rows as
    keep its history columns within ``_STACK_BLOCK_BYTES``, and one at
    least.  Each estimate is bit for bit the one ``mle_fit`` gives its
    history alone, whatever the blocks.  A ``CellError`` names its row of
    the stack.
    """
    whole = DuelObjective(stack, lam, link)
    size = max(1, _STACK_BLOCK_BYTES // max(whole.cols[0].nbytes, 1))
    out = []
    for start in range(0, len(warms), size):
        block = slice(start, start + size)
        obj = whole.take(block) if size < len(warms) else whole
        try:
            theta, iters, p = _newton(obj, _TOL, "MLE", warms[block])
        except CellError as exc:
            exc.cell += start  # from its row in the block to its row in the stack
            raise
        far = [math.sqrt(x) > 1.0 for x in _floats(np.vecdot(theta, theta))]
        proj = theta.copy()
        if any(far):
            m_inv = np.array([h.design.m_inv for h in stack.rows[block]])
            proj[far] = _project(theta, obj, m_inv, p, far)[far]
        out += [
            ThetaEstimate(w.theta, proj[c], far[c], iters[c]) for c, w in enumerate(warms[block])
        ]
    return out


def project_theta(theta_raw, obj: DuelObjective, design: DesignMatrix, raw_pass=None) -> np.ndarray:
    """Pull an out-of-ball estimate back to the unit ball.

    The one-cell call of ``_project``: minimizes
    F(theta) = ||g(theta) - g(theta_raw)||^2_{M^-1} over the ball, with g
    the mean-value map of ``obj`` and M ``design``.  ``raw_pass`` is
    ``obj.pass_at(theta_raw)`` when the caller has it.  An estimate inside
    the ball comes back as a copy.
    """
    theta_raw = np.asarray(theta_raw, dtype=float)
    if math.sqrt(np.vecdot(theta_raw, theta_raw)) <= 1.0:
        return theta_raw.copy()
    return _project(theta_raw, obj, design.m_inv, raw_pass, [True])


def _unit(th):
    """``th`` scaled to unit norm, row by row over a stack."""
    sq = np.vecdot(th, th)
    return th / (np.sqrt(sq)[:, None] if th.ndim > 1 else math.sqrt(sq))


def _project(theta_raw, obj, m_inv, raw_pass, live: list) -> np.ndarray:
    """The projection of an out-of-ball estimate theta_raw, measured in the
    inverse design ``m_inv``; or of a stack's, theta_raw (cells, d), each
    in its own row of ``m_inv`` (cells, d, d).

    Minimizes F(theta) = ||g(theta) - g(theta_raw)||^2_{M^-1} over the ball,
    with g the mean-value map of ``obj``.  The minimum lies on the sphere:
    grad F = 2 J M^-1 r, with r = g(theta) - g(theta_raw) and J the Jacobian
    of g, which is SPD for lam > 0, so the gradient vanishes only where
    r = 0, at theta_raw itself, outside the ball.  So the solve is
    Gauss-Newton on ||theta|| = 1 from the radially shrunk start.  Each
    iteration takes one ``information`` pass for J, forms H = J M^-1 J and
    the half-gradient q = J M^-1 r, takes the multiplier
    nu = max(-theta^T q, 0) of the sphere constraint, and solves the
    bordered system [[H + nu I, theta], [theta^T, 0]] for a tangent step.
    The stepped point is renormalized and accepted only when F strictly
    falls, the step halving otherwise, so the last iterate is the best one
    seen.  A cell stops on a relative decrease below the tolerance, on F at
    the floor, on a zero tangent step (always, at d=1), on no accepted
    step, or at the iteration cap.

    ``live`` flags the cells to project.  A cell that stops is cleared
    from it but stays in the stack until the last one stops: it is held,
    its candidate kept at its iterate, which it returns.  A cell not
    flagged at the outset is held from the start at a fixed unit vector
    rather than at its own estimate, which may be zero and would make its
    bordered system singular.  ``raw_pass`` is the pass at theta_raw, or
    None.
    """
    lead, dim = theta_raw.shape[:-1], theta_raw.shape[-1]
    target = obj.mean_map(theta_raw, raw_pass)

    def residual(th):
        # F(th) per cell, the M^-1 residual, and the pass for the Jacobian
        p = obj.pass_at(th)
        r = obj.mean_map(th, p) - target
        w = np.matvec(m_inv, r)
        return _floats(np.vecdot(r, w)), w, p

    # the bordered systems, with views onto what each iteration writes:
    # H + nu I in place (the diagonal with its cell axis last), the border,
    # the right-hand side
    kkt = np.zeros(lead + (dim + 1, dim + 1))
    rhs = np.zeros(lead + (dim + 1,))
    diag = kkt.reshape(lead + (-1,))[..., : dim * (dim + 2) : dim + 2].T
    block, col, row = kkt[..., :dim, :dim], kkt[..., :dim, dim], kkt[..., dim, :dim]
    rhs_head = rhs[..., :dim]
    if not all(live):
        theta_raw = np.where(_column(live, theta_raw), theta_raw, np.eye(dim)[0])
    theta = _unit(theta_raw)
    f_cur, w, p = residual(theta)
    floor = 1e-24  # below any scale the confidence radius can distinguish
    live = [g and not f <= floor for g, f in zip(live, f_cur)]
    for _ in range(_PROJECT_MAX_ITERS):
        if not any(live):
            break
        jac = obj.information(theta, p)
        half_grad = np.matvec(jac, w)
        np.matmul(jac, m_inv @ jac, out=block)
        diag -= np.minimum(np.vecdot(theta, half_grad), 0.0)  # + nu
        col[...] = theta
        row[...] = theta
        np.negative(half_grad, out=rhs_head)
        step = _solve(kkt, rhs)[..., :dim]
        # at d=1 the tangent space is a point
        live = list(map(operator.and_, live, _moving(step)))
        scale, tries = [1.0] * len(live), 0
        while any(live):
            cand = _unit(theta + _column(scale, step) * step)
            if not all(live):
                cand = np.where(_column(live, cand), cand, theta)
            f_new, w_new, p_new = residual(cand)
            took = [not g or a < b for g, a, b in zip(live, f_new, f_cur)]
            if all(took):
                break
            tries += 1
            if tries == 30:
                # the full step and 29 halvings all rejected: a cell with no
                # accepted step keeps its last iterate
                live = list(map(operator.and_, live, took))
            scale = [s if t else 0.5 * s for s, t in zip(scale, took)]
        else:
            break
        live = [
            g and not (b <= floor or (a - b) / a < _PROJECT_REL_TOL)
            for g, a, b in zip(live, f_cur, f_new)
        ]
        theta, f_cur, w, p = cand, f_new, w_new, p_new
    return theta


def dueling_radius(t: int, b_of_t: float, d: int, kappa1: float) -> float:
    """Confidence radius for pairwise estimates after round t.

    (2 / kappa1) * (R sqrt(d log((1 + 4 kappa1 (t + b(t)) / (d lam)) / delta))
                    + sqrt(lam kappa1) * S)
    with lam = ``LAM``, delta = ``DELTA``, R = 1/2, the sub-Gaussian level of
    a coin-flip outcome, and S = 1, the norm bound on theta (preference
    vectors are unit norm).
    """
    if min(t, d, kappa1) <= 0:
        raise DomainError("t, d and kappa1 must be positive")
    if b_of_t < 0.0:
        raise DomainError("b(t) must be nonnegative")
    # t, d, kappa1 > 0, b >= 0 and DELTA < 1 put the argument above 1
    inner = d * math.log((1.0 + 4.0 * kappa1 * (t + b_of_t) / (d * LAM)) / DELTA)
    return (2.0 / kappa1) * (0.5 * math.sqrt(inner) + math.sqrt(LAM * kappa1))
