import math
import sys

import numpy as np
import pytest

from conduel import estimator
from conduel.env import Schedule, SyntheticConfig, gen_synthetic
from conduel.errors import CellError, DomainError, NumericalError, StructuralError
from conduel.estimator import (
    DuelObjective,
    HistoryStack,
    InteractionHistory,
    WarmStart,
    dueling_radius,
    mle_fit,
    mle_fit_stack,
    project_theta,
)
from conduel.glm import DesignMatrix, get_link
from conduel.harness import run_experiment

SIG = get_link("sigmoid")
CLAMP = get_link("clamped_linear")

# the objective's edge cases beyond the sigmoid at d=3: the clamped-linear
# link and a one-dimensional feature space
EDGE_CASES = pytest.mark.parametrize(
    "link, d", [(CLAMP, 3), (SIG, 1), (CLAMP, 1)], ids=["clamped-d3", "sigmoid-d1", "clamped-d1"]
)


# the design ridge a policy gives its history at lam = 1
RIDGE = 1.0 / SIG.kappa1


def history_from(diffs, outcomes):
    diffs = np.asarray(diffs, dtype=float)
    h = InteractionHistory(diffs.shape[1], RIDGE)
    for d, o in zip(diffs, outcomes):
        h.append(d, int(o))
    return h


def random_history(rng, d=2, n=30):
    theta_star = rng.normal(size=d)
    theta_star /= np.linalg.norm(theta_star)
    arms = rng.normal(size=(n, 2, d))
    arms /= np.linalg.norm(arms, axis=2, keepdims=True)
    diffs = arms[:, 0] - arms[:, 1]
    probs = 1.0 / (1.0 + np.exp(-diffs @ theta_star))
    outcomes = (rng.random(n) < probs).astype(int)
    return history_from(diffs, outcomes), theta_star


def loglik_direct(diffs, outcomes, theta, lam):
    # straight-line evaluation of the dueling objective, kept independent
    z = diffs @ theta
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(outcomes @ z - softplus.sum() - 0.5 * lam * theta @ theta)


# ---------------------------------------------------------------- history


def test_history_validates_entries():
    h = InteractionHistory(2, RIDGE)
    with pytest.raises(StructuralError):
        h.append([3.0, 0.0], 1)  # norm > 2
    with pytest.raises(StructuralError):
        h.append([1.0, 0.0], 2)
    with pytest.raises(StructuralError):
        h.append([1.0], 1)
    h.append([1.0, 0.0], 1)
    h.append([0.0, 1.0], 0)
    assert len(h) == 2
    np.testing.assert_array_equal(h.outcomes, [1.0, 0.0])


def test_history_buffers_grow():
    # 300 distinct rows cross the 64, 128 and 256 growth boundaries; every
    # stored row and outcome must survive each growth in its place
    rng = np.random.default_rng(21)
    rows = rng.uniform(-0.5, 0.5, size=(300, 3))
    outcomes = rng.integers(0, 2, size=300)
    h = InteractionHistory(3, RIDGE)
    for i in range(300):
        h.append(rows[i], int(outcomes[i]))
        if i + 1 in (64, 65, 128, 129, 256, 257, 300):
            np.testing.assert_array_equal(h.diffs, rows[: i + 1])
            np.testing.assert_array_equal(h.outcomes, outcomes[: i + 1])
    assert len(h) == 300


def test_history_design_tracks_stored_differences():
    # 600 appends cross two refactorizations and several buffer growths
    rng = np.random.default_rng(13)
    h = InteractionHistory(4, RIDGE)
    for i in range(600):
        arms = rng.normal(size=(2, 4))
        arms /= np.linalg.norm(arms, axis=1, keepdims=True)
        h.append(arms[0] - arms[1], i % 2)
    m = h.design.m
    np.testing.assert_allclose(m, RIDGE * np.eye(4) + h.diffs.T @ h.diffs, rtol=1e-12, atol=1e-9)
    assert np.max(np.abs(m @ h.design.m_inv - np.eye(4))) < 1e-6


# ---------------------------------------------------------------- likelihood


def test_log_likelihood_empty_is_zero():
    h = InteractionHistory(3, RIDGE)
    assert DuelObjective(h, 1.0, SIG).value(np.zeros(3)) == 0.0


def test_log_likelihood_single_observation_hand_value():
    h = history_from([[1.0, 0.0]], [1])
    # o z - m(z) - reg at theta = 0: 0 - log 2 - 0
    assert abs(DuelObjective(h, 1.0, SIG).value(np.zeros(2)) + math.log(2.0)) < 1e-12


def test_log_likelihood_concave_midpoint():
    rng = np.random.default_rng(0)
    h, _ = random_history(rng, d=3, n=25)
    obj = DuelObjective(h, 1.0, SIG)
    for _ in range(25):
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        mid = 0.5 * (t1 + t2)
        assert obj.value(mid) >= 0.5 * (obj.value(t1) + obj.value(t2)) - 1e-10


def test_log_likelihood_rejects_bad_lam():
    h = InteractionHistory(2, RIDGE)
    with pytest.raises(DomainError):
        DuelObjective(h, 0.0, SIG)


def test_value_matches_direct_evaluation():
    rng = np.random.default_rng(12)
    h, _ = random_history(rng, d=3, n=20)
    obj = DuelObjective(h, 0.7, SIG)
    for _ in range(5):
        theta = rng.normal(size=3)
        assert obj.value(theta) == pytest.approx(
            loglik_direct(h.diffs, h.outcomes, theta, 0.7), abs=1e-12
        )


# ---------------------------------------------------------------- score / mean map


def test_score_empty_is_ridge_pull():
    h = InteractionHistory(2, RIDGE)
    theta = np.array([0.4, -0.2])
    np.testing.assert_allclose(DuelObjective(h, 2.0, SIG).score(theta), -2.0 * theta)


def check_score_matches_finite_differences(link, d):
    rng = np.random.default_rng(1)
    h, _ = random_history(rng, d=d, n=20)
    obj = DuelObjective(h, 1.0, link)
    for _ in range(10):
        theta = rng.normal(size=d)
        s = obj.score(theta)
        num = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1e-6
            num[i] = (obj.value(theta + e) - obj.value(theta - e)) / 2e-6
        np.testing.assert_allclose(s, num, atol=1e-5)


def test_score_matches_finite_differences():
    check_score_matches_finite_differences(SIG, 3)


@EDGE_CASES
def test_score_matches_finite_differences_edge_cases(link, d):
    check_score_matches_finite_differences(link, d)


def check_score_zero_at_fit(link, d):
    rng = np.random.default_rng(2)
    h, _ = random_history(rng, d=d, n=30)
    est = mle_fit(h, 1.0, link)
    assert np.linalg.norm(DuelObjective(h, 1.0, link).score(est.theta_raw)) <= 1e-8


def test_score_zero_at_fit():
    check_score_zero_at_fit(SIG, 2)


@EDGE_CASES
def test_score_zero_at_fit_edge_cases(link, d):
    check_score_zero_at_fit(link, d)


def test_mean_map_empty_and_fit_identity():
    h = InteractionHistory(2, RIDGE)
    theta = np.array([1.0, -1.0])
    np.testing.assert_allclose(DuelObjective(h, 1.5, SIG).mean_map(theta), 1.5 * theta)

    rng = np.random.default_rng(3)
    h, _ = random_history(rng, d=2, n=30)
    est = mle_fit(h, 1.0, SIG)
    # at the fit, g(theta) equals the outcome-weighted sum of differences
    lhs = DuelObjective(h, 1.0, SIG).mean_map(est.theta_raw)
    rhs = h.diffs.T @ h.outcomes
    np.testing.assert_allclose(lhs, rhs, atol=1e-7)


def check_mean_map_strong_monotonicity(link, d, radius):
    # (g(t1) - g(t2))^T delta >= kappa1 delta^T M delta with M = lam/kappa1 I
    # + sum d d^T, for t1, t2 in the ball of ``radius``, where every
    # |d^T theta| stays in the range on which the link's slope is >= kappa1
    rng = np.random.default_rng(4)
    h, _ = random_history(rng, d=d, n=15)
    kappa1 = link.kappa1
    lam = 1.0
    obj = DuelObjective(h, lam, link)
    m = lam / kappa1 * np.eye(d)
    for row in h.diffs:
        m = m + np.outer(row, row)
    for _ in range(20):
        t1 = rng.normal(size=d)
        t1 *= radius / max(np.linalg.norm(t1), radius)
        t2 = rng.normal(size=d)
        t2 *= radius / max(np.linalg.norm(t2), radius)
        delta = t1 - t2
        lhs = float((obj.mean_map(t1) - obj.mean_map(t2)) @ delta)
        rhs = kappa1 * float(delta @ m @ delta)
        assert lhs >= rhs - 1e-9


def test_mean_map_strong_monotonicity():
    check_mean_map_strong_monotonicity(SIG, 3, 1.0)


@EDGE_CASES
def test_mean_map_strong_monotonicity_edge_cases(link, d):
    # the clamped-linear slope is kappa1 only on |z| <= 1: radius 1/2 with
    # ||diff|| <= 2 keeps every utility difference there
    check_mean_map_strong_monotonicity(link, d, 0.5 if link is CLAMP else 1.0)


def test_information_matches_mean_map_differences():
    # the information is the Jacobian of the mean-value map g
    rng = np.random.default_rng(13)
    h, _ = random_history(rng, d=3, n=20)
    obj = DuelObjective(h, 1.0, SIG)
    theta, v = rng.normal(size=3), rng.normal(size=3)
    num = (obj.mean_map(theta + 1e-6 * v) - obj.mean_map(theta - 1e-6 * v)) / 2e-6
    np.testing.assert_allclose(obj.information(theta) @ v, num, atol=1e-6)


def test_value_and_pass_matches_value_and_utilities():
    # the pass is the utilities and the sigmoid's exp(-|z|), which value,
    # score, mean map and information all reuse bit for bit
    rng = np.random.default_rng(14)
    h, _ = random_history(rng, d=3, n=20)
    obj = DuelObjective(h, 1.0, SIG)
    theta = rng.normal(size=3)
    value, (z, tail) = obj.value_and_pass(theta)
    assert value == obj.value(theta)
    np.testing.assert_array_equal(z, h.diffs @ theta)
    np.testing.assert_array_equal(tail, np.exp(-np.abs(z)))
    for method in (obj.score, obj.mean_map, obj.information):
        np.testing.assert_array_equal(method(theta, (z, tail)), method(theta))


# ---------------------------------------------------------------- mle_fit


def test_mle_fit_empty_history_returns_zero():
    h = InteractionHistory(4, RIDGE)
    est = mle_fit(h, 1.0, SIG)
    np.testing.assert_array_equal(est.theta_raw, np.zeros(4))
    assert not est.projected and est.newton_iters == 0


def test_mle_fit_balanced_mirror_data_gives_zero():
    diffs, outcomes = [], []
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = rng.normal(size=2)
        d *= 1.5 / np.linalg.norm(d)
        diffs += [d, d]
        outcomes += [1, 0]
    h = history_from(diffs, outcomes)
    est = mle_fit(h, 1.0, SIG)
    np.testing.assert_array_equal(est.theta_raw, np.zeros(2))


def grid_search_mle(diffs, outcomes, lam, lo=-1.5, hi=1.5):
    """Concave-objective grid maximizer refined to resolution 1e-3."""
    center = np.zeros(2)
    half = hi - lo  # first window spans the whole box
    best = None
    for res in (0.05, 0.005, 0.001):
        lo1 = np.maximum(center - half, lo)
        hi1 = np.minimum(center + half, hi)
        g1 = np.arange(lo1[0], hi1[0] + res / 2, res)
        g2 = np.arange(lo1[1], hi1[1] + res / 2, res)
        t1, t2 = np.meshgrid(g1, g2, indexing="ij")
        grid = np.column_stack([t1.ravel(), t2.ravel()])
        z = grid @ diffs.T
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        vals = z @ outcomes - softplus.sum(axis=1) - 0.5 * lam * (grid ** 2).sum(axis=1)
        best = grid[int(np.argmax(vals))]
        center, half = best, 3 * res  # concavity keeps the optimum in this window
    return best


def test_mle_fit_matches_grid_search():
    rng = np.random.default_rng(6)
    for trial in range(5):
        h, _ = random_history(rng, d=2, n=40)
        est = mle_fit(h, 1.0, SIG)
        grid = grid_search_mle(h.diffs, h.outcomes, 1.0)
        assert np.linalg.norm(est.theta_raw - grid) <= 2e-3


def started_at(theta):
    """A WarmStart holding only an estimate: a fit given it starts there."""
    warm = WarmStart(len(theta))
    warm.theta = np.array(theta, dtype=float)
    return warm


def test_mle_fit_warm_start_agrees():
    rng = np.random.default_rng(7)
    h, _ = random_history(rng, d=3, n=30)
    cold = mle_fit(h, 1.0, SIG)
    warm = mle_fit(h, 1.0, SIG, warm=started_at(rng.normal(size=3)))
    np.testing.assert_allclose(cold.theta_raw, warm.theta_raw, atol=1e-7)


def test_mle_fit_objective_never_below_start():
    rng = np.random.default_rng(8)
    for _ in range(10):
        h, _ = random_history(rng, d=3, n=20)
        est = mle_fit(h, 1.0, SIG)
        obj = DuelObjective(h, 1.0, SIG)
        assert obj.value(est.theta_raw) >= obj.value(np.zeros(3))


def test_mle_fit_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
    rng = np.random.default_rng(9)
    h, _ = random_history(rng, d=2, n=30)
    with pytest.raises(NumericalError, match="after 1 iterations"):
        mle_fit(h, 1.0, SIG, 1e-14)


def reference_newton_fit(history, lam, link, theta0=None):
    """The dueling Newton loop evaluating each accepted step twice: once in
    the line search and again after the step is taken."""
    theta = np.zeros(history.dim) if theta0 is None else np.array(theta0, dtype=float)
    obj = DuelObjective(history, lam, link)
    for _ in range(100):
        f0, z = obj.value_and_pass(theta)
        grad = obj.score(theta, z)
        if np.linalg.norm(grad) <= 1e-8:
            return theta
        step = np.linalg.solve(obj.information(theta, z), grad)
        slack = 1e-13 * (1.0 + abs(f0))
        scale = 1.0
        while scale > 2.0 ** -40:
            if obj.value_and_pass(theta + scale * step)[0] >= f0 - slack:
                break
            scale *= 0.5
        theta = theta + scale * step
    raise AssertionError("reference fit did not converge")


def test_fit_matches_reference_newton_loop(monkeypatch):
    plain = DuelObjective.value_and_pass
    points, penalty = [], [0.0]

    def recorded(self, theta):
        points.append(np.array(theta))
        value, z = plain(self, theta)
        return (value - penalty[0] if np.any(theta) else value), z

    monkeypatch.setattr(DuelObjective, "value_and_pass", recorded)

    def evaluated(h, start):
        points.clear()
        warm = WarmStart(h.dim) if start is None else started_at(start)
        theta = mle_fit(h, 1.0, SIG, warm=warm).theta_raw
        seen = list(points)
        points.clear()
        return theta, seen, reference_newton_fit(h, 1.0, SIG, start), list(points)

    rng = np.random.default_rng(15)
    cases = [
        (random_history(rng, d=3, n=50)[0], start, 0.0)
        # a far start makes the line search halve its first steps
        for start in (None, 0.1 * rng.normal(size=3), 20.0 * rng.normal(size=3))
        for _ in range(3)
    ]
    # a value 1e9 lower everywhere but at the start rejects every trial of
    # the first step, which then takes the smallest step
    cases.append((random_history(rng, d=3, n=50)[0], None, 1e9))
    for h, start, penalty[0] in cases:
        theta, seen, ref_theta, ref_seen = evaluated(h, start)
        np.testing.assert_array_equal(theta, ref_theta)
        # the same points in the same order, each evaluated once
        ref_once = [
            x for i, x in enumerate(ref_seen) if i == 0 or not np.array_equal(x, ref_seen[i - 1])
        ]
        assert len(seen) == len(ref_once) < len(ref_seen)
        for x, y in zip(seen, ref_once):
            np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------- predicted start


def grown_fits(rng, d, n0, k):
    """A history fitted at n0 rows through a WarmStart, then grown by k rows."""
    h, _ = random_history(rng, d=d, n=n0 + k)
    first = history_from(h.diffs[:n0], h.outcomes[:n0])
    warm = WarmStart(d)
    mle_fit(first, 1.0, SIG, warm=warm)
    return h, warm


def test_since_rows_add_up_to_the_whole_objective():
    rng = np.random.default_rng(40)
    h, _ = random_history(rng, d=3, n=40)
    first = history_from(h.diffs[:25], h.outcomes[:25])
    whole, head = DuelObjective(h, 0.7, SIG), DuelObjective(first, 0.7, SIG)
    tail = whole.since(25)
    theta = rng.normal(size=3)
    assert whole.value(theta) == pytest.approx(head.value(theta) + tail.value(theta), rel=1e-13)
    np.testing.assert_allclose(
        whole.score(theta), head.score(theta) + tail.score(theta), atol=1e-12
    )
    np.testing.assert_allclose(
        whole.information(theta), head.information(theta) + tail.information(theta), atol=1e-12
    )


@pytest.mark.parametrize("start", [0, 90])
def test_objective_matches_row_major_formula(start):
    # the feature-major passes against the row-major formulas over the rows
    # from start on (the ridge only at start 0); 150 rows cross the 64 and
    # 128 growth boundaries.  The products sum in another order, so the
    # bound is relative.
    rng = np.random.default_rng(50 + start)
    arms = rng.normal(size=(150, 2, 4))
    arms /= np.linalg.norm(arms, axis=2, keepdims=True)
    diffs = arms[:, 0] - arms[:, 1]
    outcomes = rng.integers(0, 2, size=150).astype(float)
    obj = DuelObjective(history_from(diffs, outcomes), 0.7, SIG)
    if start:
        obj = obj.since(start)
    x, o, lam = diffs[start:], outcomes[start:], 0.7 if start == 0 else 0.0

    def assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    for scale in (0.1, 1.0, 4.0):
        theta = scale * rng.normal(size=4)
        s = sigmoid(x @ theta)
        assert_close(obj.value(theta), loglik_direct(x, o, theta, lam))
        assert_close(obj.score(theta), x.T @ (o - s) - lam * theta)
        assert_close(obj.mean_map(theta), x.T @ s + lam * theta)
        assert_close(
            obj.information(theta), x.T @ ((s * (1.0 - s))[:, None] * x) + lam * np.eye(4)
        )


@pytest.mark.parametrize("d, n0, k", [(2, 30, 1), (3, 50, 4), (5, 200, 12)])
def test_fit_from_predicted_start_matches_warm_fit(d, n0, k):
    rng = np.random.default_rng(41 + d)
    h, warm = grown_fits(rng, d, n0, k)
    prev = warm.theta
    start = estimator._start(DuelObjective(h, 1.0, SIG), warm)[0]
    assert not np.array_equal(start, prev)  # the prediction passed its check
    predicted = mle_fit(h, 1.0, SIG, warm=warm)
    plain = mle_fit(h, 1.0, SIG, warm=started_at(prev))
    obj = DuelObjective(h, 1.0, SIG)
    assert np.linalg.norm(obj.score(predicted.theta_raw)) <= 1e-8
    np.testing.assert_allclose(predicted.theta_raw, plain.theta_raw, rtol=0, atol=1e-9)
    assert warm.rows == n0 + k and warm.theta is predicted.theta_raw
    assert warm.value == obj.value(warm.theta)


def test_rejected_predicted_start_equals_plain_warm_fit():
    rng = np.random.default_rng(44)
    h, warm = grown_fits(rng, 3, 40, 3)
    # an information far too small overshoots: the predicted start loses
    # likelihood, so the fit must start from the last estimate instead
    warm.info = 1e-6 * warm.info
    prev = warm.theta
    obj = DuelObjective(h, 1.0, SIG)
    new = obj.since(40)
    p = new.pass_at(prev)
    pred = prev + np.linalg.solve(warm.info + new.information(prev, p), new.score(prev, p))
    assert obj.value(pred) < warm.value + new.value(prev, p) - 1.0
    predicted = mle_fit(h, 1.0, SIG, warm=warm)
    plain = mle_fit(h, 1.0, SIG, warm=started_at(prev))
    np.testing.assert_array_equal(predicted.theta_raw, plain.theta_raw)
    np.testing.assert_array_equal(predicted.theta_proj, plain.theta_proj)
    assert predicted.newton_iters == plain.newton_iters


def test_predicted_start_cuts_newton_iterations(monkeypatch):
    # warm-started at the last estimate, fits here averaged 2.198 iterations;
    # the four cells play as one lockstep group, whose solves return one
    # iteration count per cell
    iters = []

    def counted(*args, **kwargs):
        out = newton(*args, **kwargs)
        iters.extend(out[1])
        return out

    newton = estimator._newton
    monkeypatch.setattr(estimator, "_newton", counted)
    universe = dict(n_users=2, n_keyterms=30, n_arms=60, dim=4, max_arms_per_keyterm=4)
    envset = gen_synthetic(SyntheticConfig(**universe), 7)
    run_experiment(envset, "conduel", 150, [0, 1], Schedule("linear", 5), pool_size=10, users=2)
    assert len(iters) == 600
    assert np.mean(iters) < 2.198 - 0.5


# ---------------------------------------------------------------- stacked fit


def stacked(histories):
    """Copies of ``histories``, which hold equally many rows, as the rows of
    one ``HistoryStack``."""
    stack = HistoryStack(len(histories), histories[0].dim)
    for h in histories:
        row = InteractionHistory(h.dim, RIDGE)
        row.join(stack)
        for diff, outcome in zip(h.diffs, h.outcomes):
            row.append(diff, int(outcome))
    return stack


def copied(warm):
    out = WarmStart(len(warm.theta))
    out.theta, out.info, out.value, out.rows = warm.theta.copy(), warm.info, warm.value, warm.rows
    return out


def signal_history(rng, d, n, strength):
    """n duels whose outcomes follow strength * theta*: a strong signal puts
    the raw estimate outside the unit ball, a weak one inside."""
    theta_star = rng.normal(size=d)
    theta_star *= strength / np.linalg.norm(theta_star)
    arms = rng.normal(size=(n, 2, d))
    arms /= np.linalg.norm(arms, axis=2, keepdims=True)
    diffs = arms[:, 0] - arms[:, 1]
    outcomes = (rng.random(n) < 1.0 / (1.0 + np.exp(-diffs @ theta_star))).astype(int)
    return history_from(diffs, outcomes)


def test_stacked_fit_matches_each_history_alone(monkeypatch):
    # one stacked fit of five histories of 40 rows, each last fitted at 30:
    # three start from a predicted step, two from their last estimate (one
    # never ran an iteration, one starts far away and halves its Newton
    # steps while the others take full ones), and the projection fires in
    # some rows only.  Every estimate, iteration count and advanced warm
    # start must be bit for bit those of the history fitted alone.
    rng = np.random.default_rng(60)
    histories = [signal_history(rng, 3, 40, s) for s in (0.3, 8.0, 8.0, 0.3, 8.0)]
    warms = []
    for h in histories:
        warm = WarmStart(3)
        mle_fit(history_from(h.diffs[:30], h.outcomes[:30]), 1.0, SIG, warm=warm)
        warms.append(warm)
    warms[3].info = None
    warms[4].info, warms[4].theta = None, 20.0 * rng.normal(size=3)
    halved = []
    column = estimator._column

    def recorded(values, like):
        if sys._getframe(1).f_code.co_name == "_newton":
            halved.append(values)
        return column(values, like)

    monkeypatch.setattr(estimator, "_column", recorded)
    lone_warms = [copied(w) for w in warms]
    alone = [mle_fit(h, 1.0, SIG, warm=w) for h, w in zip(histories, lone_warms)]
    assert len(halved) > 0 and all(len(v) == 1 for v in halved)
    halved.clear()
    group = mle_fit_stack(stacked(histories), 1.0, SIG, warms)
    assert any(len(set(v)) > 1 for v in halved)  # some cells only halved
    assert {est.projected for est in group} == {True, False}
    # cells stop at different iterations, so the stopped ones hold their
    # information while the others iterate on
    assert len({est.newton_iters for est in group}) > 1
    for one, est, warm, lone, h in zip(alone, group, warms, lone_warms, histories):
        np.testing.assert_array_equal(est.theta_raw, one.theta_raw)
        np.testing.assert_array_equal(est.theta_proj, one.theta_proj)
        assert (est.projected, est.newton_iters) == (one.projected, one.newton_iters)
        assert warm.theta is est.theta_raw and warm.rows == len(h)
        assert warm.value == lone.value and warm.rows == lone.rows
        np.testing.assert_array_equal(warm.info, lone.info)
        again = copied(warm)
        assert warm.value == DuelObjective(h, 1.0, SIG).value(again.theta)


@pytest.mark.parametrize("block_rows", [1, 2, 5])
def test_stacked_fit_blocks_do_not_change_estimates(monkeypatch, block_rows):
    # a byte budget of block_rows rows' columns splits five rows into blocks
    # of 1, 2 + 2 + 1 or one of five
    rng = np.random.default_rng(63)
    histories = [signal_history(rng, 3, 30, s) for s in (0.3, 8.0, 0.3, 8.0, 8.0)]
    monkeypatch.setattr(estimator, "_STACK_BLOCK_BYTES", block_rows * 3 * 30 * 8)
    group = mle_fit_stack(stacked(histories), 1.0, SIG, [WarmStart(3) for _ in histories])
    for h, est in zip(histories, group):
        one = mle_fit(h, 1.0, SIG)
        np.testing.assert_array_equal(est.theta_raw, one.theta_raw)
        np.testing.assert_array_equal(est.theta_proj, one.theta_proj)
        assert (est.projected, est.newton_iters) == (one.projected, one.newton_iters)


@EDGE_CASES
def test_stacked_fit_edge_cases_match_each_history_alone(link, d):
    # the clamped-linear link keeps no tail in its pass; at d=1 the
    # projection's tangent step is zero
    rng = np.random.default_rng(61)
    histories = [signal_history(rng, d, 25, s) for s in (0.2, 6.0, 6.0)]
    alone = [mle_fit(h, 1.0, link) for h in histories]
    group = mle_fit_stack(stacked(histories), 1.0, link, [WarmStart(d) for _ in histories])
    for one, est in zip(alone, group):
        np.testing.assert_array_equal(est.theta_raw, one.theta_raw)
        np.testing.assert_array_equal(est.theta_proj, one.theta_proj)
        assert (est.projected, est.newton_iters) == (one.projected, one.newton_iters)


def test_stacked_newton_failure_names_its_cell(monkeypatch):
    # cells 0 and 2 start at their own estimates and need no iteration;
    # cell 1 starts far away and cannot converge in one
    rng = np.random.default_rng(62)
    histories = [random_history(rng, d=3, n=30)[0] for _ in range(3)]
    warms = [started_at(mle_fit(h, 1.0, SIG).theta_raw) for h in histories]
    warms[1] = started_at(30.0 * rng.normal(size=3))
    monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
    with pytest.raises(CellError, match="after 1 iterations") as failed:
        mle_fit_stack(stacked(histories), 1.0, SIG, warms)
    assert failed.value.cell == 1


def test_blocked_newton_failure_names_its_row_of_the_stack(monkeypatch):
    # a byte budget of one row's columns fits each row in a block of its
    # own; cell 2 starts far away and cannot converge in one iteration, and
    # the failure names its row of the stack, not of its block
    rng = np.random.default_rng(62)
    histories = [random_history(rng, d=3, n=30)[0] for _ in range(3)]
    warms = [started_at(mle_fit(h, 1.0, SIG).theta_raw) for h in histories]
    warms[2] = started_at(30.0 * rng.normal(size=3))
    monkeypatch.setattr(estimator, "_STACK_BLOCK_BYTES", 3 * 30 * 8)
    monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
    with pytest.raises(CellError, match="after 1 iterations") as failed:
        mle_fit_stack(stacked(histories), 1.0, SIG, warms)
    assert failed.value.cell == 2


def test_stacked_projection_holds_zero_inside_and_stopped_rows(monkeypatch):
    # one block whose projection holds a row with a raw estimate of exactly
    # zero (all-zero differences, as self-duels give) and a row inside the
    # ball, both from the start, and far rows that stop at different
    # Gauss-Newton iterations, one on no accepted step.  A relative
    # tolerance near round-off lets some rows run until no step is accepted.
    monkeypatch.setattr(estimator, "_PROJECT_REL_TOL", 3e-16)
    scales = []
    column = estimator._column

    def recorded(values, like):
        if sys._getframe(1).f_code.co_name == "project_theta" and type(values[0]) is float:
            scales.append(list(values))
        return column(values, like)

    monkeypatch.setattr(estimator, "_column", recorded)
    rng = np.random.default_rng(68)
    far = [signal_history(rng, 3, 30, s) for s in (8.0, 4.0, 12.0, 6.0)]
    zero = history_from(np.zeros((30, 3)), rng.integers(0, 2, size=30))
    inside = signal_history(np.random.default_rng(60), 3, 30, 0.3)
    histories = [zero, inside] + far
    alone, steps, stuck = [], [], []
    for h in histories:
        scales.clear()
        alone.append(mle_fit(h, 1.0, SIG))
        steps.append(sum(v == [1.0] for v in scales))  # one first trial an iteration
        stuck.append(any(v[0] == 0.5**29 for v in scales))
    assert [one.projected for one in alone] == [False, False] + [True] * 4
    assert not alone[0].theta_raw.any()
    assert len(set(steps[2:])) > 1 and any(stuck)
    group = mle_fit_stack(stacked(histories), 1.0, SIG, [WarmStart(3) for _ in histories])
    for one, est in zip(alone, group):
        np.testing.assert_array_equal(est.theta_raw, one.theta_raw)
        np.testing.assert_array_equal(est.theta_proj, one.theta_proj)
        assert (est.projected, est.newton_iters) == (one.projected, one.newton_iters)


def test_stack_rows_must_hold_equal_lengths():
    stack = HistoryStack(2, 2)
    first, second = InteractionHistory(2, RIDGE), InteractionHistory(2, RIDGE)
    first.join(stack)
    second.join(stack)
    first.append(np.array([0.5, 0.0]), 1)
    with pytest.raises(StructuralError, match="same number of rows"):
        len(stack)
    with pytest.raises(StructuralError, match="only an empty history"):
        first.join(HistoryStack(1, 2))


# ---------------------------------------------------------------- projection


def test_projection_feasible_start_returned_unchanged():
    # a fit inside the ball is not projected: its estimate comes back as a copy
    h = signal_history(np.random.default_rng(60), 3, 30, 0.3)
    est = mle_fit(h, 1.0, SIG)
    assert not est.projected and 0.0 < np.linalg.norm(est.theta_raw) <= 1.0
    np.testing.assert_array_equal(est.theta_proj, est.theta_raw)
    assert not np.shares_memory(est.theta_proj, est.theta_raw)


def test_projection_empty_history_is_radial_shrink():
    h = InteractionHistory(3, RIDGE)
    design = DesignMatrix(3, 1.0 / SIG.kappa1)
    raw = np.array([1.2, -0.9, 0.3])
    got = project_theta(raw, DuelObjective(h, 1.0, SIG), design.m_inv, None, [True])
    np.testing.assert_allclose(got, raw / np.linalg.norm(raw), atol=1e-12)


@pytest.mark.parametrize("link", [SIG, CLAMP], ids=["sigmoid", "clamped"])
@pytest.mark.parametrize("d, reg", [(1, 0.3), (4, 7.0)])
def test_projection_empty_history_any_metric_is_radial_shrink(link, d, reg):
    # with no observations g(theta) = lam theta and M = reg I, so the nearest
    # feasible point in the M^-1 norm is the radial shrink
    raw = np.linspace(-1.5, 2.0, d) + 0.25
    assert np.linalg.norm(raw) > 1.0
    obj = DuelObjective(InteractionHistory(d, RIDGE), 0.8, link)
    got = project_theta(raw, obj, DesignMatrix(d, reg).m_inv, None, [True])
    np.testing.assert_allclose(got, raw / np.linalg.norm(raw), atol=1e-12)


def projection_objective(diffs, lam, mu, m, raw):
    """F(theta) = ||g(theta) - g(raw)||^2_{M^-1}, for one theta or rows of
    thetas, written out apart from the library."""
    m_inv = np.linalg.inv(m)

    def g(th):
        return mu(th @ diffs.T) @ diffs + lam * th

    target = g(raw)

    def objective(th):
        r = g(th) - target
        return np.einsum("...i,ij,...j->...", r, m_inv, r)

    return objective


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def clamped(z):
    return np.clip(0.5 * (1.0 + z), 0.0, 1.0)


def test_projection_matches_angular_grid():
    rng = np.random.default_rng(10)
    h, _ = random_history(rng, d=2, n=10)
    lam = 1.0
    design = h.design
    raw = np.array([1.3, 1.1])
    got = project_theta(raw, DuelObjective(h, lam, SIG), design.m_inv, None, [True])
    assert np.linalg.norm(got) <= 1.0 + 1e-12
    objective = projection_objective(h.diffs, lam, sigmoid, design.m, raw)
    angles = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
    grid_best = objective(np.column_stack([np.cos(angles), np.sin(angles)])).min()
    assert abs(objective(got) - grid_best) <= 1e-6


def test_projection_output_always_feasible():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h, _ = random_history(rng, d=3, n=12)
        raw = rng.normal(size=3) * 2.0
        if np.linalg.norm(raw) <= 1.0:
            raw *= 3.0
        got = project_theta(raw, DuelObjective(h, 1.0, SIG), h.design.m_inv, None, [True])
        assert np.linalg.norm(got) <= 1.0 + 1e-9


def test_projection_kkt_on_conduel_histories(monkeypatch):
    # First-order conditions for min F over the ball, on the histories a
    # conduel run feeds its fits: theta on the sphere, the half-gradient
    # q = J M^-1 r equal to -nu theta with a multiplier nu >= 0.  J and r
    # are formed here, not taken from the solver.  The tangential part of q
    # may be 1e-4 of ||q|| (measured: at most 1.3e-5 under the earlier
    # gradient solver, 1.5e-6 under Gauss-Newton).
    calls = []
    solve = estimator.project_theta

    def record(theta_raw, obj, m_inv, raw_pass, live):
        # the fit hands over the pass at theta_raw it already computed
        assert live == [True]
        z, tail = obj.pass_at(theta_raw)
        np.testing.assert_array_equal(raw_pass[0], z)
        np.testing.assert_array_equal(raw_pass[1], tail)
        got = solve(theta_raw, obj, m_inv, raw_pass, live)
        rows = obj.history.diffs.copy()
        calls.append((rows, obj.lam, obj.history.design.m.copy(), np.array(theta_raw), got))
        return got

    monkeypatch.setattr(estimator, "project_theta", record)
    cfg = SyntheticConfig(n_users=2, n_keyterms=20, n_arms=40, dim=4, max_arms_per_keyterm=4)
    run_experiment(gen_synthetic(cfg, 0), "conduel", 200, [0], Schedule("linear", 10),
                   pool_size=20, users=1)
    assert len(calls) >= 100
    for diffs, lam, m, raw, got in calls[::5]:
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12
        s = sigmoid(diffs @ got)
        jac = diffs.T @ ((s * (1.0 - s))[:, None] * diffs) + lam * np.eye(len(got))
        r = (s - sigmoid(diffs @ raw)) @ diffs + lam * (got - raw)
        q = jac @ np.linalg.solve(m, r)
        nu = -float(got @ q)
        assert nu >= 0.0
        assert np.linalg.norm(q + nu * got) <= 1e-4 * np.linalg.norm(q)


def fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = np.pi * (1.0 + 5.0 ** 0.5) * i
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def test_projection_matches_fibonacci_sphere_grid():
    # the d=3 analogue of the angular grid: 200k near-uniform points on the
    # sphere, about 0.008 apart.  The projection may not lose to any of
    # them beyond round-off, and the best of them lies within 1e-4 of it in
    # relative F and within 0.02 in theta (1.1e-5 and 0.003 measured).
    rng = np.random.default_rng(15)
    lam = 1.0
    grid = fibonacci_sphere(200_000)
    for _ in range(3):
        h, _ = random_history(rng, d=3, n=10)
        raw = rng.normal(size=3)
        raw *= rng.uniform(1.2, 3.0) / np.linalg.norm(raw)
        got = project_theta(raw, DuelObjective(h, lam, SIG), h.design.m_inv, None, [True])
        objective = projection_objective(h.diffs, lam, sigmoid, h.design.m, raw)
        vals = objective(grid)
        best = int(np.argmin(vals))
        assert objective(got) <= vals[best] * (1.0 + 1e-9)
        assert vals[best] - objective(got) <= 1e-4 * vals[best]
        assert np.linalg.norm(got - grid[best]) <= 0.02


@pytest.mark.parametrize("link", [SIG, CLAMP], ids=["sigmoid", "clamped"])
def test_projection_one_dimensional_is_sign(link):
    # the unit ball of R^1 has the boundary {-1, 1}, and F decreases toward
    # theta_raw, so the projection is the sign of theta_raw
    rng = np.random.default_rng(16)
    h, _ = random_history(rng, d=1, n=25)
    obj = DuelObjective(h, 1.0, link)
    for raw in (1.7, -2.3, 1.0 + 1e-9, -40.0):
        got = project_theta(np.array([raw]), obj, h.design.m_inv, None, [True])
        np.testing.assert_array_equal(got, np.array([math.copysign(1.0, raw)]))


class CountingObjective(DuelObjective):
    __slots__ = ("mean_map_calls",)

    def __init__(self, *args):
        super().__init__(*args)
        self.mean_map_calls = 0

    def mean_map(self, theta, p=None):
        self.mean_map_calls += 1
        return super().mean_map(theta, p)


@pytest.mark.parametrize("link", [SIG, CLAMP], ids=["sigmoid", "clamped"])
def test_projection_one_dimensional_stops_at_zero_step(link):
    # at d=1 the tangent step is exactly zero, so one pass for the target and
    # one for the radial start are all the solve needs
    h = history_from([[0.8], [-1.3], [0.4]], [1, 0, 0])
    for raw in (2.5, -3.0):
        obj = CountingObjective(h, 1.0, link)
        got = project_theta(np.array([raw]), obj, h.design.m_inv, None, [True])
        np.testing.assert_array_equal(got, np.array([math.copysign(1.0, raw)]))
        assert obj.mean_map_calls <= 2


def test_projection_clamped_link_flat_region():
    # every difference gives |d^T theta| > 1 near the solution, where the
    # clamped-linear slope is 0: J = lam I there and F is the quadratic
    # lam^2 ||theta - theta_raw||^2_{M^-1}.  Both the first-order
    # conditions and a 10k-point angular grid confirm convergence.
    diffs = np.array([[1.8, 0.1], [-1.7, 0.3], [1.9, -0.2], [-1.6, -0.4]])
    h = history_from(diffs, [1, 0, 1, 1])
    lam = 1.0
    raw = np.array([2.5, 0.6])
    assert np.all(np.abs(diffs @ (raw / np.linalg.norm(raw))) > 1.0)
    got = project_theta(raw, DuelObjective(h, lam, CLAMP), h.design.m_inv, None, [True])
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-12
    assert np.all(np.abs(diffs @ got) > 1.0)
    q = lam * lam * np.linalg.solve(h.design.m, got - raw)
    nu = -float(got @ q)
    assert nu >= 0.0
    assert np.linalg.norm(q + nu * got) <= 1e-6 * np.linalg.norm(q)
    objective = projection_objective(diffs, lam, clamped, h.design.m, raw)
    angles = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
    grid_best = objective(np.column_stack([np.cos(angles), np.sin(angles)])).min()
    assert abs(objective(got) - grid_best) <= 1e-6


# ---------------------------------------------------------------- radius


def test_radius_monotone_in_round():
    vals = [dueling_radius(t, 0.0, 10, 0.105) for t in range(1, 101)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_radius_hand_evaluation():
    # lam = 1 and delta = 0.1 are the constants LAM and DELTA
    t, b, d, lam, kappa1, r, delta = 1, 0.0, 10, 1.0, 0.105, 0.5, 0.1
    assert (estimator.LAM, estimator.DELTA) == (lam, delta)
    expect = (2.0 / kappa1) * (
        r * math.sqrt(d * math.log((1.0 + 4.0 * kappa1 * (t + b) / (d * lam)) / delta))
        + math.sqrt(lam * kappa1)
    )
    assert abs(dueling_radius(t, b, d, kappa1) - expect) < 1e-12


def test_radius_kappa1_scaling_direct():
    for kappa1 in (0.105, 0.21):
        got = dueling_radius(50, 5.0, 4, kappa1)
        expect = (2.0 / kappa1) * (
            0.5 * math.sqrt(4 * math.log((1.0 + 4.0 * kappa1 * 55.0 / 4.0) / 0.1))
            + math.sqrt(kappa1)
        )
        assert abs(got - expect) < 1e-12


def test_radius_domain_errors():
    with pytest.raises(DomainError):
        dueling_radius(0, 0.0, 10, 0.1)
    with pytest.raises(DomainError):
        dueling_radius(1, -1.0, 10, 0.1)


# ---------------------------------------------------------------- consistency


def _fit_error(seed, n):
    rng = np.random.default_rng(seed)
    theta_star = rng.normal(size=5)
    theta_star /= np.linalg.norm(theta_star)
    arms = rng.normal(size=(n, 2, 5))
    arms /= np.linalg.norm(arms, axis=2, keepdims=True)
    diffs = arms[:, 0] - arms[:, 1]
    probs = 1.0 / (1.0 + np.exp(-diffs @ theta_star))
    outcomes = (rng.random(n) < probs).astype(int)
    h = history_from(diffs, outcomes)
    est = mle_fit(h, 1.0, SIG)
    return float(np.linalg.norm(est.theta_proj - theta_star))


@pytest.mark.xfail(
    strict=False,
    reason="information floor: 2000 duels with ||diff|| <= 2 and slope <= 1/4 "
    "cannot place the estimate within 0.1 of a unit preference vector in 9 of "
    "10 seeds for any sampling design",
)
def test_consistency_tight_threshold():
    errs = [_fit_error(seed, 2000) for seed in range(10)]
    assert sum(e <= 0.1 for e in errs) >= 9


def test_consistency_attainable_scale():
    errs_small = [_fit_error(seed, 250) for seed in range(10)]
    errs_large = [_fit_error(seed, 2000) for seed in range(10)]
    assert sum(e <= 0.3 for e in errs_large) >= 9
    assert np.median(errs_large) < np.median(errs_small)
