import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize

from conduel import estimator, mnl
from conduel import rng as streams
from conduel.env import Schedule, SimulatedUser, SyntheticConfig, gen_synthetic
from conduel.errors import DomainError, NumericalError, StructuralError
from conduel.estimator import LAM, WarmStart, _start
from conduel.glm import DesignMatrix
from conduel.harness import run_experiment
from conduel.mnl import (
    KAPPA2,
    OUTSIDE,
    ChoiceHistory,
    MnlConfig,
    MnlObjective,
    MnlPolicy,
    expected_revenue,
    mnl_mle_fit,
    mnl_probs,
    mnl_radius,
    optimal_assortment,
    ucb_utilities,
)
from conduel.spanner import build_spanner
from support import numpy_stream, started_at


def expected_revenue_from_z(z, r, idx):
    """Revenue of the offer idx under utilities z, max-shifted so that large
    utilities stay finite."""
    idx = list(idx)
    if not idx:
        return 0.0
    z = np.asarray(z, dtype=float)[idx]
    shift = max(float(z.max()), 0.0)
    v = np.exp(z - shift)
    return float((np.asarray(r, dtype=float)[idx] * v).sum() / (math.exp(-shift) + v.sum()))


def brute_force_assortment(z, revenues, q):
    best_val, best_set = 0.0, ()
    for size in range(1, q + 1):
        for combo in combinations(range(len(z)), size):
            val = expected_revenue_from_z(z, revenues, combo)
            if val > best_val + 1e-15:
                best_val, best_set = val, combo
    return best_val, best_set


def sample_history(rng, d=2, n=40, q=3):
    theta_star = rng.normal(size=d)
    theta_star /= np.linalg.norm(theta_star)
    h = ChoiceHistory(d, width=q, ridge=1.0)
    for i in range(n):
        m = int(rng.integers(1, q + 1))
        offered = rng.normal(size=(m, d))
        offered /= np.linalg.norm(offered, axis=1, keepdims=True)
        p, p0 = mnl_probs(theta_star, offered)
        u = rng.random()
        acc, chosen = 0.0, OUTSIDE
        for j, pj in enumerate(p):
            acc += pj
            if u < acc:
                chosen = j
                break
        h.append(offered, chosen)
    return h, theta_star


def observation_major(h):
    """The (n, width, d) offers of ``h`` and their (n, width) offered-slot
    mask, one observation per row."""
    return h.slots.transpose(2, 0, 1), (h.slot_pad == 0.0).T


# ---------------------------------------------------------------- probabilities


def test_probs_uniform_at_zero_theta():
    offered = np.eye(3)
    p, p0 = mnl_probs(np.zeros(3), offered)
    np.testing.assert_allclose(p, [0.25, 0.25, 0.25])
    assert p0 == pytest.approx(0.25)


def test_probs_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        offered = rng.normal(size=(m, 4))
        theta = rng.normal(size=4) * rng.uniform(0, 3)
        p, p0 = mnl_probs(theta, offered)
        assert abs(p.sum() + p0 - 1.0) <= 1e-12
        assert np.all(p >= 0) and p0 >= 0


def test_pairwise_reduction_is_logistic():
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = rng.normal(size=3)
        x = rng.normal(size=(2, 3))
        p, _ = mnl_probs(theta, x)
        z = (x[0] - x[1]) @ theta
        assert p[0] / (p[0] + p[1]) == pytest.approx(1.0 / (1.0 + math.exp(-z)), abs=1e-12)


def test_probs_stable_for_huge_utilities():
    p, p0 = mnl_probs(np.array([1000.0]), np.array([[1.0]]))
    assert p[0] == pytest.approx(1.0)
    assert p0 == pytest.approx(0.0)


def test_probs_empty_offer_rejected():
    with pytest.raises(DomainError):
        mnl_probs(np.zeros(2), np.empty((0, 2)))


# ---------------------------------------------------------------- likelihood


def test_likelihood_and_score_empty():
    obj = MnlObjective(ChoiceHistory(3, width=2, ridge=1.0))
    assert obj.value(np.zeros(3)) == 0.0
    np.testing.assert_array_equal(obj.score(np.zeros(3)), np.zeros(3))


def test_single_observation_hand_values():
    h = ChoiceHistory(2, width=2, ridge=1.0)
    x = np.array([0.6, 0.8])
    h.append(x[None, :], 0)
    # theta = 0: choice probability 1/2, gradient x/2
    obj = MnlObjective(h)
    assert obj.value(np.zeros(2)) == pytest.approx(math.log(0.5))
    np.testing.assert_allclose(obj.score(np.zeros(2)), x / 2.0)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(2)
    h, _ = sample_history(rng, d=3, n=25)
    obj = MnlObjective(h)
    for _ in range(5):
        theta = rng.normal(size=3)
        s = obj.score(theta)
        num = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            num[i] = (obj.value(theta + e) - obj.value(theta - e)) / 2e-6
        np.testing.assert_allclose(s, num, atol=1e-5)


def test_information_matches_score_differences():
    rng = np.random.default_rng(6)
    h, _ = sample_history(rng, d=3, n=25)
    obj = MnlObjective(h)
    theta, v = rng.normal(size=3), rng.normal(size=3)
    num = (obj.score(theta - 1e-6 * v) - obj.score(theta + 1e-6 * v)) / 2e-6
    np.testing.assert_allclose(obj.information(theta) @ v, num, atol=1e-6)


def test_outside_option_contributes_outside_probability():
    h = ChoiceHistory(2, width=2, ridge=1.0)
    offered = np.array([[1.0, 0.0], [0.0, 1.0]])
    h.append(offered, OUTSIDE)
    p, p0 = mnl_probs(np.array([0.3, -0.4]), offered)
    # ||theta||^2 = 0.25
    expect = math.log(p0) - 0.5 * LAM * 0.25
    assert MnlObjective(h).value(np.array([0.3, -0.4])) == pytest.approx(expect)


def assert_close(got, want):
    # the slot-major pass sums in another order than the row-major formula
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def plain_objective(h, theta):
    """Value, probabilities and score by the textbook row reductions, with
    the ridge."""
    n, width = len(h), h.width
    feats, mask = observation_major(h)
    flat = feats.reshape(n * width, h.dim)
    rows = np.arange(n)
    has = h.chosen >= 0
    z = (flat @ theta).reshape(n, width) + np.where(mask, 0.0, -np.inf)
    shift = np.maximum(z.max(axis=1), 0.0)
    e = np.exp(z - shift[:, None])
    den = np.exp(-shift) + e.sum(axis=1)
    picked = np.where(has, z[rows, np.maximum(h.chosen, 0)], 0.0)
    probs = e / den[:, None]
    one_hot = np.zeros((n, width))
    one_hot[rows[has], h.chosen[has]] = 1.0
    value = float(np.sum(picked - shift - np.log(den))) - 0.5 * LAM * float(theta @ theta)
    return value, probs, (one_hot - probs).ravel() @ flat - LAM * theta


@pytest.mark.parametrize("width", range(1, 13))
def test_objective_matches_plain_formula(width):
    # the slot-major pass against the textbook row reductions, with padded
    # slots and outside-option picks present
    rng = np.random.default_rng(100 + width)
    h, _ = sample_history(rng, d=3, n=80, q=width)
    assert np.any(h.chosen == OUTSIDE)
    if width > 1:
        assert np.any(h.slot_pad == -np.inf)
    obj = MnlObjective(h)
    for scale in (0.1, 1.0, 4.0, 30.0):
        theta = scale * rng.normal(size=3)
        value, probs, score = plain_objective(h, theta)
        got_value, got_probs = obj.value_and_pass(theta)
        assert_close(got_value, value)
        assert_close(got_probs.T, probs)
        assert_close(obj.score(theta, got_probs), score)


@pytest.mark.parametrize("width", range(1, 13))
def test_information_equals_textbook_formula(width):
    # the slot-major sums against the row-major formula, with padded slots
    # and outside-option picks present
    rng = np.random.default_rng(200 + width)
    h, _ = sample_history(rng, d=3, n=80, q=width)
    assert np.any(h.chosen == OUTSIDE)
    if width > 1:
        assert np.any(h.slot_pad == -np.inf)
    obj = MnlObjective(h)
    feats = observation_major(h)[0]
    flat = feats.reshape(len(h) * width, 3)
    for scale in (0.1, 1.0, 4.0, 30.0):
        theta = scale * rng.normal(size=3)
        slot_probs = obj.value_and_pass(theta)[1]
        probs = slot_probs.T
        xbar = (probs[:, None, :] @ feats)[:, 0, :]
        plain = flat.T @ (probs.reshape(-1, 1) * flat) - xbar.T @ xbar + LAM * np.eye(3)
        assert_close(obj.information(theta, slot_probs), plain)


def test_choice_history_stores_likelihood_rows():
    h = ChoiceHistory(2, width=3, ridge=1.0)
    h.append(np.ones((2, 2)), 1)
    h.append(np.ones((3, 2)), OUTSIDE)
    h.append(np.ones((1, 2)), 0)
    # slot-major: one column per observation, zero features on padded slots
    np.testing.assert_array_equal(h.slots.sum(axis=1), [[2, 2, 2], [2, 2, 0], [0, 2, 0]])
    np.testing.assert_array_equal(
        h.slot_pad, [[0.0, 0.0, 0.0], [0.0, 0.0, -np.inf], [-np.inf, 0.0, -np.inf]]
    )
    np.testing.assert_array_equal(h.chosen, [1, OUTSIDE, 0])


# ---------------------------------------------------------------- fit


def test_fit_empty_history_returns_start():
    h = ChoiceHistory(3, width=2, ridge=1.0)
    np.testing.assert_array_equal(mnl_mle_fit(h), np.zeros(3))


def test_fit_symmetric_choices_zero_utility():
    h = ChoiceHistory(2, width=1, ridge=1.0)
    x = np.array([0.6, 0.8])
    h.append(x[None, :], 0)
    h.append(x[None, :], OUTSIDE)
    theta = mnl_mle_fit(h)
    assert abs(x @ theta) <= 1e-7


def test_fit_matches_grid_search():
    rng = np.random.default_rng(3)
    h, _ = sample_history(rng, d=2, n=60, q=3)
    theta = mnl_mle_fit(h)

    feats, mask = observation_major(h)
    flat = feats.reshape(len(h) * h.width, 2)
    rows = np.arange(len(h))
    picked = np.maximum(h.chosen, 0)
    has = h.chosen >= 0

    def direct_ll(grid):
        z = (grid @ flat.T).reshape(len(grid), len(h), h.width)
        z = np.where(mask[None], z, -np.inf)
        shift = np.maximum(z.max(axis=2), 0.0)
        den = np.exp(-shift) + np.exp(z - shift[:, :, None]).sum(axis=2)
        zc = np.where(has[None], z[:, rows, picked], 0.0)
        return (zc - shift - np.log(den)).sum(axis=1) - 0.5 * LAM * (grid ** 2).sum(axis=1)

    center, half = np.zeros(2), 1.5
    for res in (0.05, 0.005, 0.001):
        g1 = np.arange(center[0] - half, center[0] + half + res / 2, res)
        g2 = np.arange(center[1] - half, center[1] + half + res / 2, res)
        g1 = g1[(g1 >= -1.5) & (g1 <= 1.5)]
        g2 = g2[(g2 >= -1.5) & (g2 <= 1.5)]
        t1, t2 = np.meshgrid(g1, g2, indexing="ij")
        grid = np.column_stack([t1.ravel(), t2.ravel()])
        best = grid[int(np.argmax(direct_ll(grid)))]
        center, half = best, 3 * res
    assert np.linalg.norm(theta - center) <= 2e-3


def test_fit_improves_on_zero():
    rng = np.random.default_rng(4)
    for _ in range(5):
        h, _ = sample_history(rng, d=3, n=30)
        theta = mnl_mle_fit(h)
        obj = MnlObjective(h)
        assert obj.value(theta) >= obj.value(np.zeros(3))


def reference_newton_fit(history, theta0=None):
    """The choice-model Newton loop evaluating each accepted step twice: once
    in the line search and again after the step is taken."""
    theta = np.zeros(history.dim) if theta0 is None else np.array(theta0, dtype=float)
    obj = MnlObjective(history)
    f0, p = obj.value_and_pass(theta)
    grad = obj.score(theta, p)
    for _ in range(100):
        if np.linalg.norm(grad) <= 1e-8:
            return theta
        step = np.linalg.solve(obj.information(theta, p), grad)
        slack = 1e-13 * (1.0 + abs(f0))
        scale = 1.0
        while scale > 2.0 ** -40:
            if obj.value_and_pass(theta + scale * step)[0] >= f0 - slack:
                break
            scale *= 0.5
        theta = theta + scale * step
        f0, p = obj.value_and_pass(theta)
        grad = obj.score(theta, p)
    raise AssertionError("reference fit did not converge")


def test_fit_matches_reference_newton_loop(monkeypatch):
    plain = MnlObjective.value_and_pass
    points, penalty = [], [0.0]

    def recorded(self, theta):
        points.append(np.array(theta))
        value, probs = plain(self, theta)
        return (value - penalty[0] if np.any(theta) else value), probs

    monkeypatch.setattr(MnlObjective, "value_and_pass", recorded)

    def evaluated(fit, h, start):
        points.clear()
        return fit(h, start), list(points)

    def fit(h, start):
        return mnl_mle_fit(h, warm=WarmStart(h.dim) if start is None else started_at(start))

    rng = np.random.default_rng(12)
    cases = [
        (sample_history(rng, d=3, n=50)[0], start, 0.0)
        # a far start makes the line search halve its first steps
        for start in (None, 0.1 * rng.normal(size=3), 4.0 * rng.normal(size=3))
        for _ in range(3)
    ]
    # a value 1e9 lower everywhere but at the start rejects every trial of
    # the first step, which then takes the smallest step
    cases.append((sample_history(rng, d=3, n=50)[0], None, 1e9))
    for h, start, penalty[0] in cases:
        theta, seen = evaluated(fit, h, start)
        ref_theta, ref_seen = evaluated(reference_newton_fit, h, start)
        np.testing.assert_array_equal(theta, ref_theta)
        # the same points in the same order, each evaluated once
        ref_once = [
            x for i, x in enumerate(ref_seen) if i == 0 or not np.array_equal(x, ref_seen[i - 1])
        ]
        assert len(seen) == len(ref_once) < len(ref_seen)
        for x, y in zip(seen, ref_once):
            np.testing.assert_array_equal(x, y)


def replay(history, n):
    """A fresh history holding the first n observations of ``history``."""
    h = ChoiceHistory(history.dim, history.width, ridge=1.0)
    feats, mask = observation_major(history)
    for offer, offered, chosen in zip(feats[:n], mask[:n], history.chosen[:n]):
        h.append(offer[offered], int(chosen))
    return h


def test_since_observations_add_up_to_the_whole_objective():
    rng = np.random.default_rng(31)
    h, _ = sample_history(rng, d=3, n=40)
    whole, head = MnlObjective(h), MnlObjective(replay(h, 25))
    tail = whole.since(25)
    theta = rng.normal(size=3)
    assert whole.value(theta) == pytest.approx(head.value(theta) + tail.value(theta), rel=1e-13)
    np.testing.assert_allclose(
        whole.score(theta), head.score(theta) + tail.score(theta), atol=1e-12
    )
    np.testing.assert_allclose(
        whole.information(theta), head.information(theta) + tail.information(theta), atol=1e-12
    )


def grown_fits(rng, d, n0, k, q=3):
    """A history fitted at n0 observations through a WarmStart, then grown by k."""
    h, _ = sample_history(rng, d=d, n=n0 + k, q=q)
    warm = WarmStart(d)
    mnl_mle_fit(replay(h, n0), warm=warm)
    return h, warm


@pytest.mark.parametrize("d, n0, k, q", [(2, 40, 1, 3), (3, 60, 4, 4), (5, 300, 10, 2)])
def test_fit_from_predicted_start_matches_warm_fit(d, n0, k, q):
    rng = np.random.default_rng(32 + d)
    h, warm = grown_fits(rng, d, n0, k, q)
    prev = warm.theta
    assert not np.array_equal(_start(MnlObjective(h), warm)[0], prev)
    predicted = mnl_mle_fit(h, warm=warm)
    plain = mnl_mle_fit(h, warm=started_at(prev))
    assert np.linalg.norm(MnlObjective(h).score(predicted)) <= 1e-8
    np.testing.assert_allclose(predicted, plain, rtol=0, atol=1e-9)
    assert warm.rows == n0 + k and warm.theta is predicted


def test_rejected_predicted_start_equals_plain_warm_fit():
    rng = np.random.default_rng(36)
    h, warm = grown_fits(rng, 3, 50, 3)
    # an information far too small overshoots: the predicted start loses
    # likelihood, so the fit must start from the last estimate instead
    warm.info = 1e-6 * warm.info
    prev = warm.theta
    obj = MnlObjective(h)
    new = obj.since(50)
    ell, p = new.value_and_pass(prev)
    pred = prev + np.linalg.solve(warm.info + new.information(prev, p), new.score(prev, p))
    assert obj.value(pred) < warm.value + ell - 1.0
    np.testing.assert_array_equal(mnl_mle_fit(h, warm=warm), mnl_mle_fit(h, warm=started_at(prev)))


def test_predicted_start_cuts_newton_iterations(monkeypatch):
    # warm-started at the last estimate (a WarmStart with no information),
    # fits here averaged 2.44 iterations
    iters = []

    def counted(*args, **kwargs):
        out = newton(*args, **kwargs)
        iters.append(out[1])
        return out

    newton = mnl._newton
    monkeypatch.setattr(mnl, "_newton", counted)
    universe = dict(n_users=2, n_keyterms=30, n_arms=60, dim=4, max_arms_per_keyterm=4)
    envset = gen_synthetic(SyntheticConfig(**universe), 7)
    run_experiment(envset, "conmnl", 150, [0, 1], Schedule("linear", 5), pool_size=10, users=2)
    assert len(iters) == 400
    assert np.mean(iters) < 2.44 - 0.5


def test_predicted_start_survives_a_missing_mle():
    # q=3, t0=10, user 0, seed 1: after t0 the unregularized choice MLE does
    # not exist (its estimate's norm runs past 200), so every refit here
    # starts from a predicted step on a likelihood whose maximizer only the
    # ridge provides
    envset = gen_synthetic(SyntheticConfig(), 0)
    trace = run_experiment(
        envset, "conmnl", 20, [1], Schedule("linear", 10), pool_size=50, users=[0],
        mnl_config=MnlConfig(q=3, t0=10),
    )
    assert trace.inst.shape == (1, 20) and np.all(np.isfinite(trace.inst))


def test_choice_mle_exists_after_separable_exploration():
    # q=3, t0=10, user 2, seed 1: after the ten exploration rounds the
    # unregularized choice likelihood has no maximizer, and Newton on it
    # fails to converge at round 11; the ridged one has, in every kind
    envset = gen_synthetic(SyntheticConfig(), 0)
    traces = run_experiment(
        envset, mnl.MNL_KINDS, 400, [1], Schedule("linear", 10), pool_size=50, users=[2],
        mnl_config=MnlConfig(q=3, t0=10),
    )
    for trace in traces:
        assert trace.inst.shape == (1, 400) and np.all(np.isfinite(trace.inst))


def test_fit_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
    monkeypatch.setattr(mnl, "_TOL", 1e-14)
    rng = np.random.default_rng(5)
    h, _ = sample_history(rng, d=2, n=30)
    with pytest.raises(NumericalError, match="after 1 iterations"):
        mnl_mle_fit(h)


# ---------------------------------------------------------------- radius


def test_radius_monotone_and_hand_value():
    vals = [mnl_radius(t, 0.1 * t, 10) for t in range(1, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    t, b, d, kappa2 = 100, 10.0, 10, 0.005
    assert KAPPA2 == kappa2
    expect = (1.0 / (2 * kappa2)) * math.sqrt(
        2 * d * math.log(1 + (b + t) / d) + 2 * math.log(t)
    )
    assert mnl_radius(t, b, d) == pytest.approx(expect, abs=1e-12)


def test_radius_validates():
    with pytest.raises(DomainError):
        mnl_radius(0, 0.0, 4)


# ---------------------------------------------------------------- utilities and assortment


def test_ucb_utilities_bounds():
    rng = np.random.default_rng(6)
    pool = rng.normal(size=(10, 3))
    theta = rng.normal(size=3)
    dm = DesignMatrix(3, 0.5)
    for _ in range(5):
        dm.update(rng.normal(size=3))
    plain = ucb_utilities(theta, dm, 0.0, pool)
    np.testing.assert_allclose(plain, pool @ theta)
    bonus = ucb_utilities(theta, dm, 1.3, pool)
    assert np.all(bonus >= plain - 1e-12)


def test_assortment_equal_revenues_takes_top_utilities():
    z = np.array([0.3, -0.2, 1.4, 0.9, -1.0])
    got = optimal_assortment(z, np.full(5, 2.0), 3)
    assert got.tolist() == sorted(np.argsort(-z)[:3].tolist())


def test_assortment_single_slot_argmax():
    rng = np.random.default_rng(7)
    z = rng.normal(size=8)
    r = rng.uniform(0.1, 2.0, size=8)
    got = optimal_assortment(z, r, 1)
    direct = max(range(8), key=lambda i: r[i] * math.exp(z[i]) / (1 + math.exp(z[i])))
    assert got.tolist() == [direct]


def test_assortment_matches_enumeration():
    # mixed-sign revenues, and revenue = utility as the regret oracle passes
    rng = np.random.default_rng(8)
    for scale in (0.3, 1.0, 3.0, 30.0):
        for revenue_is_utility in (False, True):
            for _ in range(40):
                n = int(rng.integers(2, 13))
                q = int(rng.integers(1, 6))
                z = scale * rng.normal(size=n)
                r = z.copy() if revenue_is_utility else rng.normal(size=n)
                got = optimal_assortment(z, r, q)
                best_val, _ = brute_force_assortment(z, r, q)
                assert expected_revenue_from_z(z, r, got) == pytest.approx(best_val, abs=1e-12)
                assert len(got) <= q and np.all(np.diff(got) > 0)


def test_assortment_dominant_item_not_lost_to_rounding():
    # {0} earns 40 / (1 + exp(-40)), which rounds to exactly r_0 = 40, so the
    # next threshold picks nothing; the set that reached 40 must be returned
    z = np.array([40.0, 0.0, -1.0])
    assert optimal_assortment(z, z, 1).tolist() == [0]


def test_assortment_tie_rule():
    # {0} and {0, 1} both earn exactly 1.0 (2 / 2 and 3 / 3): the set reached
    # first, at the lower threshold, is returned
    assert optimal_assortment(np.zeros(2), np.array([2.0, 1.0]), 2).tolist() == [0, 1]
    # equal weights go to the lowest id
    assert optimal_assortment(np.zeros(3), np.ones(3), 1).tolist() == [0]
    assert optimal_assortment(np.zeros(4), np.ones(4), 2).tolist() == [0, 1]


def test_assortment_all_negative_revenue_is_empty():
    r = np.array([-0.5, -0.1, -2.0, -0.9])
    assert optimal_assortment(np.zeros(4), r, 2).size == 0
    # the outside option's weight underflows to zero
    assert optimal_assortment(np.array([800.0, 799.0, 0.0, -5.0]), r, 2).size == 0


def test_assortment_huge_utilities_stable():
    z = np.array([500.0, 499.0, -3.0])
    r = np.array([1.0, 2.0, 3.0])
    got = optimal_assortment(z, r, 2)
    best, _ = brute_force_assortment(z, r, 2)
    assert math.isfinite(best)
    assert expected_revenue_from_z(z, r, got) == pytest.approx(best, abs=1e-9)


def test_expected_revenue_examples():
    assert expected_revenue(np.empty((0, 2)), np.zeros(2), np.empty(0)) == 0.0
    got = expected_revenue(np.array([[1.0, 0.0]]), np.zeros(2), np.array([1.0]))
    assert got == pytest.approx(0.5)
    rng = np.random.default_rng(9)
    offered = rng.normal(size=(4, 3))
    theta = rng.normal(size=3)
    r = rng.normal(size=4)
    p, _ = mnl_probs(theta, offered)
    assert expected_revenue(offered, theta, r) == pytest.approx(float(p @ r))


# ---------------------------------------------------------------- history


def test_choice_history_validates():
    h = ChoiceHistory(2, width=2, ridge=1.0)
    with pytest.raises(StructuralError):
        h.append(np.zeros((3, 2)), 0)  # too wide
    with pytest.raises(StructuralError):
        h.append(np.zeros((1, 2)), 1)  # chosen out of range
    h.append(np.ones((1, 2)), OUTSIDE)
    assert len(h) == 1
    np.testing.assert_array_equal(h.chosen, [OUTSIDE])


def test_choice_history_grows():
    h = ChoiceHistory(2, width=3, ridge=1.0)
    for i in range(100):
        h.append(np.ones((1 + i % 3, 2)), OUTSIDE)
    assert len(h) == 100
    assert np.sum(h.slot_pad[:, -1] == 0.0) == 1 + 99 % 3


def test_choice_history_design_tracks_offered_rows():
    # 600 offers of 1..3 rows cross several refactorizations and growths
    rng = np.random.default_rng(14)
    h = ChoiceHistory(3, width=3, ridge=0.5)
    for i in range(600):
        m = 1 + i % 3
        offered = rng.normal(size=(m, 3))
        offered /= np.linalg.norm(offered, axis=1, keepdims=True)
        h.append(offered, int(rng.integers(-1, m)))
    feats, mask = observation_major(h)
    rows = feats[mask]
    assert rows.shape == (1200, 3)
    assert np.all(feats[~mask] == 0.0)
    m = h.design.m
    np.testing.assert_allclose(m, 0.5 * np.eye(3) + rows.T @ rows, rtol=1e-12, atol=1e-9)
    assert np.max(np.abs(m @ h.design.m_inv - np.eye(3))) < 1e-6


# ---------------------------------------------------------------- policy rounds


def small_envset(seed=0):
    cfg = SyntheticConfig(n_users=2, n_keyterms=20, n_arms=24, dim=3, max_arms_per_keyterm=4)
    return gen_synthetic(cfg, seed)


def make_policy(kind, es, seed, **kwargs):
    sp = build_spanner(es.keyterm_feats)
    return MnlPolicy(kind, es.keyterm_feats, sp, streams.RunStream(seed), MnlConfig(**kwargs))


def run_rounds(policy, es, user, seed, horizon, schedule, pool_size=10):
    oracle = es.user(user)
    stream = streams.RunStream(seed)
    records = []
    for t in range(1, horizon + 1):
        pool = np.sort(stream.at(t, streams.POOL).choice(es.n_arms, pool_size, replace=False))
        feats = es.arms[pool]
        rec = policy.play_round(pool, feats, oracle, t, schedule.conversations(t), schedule.b(t))
        records.append((pool, rec))
    return records


def test_plain_mnl_kind_skips_conversations():
    es = small_envset()
    policy = make_policy("ucb-mnl", es, seed=0, q=3, t0=10)
    records = run_rounds(policy, es, 0, 0, 25, Schedule("prop", 0.5))
    assert sum(len(rec.conversations) for _, rec in records) == 0
    assert len(policy.history) == 25


def test_design_update_counting():
    # equal revenues keep assortments at full size, so update counts are exact
    es = small_envset()
    rng = np.random.default_rng(3)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    es.theta_stars[0] = direction
    es.arms[:] = _equal_utility_arms(rng, direction, es.n_arms)
    es.keyterm_feats[:] = es.graph.keyterm_features(es.arms)
    q, t0, horizon = 3, 6, 30
    policy = make_policy("conmnl", es, seed=4, q=q, t0=t0)
    sched = Schedule("prop", 0.4)
    records = run_rounds(policy, es, 0, 4, horizon, sched)
    n_convs = sum(sched.conversations(t) for t in range(1, horizon + 1))
    assert all(len(rec.assortment) == q for _, rec in records)
    total_updates = q * horizon + q * n_convs
    # every offered feature produced one rank-one design update
    offered_rows = int(np.sum(policy.history.slot_pad == 0.0))
    assert offered_rows == total_updates


def _equal_utility_arms(rng, direction, n, level=0.4):
    # unit arms with identical utility along the preference direction
    d = len(direction)
    basis = np.linalg.svd(direction[None, :])[2][1:]
    arms = []
    for _ in range(n):
        w = rng.normal(size=d - 1)
        w /= np.linalg.norm(w)
        tangent = w @ basis
        arms.append(level * direction + math.sqrt(1 - level ** 2) * tangent)
    return np.array(arms)


def test_policy_reads_revenues_from_its_user_after_initialization():
    class UnitRevenueUser(SimulatedUser):
        def revenues(self, pool_feats):
            calls.append(len(pool_feats))
            return np.ones(len(pool_feats))

    calls = []
    es = small_envset()
    oracle = UnitRevenueUser(es.theta_stars[0], es.link)
    policy = make_policy("ucb-mnl", es, seed=2, q=3, t0=8)
    stream = streams.RunStream(2)
    for t in range(1, 21):
        pool = np.sort(stream.at(t, streams.POOL).choice(es.n_arms, 10, replace=False))
        rec = policy.play_round(pool, es.arms[pool], oracle, t, 0, 0.0)
        assert len(calls) == max(t - 8, 0)
        # unit revenues make every item pay, so a full-size set is optimal
        assert len(rec.assortment) == 3
    assert calls == [10] * 12


def test_keyterm_selection_modes():
    es = small_envset()
    sp = build_spanner(es.keyterm_feats)
    members = set(sp.member_ids)
    # spanner draws during the initialization phase for every kind
    for kind in ("conmnl", "conmnl-ucb", "conmnl-random"):
        policy = make_policy(kind, es, seed=6, q=3, t0=10)
        rng = numpy_stream(6, 1, streams.KEYTERM_SELECT)
        ids = policy._select_keyterms(1, 0.5, rng)
        assert set(ids.tolist()) <= members
    # after the phase: conmnl stays on the spanner, random roams, ucb is top-q
    policy = make_policy("conmnl", es, seed=6, q=3, t0=10)
    ids = policy._select_keyterms(11, 2.0, numpy_stream(6, 11, streams.KEYTERM_SELECT))
    assert set(ids.tolist()) <= members
    policy = make_policy("conmnl-ucb", es, seed=6, q=3, t0=10)
    alpha = policy.radius(11, 2.0)
    u = ucb_utilities(policy._warm.theta, policy.history.design, alpha, es.keyterm_feats)
    expect = np.sort(np.argsort(-u, kind="stable")[:3])
    got = policy._select_keyterms(11, 2.0, numpy_stream(6, 11, streams.KEYTERM_SELECT))
    np.testing.assert_array_equal(got, expect)


def test_mnl_round_loop_matches_straight_line_oracle():
    es = small_envset(seed=9)
    q, t0, horizon = 2, 8, 35
    policy = make_policy("conmnl", es, seed=13, q=q, t0=t0, radius_scale=0.005)
    sched = Schedule("prop", 0.3)
    records = run_rounds(policy, es, 0, 13, horizon, sched, pool_size=8)
    oracle = straight_line_conmnl(es, 0, 13, horizon, sched, 8, q, t0, KAPPA2, 0.005)
    for (pool, rec), (o_assort, o_chosen) in zip(records, oracle):
        np.testing.assert_array_equal(rec.assortment, o_assort)
        assert rec.outcome == o_chosen


def straight_line_conmnl(es, user, seed, horizon, schedule, pool_size, q, t0, kappa2, scale):
    env = es.user(user)
    theta_star = env.theta_star
    members = build_spanner(es.keyterm_feats).member_ids
    kt = es.keyterm_feats
    d = es.dim
    design = LAM * np.eye(d)
    offers, chosens = [], []
    theta = np.zeros(d)
    out = []

    def choice_draw(offered, rng):
        z = offered @ theta_star
        shift = max(z.max(), 0.0)
        e = np.exp(z - shift)
        den = math.exp(-shift) + e.sum()
        u = rng.random()
        acc = 0.0
        for i, w in enumerate(e / den):
            acc += w
            if u < acc:
                return i
        return -1

    def fit(start):
        def neg_ll(th):
            total = 0.0
            for offered, chosen in zip(offers, chosens):
                z = offered @ th
                shift = max(z.max(), 0.0)
                den = math.exp(-shift) + np.exp(z - shift).sum()
                picked = z[chosen] if chosen >= 0 else 0.0
                total += picked - shift - math.log(den)
            return -total + 0.5 * LAM * float(th @ th)

        res = minimize(neg_ll, start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        return res.x

    for t in range(1, horizon + 1):
        pool = np.sort(
            numpy_stream(seed, t, streams.POOL).choice(es.n_arms, pool_size, replace=False)
        )
        feats = es.arms[pool]
        q_t = math.floor(schedule.b(t)) - math.floor(schedule.b(t - 1))
        if q_t > 0:
            rng_sel = numpy_stream(seed, t, streams.KEYTERM_SELECT)
            rng_fb = numpy_stream(seed, t, streams.KEYTERM_CHOICE_FEEDBACK)
            for _ in range(q_t):
                ids = np.asarray(members)[rng_sel.integers(len(members), size=q)]
                offered = kt[ids]
                chosen = choice_draw(offered, rng_fb)
                offers.append(offered)
                chosens.append(chosen)
                design = design + offered.T @ offered
        if t <= t0:
            rng_a = numpy_stream(seed, t, streams.ASSORTMENT_RANDOM)
            sel = np.sort(rng_a.choice(pool_size, size=min(q, pool_size), replace=False))
        else:
            theta = fit(theta)
            alpha = scale * (1.0 / (2 * kappa2)) * math.sqrt(
                2 * d * math.log(1 + (schedule.b(t) + t) / d) + 2 * math.log(t)
            )
            m_inv = np.linalg.inv(design)
            z = feats @ theta + alpha * np.sqrt(np.einsum("ij,jk,ik->i", feats, m_inv, feats))
            rev = feats @ theta_star
            best_val, best_combo = 0.0, ()
            for size in range(1, q + 1):
                for combo in combinations(range(pool_size), size):
                    idx = list(combo)
                    shift = max(z[idx].max(), 0.0)
                    v = np.exp(z[idx] - shift)
                    val = float((rev[idx] * v).sum() / (math.exp(-shift) + v.sum()))
                    if val > best_val + 1e-12:
                        best_val, best_combo = val, combo
            sel = np.array(best_combo, dtype=int)
        if sel.size:
            offered = feats[sel]
            chosen = choice_draw(offered, numpy_stream(seed, t, streams.CHOICE_FEEDBACK))
            offers.append(offered)
            chosens.append(chosen)
            design = design + offered.T @ offered
            chosen_id = int(pool[sel[chosen]]) if chosen >= 0 else -1
        else:
            chosen_id = -1
        out.append((sel, chosen_id))
    return out


def test_optimistic_utility_sandwich_on_trace():
    # after initialization, optimism holds and the bonus caps the gap
    es = small_envset(seed=2)
    policy = make_policy("conmnl", es, seed=5, q=3, t0=15, radius_scale=0.1)
    sched = Schedule("prop", 0.2)
    oracle = es.user(0)
    stream = streams.RunStream(5)
    hold = 0
    total = 0
    for t in range(1, 120 + 1):
        pool = np.sort(stream.at(t, streams.POOL).choice(es.n_arms, 10, replace=False))
        feats = es.arms[pool]
        if t > 15:
            alpha = policy.radius(t, sched.b(t))
            z = ucb_utilities(policy._warm.theta, policy.history.design, alpha, feats)
            truth = feats @ oracle.theta_star
            gap = z - truth
            cap = 2 * alpha * np.sqrt(policy.history.design.inv_quad_rows(feats))
            total += 1
            if np.all(gap >= -1e-9) and np.all(gap <= cap + 1e-9):
                hold += 1
        policy.play_round(pool, feats, oracle, t, sched.conversations(t), sched.b(t))
    assert hold / total >= 0.95


def test_revenue_ordering_under_optimism():
    # when optimistic utilities dominate the truth, the offered assortment's
    # optimistic revenue tops the true optimum's
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, q = 8, 3
        truth = rng.normal(size=n)
        z = truth + rng.uniform(0.0, 0.8, size=n)  # z >= truth pointwise
        r = rng.uniform(0.1, 1.0, size=n)
        best_true = optimal_assortment(truth, r, q)
        offered = optimal_assortment(z, r, q)
        r_true_star = expected_revenue_from_z(truth, r, best_true)
        r_hat_star = expected_revenue_from_z(z, r, best_true)
        r_hat_offered = expected_revenue_from_z(z, r, offered)
        assert r_true_star <= r_hat_star + 1e-12
        assert r_hat_star <= r_hat_offered + 1e-12
