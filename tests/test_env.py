import math

import numpy as np
import pytest

from conduel.env import (
    EnvironmentSet,
    Schedule,
    SimulatedUser,
    SyntheticConfig,
    dueling_regret,
    gen_synthetic,
    mnl_regret,
)
from conduel.errors import ConfigError, DomainError, StructuralError
from conduel.glm import WeightGraph, get_link
from conduel.mnl import expected_revenue, mnl_probs, optimal_assortment


def test_default_config_matches_reference_protocol():
    cfg = SyntheticConfig()
    assert (cfg.n_users, cfg.n_keyterms, cfg.n_arms, cfg.dim, cfg.max_arms_per_keyterm) == (
        200,
        500,
        5000,
        10,
        10,
    )
    assert cfg.link == "sigmoid"


def test_gen_synthetic_invariants():
    cfg = SyntheticConfig(n_users=4, n_keyterms=30, n_arms=50, dim=5)
    es = gen_synthetic(cfg, seed=3)
    np.testing.assert_allclose(np.linalg.norm(es.arms, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(es.theta_stars, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(es.graph.row_sums(), 1.0, atol=1e-12)
    assert es.keyterm_feats.shape == (30, 5)
    # degrees never exceed the cap
    counts = np.bincount(es.graph.key_idx, minlength=30)
    assert counts.min() >= 1


def test_gen_synthetic_deterministic():
    cfg = SyntheticConfig(n_users=3, n_keyterms=12, n_arms=20, dim=3)
    a = gen_synthetic(cfg, seed=9)
    b = gen_synthetic(cfg, seed=9)
    np.testing.assert_array_equal(a.arms, b.arms)
    np.testing.assert_array_equal(a.theta_stars, b.theta_stars)
    np.testing.assert_array_equal(a.graph.weight, b.graph.weight)
    c = gen_synthetic(cfg, seed=10)
    assert not np.array_equal(a.arms, c.arms)


def test_gen_synthetic_validates_sizes():
    with pytest.raises(ConfigError):
        gen_synthetic(SyntheticConfig(n_users=0), seed=0)
    with pytest.raises(ConfigError):
        gen_synthetic(SyntheticConfig(max_arms_per_keyterm=0), seed=0)


def _unit_rows(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_construction_derives_keyterm_features():
    arms = _unit_rows([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    graph = WeightGraph.from_triples(3, 2, [(0, 0, 1.0), (1, 0, 0.5), (1, 1, 0.5), (2, 1, 1.0)])
    es = EnvironmentSet(arms=arms, graph=graph, link=get_link("sigmoid"),
                        theta_stars=_unit_rows([[1.0, 2.0]]))
    np.testing.assert_array_equal(es.keyterm_feats, graph.keyterm_features(arms))
    assert es.n_keyterms == 2


def test_construction_rejects_bad_universes():
    theta = _unit_rows([[1.0, 2.0]])
    link = get_link("sigmoid")
    graph = WeightGraph.from_triples(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(StructuralError, match="arm features must be unit norm"):
        EnvironmentSet(arms=np.array([[1.0, 0.0], [0.0, 2.0]]), graph=graph, link=link,
                       theta_stars=theta)
    # key-term 1 has no related arm
    lonely = WeightGraph.from_triples(2, 2, [(0, 0, 1.0), (1, 0, 1.0)])
    with pytest.raises(StructuralError, match="key-term 1 has no related arm"):
        EnvironmentSet(arms=np.eye(2), graph=lonely, link=link, theta_stars=theta)


def test_user_view():
    cfg = SyntheticConfig(n_users=3, n_keyterms=10, n_arms=15, dim=3)
    es = gen_synthetic(cfg, seed=1)
    user = es.user(2)
    assert isinstance(user, SimulatedUser)
    np.testing.assert_array_equal(user.theta_star, es.theta_stars[2])
    assert user.link is es.link
    with pytest.raises(StructuralError):
        es.user(3)


# ---------------------------------------------------------------- schedules


def test_linear_schedule_reference_values():
    s = Schedule("linear", 10)
    assert s.conversations(50) == 10
    assert s.conversations(51) == 0
    assert s.b(49) == 0.0
    assert s.b(100) == 20.0


def test_schedule_counts_telescope():
    for sched in (Schedule("linear", 10), Schedule("log", 5), Schedule("prop", 0.37)):
        for horizon in (1, 7, 99, 250):
            total = sum(sched.conversations(t) for t in range(1, horizon + 1))
            assert total == math.floor(sched.b(horizon))


def test_log_schedule_fires_on_floor_increments():
    s = Schedule("log", 5)
    for t in range(1, 101):
        q = s.conversations(t)
        bumped = math.floor(math.log(t)) > math.floor(math.log(t - 1)) if t > 1 else False
        if not bumped:
            # budget may still be clamped by b(t) <= t early on
            if s.b(t) == s.param * math.floor(math.log(t)):
                assert q == 0 or s.b(t - 1) < s.b(t)


def test_budget_never_exceeds_round():
    for sched in (Schedule("linear", 40), Schedule("log", 20), Schedule("prop", 0.9)):
        for t in range(1, 400):
            assert sched.b(t) <= t
            assert sched.b(t) >= sched.b(t - 1) - 1e-12


def test_schedule_parsing_and_validation():
    s = Schedule.parse("linear:10")
    assert s.kind == "linear" and s.param == 10.0
    assert Schedule.parse("LOG:3").kind == "log"
    with pytest.raises(ConfigError):
        Schedule.parse("linear")
    for text in ("cubic:2", "linear_floor:3", "proportional:0.2"):
        with pytest.raises(ConfigError):
            Schedule.parse(text)
    with pytest.raises(ConfigError):
        Schedule.parse("prop:1.5")
    with pytest.raises(ConfigError):
        Schedule.parse("linear:x")
    with pytest.raises(DomainError):
        Schedule("linear", 1).conversations(0)


def test_schedule_label_round_trips():
    for text in ("linear:10", "log:5", "prop:0.2"):
        assert Schedule.parse(text).label() == text


# ---------------------------------------------------------------- feedback


def tiny_env(dim=3, n_arms=12, seed=0):
    """The arms of a one-user universe and that user."""
    cfg = SyntheticConfig(n_users=1, n_keyterms=8, n_arms=n_arms, dim=dim)
    es = gen_synthetic(cfg, seed)
    return es.arms, es.user(0)


def test_duel_feedback_fair_coin_for_identical_items():
    arms, user = tiny_env()
    rng = np.random.default_rng(0)
    x = arms[0]
    wins = sum(user.duel(x, x, rng) for _ in range(10_000))
    rate = wins / 10_000
    sigma = 0.5 / math.sqrt(10_000)
    assert abs(rate - 0.5) <= 3 * sigma


def test_clamped_link_saturates():
    cfg = SyntheticConfig(n_users=1, n_keyterms=8, n_arms=12, dim=3, link="clamped_linear")
    es = gen_synthetic(cfg, seed=1)
    user = SimulatedUser(es.theta_stars[0], es.link)
    rng = np.random.default_rng(1)
    theta = user.theta_star
    # construct a pair at the clamp boundary: difference along theta with gap 1
    x1 = theta
    x2 = -theta
    assert all(user.duel(x1, x2, rng) == 1 for _ in range(200))


def test_duel_feedback_calibrated_against_model():
    arms, user = tiny_env(seed=2)
    rng = np.random.default_rng(3)
    x, y = arms[1], arms[5]
    p = float(user.link.mu((x - y) @ user.theta_star))
    n = 10_000
    wins = sum(user.duel(x, y, rng) for _ in range(n))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(wins / n - p) <= 3 * sigma + 1e-12


def test_choice_feedback_uniform_when_orthogonal():
    _, user = tiny_env(dim=4, seed=3)
    rng = np.random.default_rng(4)
    basis = np.linalg.svd(user.theta_star[None])[2][1:]
    offered = basis[:3]  # orthogonal to the preference
    counts = np.zeros(4)
    n = 8000
    for _ in range(n):
        c = user.choice(offered, rng)
        counts[c if c >= 0 else 3] += 1
    sigma = math.sqrt(0.25 * 0.75 * n)
    assert np.all(np.abs(counts - n / 4) <= 4 * sigma)


def test_choice_feedback_matches_model_frequencies():
    arms, user = tiny_env(seed=5)
    rng = np.random.default_rng(6)
    offered = arms[[0, 3, 7]]
    p, p0 = mnl_probs(user.theta_star, offered)
    n = 10_000
    counts = np.zeros(4)
    for _ in range(n):
        c = user.choice(offered, rng)
        counts[c if c >= 0 else 3] += 1
    for freq, prob in zip(counts / n, list(p) + [p0]):
        sigma = math.sqrt(prob * (1 - prob) / n)
        assert abs(freq - prob) <= 3 * sigma + 1e-12


def test_simulated_user_click_is_calibrated():
    arms, user = tiny_env(seed=7)
    rng = np.random.default_rng(8)
    x = arms[2]
    z = float(x @ user.theta_star)
    p = 1.0 / (1.0 + math.exp(-z))
    n = 10_000
    clicks = sum(user.click(x, rng) for _ in range(n))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(clicks / n - p) <= 3 * sigma


# ---------------------------------------------------------------- regret


def test_dueling_regret_examples():
    arms, user = tiny_env(seed=9)
    theta = user.theta_star
    pool = arms[:6]
    util = pool @ theta
    best = int(np.argmax(util))
    assert dueling_regret(user, pool, best, best) == pytest.approx(0.0)
    other = (best + 1) % 6
    assert dueling_regret(user, pool, best, other) == pytest.approx(
        0.5 * (util[best] - util[other])
    )
    rng = np.random.default_rng(10)
    i, j = rng.integers(6, size=2)
    assert dueling_regret(user, pool, int(i), int(j)) == pytest.approx(
        util.max() - 0.5 * (util[i] + util[j])
    )


def test_mnl_regret_examples():
    arms, user = tiny_env(seed=11)
    theta = user.theta_star
    pool = arms[:8]
    util = pool @ theta
    best = optimal_assortment(util, util, 3)
    assert mnl_regret(user, pool, best, 3) == pytest.approx(0.0, abs=1e-12)
    assert mnl_regret(user, pool, np.array([], dtype=int), 3) == pytest.approx(
        expected_revenue(pool[best], theta, util[best])
    )
    some = np.array([0, 1], dtype=int)
    direct = expected_revenue(pool[best], theta, util[best]) - expected_revenue(
        pool[some], theta, util[some]
    )
    assert mnl_regret(user, pool, some, 3) == pytest.approx(direct)
    assert mnl_regret(user, pool, some, 3) >= -1e-12
