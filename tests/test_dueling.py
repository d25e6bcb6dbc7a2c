import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize

from conduel import rng as streams
from conduel.dueling import (
    DELTA,
    RCONUCB_KINDS,
    DuelConfig,
    DuelPolicy,
    RconucbPolicy,
    build_candidate_set,
    select_arm_pair,
    select_keyterm_pair,
)
from conduel.env import Schedule, SyntheticConfig, gen_synthetic
from conduel.errors import DomainError, StructuralError
from conduel.estimator import LAM
from conduel.glm import DesignMatrix, get_link
from conduel.spanner import build_spanner

SIG = get_link("sigmoid")


def numpy_stream(seed, t, purpose):
    # a run's (seed, round, purpose) stream as numpy defines it, so replays
    # do not take their draws from the module under test
    ss = np.random.SeedSequence(entropy=(streams._RUN_SALT, seed, t, purpose))
    return np.random.Generator(np.random.PCG64(ss))


def small_envset(seed=0, n_users=2, n_keyterms=25, n_arms=30, dim=3):
    cfg = SyntheticConfig(
        n_users=n_users, n_keyterms=n_keyterms, n_arms=n_arms, dim=dim, max_arms_per_keyterm=4
    )
    return gen_synthetic(cfg, seed)


def m_inv_norm(dm, v):
    """||v||_{M^-1} by a direct solve against the design matrix."""
    return math.sqrt(v @ np.linalg.solve(dm.m, v))


def random_spd_design(rng, d, n_updates=8):
    dm = DesignMatrix(d, 1.0)
    for _ in range(n_updates):
        dm.update(rng.normal(size=d))
    return dm


# ------------------------------------------------------- key-term pair selection


def test_conduel_pairs_come_from_spanner():
    es = small_envset()
    sp = build_spanner(es.keyterm_feats)
    dm = DesignMatrix(es.dim, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        k1, k2 = select_keyterm_pair("conduel", rng, sp, es.keyterm_feats, dm)
        assert k1 in sp.member_ids and k2 in sp.member_ids


def test_maxinp_pair_euclidean_when_identity():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    dm = DesignMatrix(2, 1.0)  # inverse is the identity
    rng = np.random.default_rng(0)
    got = select_keyterm_pair("conduel-maxinp", rng, None, feats, dm)
    best = max(
        ((i, j) for i in range(4) for j in range(4) if i != j),
        key=lambda p: np.linalg.norm(feats[p[0]] - feats[p[1]]),
    )
    assert np.linalg.norm(feats[got[0]] - feats[got[1]]) == pytest.approx(
        np.linalg.norm(feats[best[0]] - feats[best[1]])
    )


def test_maxinp_pair_matches_bruteforce_under_random_metric():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(5, 3))
    dm = random_spd_design(rng, 3)
    got = select_keyterm_pair("conduel-maxinp", rng, None, feats, dm)
    dists = {
        (i, j): m_inv_norm(dm, feats[i] - feats[j]) for i in range(5) for j in range(5) if i != j
    }
    assert m_inv_norm(dm, feats[got[0]] - feats[got[1]]) == pytest.approx(max(dists.values()))


def first_max_pair(feats, m_inv):
    """Row-major first (k, k') with k < k' maximizing ||x_k - x_k'||_{M^-1},
    one row of difference vectors at a time; a single row pairs with itself."""
    n = feats.shape[0]
    best_val, best = -np.inf, (0, min(1, n - 1))
    for k in range(n - 1):
        diffs = feats[k] - feats[k + 1 :]
        vals = np.einsum("ij,jk,ik->i", diffs, m_inv, diffs)
        c = int(np.argmax(vals))
        if vals[c] > best_val:
            best_val, best = vals[c], (k, k + 1 + c)
    return best


def test_maxinp_pair_blocked_scan_matches_direct():
    from conduel.dueling import _PAIR_BLOCK_MULADDS, _max_info_pair

    rng = np.random.default_rng(2)
    # continuous features: a unique maximum, scanned over many blocks at d=10
    for n, d in [(1, 3), (2, 3), (3, 1), (600, 1), (600, 3), (600, 10)]:
        feats = rng.normal(size=(n, d))
        dm = random_spd_design(rng, d)
        assert _max_info_pair(feats, dm) == first_max_pair(feats, dm.m_inv), (n, d)

    # small-integer features under M^-1 = I: every distance is exact, so many
    # pairs tie exactly; copies of the two extreme rows straddle the edge
    # between the first and second block
    for d in (1, 3):
        n = 600
        edge = _PAIR_BLOCK_MULADDS // ((n - 1) * d)  # rows of the first block
        assert 1 < edge < n // 2
        feats = rng.integers(-1, 2, size=(n, d)).astype(float)
        feats[[edge - 1, edge, edge + 3]] = 2.0
        feats[[edge + 1, n - 7, n - 2]] = -2.0
        dm = DesignMatrix(d, 1.0)
        got = _max_info_pair(feats, dm)
        assert got == first_max_pair(feats, dm.m_inv) == (edge - 1, edge + 1), d


def test_empty_keyterm_set_rejected():
    dm = DesignMatrix(2, 1.0)
    with pytest.raises(StructuralError):
        select_keyterm_pair("conduel-random", np.random.default_rng(0), None, np.empty((0, 2)), dm)


# ------------------------------------------------------- candidate set


def test_candidate_set_huge_alpha_keeps_everything():
    rng = np.random.default_rng(3)
    pool = rng.normal(size=(8, 3))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    dm = DesignMatrix(3, 1.0)
    got = build_candidate_set(pool, rng.normal(size=3), dm, alpha=1e6)
    np.testing.assert_array_equal(got, np.arange(8))


def test_candidate_set_zero_alpha_is_greedy_argmax():
    rng = np.random.default_rng(4)
    pool = rng.normal(size=(9, 3))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    theta = rng.normal(size=3)
    dm = DesignMatrix(3, 1.0)
    got = build_candidate_set(pool, theta, dm, alpha=0.0)
    assert got.tolist() == [int(np.argmax(pool @ theta))]


def test_candidate_set_matches_double_loop():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 2))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    theta = rng.normal(size=2)
    dm = random_spd_design(rng, 2)
    alpha = 0.3
    # the second pool holds a copy of the greedy best arm
    for pool in (base, np.vstack([base, base[np.argmax(base @ theta)]])):
        n = len(pool)
        got = set(build_candidate_set(pool, theta, dm, alpha).tolist())
        expect = set()
        for a in range(n):
            ok = True
            for b in range(n):
                if np.array_equal(pool[a], pool[b]):  # itself or its twin
                    continue
                diff = pool[a] - pool[b]
                if not (diff @ theta + alpha * m_inv_norm(dm, diff) > 0.0):
                    ok = False
                    break
            if ok:
                expect.add(a)
        assert got == expect
    assert {int(np.argmax(base @ theta)), 6} <= got


def test_candidate_set_keeps_both_copies_of_a_duplicated_best_arm():
    rng = np.random.default_rng(6)
    pool = rng.normal(size=(8, 3))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    theta = rng.normal(size=3)
    best = int(np.argmax(pool @ theta))
    pool = np.vstack([pool, pool[best]])
    got = build_candidate_set(pool, theta, random_spd_design(rng, 3), alpha=0.0)
    assert got.tolist() == [best, 8]
    # an arm that shares only its first coordinate with the best is no twin
    pool = np.array([[0.6, 0.8], [0.6, -0.8], [0.6, 0.8]])
    got = build_candidate_set(pool, np.array([0.0, 1.0]), DesignMatrix(2, 1.0), alpha=0.0)
    assert got.tolist() == [0, 2]


def test_candidate_set_negative_alpha_rejected():
    with pytest.raises(DomainError):
        build_candidate_set(np.eye(2), np.zeros(2), DesignMatrix(2, 1.0), -0.1)


def test_candidate_set_duplicate_arms_fall_back_to_pool():
    pool = np.array([[1.0, 0.0], [1.0, 0.0]])
    got = build_candidate_set(pool, np.array([1.0, 0.0]), DesignMatrix(2, 1.0), alpha=0.5)
    np.testing.assert_array_equal(got, [0, 1])


def test_candidate_set_permutation_invariant_as_ids():
    rng = np.random.default_rng(6)
    pool = rng.normal(size=(7, 3))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    theta = rng.normal(size=3)
    dm = random_spd_design(rng, 3)
    base = build_candidate_set(pool, theta, dm, 0.4)
    perm = rng.permutation(7)
    permuted = build_candidate_set(pool[perm], theta, dm, 0.4)
    assert set(perm[permuted].tolist()) == set(base.tolist())


def test_best_arm_survives_with_calibrated_radius():
    # when alpha covers the true estimate deviation, the pool optimum stays
    rng = np.random.default_rng(7)
    for _ in range(20):
        pool = rng.normal(size=(10, 3))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        theta_star = rng.normal(size=3)
        theta_star /= np.linalg.norm(theta_star)
        theta_hat = theta_star + 0.25 * rng.normal(size=3)
        dm = random_spd_design(rng, 3)
        alpha = 0.0
        for a, b in combinations(range(10), 2):
            diff = pool[a] - pool[b]
            dev = abs(diff @ (theta_hat - theta_star))
            alpha = max(alpha, dev / max(m_inv_norm(dm, diff), 1e-12))
        best = int(np.argmax(pool @ theta_star))
        cand = build_candidate_set(pool, theta_hat, dm, alpha * (1 + 1e-9))
        assert best in cand


# ------------------------------------------------------- arm pair selection


def test_full_maxinp_collinear_extremes():
    pool = np.array([[0.1, 0.0], [0.5, 0.0], [0.9, 0.0]])
    dm = DesignMatrix(2, 1.0)
    pair = select_arm_pair("full_maxinp", np.arange(3), pool, dm, np.random.default_rng(0))
    assert sorted(pair) == [0, 2]


def test_single_candidate_duels_itself():
    pool = np.eye(2)
    dm = DesignMatrix(2, 1.0)
    for mode in ("sampled_first", "full_maxinp", "random"):
        assert select_arm_pair(mode, [1], pool, dm, np.random.default_rng(0)) == (1, 1)


def test_full_maxinp_matches_enumeration():
    rng = np.random.default_rng(8)
    pool = rng.normal(size=(8, 3))
    dm = random_spd_design(rng, 3)
    i, j = select_arm_pair("full_maxinp", np.arange(8), pool, dm, rng)
    best = max(
        (m_inv_norm(dm, pool[a] - pool[b]) for a, b in combinations(range(8), 2))
    )
    assert m_inv_norm(dm, pool[i] - pool[j]) == pytest.approx(best)


def test_full_maxinp_argmax_invariant_under_metric_scaling():
    rng = np.random.default_rng(9)
    pool = rng.normal(size=(6, 3))
    dm = random_spd_design(rng, 3)
    scaled = DesignMatrix(3, 1.0)
    scaled.m = dm.m * 3.7
    scaled.refactor()
    p1 = select_arm_pair("full_maxinp", np.arange(6), pool, dm, rng)
    p2 = select_arm_pair("full_maxinp", np.arange(6), pool, scaled, rng)
    assert p1 == p2


def test_sampled_first_second_arm_is_most_uncertain():
    rng = np.random.default_rng(10)
    pool = rng.normal(size=(7, 3))
    dm = random_spd_design(rng, 3)
    first, second = select_arm_pair("sampled_first", np.arange(7), pool, dm, rng)
    dists = [m_inv_norm(dm, pool[k] - pool[first]) for k in range(7)]
    assert dists[second] == pytest.approx(max(dists))


def test_random_mode_draws_without_replacement():
    rng = np.random.default_rng(11)
    pool = np.eye(4)
    dm = DesignMatrix(4, 1.0)
    for _ in range(25):
        i, j = select_arm_pair("random", np.arange(4), pool, dm, rng)
        assert i != j


def test_unknown_mode_rejected():
    with pytest.raises(DomainError):
        select_arm_pair("best", np.arange(2), np.eye(2), DesignMatrix(2, 1.0), None)


# ------------------------------------------------------- policy rounds


def make_policy(kind, es, seed=0, **cfg_kwargs):
    stream = streams.RunStream(seed)
    if kind in RCONUCB_KINDS:
        return RconucbPolicy(kind, es.keyterm_feats, stream)
    sp = build_spanner(es.keyterm_feats)
    return DuelPolicy(kind, es.link, es.keyterm_feats, sp, stream, DuelConfig(**cfg_kwargs))


def run_rounds(policy, es, user, seed, horizon, schedule, pool_size=8):
    oracle = es.user(user)
    stream = streams.RunStream(seed)
    records = []
    for t in range(1, horizon + 1):
        pool = np.sort(stream.at(t, streams.POOL).choice(es.n_arms, pool_size, replace=False))
        rec = policy.play_round(
            pool, es.arms[pool], oracle, t, schedule.conversations(t), schedule.b(t)
        )
        records.append((pool, rec))
    return records


def test_zero_budget_round_appends_no_keyterm_observations():
    es = small_envset()
    policy = make_policy("conduel", es, seed=0)
    records = run_rounds(policy, es, 0, 0, 10, Schedule("linear", 0))
    assert sum(len(rec.conversations) for _, rec in records) == 0
    assert len(policy.history) == 10


def test_keyterm_observation_count_telescopes():
    es = small_envset()
    policy = make_policy("conduel", es, seed=1)
    sched = Schedule("prop", 0.3)
    horizon = 40
    records = run_rounds(policy, es, 0, 1, horizon, sched)
    n_keyterm = sum(len(rec.conversations) for _, rec in records)
    assert n_keyterm == math.floor(sched.b(horizon))
    assert len(policy.history) == n_keyterm + horizon


def test_plain_kinds_never_converse():
    es = small_envset()
    for kind in ("maxinp", "random-opt"):
        policy = make_policy(kind, es, seed=2)
        records = run_rounds(policy, es, 0, 2, 12, Schedule("prop", 0.5))
        assert sum(len(rec.conversations) for _, rec in records) == 0
        assert len(policy.history) == 12


def test_zero_conversation_conduel_identical_to_maxinp():
    es = small_envset()
    a = make_policy("conduel", es, seed=3)
    b = make_policy("maxinp", es, seed=3)
    rec_a = run_rounds(a, es, 0, 3, 30, Schedule("linear", 0))
    rec_b = run_rounds(b, es, 0, 3, 30, Schedule("linear", 0))
    for (pool_a, ra), (pool_b, rb) in zip(rec_a, rec_b):
        np.testing.assert_array_equal(pool_a, pool_b)
        assert ra.pair_ids == rb.pair_ids
        assert ra.outcome == rb.outcome
    np.testing.assert_allclose(a.estimate.theta_proj, b.estimate.theta_proj)


def test_conduel_requires_spanner():
    es = small_envset()
    with pytest.raises(StructuralError):
        DuelPolicy("conduel", es.link, es.keyterm_feats, None, streams.RunStream(0))


# ------------------------------------------------------- full-trace oracle


def straight_line_conduel(es, user, seed, horizon, schedule, pool_size, cfg):
    """Line-by-line re-derivation of the conversational round loop.

    Independent of the policy classes: fresh matrix inverses every round and
    a quasi-Newton solver for the fit.
    """
    env = es.user(user)
    theta_star = env.theta_star
    members = build_spanner(es.keyterm_feats).member_ids
    kt = es.keyterm_feats
    d = es.dim
    kappa1 = SIG.kappa1
    lam = LAM
    m = lam / kappa1 * np.eye(d)
    diffs, outs = [], []
    theta_hat = np.zeros(d)
    trace = []

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def fit():
        def neg_ll(th):
            if not diffs:
                return 0.5 * lam * th @ th
            z = np.asarray(diffs) @ th
            soft = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))
            return -(np.asarray(outs) @ z - soft.sum()) + 0.5 * lam * th @ th

        def neg_grad(th):
            if not diffs:
                return lam * th
            z = np.asarray(diffs) @ th
            return -(np.asarray(diffs).T @ (np.asarray(outs) - sig(z))) + lam * th

        res = minimize(neg_ll, theta_hat, jac=neg_grad, method="BFGS", tol=1e-12)
        raw = res.x
        if np.linalg.norm(raw) <= 1.0:
            return raw, raw
        g_raw = (np.asarray(diffs).T @ sig(np.asarray(diffs) @ raw) + lam * raw) if diffs else lam * raw
        m_inv = np.linalg.inv(m)

        def proj_obj(th):
            g = (np.asarray(diffs).T @ sig(np.asarray(diffs) @ th) + lam * th) if diffs else lam * th
            r = g - g_raw
            return r @ m_inv @ r

        res2 = minimize(
            proj_obj,
            raw / np.linalg.norm(raw),
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": lambda th: 1.0 - th @ th}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        return raw, res2.x

    for t in range(1, horizon + 1):
        pool = np.sort(
            numpy_stream(seed, t, streams.POOL).choice(es.n_arms, pool_size, replace=False)
        )
        feats = es.arms[pool]
        q_t = math.floor(schedule.b(t)) - math.floor(schedule.b(t - 1))
        if q_t > 0:
            rng_sel = numpy_stream(seed, t, streams.KEYTERM_SELECT)
            rng_fb = numpy_stream(seed, t, streams.KEYTERM_FEEDBACK)
            for _ in range(q_t):
                k1 = members[int(rng_sel.integers(len(members)))]
                k2 = members[int(rng_sel.integers(len(members)))]
                dvec = kt[k1] - kt[k2]
                won = int(rng_fb.random() < sig(dvec @ theta_star))
                diffs.append(dvec)
                outs.append(won)
                m = m + np.outer(dvec, dvec)
        raw, proj = fit()
        theta_hat = raw
        alpha = cfg.radius_scale * (2.0 / kappa1) * (
            0.5 * math.sqrt(d * math.log((1 + 4 * kappa1 * (t + schedule.b(t)) / (d * lam)) / DELTA))
            + math.sqrt(lam * kappa1)
        )
        m_inv = np.linalg.inv(m)
        cands = []
        for a in range(pool_size):
            ok = True
            for b in range(pool_size):
                if a == b:
                    continue
                dv = feats[a] - feats[b]
                if not (dv @ proj + alpha * math.sqrt(dv @ m_inv @ dv) > 0):
                    ok = False
                    break
            if ok:
                cands.append(a)
        if not cands:
            cands = list(range(pool_size))
        rng_arm = numpy_stream(seed, t, streams.ARM_SELECT)
        first = cands[int(rng_arm.integers(len(cands)))]
        second = max(
            cands, key=lambda a: (math.sqrt((feats[a] - feats[first]) @ m_inv @ (feats[a] - feats[first])), -a)
        )
        dvec = feats[first] - feats[second]
        won = int(
            numpy_stream(seed, t, streams.ARM_FEEDBACK).random() < sig(dvec @ theta_star)
        )
        diffs.append(dvec)
        outs.append(won)
        m = m + np.outer(dvec, dvec)
        trace.append((int(pool[first]), int(pool[second]), won, raw.copy()))
    return trace


def test_round_loop_matches_straight_line_oracle():
    es = small_envset(seed=5, n_keyterms=15, n_arms=12, dim=2)
    cfg = DuelConfig(radius_scale=0.05)
    policy = make_policy("conduel", es, seed=11, radius_scale=0.05)
    sched = Schedule("prop", 0.4)
    records = run_rounds(policy, es, 0, 11, 25, sched, pool_size=6)
    oracle = straight_line_conduel(es, 0, 11, 25, sched, 6, cfg)
    for (pool, rec), (o_first, o_second, o_won, o_theta) in zip(records, oracle):
        assert rec.pair_ids == (o_first, o_second)
        assert rec.outcome == o_won
    assert np.linalg.norm(policy.estimate.theta_raw - oracle[-1][3]) < 1e-5


# ------------------------------------------------------- linear baselines


def test_rconucb_observation_counts_per_conversation():
    es = small_envset()
    for kind, per_conv in (("rconucb-posneg", 2), ("rconucb-diff", 1)):
        policy = make_policy(kind, es, seed=20)
        sched = Schedule("prop", 0.5)
        run_rounds(policy, es, 0, 20, 20, sched)
        n_convs = math.floor(sched.b(20))
        # key-term design matrix collected per_conv rank-one updates each time
        expected_trace = es.dim * LAM + sum(
            np.linalg.norm(row) ** 2
            for row in _rconucb_keyterm_rows(es, kind, sched, seed=20, horizon=20)
        )
        assert np.trace(policy.key_design.m) == pytest.approx(expected_trace)
        assert len(_rconucb_keyterm_rows(es, kind, sched, 20, 20)) == per_conv * n_convs


def _rconucb_keyterm_rows(es, kind, sched, seed, horizon):
    env = es.user(0)
    kt = es.keyterm_feats
    rows = []
    for t in range(1, horizon + 1):
        q_t = sched.conversations(t)
        if q_t <= 0:
            continue
        rng_sel = numpy_stream(seed, t, streams.KEYTERM_SELECT)
        rng_fb = numpy_stream(seed, t, streams.KEYTERM_FEEDBACK)
        for _ in range(q_t):
            k1 = int(rng_sel.integers(es.n_keyterms))
            k2 = int(rng_sel.integers(es.n_keyterms))
            z = (kt[k1] - kt[k2]) @ env.theta_star
            won = int(rng_fb.random() < 1.0 / (1.0 + np.exp(-z)))
            win, lose = (k1, k2) if won else (k2, k1)
            if kind == "rconucb-posneg":
                rows += [kt[win], kt[lose]]
            else:
                rows.append(kt[win] - kt[lose])
    return rows


def test_rconucb_variants_identical_without_conversations():
    es = small_envset()
    a = make_policy("rconucb-posneg", es, seed=7)
    b = make_policy("rconucb-diff", es, seed=7)
    rec_a = run_rounds(a, es, 1, 7, 30, Schedule("linear", 0))
    rec_b = run_rounds(b, es, 1, 7, 30, Schedule("linear", 0))
    for (_, ra), (_, rb) in zip(rec_a, rec_b):
        assert ra.pair_ids == rb.pair_ids
        assert ra.outcome == rb.outcome


def test_rconucb_ridge_matches_closed_form():
    es = small_envset()
    policy = make_policy("rconucb-diff", es, seed=15)
    sched = Schedule("prop", 0.4)
    records = run_rounds(policy, es, 0, 15, 15, sched)
    lam = LAM
    xs = np.array([es.arms[r.pair_ids[0]] for _, r in records])
    ys = np.array([r.outcome for _, r in records], dtype=float)
    a_direct = lam * np.eye(es.dim) + xs.T @ xs
    np.testing.assert_allclose(policy.arm_design.m, a_direct, atol=1e-9)
    np.testing.assert_allclose(policy.arm_b, xs.T @ ys, atol=1e-12)
    theta_key = np.linalg.solve(policy.key_design.m, policy.key_b)
    expect = np.linalg.solve(a_direct, xs.T @ ys + 0.5 * lam * theta_key)
    got = policy.arm_design.m_inv @ (policy.arm_b + 0.5 * lam * theta_key)
    np.testing.assert_allclose(got, expect, atol=1e-8)
