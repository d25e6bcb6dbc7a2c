import numpy as np
import pytest

from conduel.dueling import DuelConfig
from conduel.env import Schedule, SyntheticConfig, gen_synthetic
from conduel.errors import ConfigError, NumericalError
from conduel.harness import ALL_KINDS, RegretTrace, regret_kind_of, run_experiment
from conduel.mnl import MNL_KINDS, MnlConfig, MnlPolicy
from conduel.spanner import build_spanner


def small_envset(seed=0, **kw):
    cfg = SyntheticConfig(
        n_users=kw.get("n_users", 3),
        n_keyterms=kw.get("n_keyterms", 20),
        n_arms=kw.get("n_arms", 25),
        dim=kw.get("dim", 3),
        max_arms_per_keyterm=4,
    )
    return gen_synthetic(cfg, seed)


def test_regret_kinds():
    assert regret_kind_of("conduel") == "dueling"
    assert regret_kind_of("rconucb-diff") == "absolute"
    assert regret_kind_of("conmnl-ucb") == "revenue"


def test_single_round_trace():
    es = small_envset()
    tr = run_experiment(es, "conduel", 1, [0], Schedule("linear", 0), pool_size=5)
    assert tr.inst.shape == (1, 1)
    assert tr.horizon == 1
    assert tr.cells == [(0, 0)]


def test_identical_seeds_bit_identical():
    es = small_envset()
    kw = dict(
        seeds=[3, 5],
        schedule=Schedule("prop", 0.3),
        pool_size=6,
        users=2,
        duel_config=DuelConfig(radius_scale=0.05),
    )
    a = run_experiment(es, "conduel", 40, **kw)
    b = run_experiment(es, "conduel", 40, **kw)
    np.testing.assert_array_equal(a.inst, b.inst)
    assert a.fingerprint == b.fingerprint


@pytest.mark.parametrize(
    "algorithm, takes", [("maxinp", "duel"), ("conmnl", "mnl"), ("rconucb-posneg", None)]
)
def test_fingerprint_hashes_only_the_config_the_policy_takes(algorithm, takes):
    # a config the policy does not take changes neither its trace nor its
    # fingerprint; the one it takes changes the fingerprint
    es = small_envset()
    base = run_experiment(es, algorithm, 5, [0], Schedule("linear", 1), pool_size=6)
    changed = {
        "duel": {"duel_config": DuelConfig(radius_scale=0.5)},
        "mnl": {"mnl_config": MnlConfig(q=3)},
    }
    for which, config in changed.items():
        other = run_experiment(es, algorithm, 5, [0], Schedule("linear", 1), pool_size=6, **config)
        if which == takes:
            assert other.fingerprint != base.fingerprint
        else:
            np.testing.assert_array_equal(other.inst, base.inst)
            assert other.fingerprint == base.fingerprint


@pytest.mark.parametrize("algorithm", ["conduel", "conmnl", "rconucb-diff"])
def test_worker_count_does_not_change_results(algorithm):
    # one algorithm of each policy family
    es = small_envset()
    kw = dict(
        seeds=[0, 1, 2],
        schedule=Schedule("prop", 0.3),
        pool_size=6,
        users=2,
        mnl_config=MnlConfig(q=3, t0=10),
    )
    serial = run_experiment(es, algorithm, 25, workers=1, **kw)
    parallel = run_experiment(es, algorithm, 25, workers=2, **kw)
    assert serial.inst.tobytes() == parallel.inst.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_one_pool_matches_per_algorithm_calls(workers):
    # one call over a tuple of names plays every cell on one pool; each
    # trace must be the one a call for that algorithm alone returns
    es = small_envset()
    algorithms = ("conduel", "conmnl", "rconucb-diff")
    kw = dict(
        seeds=[0, 1],
        schedule=Schedule("prop", 0.3),
        pool_size=6,
        users=2,
        mnl_config=MnlConfig(q=3, t0=10),
    )
    seen = []
    joint = list(
        run_experiment(
            es, algorithms, 25, workers=workers, progress=lambda *a: seen.append(a), **kw
        )
    )
    assert [tr.algorithm for tr in joint] == list(algorithms)
    assert seen == [(a, k, 4) for a in algorithms for k in range(1, 5)]
    for tr in joint:
        alone = run_experiment(es, tr.algorithm, 25, **kw)
        assert tr.inst.tobytes() == alone.inst.tobytes()
        assert tr.cells == alone.cells
        assert tr.fingerprint == alone.fingerprint
        assert tr.regret_kind == alone.regret_kind


def test_worker_count_does_not_change_maxinp_results():
    from conduel.dueling import _PAIR_BLOCK_MULADDS

    # 300 key-terms at d=3 span more than one block of the key-term pair scan
    n_keyterms, dim = 300, 3
    assert _PAIR_BLOCK_MULADDS // ((n_keyterms - 1) * dim) < n_keyterms - 1
    es = small_envset(n_keyterms=n_keyterms, n_arms=100, dim=dim)
    kw = dict(seeds=[0, 1], schedule=Schedule("prop", 0.5), pool_size=6, users=2)
    serial = run_experiment(es, "conduel-maxinp", 25, workers=1, **kw)
    parallel = run_experiment(es, "conduel-maxinp", 25, workers=2, **kw)
    assert serial.inst.tobytes() == parallel.inst.tobytes()


def test_trace_aggregates():
    inst = np.array([[1.0, 0.0, 2.0], [3.0, 1.0, 0.0]])
    tr = RegretTrace("conduel", "dueling", [(0, 0), (0, 1)], inst)
    np.testing.assert_allclose(tr.cum, [[1, 1, 3], [3, 4, 4]])
    np.testing.assert_allclose(tr.mean_cum, [2.0, 2.5, 3.5])
    expect_err = np.std(tr.cum, axis=0, ddof=1) / np.sqrt(2)
    np.testing.assert_allclose(tr.stderr_cum, expect_err)
    single = RegretTrace("conduel", "dueling", [(0, 0)], inst[:1])
    np.testing.assert_array_equal(single.stderr_cum, np.zeros(3))


def test_regret_nonnegative_and_cumulative_monotone():
    es = small_envset(seed=4)
    tr = run_experiment(
        es, "conduel", 60, [0, 1], Schedule("prop", 0.4), pool_size=6, users=2
    )
    assert np.all(tr.inst >= 0.0)
    cum = tr.cum
    assert np.all(np.diff(cum, axis=1) >= -1e-12)


def test_mnl_run_records_revenue_regret():
    es = small_envset(seed=5)
    tr = run_experiment(
        es,
        "conmnl",
        30,
        [0],
        Schedule("prop", 0.3),
        pool_size=8,
        users=1,
        mnl_config=MnlConfig(q=3, t0=10),
    )
    assert tr.regret_kind == "revenue"
    assert np.all(tr.inst >= 0.0)


def test_conversations_beat_uniform_random_pairs():
    # the uniform-random-pair baseline: candidate set forced to the whole
    # pool by a huge radius, both arms drawn at random
    es = small_envset(seed=6, n_users=5, n_arms=20, dim=2)
    seeds = list(range(5))
    sched = Schedule("linear", 10)
    kw = dict(schedule=sched, pool_size=8, users=3)
    conduel = run_experiment(
        es, "conduel", 300, seeds, duel_config=DuelConfig(radius_scale=0.05), workers=2, **kw
    )
    uniform = run_experiment(
        es, "random-opt", 300, seeds, duel_config=DuelConfig(radius_scale=1e6), workers=2, **kw
    )
    assert conduel.final_mean() < uniform.final_mean()


def test_one_dimensional_dueling_policies_learn():
    # in d=1 every pool of more than two arms holds arms of identical
    # features; they must not eliminate each other from the candidate set
    cfg = SyntheticConfig(n_users=4, n_keyterms=5, n_arms=8, dim=1, max_arms_per_keyterm=3)
    es = gen_synthetic(cfg, 3)
    for algo in ("conduel", "maxinp"):
        tr = run_experiment(es, algo, 400, [0, 1], Schedule("linear", 5), pool_size=50, users=4)
        assert tr.final_mean() < 0.1 * 400, algo


@pytest.mark.parametrize("dim, t0", [(1, 10), (3, 0)])
def test_choice_policies_run_at_d1_and_without_initialization(dim, t0):
    # t0=0: every round fits, the first on its conversations alone or on no
    # observation at all
    es = small_envset(dim=dim)
    traces = run_experiment(
        es, MNL_KINDS, 60, [0, 1], Schedule("prop", 0.3), pool_size=6, users=2,
        mnl_config=MnlConfig(q=3, t0=t0),
    )
    for tr in traces:
        assert tr.inst.shape == (4, 60)
        assert np.all(np.isfinite(tr.inst)) and np.all(tr.inst >= 0.0), tr.algorithm


@pytest.mark.parametrize("algorithm", ["conduel", "conmnl"])
def test_pool_larger_than_arm_set_plays_every_arm(algorithm):
    # a pool request above the arm count draws every arm, as a pool of
    # exactly the arm count does, from the same stream
    es = small_envset(seed=4, n_arms=15)
    traces = [
        run_experiment(
            es, algorithm, 60, [0, 1], Schedule("linear", 5), pool_size=size, users=2,
            mnl_config=MnlConfig(q=3, t0=10),
        ).inst.tobytes()
        for size in (15, 40)
    ]
    assert traces[0] == traces[1]


def test_edge_case_universe_runs_every_algorithm():
    # as many key-terms as dimensions, and a pool larger than the arm set
    cfg = SyntheticConfig(n_users=2, n_keyterms=4, n_arms=12, dim=4, max_arms_per_keyterm=3)
    es = gen_synthetic(cfg, 1)
    for algo in ALL_KINDS:
        tr = run_experiment(es, algo, 60, [0], Schedule("linear", 10), pool_size=20, users=2)
        assert tr.inst.shape == (2, 60)
        assert np.all(np.isfinite(tr.inst)) and np.all(tr.inst >= 0.0), algo


def test_bad_arguments_rejected():
    es = small_envset()
    sched = Schedule("linear", 0)
    with pytest.raises(ConfigError):
        run_experiment(es, "zap", 5, [0], sched)
    with pytest.raises(ConfigError):
        run_experiment(es, "conduel", 0, [0], sched)
    with pytest.raises(ConfigError):
        run_experiment(es, "conduel", 5, [], sched)
    with pytest.raises(ConfigError):
        run_experiment(es, "conduel", 5, [0], sched, pool_size=1)
    with pytest.raises(ConfigError):
        run_experiment(es, "conduel", 5, [0], sched, users=99)
    # an explicit user list is checked before any cell plays
    with pytest.raises(ConfigError, match="user index 99 out of range"):
        run_experiment(es, "conduel", 5, [0], sched, users=[0, 1, 2, 99], workers=2)
    with pytest.raises(ConfigError, match="user index -1 out of range"):
        run_experiment(es, "conduel", 5, [0], sched, users=[-1])
    with pytest.raises(ConfigError, match="at least one user"):
        run_experiment(es, "conduel", 5, [0], sched, users=[])
    with pytest.raises(ConfigError, match="at least one algorithm"):
        run_experiment(es, (), 5, [0], sched)
    with pytest.raises(ConfigError, match="'zap'"):
        run_experiment(es, ("conduel", "zap"), 5, [0], sched)
    with pytest.raises(ConfigError, match="seeds must be nonnegative"):
        run_experiment(es, "conduel", 5, [0, -1], sched, workers=2)
    with pytest.raises(ConfigError, match="workers must be nonnegative"):
        run_experiment(es, "conduel", 5, [0], sched, workers=-1)


@pytest.mark.parametrize(
    "algorithm, seeds, users, repeated",
    [
        (("conduel", "maxinp", "conduel"), [0], 1, "algorithm 'conduel'"),
        ("conduel", [3, 3], 1, "seed 3"),
        ("conduel", [0], [1, 0, 1], "user 1"),
    ],
    ids=["algorithm", "seed", "user"],
)
def test_repeated_cells_rejected(algorithm, seeds, users, repeated):
    # a repeated cell would be played twice and counted twice in the mean
    with pytest.raises(ConfigError, match=f"{repeated} is listed more than once"):
        run_experiment(small_envset(), algorithm, 5, seeds, Schedule("linear", 0), users=users)


def test_failed_cell_reports_context(monkeypatch):
    def failing_round(self, *args):
        raise NumericalError("injected")

    monkeypatch.setattr(MnlPolicy, "play_round", failing_round)
    es = small_envset()
    with pytest.raises(NumericalError, match=r"algorithm=conmnl user=0 seed=0 round=1: injected"):
        run_experiment(es, "conmnl", 3, [0], Schedule("linear", 0), pool_size=6)


def test_explicit_user_list_and_shared_spanner():
    es = small_envset(seed=7)
    sp = build_spanner(es.keyterm_feats)
    tr = run_experiment(
        es, "maxinp", 10, [0], Schedule("linear", 0), pool_size=6, users=[1, 2], spanner=sp
    )
    assert tr.cells == [(1, 0), (2, 0)]
