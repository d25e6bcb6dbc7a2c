"""The benchmark's workloads.

Each workload is a fixed list of (algorithm, user, seed) cells derived from
the workload seed.  One *pass* plays every cell once; the timed loop repeats
passes, and each repeat must reproduce the first pass byte for byte.  Before
timing, a *check run* replays the first cell of every algorithm with
observers on the policies, so the benchmark can recompute regret, estimator
and assortment results on its own (see ``checks``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

import numpy as np

import checks
from tracing import patched

import conduel
from conduel import cli, dueling, env, envfile, harness, mnl, spanner

# pinned, so the workload stays the same when the library adds an algorithm
DUEL_ALL = (
    "conduel", "conduel-random", "conduel-maxinp", "maxinp",
    "random-opt", "rconucb-posneg", "rconucb-diff",
)

FIT_SAMPLE_EVERY = 47  # estimator checks look at every 47th fit of a check cell
ASSORT_SAMPLE_EVERY = 37
MNL_REGRET_SAMPLE_EVERY = 61


class Workload:
    name = ""
    algorithms: tuple = ()
    main = ""  # policy whose mean final regret is reported
    horizon = 0
    check_horizon = 0  # rounds replayed by the check run (a prefix of each cell)
    n_users = 1
    n_seeds = 1
    control_seeds = None  # the other algorithms play user 0 with this many seeds
    schedule = "linear:10"
    # Two worker processes, one per core: a single process inherits the
    # speed of whichever core it runs on, which drifts by up to a third for
    # minutes at a time; two processes average the two cores.
    workers = 2

    def __init__(self, seed: int, out_dir: str):
        self.seed = int(seed)
        self.out_dir = out_dir
        self.users = list(range(self.n_users))
        # run seeds are disjoint across workload seeds
        self.run_seeds = [self.seed * 1000 + i for i in range(self.n_seeds)]
        self.cells_per_pass = sum(len(u) * len(s) for u, s in map(self.cells, self.algorithms))

    def cells(self, algo):
        """(users, run seeds) an algorithm plays; the harness takes their product."""
        if algo == self.main or self.control_seeds is None:
            return self.users, self.run_seeds
        return self.users[:1], self.run_seeds[: self.control_seeds]

    # -- set-up ---------------------------------------------------------
    def prepare(self) -> None:
        """Inputs written once per run, before any set-up is timed."""

    def setup(self) -> None:
        """Everything a user pays before the first round; repeated by probes."""
        self.envset = env.gen_synthetic(env.SyntheticConfig(), self.seed)
        self.spanner = spanner.build_spanner(self.envset.keyterm_feats)

    def first_round(self) -> None:
        """Play one round, so a set-up probe ends where the first round ends."""
        harness.run_experiment(
            self.envset, self.main, 1, self.run_seeds[: self.workers],
            conduel.Schedule.parse(self.schedule), users=[0], spanner=self.spanner,
            workers=self.workers,
        )

    # -- timed work -----------------------------------------------------
    def play_pass(self):
        """Play every cell once.

        Returns (units, traces).  Units are (name, rounds, seconds), one
        ``run_experiment`` call per algorithm, timed from the call to the
        returned trace.  Traces map algorithm to the cells x T regret array,
        cell (user 0, first seed) first.
        """
        schedule = conduel.Schedule.parse(self.schedule)
        units, traces = [], {}
        for algo in self.algorithms:
            users, seeds = self.cells(algo)
            start = time.perf_counter()
            trace = harness.run_experiment(
                self.envset, algo, self.horizon, seeds, schedule, users=users,
                spanner=self.spanner, workers=self.workers,
            )
            units.append((algo, trace.inst.size, time.perf_counter() - start))
            traces[algo] = trace.inst
        return units, traces

    # -- checks ---------------------------------------------------------
    def check_run(self) -> dict:
        """First cell of each algorithm, played under observers."""
        schedule = conduel.Schedule.parse(self.schedule)
        out = {}
        for algo in self.algorithms:
            obs = Observer()
            with obs.observing():
                trace = harness.run_experiment(
                    self.envset, algo, self.check_horizon, self.run_seeds[:1], schedule,
                    users=[0], spanner=self.spanner, workers=1,
                )
            out[algo] = (trace.inst[0], obs)
        return out

    def check(self, reference, traces) -> list:
        """All correctness checks; ``traces`` come from the first timed pass."""
        bad = []
        theta = self.envset.theta_stars[0]
        for algo, (inst, obs) in reference.items():
            timed = traces[algo][0, : self.check_horizon]
            if timed.tobytes() != inst.tobytes():
                bad.append(f"{algo}: check run and timed pass disagree on cell 0")
            bad += self.check_cell(algo, inst, obs, theta)
        for algo, rows in traces.items():
            bad += checks.nonnegative_failures(algo, rows)
        return bad

    def check_cell(self, algo, inst, obs, theta) -> list:
        bad = checks.duel_regret_failures(algo, inst, obs.rounds, self.envset.arms, theta)
        return bad + checks.estimator_failures(algo, obs.fits)

    def regret_final(self, traces) -> float:
        return float(traces[self.main].sum(axis=1).mean())


class Observer:
    """Records what policies did in a check run: pools, pairs or offers,
    sampled estimator fits and sampled assortment-optimizer calls."""

    def __init__(self):
        self.rounds, self.fits, self.assortments = [], [], []
        self._fit_calls = self._assort_calls = 0

    def _round(self, orig):
        rounds = self.rounds

        def play_round(policy, pool_ids, pool_feats, oracle, t, *rest):
            rec = orig(policy, pool_ids, pool_feats, oracle, t, *rest)
            played = rec.pair if rec.assortment is None else rec.assortment.copy()
            rounds.append((t, np.array(pool_ids), played))
            return rec

        return play_round

    def _fit(self, orig):
        def mle_fit(history, lam, link, tol=1e-8, *args, **kwargs):
            est = orig(history, lam, link, tol, *args, **kwargs)
            self._fit_calls += 1
            if self._fit_calls % FIT_SAMPLE_EVERY == 0:
                if link.kind != "sigmoid":
                    raise ValueError("estimator check assumes the logistic link")
                self.fits.append((
                    history.diffs.copy(), history.outcomes.copy(), lam, tol,
                    est.theta_raw.copy(), est.theta_proj.copy(),
                ))
            return est

        return mle_fit

    def _assort(self, orig):
        def optimal_assortment(z, revenues, q, *args, **kwargs):
            sel = orig(z, revenues, q, *args, **kwargs)
            self._assort_calls += 1
            if self._assort_calls % ASSORT_SAMPLE_EVERY == 0:
                self.assortments.append((np.array(z), np.array(revenues), q, sel.copy()))
            return sel

        return optimal_assortment

    def observing(self):
        return patched([
            (dueling.DuelPolicy, "play_round", self._round(dueling.DuelPolicy.play_round)),
            (dueling.RconucbPolicy, "play_round", self._round(dueling.RconucbPolicy.play_round)),
            (mnl.MnlPolicy, "play_round", self._round(mnl.MnlPolicy.play_round)),
            (dueling, "mle_fit", self._fit(dueling.mle_fit)),
            (mnl, "optimal_assortment", self._assort(mnl.optimal_assortment)),
        ])


class DuelLong(Workload):
    """Long histories: the O(t) Newton refit and the
    unit-ball projection dominate, so estimator changes show here."""

    name = "duel-long"
    algorithms = ("conduel", "maxinp")
    main = "conduel"
    horizon = 1000
    check_horizon = 500
    n_users = 4
    n_seeds = 2
    control_seeds = 2

    def check(self, reference, traces):
        bad = super().check(reference, traces)
        return bad + checks.regret_fall_failures(self.main, traces[self.main])


class MnlLong(Workload):
    """The only workload that runs the choice-model MLE, the assortment
    bisection and the revenue-regret oracle; the dueling workloads are its
    no-change control."""

    name = "mnl-long"
    algorithms = ("conmnl", "ucb-mnl")
    main = "conmnl"
    horizon = 1000
    check_horizon = 400
    n_users = 2
    n_seeds = 2
    control_seeds = 2
    schedule = "linear:5"

    def check_cell(self, algo, inst, obs, theta):
        if not hasattr(self, "brute"):
            self.brute = checks.BruteForceAssortment(50, mnl.MnlConfig().q)
        sampled = obs.rounds[MNL_REGRET_SAMPLE_EVERY - 1 :: MNL_REGRET_SAMPLE_EVERY]
        bad = checks.mnl_regret_failures(algo, inst, sampled, self.envset.arms, theta, self.brute)
        if not obs.assortments:
            bad.append(f"{algo}: check run sampled no assortment-optimizer call")
        return bad + checks.assortment_failures(algo, obs.assortments, self.brute)


class DuelGrid(Workload):
    """Short histories through ``conduel run`` with 2 workers: fixed
    per-round work, the key-term pair search, the process pool and CSV
    writing carry the cost."""

    name = "duel-grid"
    algorithms = DUEL_ALL
    main = "conduel"
    horizon = 200
    check_horizon = 200
    n_users = 4
    n_seeds = 2

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.env_path = os.path.join(out_dir, "env.json")
        self.csv_dir = os.path.join(out_dir, "csv")
        self.unit_rounds = len(self.algorithms) * self.n_users * self.horizon

    def prepare(self):
        # the universe reaches the CLI through an environment file written
        # before any timing starts
        envset = env.gen_synthetic(env.SyntheticConfig(), self.seed)
        envfile.export_environment(envset, self.env_path)

    def setup(self):
        self.envset = envfile.import_environment(self.env_path)
        self.spanner = spanner.build_spanner(self.envset.keyterm_feats)

    def play_pass(self):
        """One ``conduel run`` per run seed (all algorithms, all users), so a
        pass yields several timed units; traces stack seed blocks of users."""
        units, parts = [], {algo: [] for algo in self.algorithms}
        for seed in self.run_seeds:
            out = os.path.join(self.csv_dir, f"seed{seed}")
            args = [
                "run", "--env", self.env_path, "--algorithms", ",".join(self.algorithms),
                "--t", str(self.horizon), "--seeds", str(seed), "--users", str(self.n_users),
                "--schedule", self.schedule, "--workers", str(self.workers), "--out", out,
            ]
            sink_out, sink_err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                code = cli.main(args)
            units.append((f"cli-run/{seed}", self.unit_rounds, time.perf_counter() - start))
            if code != 0:
                raise RuntimeError(f"conduel run exited {code}: {sink_err.getvalue()[-2000:]}")
            for algo in self.algorithms:
                with open(os.path.join(out, f"{algo}.csv"), "rb") as fh:
                    parts[algo].append(parse_trace_csv(fh.read(), self.n_users, self.horizon))
        return units, {algo: np.vstack(rows) for algo, rows in parts.items()}

    def check(self, reference, traces):
        bad = super().check(reference, traces)
        bad += checks.regret_fall_failures(self.main, traces[self.main])
        # conversations plus informative pairs may not lose to uniformly
        # random pairs from the same candidate sets
        return bad + checks.paired_not_worse_failures(
            "conduel vs random-opt", traces["conduel"], traces["random-opt"])


def parse_trace_csv(raw: bytes, n_cells: int, horizon: int) -> np.ndarray:
    """Instantaneous regret (n_cells x T) from a ``t,seed,instant_regret,cum_regret`` file."""
    lines = raw.decode("ascii").splitlines()
    if lines[0] != "t,seed,instant_regret,cum_regret" or len(lines) != 1 + n_cells * horizon:
        raise ValueError("unexpected trace CSV layout")
    return np.array([float(line.split(",")[2]) for line in lines[1:]]).reshape(n_cells, horizon)


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for algo in sorted(traces):
        h.update(algo.encode())
        h.update(np.ascontiguousarray(traces[algo]).tobytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (DuelLong, DuelGrid, MnlLong)}
