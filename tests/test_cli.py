import dataclasses
import hashlib
import json
import multiprocessing
import runpy
import sys
import time
from pathlib import Path

import pytest

from conduel import harness
from conduel.cli import RunConfig, build_parser, main, parse_seed_spec
from conduel.dueling import DuelConfig
from conduel.env import SyntheticConfig
from conduel.errors import ConfigError, NumericalError
from conduel.hetrec import IngestConfig
from conduel.mnl import MnlConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_UNIVERSE = [
    "--n-users", "3", "--n-keyterms", "16", "--n-arms", "20", "--max-arms-per-keyterm", "4",
]
SMALL_ENV = [*SMALL_UNIVERSE, "--d", "3"]


@pytest.fixture()
def env_file(tmp_path, capsys):
    path = tmp_path / "env.json"
    code, out, _ = run_cli(capsys, "synth", *SMALL_ENV, "--out-file", str(path))
    assert code == 0
    return path, json.loads(out)


def test_seed_spec_parsing():
    assert parse_seed_spec("0:3") == [0, 1, 2]
    assert parse_seed_spec("4,7,9") == [4, 7, 9]
    with pytest.raises(ConfigError):
        parse_seed_spec("3:1")
    with pytest.raises(ConfigError):
        parse_seed_spec("a,b")


def test_synth_writes_importable_file(env_file, tmp_path, capsys):
    path, summary = env_file
    assert summary["n_keyterms"] == 16
    assert path.exists()
    # same seed, same checksum
    path2 = tmp_path / "env2.json"
    code, out, _ = run_cli(capsys, "synth", *SMALL_ENV, "--out-file", str(path2))
    assert code == 0
    assert json.loads(out)["checksum"] == summary["checksum"]


def test_run_emits_csvs_and_summary(env_file, tmp_path, capsys):
    path, _ = env_file
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        capsys,
        "run",
        "--env", str(path),
        "--algorithms", "conduel,random-opt",
        "--t", "30",
        "--seeds", "0:3",
        "--users", "2",
        "--schedule", "linear:2",
        "--pool-size", "6",
        "--workers", "1",
        "--out", str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {"conduel", "random-opt"}
    assert "cells" in err  # progress on stderr
    for algo in summary:
        trace = (out_dir / f"{algo}.csv").read_text().splitlines()
        assert trace[0] == "t,seed,instant_regret,cum_regret"
        assert len(trace) == 1 + 30 * 6  # 2 users x 3 seeds
        ts = [int(line.split(",")[0]) for line in trace[1 : 1 + 30]]
        assert ts == sorted(ts)
        agg = (out_dir / f"{algo}_agg.csv").read_text().splitlines()
        assert agg[0] == "t,mean_cum,stderr_cum"
        assert len(agg) == 31
    assert (out_dir / "summary.json").exists()


def test_run_is_byte_deterministic(env_file, tmp_path, capsys):
    path, _ = env_file
    args = [
        "run", "--env", str(path), "--algorithms", "conduel", "--t", "20",
        "--seeds", "0:2", "--users", "1", "--schedule", "linear:2",
        "--pool-size", "6", "--workers", "1",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
    assert (out_a / "conduel.csv").read_bytes() == (out_b / "conduel.csv").read_bytes()
    assert (out_a / "conduel_agg.csv").read_bytes() == (out_b / "conduel_agg.csv").read_bytes()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched cell function only when forked",
)
def test_failed_run_keeps_finished_algorithms(env_file, tmp_path, capsys, monkeypatch):
    # the first cell of the last algorithm fails; its later cells are slow,
    # so the run has time to play them all unless it cancels them.  The GLM
    # kinds play one lockstep group per worker; the linear baseline plays
    # each cell as a group of its own, so its unplayed cells can be cancelled
    path, _ = env_file
    log = tmp_path / "played.log"
    play_cell = harness._play_cell

    def failing_play_cell(*args):
        algorithm, cells = args[-2:]
        with open(log, "a") as fh:
            fh.writelines(f"{algorithm} {user} {seed}\n" for user, seed in cells)
        if algorithm == "rconucb-diff":
            if cells == [(0, 0)]:
                raise NumericalError(
                    f"run failed at algorithm={algorithm} user=0 seed=0 round=1: injected"
                )
            time.sleep(0.2)
        return play_cell(*args)

    monkeypatch.setattr(harness, "_play_cell", failing_play_cell)
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys,
        "run", "--env", str(path), "--algorithms", "conduel,random-opt,rconucb-diff",
        "--t", "10", "--seeds", "0:8", "--users", "2", "--pool-size", "6",
        "--workers", "2", "--out", str(out_dir),
    )
    assert code == 2
    assert "run failed at algorithm=rconucb-diff user=0 seed=0 round=1" in err
    for algo in ("conduel", "random-opt"):
        assert (out_dir / f"{algo}.csv").exists()
        assert (out_dir / f"{algo}_agg.csv").exists()
    assert not (out_dir / "rconucb-diff.csv").exists()
    assert not (out_dir / "summary.json").exists()
    played = log.read_text().split("\n")[:-1]
    assert sum(line.startswith("conduel ") for line in played) == 16
    assert sum(line.startswith("rconucb-diff ") for line in played) < 16


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "-c", "x.cfg"],
        ["run", "--config", "x.cfg"],
        ["synth", "--config", "x.cfg", "--out-file", "e.json"],
    ],
    ids=["run-c", "run-config", "synth-config"],
)
def test_config_file_flag_is_gone(tmp_path, capsys, monkeypatch, argv):
    # a flag is the one way to give a key: an existing file is not read
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONDUEL_OUT", raising=False)
    (tmp_path / "x.cfg").write_text("t = 5\n")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert f"configuration error: unrecognized arguments: {argv[1]} x.cfg" in err
    assert [p.name for p in tmp_path.iterdir()] == ["x.cfg"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    # a key no command reads is an unregistered flag, rejected before any file
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--zap", "1", "--out", str(out))
    assert code == 1
    assert "configuration error: unrecognized arguments: --zap 1" in err
    assert list(tmp_path.iterdir()) == []


UNIVERSE = ("link", "n_users", "n_keyterms", "n_arms", "d", "max_arms_per_keyterm", "env_seed")
KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))
VALUES = {
    "link": "sigmoid", "n_users": "3", "n_keyterms": "16", "n_arms": "20", "d": "3",
    "max_arms_per_keyterm": "4", "env_seed": "1", "algorithms": "maxinp", "t": "2",
    "seeds": "0", "users": "1", "schedule": "linear:1", "pool_size": "6", "workers": "1",
    "radius_scale": "0.5", "q": "3", "t0": "5", "mnl_radius_scale": "0.5",
}
# (what runs, a key of RunConfig it does not read): every such pair
UNREAD = (
    [("synth", k) for k in KEYS if k not in UNIVERSE]
    + [("prep", k) for k in KEYS if k not in ("d", "link")]
    + [("run-env", k) for k in UNIVERSE]
)


# each key is given as a flag, the one way to give a key
@pytest.mark.parametrize("runs, key", UNREAD, ids=[f"{r}-{k}-flag" for r, k in UNREAD])
def test_unread_key_rejected(tmp_path, capsys, runs, key):
    # the environment and tag files are missing: reading one first would be a
    # runtime error (exit 2), so exit 1 shows the key was checked first
    missing = str(tmp_path / "none.json")
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", *SMALL_ENV, "--out-file", str(out / "env.json")],
        "prep": ["prep", "--tags", str(tmp_path / "none.dat"), "--out-file", str(out / "env.json")],
        "run-env": ["run", "--env", missing, "--out", str(out)],
    }[runs]
    value = {"env": missing, "out": str(out)}.get(key) or VALUES[key]
    argv += [f"--{key.replace('_', '-')}", value]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("configuration error:")
    if runs in ("synth", "prep"):  # not a flag of the command
        assert f"unrecognized arguments: --{key.replace('_', '-')} " in err
    else:
        assert f"run with env= does not read {key!r}" in err
    assert list(tmp_path.iterdir()) == []


def test_run_config_defaults_are_the_library_defaults():
    cfg, synth, duel, mnl = RunConfig(), SyntheticConfig(), DuelConfig(), MnlConfig()
    universe = ("link", "n_users", "n_keyterms", "n_arms", "max_arms_per_keyterm")
    assert [getattr(cfg, k) for k in universe] == [getattr(synth, k) for k in universe]
    assert cfg.d == synth.dim
    assert cfg.radius_scale == duel.radius_scale
    assert (cfg.q, cfg.t0, cfg.mnl_radius_scale) == (mnl.q, mnl.t0, mnl.radius_scale)
    prep = build_parser().parse_args(["prep", "--tags", "t.dat", "--out-file", "e.json"])
    ingest = IngestConfig()
    assert (prep.items, prep.top_users, prep.tags_per_item) == (
        ingest.n_items, ingest.n_users, ingest.tags_per_item,
    )


@pytest.mark.parametrize(
    "flag, value, repeated",
    [("--seeds", "3,3", "seed 3"), ("--algorithms", "conduel,conduel", "algorithm 'conduel'")],
)
def test_repeated_cells_rejected(env_file, tmp_path, capsys, flag, value, repeated):
    path, _ = env_file
    code, _, err = run_cli(
        capsys, "run", "--env", str(path), flag, value, "--t", "5", "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert f"{repeated} is listed more than once" in err
    assert not (tmp_path / "o").exists()


def test_unknown_algorithm_rejected(env_file, tmp_path, capsys):
    path, _ = env_file
    code, _, err = run_cli(
        capsys, "run", "--env", str(path), "--algorithms", "zap", "--out", str(tmp_path)
    )
    assert code == 1
    assert "unknown algorithm" in err


def test_pair_mode_flag_rejected_before_environment(tmp_path, capsys):
    # the arm-pair rule follows the algorithm, so no flag chooses it; the
    # environment file does not exist, and reading it first would be a
    # runtime error (exit 2)
    out = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "run", "--env", str(tmp_path / "none.json"), "--pair-mode", "full_maxinp",
        "--out", str(out),
    )
    assert code == 1
    assert "configuration error: unrecognized arguments: --pair-mode full_maxinp" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value, error",
    [
        ("--schedule", "linear:-1", "schedule parameter must be finite and nonnegative"),
        ("--d", "0", "environment sizes must be positive"),
    ],
    ids=["schedule-neg", "d-0"],
)
def test_bad_schedule_or_dimension_rejected_before_playing(tmp_path, capsys, flag, value, error):
    out_dir = tmp_path / "o"
    code, out, err = run_cli(
        capsys,
        "run", *SMALL_ENV, flag, value, "--algorithms", "maxinp", "--t", "5", "--seeds", "0",
        "--pool-size", "6", "--workers", "1", "--out", str(out_dir),
    )
    assert code == 1
    assert f"configuration error: {error}" in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--schedule", "linear:nan"),
        ("run", "--schedule", "log:inf"),
        ("run", "--radius-scale", "nan"),
        ("run", "--mnl-radius-scale", "nan"),
        ("run", "--radius-scale", "-1"),
        ("run", "--algorithms", "conmnl", "--mnl-radius-scale", "-1"),
        ("run", "--algorithms", "conmnl", "--q", "0"),
        ("run", "--algorithms", "conmnl", "--t0", "-5"),
        ("run", "--q", "0"),
        ("run", "--seeds=-2:0"),
        ("run", "--seeds", "3,-1"),
        ("run", "--seeds=-1:1", "--workers", "2"),
        ("run", "--env-seed=-1"),
    ],
    ids=[
        "linear-nan", "log-inf", "radius-scale-nan", "mnl-radius-scale-nan",
        "radius-scale-neg", "mnl-radius-scale-neg", "q-0", "t0-neg", "conduel-q-0",
        "seed-range-neg", "seed-list-neg", "seed-range-neg-workers", "env-seed-neg",
    ],
)
def test_bad_number_rejected_before_environment(tmp_path, capsys, argv):
    # as above, a missing environment file tells whether the value was
    # checked before any environment was read
    code, _, err = run_cli(
        capsys, *argv, "--env", str(tmp_path / "none.json"), "--out", str(tmp_path)
    )
    assert code == 1
    assert "configuration error" in err
    # the value is what fails, even where env= leaves a given key unread
    assert "does not read" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--out-file", "env.json"),
        ("run", "--t", "5", "--seeds", "0"),
        # the tag file does not exist: reading it first would be exit 2
        ("prep", "--tags", "missing.dat", "--out-file", "env.json"),
    ],
    ids=["synth", "run", "prep"],
)
def test_unknown_link_rejected_before_any_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv, "--link", "bogus")
    assert code == 1
    assert "configuration error: unknown link kind: 'bogus'" in err
    assert list(tmp_path.iterdir()) == []


def test_negative_env_seed_rejected_by_synth(tmp_path, capsys):
    out_file = tmp_path / "env.json"
    code, _, err = run_cli(capsys, "synth", *SMALL_ENV, "--env-seed=-1", "--out-file", str(out_file))
    assert code == 1
    assert "env_seed must be nonnegative" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol", "1e-6"), ("--max-iters", "5"), ("--kappa1", "0.2"),
        # the ridge, confidence level and choice-model curvature are constants
        ("--lam", "1"), ("--delta", "0.1"), ("--kappa2", "0.005"),
        # a prefix of a flag is not that flag
        ("--radius", "0.5"), ("--seed", "3"), ("--pool", "7"),
    ],
)
def test_solver_internals_are_not_flags(env_file, tmp_path, capsys, flag, value):
    path, _ = env_file
    code, _, err = run_cli(
        capsys, "run", "--env", str(path), flag, value, "--t", "5", "--out", str(tmp_path)
    )
    assert code == 1
    assert f"unrecognized arguments: {flag} {value}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["env.json"]


def test_plot_flag_prefix_rejected(tmp_path, capsys):
    # `--out` is a prefix of `--out-file`, not that flag
    code, _, err = run_cli(
        capsys, "plot", str(tmp_path / "a_agg.csv"), "--out-file", str(tmp_path / "a.svg"),
        "--out", str(tmp_path / "b.svg"),
    )
    assert code == 1
    assert f"unrecognized arguments: --out {tmp_path / 'b.svg'}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc.pop("d"), lambda doc: doc["weights"].__setitem__(0, "x 0 1.0")],
    ids=["no-d", "bad-triple"],
)
def test_malformed_environment_file_is_runtime_error(env_file, tmp_path, capsys, edit):
    # a well-formed checksum over a malformed body: a clean exit 2
    path, _ = env_file
    doc = json.loads(path.read_text())
    del doc["checksum"]
    edit(doc)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canon.encode()).hexdigest()
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--env", str(path), "--t", "5", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


def test_missing_dataset_file_fails_with_path(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "prep", "--tags", str(tmp_path / "none.dat"),
        "--out-file", str(tmp_path / "env.json"),
    )
    assert code == 2
    assert "none.dat" in err


def _toy_tags(tmp_path):
    rows = ["userID\titemID\ttagID"]
    for u in range(4):
        for it in range(6):
            rows.append(f"{u}\t{it}\t{100 + (u + it) % 3}")
    tags = tmp_path / "tags.dat"
    tags.write_text("\n".join(rows) + "\n")
    return tags


def test_prep_toy_dataset(tmp_path, capsys):
    tags = _toy_tags(tmp_path)
    out = tmp_path / "env.json"
    code, stdout, _ = run_cli(
        capsys, "prep", "--tags", str(tags), "--out-file", str(out),
        "--items", "6", "--top-users", "4", "--tags-per-item", "2", "--d", "2",
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["n_arms"] == 6
    assert summary["n_raw_records"] == 24
    # re-run is bit identical
    out2 = tmp_path / "env2.json"
    code, stdout2, _ = run_cli(
        capsys, "prep", "--tags", str(tags), "--out-file", str(out2),
        "--items", "6", "--top-users", "4", "--tags-per-item", "2", "--d", "2",
    )
    assert json.loads(stdout2)["checksum"] == summary["checksum"]


@pytest.mark.parametrize(
    "flag, value",
    [("--items", "-1"), ("--top-users", "0"), ("--tags-per-item", "0"),
     ("--tags-per-item", "-2"), ("--d", "0")],
    ids=["items-neg", "top-users-0", "tags-per-item-0", "tags-per-item-neg", "d-0"],
)
def test_prep_rejects_out_of_range_sizes(tmp_path, capsys, flag, value):
    tags = _toy_tags(tmp_path)
    out = tmp_path / "env.json"
    sizes = {"--items": "6", "--top-users": "4", "--tags-per-item": "2", "--d": "2", flag: value}
    argv = [x for pair in sizes.items() for x in pair]
    code, _, err = run_cli(capsys, "prep", "--tags", str(tags), "--out-file", str(out), *argv)
    assert code == 1
    assert "must be at least 1" in err
    assert not out.exists()


def test_prep_output_does_not_depend_on_env_seed(tmp_path, capsys):
    # the construction has no randomness, so prep takes no seed at all
    tags = _toy_tags(tmp_path)
    out = tmp_path / "env.json"
    code, _, err = run_cli(
        capsys, "prep", "--tags", str(tags), "--out-file", str(out),
        "--items", "6", "--top-users", "4", "--tags-per-item", "2", "--d", "2",
        "--env-seed", "1",
    )
    assert code == 1
    assert "unrecognized arguments: --env-seed" in err
    assert not out.exists()


# fig 3 sweeps conversation frequency and dimension; its dimension points
# reach d=50, where the spanner needs key-term features of rank 50: fifty
# key-terms over a hundred arms have it at env seed 0
FIG3_SMALL = [
    "--n-users", "1", "--n-keyterms", "50", "--n-arms", "100", "--max-arms-per-keyterm", "4",
    "--t", "5", "--seeds", "0", "--users", "1", "--workers", "1", "--pool-size", "6",
]
FIG3_FILES = {"conduel.csv", "conduel_agg.csv", "maxinp.csv", "maxinp_agg.csv", "summary.json"}


def play_fig3(tmp_path, monkeypatch):
    out = tmp_path / "fig3"
    monkeypatch.setenv("CONDUEL_OUT", str(out))
    monkeypatch.setattr(sys, "argv", ["fig3_ablations.py", *FIG3_SMALL])
    runpy.run_path(str(SCRIPTS / "fig3_ablations.py"), run_name="__main__")
    return out


def assert_point_is_one_run(tmp_path, capsys, point, setting):
    # a point is the run of its settings, conduel alone included: the
    # no-conversation reference does not move the conduel trace
    direct = tmp_path / "direct"
    assert main(["run", *FIG3_SMALL, *setting, "--out", str(direct)]) == 0
    capsys.readouterr()
    assert (point / "conduel.csv").read_bytes() == (direct / "conduel.csv").read_bytes()


def test_fig3_frequency_points(tmp_path, monkeypatch, capsys):
    out = play_fig3(tmp_path, monkeypatch)
    points = sorted(p.name for p in (out / "frequency").iterdir())
    assert points == sorted(
        f"freq_{family}_{n}" for family in ("linear", "log") for n in (1, 5, 10, 20)
    )
    for name in points:
        assert {p.name for p in (out / "frequency" / name).iterdir()} == FIG3_FILES
    assert_point_is_one_run(
        tmp_path, capsys, out / "frequency" / "freq_log_5", ["--schedule", "log:5"]
    )


def test_fig3_dimension_points(tmp_path, monkeypatch, capsys):
    out = play_fig3(tmp_path, monkeypatch)
    points = sorted(p.name for p in (out / "dimension").iterdir())
    assert points == [f"dim_{d}" for d in (20, 30, 40, 50)]
    for name in points:
        assert {p.name for p in (out / "dimension" / name).iterdir()} == FIG3_FILES
    assert_point_is_one_run(
        tmp_path, capsys, out / "dimension" / "dim_30", ["--schedule", "linear:10", "--d", "30"]
    )


def test_plot_command(env_file, tmp_path, capsys):
    path, _ = env_file
    out_dir = tmp_path / "run"
    run_cli(
        capsys, "run", "--env", str(path), "--algorithms", "conduel,rconucb-diff",
        "--t", "10", "--seeds", "0:2", "--schedule", "linear:1",
        "--pool-size", "6", "--workers", "1", "--out", str(out_dir),
    )
    chart = tmp_path / "chart.svg"
    code, out, _ = run_cli(
        capsys, "plot",
        str(out_dir / "conduel_agg.csv"), str(out_dir / "rconucb-diff_agg.csv"),
        "--out-file", str(chart),
    )
    assert code == 0
    svg = chart.read_text()
    assert svg.count("<polyline") == 2
    assert "rconucb-diff" in svg


def test_plot_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    code, _, err = run_cli(capsys, "plot", str(bad), "--out-file", str(tmp_path / "x.svg"))
    assert code == 2


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "sideways")
    assert code == 1


def test_env_var_default_out(env_file, tmp_path, capsys, monkeypatch):
    path, _ = env_file
    target = tmp_path / "from_env_var"
    monkeypatch.setenv("CONDUEL_OUT", str(target))
    code, _, _ = run_cli(
        capsys, "run", "--env", str(path), "--algorithms", "conduel", "--t", "5",
        "--seeds", "0:1", "--schedule", "linear:0", "--pool-size", "6", "--workers", "1",
    )
    assert code == 0
    assert (target / "conduel.csv").exists()


# universes without a barycentric spanner: five key-terms cannot span d=10,
# and these fifty span only 49 of 50 dimensions
NO_SPANNER = {
    "few-keyterms": ["--n-keyterms", "5", "--n-arms", "60", "--d", "10"],
    "rank-49": [
        "--n-keyterms", "50", "--n-arms", "60", "--max-arms-per-keyterm", "4", "--d", "50",
    ],
}


@pytest.mark.parametrize("universe", NO_SPANNER.values(), ids=NO_SPANNER.keys())
def test_run_without_spanner_when_no_algorithm_draws_from_it(tmp_path, capsys, universe):
    out = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "run", "--n-users", "1", *universe, "--algorithms", "maxinp",
        "--t", "5", "--seeds", "0", "--workers", "1", "--out", str(out),
    )
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"maxinp.csv", "maxinp_agg.csv", "summary.json"}


def test_conduel_without_spanner_fails(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "run", "--n-users", "1", *NO_SPANNER["few-keyterms"], "--algorithms", "conduel",
        "--t", "5", "--seeds", "0", "--workers", "1", "--out", str(out),
    )
    assert code == 2
    assert "error: need at least 10 key-terms, got 5" in err
    assert not out.exists()
