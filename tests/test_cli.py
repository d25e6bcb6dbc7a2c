import dataclasses
import hashlib
import json
import multiprocessing
import time

import pytest

from conduel import harness
from conduel.cli import RunConfig, build_parser, main, parse_seed_spec
from conduel.dueling import DuelConfig
from conduel.env import SyntheticConfig
from conduel.errors import ConfigError, NumericalError
from conduel.hetrec import IngestConfig
from conduel.mnl import MnlConfig


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
    # so the run has time to play them all unless it cancels them
    path, _ = env_file
    log = tmp_path / "played.log"
    play_cell = harness._play_cell

    def failing_play_cell(*args):
        algorithm, user, seed = args[-3:]
        with open(log, "a") as fh:
            fh.write(f"{algorithm} {user} {seed}\n")
        if algorithm == "maxinp":
            if (user, seed) == (0, 0):
                raise NumericalError(
                    f"run failed at algorithm={algorithm} user={user} seed={seed} round=1: injected"
                )
            time.sleep(0.2)
        return play_cell(*args)

    monkeypatch.setattr(harness, "_play_cell", failing_play_cell)
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys,
        "run", "--env", str(path), "--algorithms", "conduel,random-opt,maxinp",
        "--t", "10", "--seeds", "0:8", "--users", "2", "--pool-size", "6",
        "--workers", "2", "--out", str(out_dir),
    )
    assert code == 2
    assert "run failed at algorithm=maxinp user=0 seed=0 round=1" in err
    for algo in ("conduel", "random-opt"):
        assert (out_dir / f"{algo}.csv").exists()
        assert (out_dir / f"{algo}_agg.csv").exists()
    assert not (out_dir / "maxinp.csv").exists()
    assert not (out_dir / "summary.json").exists()
    played = log.read_text().split("\n")[:-1]
    assert sum(line.startswith("conduel ") for line in played) == 16
    assert sum(line.startswith("maxinp ") for line in played) < 16


def test_config_file_and_flag_priority(env_file, tmp_path, capsys):
    path, _ = env_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"env = {path}\n"
        "algorithms = conduel\n"
        "t = 10\n"
        "seeds = 0:2\n"
        "schedule = linear:0\n"
        "pool_size = 6\n"
        "workers = 1\n"
        "# comment line\n"
    )
    out_dir = tmp_path / "cfg_run"
    code, out, _ = run_cli(capsys, "run", "-c", str(cfg), "--t", "5", "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "conduel.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2  # flag t=5 beat the file's t=10


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zap = 1\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 1
    assert "unknown key" in err


@pytest.mark.parametrize("line", ["lam = 1", "delta = 0.1", "kappa2 = 0.005"])
def test_constants_are_not_config_keys(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(
        capsys, "run", "-c", str(cfg), "--env", str(tmp_path / "none.json"), "--out", str(tmp_path)
    )
    assert code == 1
    assert f"unknown key {line.split()[0]!r}" in err


UNIVERSE = ("link", "n_users", "n_keyterms", "n_arms", "d", "max_arms_per_keyterm", "env_seed")
KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))
VALUES = {
    "link": "sigmoid", "n_users": "3", "n_keyterms": "16", "n_arms": "20", "d": "3",
    "max_arms_per_keyterm": "4", "env_seed": "1", "algorithms": "maxinp", "t": "2",
    "seeds": "0", "users": "1", "schedule": "linear:1", "pool_size": "6", "workers": "1",
    "radius_scale": "0.5", "pair_mode": "full_maxinp", "q": "3", "t0": "5",
    "mnl_radius_scale": "0.5",
}
# (what runs, a key of RunConfig it does not read): every such pair
UNREAD = (
    [("synth", k) for k in KEYS if k not in UNIVERSE]
    + [("prep", k) for k in KEYS if k not in ("d", "link")]
    + [("run-env", k) for k in UNIVERSE]
    + [("frequency-env", k) for k in UNIVERSE + ("schedule",)]
    + [("dimension", "d"), ("dimension", "env")]
)


@pytest.mark.parametrize("as_line", [False, True], ids=["flag", "line"])
@pytest.mark.parametrize("runs, key", UNREAD, ids=[f"{r}-{k}" for r, k in UNREAD])
def test_unread_key_rejected(tmp_path, capsys, runs, key, as_line):
    # the environment and tag files are missing: reading one first would be a
    # runtime error (exit 2), so exit 1 shows the key was checked first
    missing = str(tmp_path / "none.json")
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", *SMALL_ENV, "--out-file", str(out / "env.json")],
        "prep": ["prep", "--tags", str(tmp_path / "none.dat"), "--out-file", str(out / "env.json")],
        "run-env": ["run", "--env", missing, "--out", str(out)],
        "frequency-env": ["sweep", "--axis", "frequency", "--env", missing, "--out", str(out)],
        # small enough that a sweep which ignored the key would finish at once
        "dimension": [
            "sweep", "--axis", "dimension", "--values", "2", *SMALL_UNIVERSE, "--t", "2",
            "--seeds", "0", "--algorithms", "maxinp", "--pool-size", "6", "--workers", "1",
            "--out", str(out),
        ],
    }[runs]
    value = {"env": missing, "out": str(out)}.get(key) or VALUES[key]
    if as_line:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["-c", str(cfg)]
    else:
        argv += [f"--{key.replace('_', '-')}", value]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("configuration error:")
    if runs in ("synth", "prep") and not as_line:  # not a flag of the command
        assert f"unrecognized arguments: --{key.replace('_', '-')} " in err
    else:
        assert f"does not read {key!r}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if as_line else [])


def test_run_config_defaults_are_the_library_defaults():
    cfg, synth, duel, mnl = RunConfig(), SyntheticConfig(), DuelConfig(), MnlConfig()
    universe = ("link", "n_users", "n_keyterms", "n_arms", "max_arms_per_keyterm")
    assert [getattr(cfg, k) for k in universe] == [getattr(synth, k) for k in universe]
    assert cfg.d == synth.dim
    assert (cfg.radius_scale, cfg.pair_mode) == (duel.radius_scale, duel.pair_mode)
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


def test_unknown_pair_mode_rejected_before_environment(tmp_path, capsys):
    # the environment file does not exist: reading it first would be a
    # runtime error (exit 2), so exit 1 shows the mode was checked first
    code, _, err = run_cli(
        capsys, "run", "--env", str(tmp_path / "none.json"), "--pair-mode", "sideways",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "unknown pair mode 'sideways'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--schedule", "linear:nan"),
        ("run", "--schedule", "log:inf"),
        ("sweep", "--axis", "frequency", "--values", "abc"),
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
        ("sweep", "--axis", "frequency", "--seeds=-1:1"),
        ("run", "--env-seed=-1"),
        ("sweep", "--axis", "dimension", "--env-seed=-1"),
    ],
    ids=[
        "linear-nan", "log-inf", "sweep-values-abc", "radius-scale-nan", "mnl-radius-scale-nan",
        "radius-scale-neg", "mnl-radius-scale-neg", "q-0", "t0-neg", "conduel-q-0",
        "seed-range-neg", "seed-list-neg", "seed-range-neg-workers", "sweep-seed-range-neg",
        "env-seed-neg", "sweep-env-seed-neg",
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
    ],
)
def test_solver_internals_are_not_flags(env_file, tmp_path, capsys, flag, value):
    path, _ = env_file
    code, _, err = run_cli(
        capsys, "run", "--env", str(path), flag, value, "--t", "5", "--out", str(tmp_path)
    )
    assert code == 1
    assert "unrecognized arguments" in err


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


def test_sweep_frequency_axis(env_file, tmp_path, capsys):
    path, _ = env_file
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--axis", "frequency", "--values", "1,5",
        "--env", str(path), "--algorithms", "conduel", "--t", "8",
        "--seeds", "0:2", "--pool-size", "6", "--workers", "1", "--out", str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert set(summary) == {"freq_linear_1", "freq_linear_5", "freq_log_1", "freq_log_5"}
    assert (out_dir / "freq_log_5" / "conduel_agg.csv").exists()


def test_sweep_dimension_axis(tmp_path, capsys):
    out_dir = tmp_path / "dims"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--axis", "dimension", "--values", "2,3",
        *SMALL_UNIVERSE,
        "--algorithms", "maxinp", "--t", "6", "--seeds", "0:2",
        "--pool-size", "6", "--workers", "1", "--out", str(out_dir),
    )
    assert code == 0
    assert set(json.loads(out)) == {"dim_2", "dim_3"}


@pytest.mark.parametrize(
    "axis, values, error",
    [
        ("frequency", "5,-1", "schedule parameter must be finite and nonnegative"),
        ("dimension", "3,0", "environment sizes must be positive"),
        ("frequency", "1,1", "sweep value 1 is listed more than once"),
        ("dimension", "3,3", "sweep value 3 is listed more than once"),
    ],
    ids=["frequency-neg", "dimension-0", "frequency-repeat", "dimension-repeat"],
)
def test_sweep_checks_every_value_before_playing(tmp_path, capsys, axis, values, error):
    universe = SMALL_ENV if axis == "frequency" else SMALL_UNIVERSE
    out_dir = tmp_path / "o"
    code, out, err = run_cli(
        capsys,
        "sweep", "--axis", axis, "--values", values, *universe,
        "--algorithms", "maxinp", "--t", "5", "--seeds", "0", "--pool-size", "6",
        "--workers", "1", "--out", str(out_dir),
    )
    assert code == 1
    assert f"configuration error: {error}" in err
    assert out == ""
    assert not out_dir.exists()


def test_sweep_outputs_do_not_depend_on_worker_count(env_file, tmp_path, capsys):
    path, _ = env_file
    summaries = {}
    for workers in ("1", "2"):
        out_dir = tmp_path / f"w{workers}"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--axis", "frequency", "--values", "1,5", "--env", str(path),
            "--algorithms", "conduel,conmnl", "--t", "20", "--t0", "5", "--q", "3",
            "--seeds", "0:2", "--users", "2", "--pool-size", "6", "--workers", workers,
            "--out", str(out_dir),
        )
        assert code == 0
        saved = (out_dir / "sweep_frequency_summary.json").read_text()
        summaries[workers] = [text.replace(str(out_dir), "<out>") for text in (out, saved)]
    assert summaries["1"] == summaries["2"]
    csvs = sorted(p.relative_to(tmp_path / "w1") for p in (tmp_path / "w1").rglob("*.csv"))
    assert len(csvs) == 4 * 2 * 2  # cells x algorithms x (trace, aggregate)
    assert csvs == sorted(p.relative_to(tmp_path / "w2") for p in (tmp_path / "w2").rglob("*.csv"))
    for rel in csvs:
        assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w2" / rel).read_bytes()


def test_sweep_dimension_with_env_file_rejected(env_file, tmp_path, capsys):
    path, _ = env_file
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "dimension", "--env", str(path), "--out", str(tmp_path)
    )
    assert code == 1
    assert "synthetic" in err


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
