"""Per-layer metrics from the spans of traced passes.

Times and counts are per pass (one play of every cell of the workload),
taken as the median over the traced passes of a run; counts repeat exactly
from pass to pass.  The three set-up layers are reported per call instead,
as the median duration of that call over the run.
"""

from __future__ import annotations

import os
import statistics

from conduel import cli, dueling, env, envfile, estimator, glm, harness, mnl, rng, spanner
from tracing import END, LAYER, PID, START, layer_totals

SETUP_LAYERS = {"env.gen_ms": "env.gen", "envfile.import_ms": "envfile.import",
                "spanner.build_ms": "spanner.build"}


def _pass_metrics(spans, lo, hi) -> dict:
    tot = layer_totals(spans, lo, hi)
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "values": []}

    def get(layer):
        return tot.get(layer, empty)

    def ms(layer, key="incl"):
        return (get(layer)[key] * 1e3, "ms")

    def calls(layer):
        return (get(layer)["calls"], "count")

    fits = get("estimator.fit")
    n_fits = fits["calls"]
    cands = get("dueling.candidates")["values"]
    return {
        "estimator.fit_ms": ms("estimator.fit"),
        "estimator.fit_calls": calls("estimator.fit"),
        "estimator.newton_iters": (sum(v[0] for v in fits["values"]), "count"),
        "estimator.project_ms": ms("estimator.project"),
        "estimator.project_calls": calls("estimator.project"),
        "estimator.project_rate": (
            sum(v[1] for v in fits["values"]) / n_fits if n_fits else 0.0, "ratio"),
        "glm.design_update_ms": ms("glm.design_update"),
        "glm.design_update_calls": calls("glm.design_update"),
        "glm.refactor_calls": calls("glm.refactor"),
        "dueling.round_self_ms": ms("dueling.round", "self"),
        "dueling.candidates_ms": ms("dueling.candidates"),
        "dueling.candidates_mean": (sum(cands) / len(cands) if cands else 0.0, "count"),
        "dueling.arm_pair_ms": ms("dueling.arm_pair"),
        "dueling.keyterm_pair_ms": ms("dueling.keyterm_pair"),
        "rng.substream_ms": ms("rng.substream"),
        "rng.substream_calls": calls("rng.substream"),
        "env.feedback_ms": ms("env.feedback"),
        "env.feedback_calls": calls("env.feedback"),
        "env.regret_ms": ms("env.regret"),
        "harness.round_self_ms": ms("harness.cell", "self"),
        "harness.overhead_ms": (_harness_overhead(spans, lo, hi) * 1e3, "ms"),
        "report.write_ms": ms("report.write"),
        "report.mb": (sum(get("report.write")["values"]) / 1e6, "MB"),
        "mnl.fit_ms": ms("mnl.fit"),
        "mnl.fit_calls": calls("mnl.fit"),
        "mnl.assortment_ms": ms("mnl.assortment"),
        "mnl.assortment_calls": calls("mnl.assortment"),
        "mnl.ucb_ms": ms("mnl.ucb"),
        "mnl.round_self_ms": ms("mnl.round", "self"),
    }


def _harness_overhead(spans, lo, hi) -> float:
    """Sum over runner calls of wall time minus cell time per worker.

    Cells are matched to a runner call by time containment, since worker
    spans have no parent in the parent process; the worker count is the
    number of processes that played those cells.
    """
    runs = [s for s in spans[lo:hi] if s[LAYER] == "harness.run"]
    cells = [s for s in spans[lo:hi] if s[LAYER] == "harness.cell"]
    total = 0.0
    for r in runs:
        inside = [c for c in cells if c[START] >= r[START] and c[END] <= r[END]]
        procs = len({c[PID] for c in inside}) or 1
        total += (r[END] - r[START]) - sum(c[END] - c[START] for c in inside) / procs
    return total


def per_layer(spans, ranges) -> dict:
    """Median over traced passes of each per-pass metric, plus set-up layers."""
    per_pass = [_pass_metrics(spans, lo, hi) for lo, hi in ranges]
    out = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    for name, layer in SETUP_LAYERS.items():
        durs = [s[END] - s[START] for s in spans if s[LAYER] == layer]
        out[name] = (statistics.median(durs) * 1e3 if durs else 0.0, "ms")
    return out


def trace_targets():
    """(owner, name, layer, value) for every call the traced run times.

    Each name is wrapped where its caller looks it up: the policies call the
    estimator through ``conduel.dueling``, the harness calls the regret
    oracles through ``conduel.harness``, the CLI calls writers, importers and
    the runner through ``conduel.cli``.  ``harness._play_cell`` is the one
    private name: the cell loop has no public boundary of its own.
    """
    def csv_bytes(_out, args):
        return os.path.getsize(args[0])

    return [
        (harness, "run_experiment", "harness.run", None),
        (cli, "run_experiment", "harness.run", None),
        (harness, "_play_cell", "harness.cell", None),
        (harness, "dueling_regret", "env.regret", None),
        (harness, "mnl_regret", "env.regret", None),
        (env.SimulatedUser, "duel", "env.feedback", None),
        (env.SimulatedUser, "click", "env.feedback", None),
        (env.SimulatedUser, "choice", "env.feedback", None),
        (rng.RunStream, "at", "rng.substream", None),
        (dueling.DuelPolicy, "play_round", "dueling.round", None),
        (dueling.RconucbPolicy, "play_round", "dueling.round", None),
        (dueling, "mle_fit", "estimator.fit",
         lambda est, _a: [est.newton_iters, int(est.projected)]),
        (estimator, "project_theta", "estimator.project", None),
        (dueling, "build_candidate_set", "dueling.candidates", lambda c, _a: len(c)),
        (dueling, "select_arm_pair", "dueling.arm_pair", None),
        (dueling, "select_keyterm_pair", "dueling.keyterm_pair", None),
        (glm.DesignMatrix, "update", "glm.design_update", None),
        (glm.DesignMatrix, "refactor", "glm.refactor", None),
        (mnl.MnlPolicy, "play_round", "mnl.round", None),
        (mnl, "mnl_mle_fit", "mnl.fit", None),
        (mnl, "optimal_assortment", "mnl.assortment", None),
        (mnl, "ucb_utilities", "mnl.ucb", None),
        (cli, "write_trace_csv", "report.write", csv_bytes),
        (cli, "write_aggregate_csv", "report.write", csv_bytes),
        (env, "gen_synthetic", "env.gen", None),
        (envfile, "import_environment", "envfile.import", None),
        (cli, "import_environment", "envfile.import", None),
        (spanner, "build_spanner", "spanner.build", None),
        (cli, "build_spanner", "spanner.build", None),
    ]
