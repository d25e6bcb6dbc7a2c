"""Golden regret traces: every policy on a small fixed config, and two
dueling policies under the clamped-linear link.

Each digest is the SHA-256 of ``RegretTrace.inst`` as float64 bytes, so a
pure refactor must leave it unchanged.  A change that moves a trace on
purpose updates the digest here and records why in ``CHANGES.md``.  The
digests hold for the float arithmetic of numpy 2.4.6.  CI checks them on
its one job, which pins that build on Python 3.11, both on the default BLAS
threads and on one; a platform whose exp or BLAS rounds differently changes
them.
"""

import hashlib

import numpy as np
import pytest

from conduel.env import Schedule, SyntheticConfig, gen_synthetic
from conduel.harness import run_experiment
from conduel.mnl import MnlConfig

GOLDEN = {
    "conduel": "8bb79af48ce01e45009b3ebb1e5dde308d167835cb2c87a892b3c4798270340d",
    "rconucb-diff": "a9e7fedd9a6198ea70c683c965fb5954c817d5a59a9ba288094917f70e5b0b3d",
    # at the default radius scale the optimistic utilities saturate on this
    # config, so all four choice-model kinds offer the same assortments;
    # GOLDEN_MNL tells the kinds apart
    "conmnl": "71ea0001eb71d40dc2efaced902e22bee4e0fe3784259489ff1eb4ee31c98a75",
    "conmnl-ucb": "71ea0001eb71d40dc2efaced902e22bee4e0fe3784259489ff1eb4ee31c98a75",
    "conmnl-random": "71ea0001eb71d40dc2efaced902e22bee4e0fe3784259489ff1eb4ee31c98a75",
    "ucb-mnl": "71ea0001eb71d40dc2efaced902e22bee4e0fe3784259489ff1eb4ee31c98a75",
    "conduel-random": "967f7defa05dc715654424e6b62a69894af3732d6885c194f37d18a93ef1a885",
    "conduel-maxinp": "433e737109db1d7de20a9224bf537c5e568a462856a567de2ac8e995bb457f75",
    "maxinp": "9a6c40eec963175dc0d948e3279d540bd3c8513a30a38805f59db1bca596f923",
    "random-opt": "b12ec8c062a245cdd278cb3651c409e2a36319e6296cec06f46a7bd93f485d26",
    "rconucb-posneg": "2823b9fb36049f562a10f833593655fa6c256a13ed734ce91e9938a70fa7c73f",
}

# (algorithm, link) on the same universe and run settings
GOLDEN_VARIANTS = {
    ("conduel", "clamped_linear"):
        "7c07bea61804e92c80524101bd7f490cfde50c70acef3eff96ad6d74cf0e1de5",
    ("maxinp", "clamped_linear"):
        "d67165ae9c39981467a415ebbd2eccb5d9d21dd5a4589fc03d19ce1e9cda63e0",
}

# the choice-model kinds where their radius does not saturate: forced
# exploration for 10 rounds of 3-item offers and a tenth of the default
# radius scale, so each kind plays its own key-terms and assortments
GOLDEN_MNL_CONFIG = MnlConfig(q=3, t0=10, radius_scale=0.005)
GOLDEN_MNL = {
    "conmnl": "682fc775c816f8b8badd220fd28fb92cd5707d300c44df60fea2b883abec617d",
    "conmnl-ucb": "033184acffdbbd68c228ed6d0920c497a10126244a1049e30f7921a82a513a3f",
    "conmnl-random": "1bebf5930721cee65cbd8f6e2363a5976e1c7ff44feec3db8548daae04a33f28",
    "ucb-mnl": "2d8b2c48c35ca90c056bb612cf2de354aa5be2df2b79b3015dfaf5d047b02f12",
}

UNIVERSE = dict(n_users=2, n_keyterms=30, n_arms=60, dim=4, max_arms_per_keyterm=4)


def trace_digest(envset, algorithm, duel_config=None, mnl_config=None):
    trace = run_experiment(
        envset, algorithm, 150, [0, 1], Schedule("linear", 5), pool_size=10, users=2,
        duel_config=duel_config, mnl_config=mnl_config,
    )
    assert trace.inst.dtype == np.float64 and trace.inst.shape == (4, 150)
    return hashlib.sha256(np.ascontiguousarray(trace.inst).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def envset():
    return gen_synthetic(SyntheticConfig(**UNIVERSE), 7)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_trace_digest(envset, algorithm):
    assert trace_digest(envset, algorithm) == GOLDEN[algorithm]


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_MNL))
def test_golden_choice_model_trace_digest(envset, algorithm):
    assert trace_digest(envset, algorithm, mnl_config=GOLDEN_MNL_CONFIG) == GOLDEN_MNL[algorithm]


@pytest.mark.parametrize("algorithm, link", sorted(GOLDEN_VARIANTS))
def test_golden_variant_trace_digest(algorithm, link):
    envset = gen_synthetic(SyntheticConfig(**UNIVERSE, link=link), 7)
    assert trace_digest(envset, algorithm) == GOLDEN_VARIANTS[(algorithm, link)]


@pytest.mark.parametrize("algorithm", ["maxinp", "random-opt", "ucb-mnl"])
def test_policies_without_conversations_ignore_the_budget(envset, algorithm):
    # with no key-term observations, b(t) must not enter the radius; at this
    # scale ucb-mnl's radius does not saturate, so a budget would move it
    traces = [
        run_experiment(
            envset, algorithm, 150, [0, 1], Schedule("linear", n), pool_size=10, users=2,
            mnl_config=GOLDEN_MNL_CONFIG,
        ).inst.tobytes()
        for n in (10, 0)
    ]
    assert traces[0] == traces[1]
