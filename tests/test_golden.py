"""Golden regret traces: one policy per family on a small fixed config.

Each digest is the SHA-256 of ``RegretTrace.inst`` as float64 bytes, so a
pure refactor must leave it unchanged.  A change that moves a trace on
purpose updates the digest here and records why in ``CHANGES.md``.  The
digests hold for the float arithmetic of the numpy build the suite was
pinned with; a platform whose exp or BLAS rounds differently changes them.
"""

import hashlib

import numpy as np
import pytest

from conduel.env import Schedule, SyntheticConfig, gen_synthetic
from conduel.harness import run_experiment

GOLDEN = {
    "conduel": "8bb79af48ce01e45009b3ebb1e5dde308d167835cb2c87a892b3c4798270340d",
    "rconucb-diff": "a9e7fedd9a6198ea70c683c965fb5954c817d5a59a9ba288094917f70e5b0b3d",
    "conmnl": "7b3f1de1b9fbd777f209e22044947b97ff247c2122534868bef9833b9c13c856",
    # the two pick key-terms differently only after the initialization
    # phase, and on this config they then offer the same assortments
    "conmnl-ucb": "3ee74b9859139f70a79c3b02f33e1b541b90e7d9fb7662aa42d28826c0d3d626",
    "conmnl-random": "3ee74b9859139f70a79c3b02f33e1b541b90e7d9fb7662aa42d28826c0d3d626",
    "ucb-mnl": "124ad858182c68ed576d2995a8af738d9b86c0a971b2f5610bfeabb038242a1e",
}


@pytest.fixture(scope="module")
def envset():
    cfg = SyntheticConfig(n_users=2, n_keyterms=30, n_arms=60, dim=4, max_arms_per_keyterm=4)
    return gen_synthetic(cfg, 7)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_trace_digest(envset, algorithm):
    trace = run_experiment(
        envset, algorithm, 150, [0, 1], Schedule("linear", 5), pool_size=10, users=2
    )
    assert trace.inst.dtype == np.float64 and trace.inst.shape == (4, 150)
    digest = hashlib.sha256(np.ascontiguousarray(trace.inst).tobytes()).hexdigest()
    assert digest == GOLDEN[algorithm]
