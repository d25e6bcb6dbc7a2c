"""Helpers that several test modules share."""

import numpy as np

from conduel import rng as streams
from conduel.estimator import WarmStart


def numpy_stream(seed, t, purpose):
    """A run's (seed, round, purpose) stream as numpy defines it, built from
    numpy's ``SeedSequence``, so replays do not take their draws from the
    module under test."""
    ss = np.random.SeedSequence(entropy=(streams._RUN_SALT, seed, t, purpose))
    return np.random.Generator(np.random.PCG64(ss))


def started_at(theta):
    """A WarmStart holding only an estimate: a fit given it starts there."""
    warm = WarmStart(len(theta))
    warm.theta = np.array(theta, dtype=float)
    return warm
