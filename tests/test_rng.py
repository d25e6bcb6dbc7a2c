import numpy as np
import pytest

from conduel import rng as streams
from conduel.errors import DomainError
from support import numpy_stream

# rounds on both sides of block edges, of the 2^32 step in t's word count,
# and of 2^64
ROUNDS = [0, 1, 255, 256, 257, 511, 512, 1000, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64 + 3]
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_equal_numpy_seed_sequence(seed):
    stream = streams.RunStream(seed)
    for t in ROUNDS:
        for purpose in range(8):
            got = stream.at(t, purpose)
            want = numpy_stream(seed, t, purpose)
            assert got.bit_generator.state == want.bit_generator.state, (t, purpose)
            np.testing.assert_array_equal(got.random(3), want.random(3))


def test_negative_keys_and_unknown_purposes_rejected():
    with pytest.raises(DomainError):
        streams.RunStream(-1)
    stream = streams.RunStream(0)
    with pytest.raises(DomainError):
        stream.at(-1, streams.POOL)
    for purpose in (-1, 8):
        with pytest.raises(DomainError):
            stream.at(1, purpose)
