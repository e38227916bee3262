import numpy as np

from cavitygates import verify

from conftest import haar_unitary


def test_round_trip_draws_match_sequential_haar_draws():
    # the batched draws reproduce, bit for bit, one Haar draw per matrix
    # in the order m, a, b, c, d of each trial
    rng = np.random.default_rng(20050517)
    cores, sides = verify._round_trip_draws(7, 20050517)
    assert cores.shape == (7, 4, 4) and sides.shape == (7, 4, 2, 2)
    for core, side in zip(cores, sides):
        assert np.array_equal(core, haar_unitary(4, rng))
        for factor in side:
            assert np.array_equal(factor, haar_unitary(2, rng))
