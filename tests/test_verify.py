import inspect

import numpy as np

from cavitygates import (
    evolution,
    gates,
    invariants,
    linalg,
    sequences,
    serialize,
    spin,
    synthesis,
    verify,
)

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


def test_checks_and_public_functions_take_no_tolerance():
    # every check runs at fixed tolerances; none is a caller's setting
    for check in verify.ALL_CHECKS:
        assert not inspect.signature(check).parameters
    for module in (linalg, gates, spin, evolution, invariants, sequences, synthesis, serialize, verify):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                assert "tol" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"
