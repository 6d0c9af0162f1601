"""How far each check's trials consume their streams, pinned by hash.

A golden report cannot see how a passing check consumed its stream: a body
that draws its operands in another order, or draws one more, can still
pass on every trial. So every stream ``runner.stream_rng`` hands out during
``--suite all --trials 3 --seed 7`` is recorded, and once the run is over
one more ``getrandbits(64)`` from each, keyed by (suite, check, trial), is
hashed and compared with the pinned digest of its shape.
"""

import hashlib

import pytest

from jordal import runner
from jordal.runner import RunConfig, run_suite

PINNED = {
    (2, 8): "f3a134cb5fb4e423",
    (3, 4): "2f8234373dd558a2",
    (3, 8): "6d1c94fa00b3ebfe",
}


def stream_positions(monkeypatch, k, delta):
    """[(key, next 64 bits)] of every stream the run drew from."""
    streams = []
    original = runner.stream_rng

    def recording(*key):
        rng = original(*key)
        streams.append((key[1:], rng))
        return rng

    monkeypatch.setattr(runner, "stream_rng", recording)
    run_suite(RunConfig(k=k, delta=delta, suite="all", trials=3, seed=7))
    return [(key, rng.getrandbits(64)) for key, rng in streams]


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_each_check_consumes_its_pinned_draws(shape, monkeypatch):
    got = hashlib.sha256(repr(stream_positions(monkeypatch, *shape)).encode())
    assert got.hexdigest()[:16] == PINNED[shape]
