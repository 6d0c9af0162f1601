"""How far each check's trials consume their streams, pinned by hash.

A golden report cannot see how a passing check consumed its stream: a body
that draws its operands in another order, or draws one more, can still
pass on every trial. So every stream ``runner.stream_rng`` hands out during
``--suite all --trials 3 --seed 7`` is recorded, and once the run is over
one more ``getrandbits(64)`` from each, keyed by (suite, check, trial), is
hashed and compared with the pinned digest of its shape.

That sees how far a stream went, not which operand took which draws: a
body that draws the same operands in another order consumes as much. So
the operands ``runner._draw`` returns are pinned too, as (numerators,
denominator) pairs (a rank-one point by its element, composition-algebra
coordinates as drawn), with the letters that asked for them, keyed by
(check, trial) and hashed per shape. The letters matter: an invertible
operand moved from first to last draw takes the same values in the same
order whenever no draw is rejected, and only its letter shows the move.
"""

import hashlib

import pytest

from jordal import runner
from jordal.geometry import RankOnePoint
from jordal.jordan import JordanElement
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


OPERANDS_PINNED = {
    (2, 8): "23806a7c0e3f6239",
    (3, 4): "58344965e1da1f50",
    (3, 8): "812144972d81c05b",
}


def operand_pair(x):
    if isinstance(x, RankOnePoint):
        return x.element.cleared
    if isinstance(x, JordanElement):
        return x.cleared
    return tuple(x)


def drawn_operands(monkeypatch, k, delta):
    """{(check, trial): [(letters, operand pairs) of each _draw call]}."""
    drawn, current = {}, []
    run_one_trial, draw = runner._run_one_trial, runner._draw

    def trial(env, check, i):
        current[:] = [(check.id, i)]
        return run_one_trial(env, check, i)

    def recording(env, rng, operands):
        xs = draw(env, rng, operands)
        drawn.setdefault(current[0], []).append(
            (operands, [operand_pair(x) for x in xs]))
        return xs

    monkeypatch.setattr(runner, "_run_one_trial", trial)
    monkeypatch.setattr(runner, "_draw", recording)
    run_suite(RunConfig(k=k, delta=delta, suite="all", trials=3, seed=7))
    return sorted(drawn.items())


@pytest.mark.parametrize("shape", sorted(OPERANDS_PINNED))
def test_each_check_draws_its_pinned_operands(shape, monkeypatch):
    got = hashlib.sha256(repr(drawn_operands(monkeypatch, *shape)).encode())
    assert got.hexdigest()[:16] == OPERANDS_PINNED[shape]
