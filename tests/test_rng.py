"""Stream derivation and coordinate draws against their reference routes.

``sample_coords`` reads 5-bit getrandbits words and rejects those at 19 or
more, which is what ``randint(COORD_LO, COORD_HI)`` does: both must give
the same tuple and leave the generator in the same state. ``stream_rng``
folds the labels before the last through a cache; its stream must be
``random.Random(derive_stream(seed, *labels))`` for any seed and labels.
"""

import random

from oracles import randint_coords

from jordal.rng import derive_stream, sample_coords, stream_rng

COUNTS = (0, 1, 2, 4, 8, 16, 27, 28, 52, 100)


def test_sample_coords_matches_randint():
    for seed in range(1000):
        for n in COUNTS:
            ours, ref = random.Random(seed), random.Random(seed)
            assert sample_coords(ours, n) == randint_coords(ref, n), (seed, n)
            assert ours.getstate() == ref.getstate(), (seed, n)


def test_sample_coords_continues_the_stream():
    # successive draws read on where the last one stopped, as randint does
    ours, ref = random.Random(7), random.Random(7)
    for n in COUNTS:
        assert sample_coords(ours, n) == randint_coords(ref, n)
    assert ours.random() == ref.random()


LABELS = ((), ("algebra",), (3,), ("algebra", "unit-law"), ("x", 1),
          ("x", True), ("x", "1"), (1, "x"), ("algebra", "unit-law", 0),
          ("algebra", "unit-law", 999), (2, 8, "x", 5), ("suite", 2, 8, 17),
          ("", "", ""), ("é", 0, -1, "ü"))


def test_stream_rng_matches_derive_stream():
    # the same labels under several seeds, so a prefix cache that ignored
    # the seed would hand one seed's state to the next
    for seed in (0, 42, 43, -1, 2 ** 64 - 1, 2 ** 64 + 5, 10 ** 30):
        for labels in LABELS:
            for _ in range(2):  # a cold and a warm cache
                got = stream_rng(seed, *labels).getstate()
                want = random.Random(derive_stream(seed, *labels)).getstate()
                assert got == want, (seed, labels)


def test_streams_differ_by_label_text():
    # 1 and True are equal as keys but hash to different label strings
    assert derive_stream(5, "x", 1) != derive_stream(5, "x", True)
    assert (stream_rng(5, "x", 1, 0).getstate()
            != stream_rng(5, "x", True, 0).getstate())
    assert stream_rng(5, "x", 1, 0).getstate() == stream_rng(5, "x", "1", 0).getstate()
