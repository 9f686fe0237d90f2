"""Splittable random streams.

Every stochastic routine in the package takes seed material and derives
child streams by extending a ``SeedSequence`` spawn key. A path such as
``(master, r)`` therefore identifies one stream regardless of process,
thread, or scheduling order, which is what makes parallel Monte Carlo
runs reproducible.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | np.random.SeedSequence


def as_seedseq(seed: SeedLike) -> np.random.SeedSequence:
    """Coerce an integer seed or an existing SeedSequence to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def substream(seed: SeedLike, *path: int) -> np.random.SeedSequence:
    """Child seed sequence at ``path`` below ``seed``.

    Pure: repeated calls with the same arguments return an equivalent
    sequence, unlike ``SeedSequence.spawn`` which advances internal state.
    """
    base = as_seedseq(seed)
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + path
    )


def generator(seed: SeedLike) -> np.random.Generator:
    """PCG64 generator for ``seed``; a SeedSequence is used as it is."""
    return np.random.default_rng(as_seedseq(seed))

