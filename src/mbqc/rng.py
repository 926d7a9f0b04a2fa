"""Seeded randomness and forced-outcome plumbing.

The package-wide generator is numpy's PCG64 behind ``numpy.random.Generator``,
always constructed from an explicit 64-bit seed via ``SeedSequence`` so runs
are bit-reproducible across platforms.

Measurement operations accept an ``OutcomeSource``: either a seeded stream of
fair bits or a table of forced outcomes per site/qubit, used by branch
enumeration and the CLI's ``--force-outcomes`` flag.  ``OutcomeSource.choose``
is the one outcome rule every backend follows.
"""
from __future__ import annotations

from typing import Mapping, Optional, Union

import numpy as np

from .errors import ContradictionError, ValidationError

# An outcome whose probability is below this is treated as impossible.
PROB_TOL = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Return the package's named generator (PCG64) for a 64-bit seed."""
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class OutcomeSource:
    """Supplies measurement outcome bits, either random or forced.

    ``forced`` maps a key (site or qubit index) to a bit.  Keys absent from
    the table fall back to the random stream.  A source with no rng and no
    entry for a requested key raises, so silent nondeterminism is impossible.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 forced: Optional[Mapping[int, int]] = None):
        self.rng = rng
        self.forced = dict(forced) if forced else {}

    @classmethod
    def from_seed(cls, seed: int, forced: Optional[Mapping[int, int]] = None) -> "OutcomeSource":
        return cls(rng=make_rng(seed), forced=forced)

    def draw(self, key: int) -> int:
        """One fair bit from the random stream, for the measurement at ``key``."""
        if self.rng is None:
            raise ContradictionError(
                f"no forced outcome for site {key} and no random stream configured")
        return int(self.rng.integers(0, 2))

    def choose(self, key: int, p0: float) -> int:
        """Outcome bit at ``key`` for a measurement giving 0 with probability p0.

        A forced bit wins.  Otherwise an outcome that is certain (p0 within
        PROB_TOL of 1 or 0) is returned without a draw, and any other
        measurement draws one fair bit.  Raises ContradictionError when the
        chosen outcome has probability below PROB_TOL.
        """
        if key in self.forced:
            m = int(self.forced[key]) & 1
        elif p0 > 1.0 - PROB_TOL:
            m = 0
        elif p0 < PROB_TOL:
            m = 1
        else:
            m = self.draw(key)
        pm = p0 if m == 0 else 1.0 - p0
        if pm < PROB_TOL:
            raise ContradictionError(f"outcome {m} at site {key} has probability {pm:.3e}")
        return m


def as_outcome_source(randomness: Union[int, OutcomeSource, None],
                      forced: Optional[Mapping[int, int]] = None) -> OutcomeSource:
    """Coerce a seed / source / None into an OutcomeSource."""
    if isinstance(randomness, OutcomeSource):
        if forced is not None:      # a source carries its own forced outcomes
            raise ValidationError("forced outcomes go inside the OutcomeSource, not beside it")
        return randomness
    if randomness is None:
        return OutcomeSource(rng=None, forced=forced)
    return OutcomeSource.from_seed(int(randomness), forced=forced)
