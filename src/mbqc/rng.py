"""Seeded randomness and forced-outcome plumbing.

The package-wide generator is numpy's PCG64 behind ``numpy.random.Generator``,
always constructed from an explicit 64-bit seed via ``SeedSequence`` so runs
are bit-reproducible across platforms.

Measurement operations accept an ``OutcomeSource``: either a seeded stream of
fair bits or a table of forced outcomes per site/qubit, used by branch
enumeration and the CLI's ``--force-outcomes`` flag.
"""
from __future__ import annotations

from typing import Mapping, Optional, Union

import numpy as np

from .errors import ContradictionError


def make_rng(seed: int) -> np.random.Generator:
    """Return the package's named generator (PCG64) for a 64-bit seed."""
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

    def has_forced(self, key: int) -> bool:
        return key in self.forced

    def draw(self, key: int) -> int:
        """Outcome bit for a balanced (p=1/2) measurement at ``key``."""
        if key in self.forced:
            return int(self.forced[key]) & 1
        if self.rng is None:
            raise ContradictionError(
                f"no forced outcome for site {key} and no random stream configured")
        return int(self.rng.integers(0, 2))

    def check_deterministic(self, key: int, outcome: int) -> int:
        """Validate a forced bit against a deterministic outcome."""
        if key in self.forced and (self.forced[key] & 1) != outcome:
            raise ContradictionError(
                f"outcome at site {key} is deterministically {outcome}, "
                f"cannot force {self.forced[key]}")
        return outcome


def as_outcome_source(randomness: Union[int, OutcomeSource, None],
                      forced: Optional[Mapping[int, int]] = None) -> OutcomeSource:
    """Coerce a seed / source / None into an OutcomeSource."""
    if isinstance(randomness, OutcomeSource):
        return randomness
    if randomness is None:
        return OutcomeSource(rng=None, forced=forced)
    return OutcomeSource.from_seed(int(randomness), forced=forced)
