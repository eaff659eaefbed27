"""A law from per-atom pairs of slots, for the tests that build laws that way."""

from __future__ import annotations

import numpy as np

from comolift.lifting import LiftedLaw


def law_from_pairs(atom_ids, keep: np.ndarray, prob: np.ndarray, x: np.ndarray, y: np.ndarray) -> LiftedLaw:
    """A law from (n, 2) arrays: atom i's branches are its first and second
    slot, (prob[i, j], (x[i, j], y[i, j])), where keep[i, j] holds.

    Unchecked: every row of ``keep`` must hold at least one true slot.
    """
    return LiftedLaw.from_columns(atom_ids, np.flatnonzero(keep) // keep.shape[1], prob[keep], x[keep], y[keep])
