"""Record types shared by the sieves and the segment store."""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class PrimeRootBlock:
    """A run of prime-root records covering the integer interval [lo, hi).

    Columnar storage: two parallel int64 arrays, ascending in p. The range
    is what makes streams auditable — consumers can prove they saw every
    prime below a bound by checking that block ranges tile it.
    """

    lo: Optional[int]
    hi: Optional[int]
    p: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return int(self.p.size)


@dataclass
class ASegment:
    """Ascending members of A = {a : a^2+1 prime} within [lo, hi)."""

    lo: int
    hi: int
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.size)
