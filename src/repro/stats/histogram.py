"""Sample-based histogram for selectivity estimation.

A :class:`Histogram` stores a bounded sorted sample of non-null column
values.  Rank queries against the sample approximate an equi-depth
histogram: ``fraction_below(v)`` is the sample rank of ``v`` divided by the
sample size.  This is the same estimation quality class as MySQL's
equi-height histograms and is all the advisor substrate needs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence

#: Maximum retained sample size; larger inputs are decimated evenly.
DEFAULT_SAMPLE_SIZE = 512


@dataclass(frozen=True)
class Histogram:
    """An immutable sorted sample of column values."""

    values: tuple = ()

    @classmethod
    def from_values(
        cls, values: Sequence, sample_size: int = DEFAULT_SAMPLE_SIZE
    ) -> "Histogram":
        """Build a histogram from raw (possibly unsorted, non-null) values."""
        return cls.from_sorted(sorted(v for v in values if v is not None), sample_size)

    @classmethod
    def from_sorted(
        cls, ordered: Sequence, sample_size: int = DEFAULT_SAMPLE_SIZE
    ) -> "Histogram":
        """Build a histogram from sorted non-null values."""
        if len(ordered) > sample_size:
            step = len(ordered) / sample_size
            ordered = [ordered[int(i * step)] for i in range(sample_size)]
        return cls(tuple(ordered))

    @property
    def empty(self) -> bool:
        return not self.values

    def fraction_below(self, value, inclusive: bool = False) -> float:
        """Fraction of sampled values `< value` (or `<= value`).

        A type mismatch between the probe value and the sample (e.g. a
        string constant against a synthesized numeric histogram) falls
        back to the uninformed estimate instead of raising.
        """
        if self.empty:
            return 0.5
        try:
            if inclusive:
                rank = bisect.bisect_right(self.values, value)
            else:
                rank = bisect.bisect_left(self.values, value)
        except TypeError:
            return 0.5
        return rank / len(self.values)

    def fraction_between(
        self, low, high, low_inclusive: bool = True, high_inclusive: bool = True
    ) -> float:
        """Fraction of sampled values inside [low, high] (bounds optional).

        Pass ``None`` for an open bound.
        """
        lo_frac = 0.0
        if low is not None:
            lo_frac = self.fraction_below(low, inclusive=not low_inclusive)
        hi_frac = 1.0
        if high is not None:
            hi_frac = self.fraction_below(high, inclusive=high_inclusive)
        return max(0.0, hi_frac - lo_frac)

    def fraction_equal(self, value) -> float:
        """Fraction of sampled values equal to *value*."""
        if self.empty:
            return 0.0
        try:
            left = bisect.bisect_left(self.values, value)
            right = bisect.bisect_right(self.values, value)
        except TypeError:
            return 0.0
        return (right - left) / len(self.values)

    @property
    def min_value(self):
        return self.values[0] if self.values else None

    @property
    def max_value(self):
        return self.values[-1] if self.values else None
