"""Shared containers: block partitions of R^d and sampled datasets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def whole(value, what: str) -> int:
    """``value`` as a plain int: an integer, a numpy integer or a float such
    as 8.0.  Anything else, 8.5 among it, is refused rather than truncated."""
    if not (isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class BlockStructure:
    """Ordered partition of the coordinates of R^d into M blocks of sizes ``dims``."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(whole(d, "a block dim") for d in self.dims)
        if not dims:
            raise ValueError("block structure needs at least one block")
        if any(d < 1 for d in dims):
            raise ValueError(f"block dims must be positive integers, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def m(self) -> int:
        """Number of blocks."""
        return len(self.dims)

    @property
    def total(self) -> int:
        """Total dimension d = sum of block dims."""
        return sum(self.dims)

    def slices(self) -> tuple[slice, ...]:
        """Column slice for each block, in order."""
        stops = itertools.accumulate(self.dims)
        return tuple(slice(stop - d, stop) for d, stop in zip(self.dims, stops))

    def require_multiblock(self) -> None:
        """Independence measures are defined only for M >= 2 blocks."""
        if self.m < 2:
            raise ValueError(f"need at least 2 blocks for an independence measure, got {self.m}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """n samples of d real coordinates with an attached block partition."""

    values: np.ndarray
    block: BlockStructure

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"values must be a 2-D array, got shape {vals.shape}")
        if vals.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if vals.shape[1] != self.block.total:
            raise ValueError(
                f"dataset has {vals.shape[1]} columns but block dims sum to {self.block.total}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]
