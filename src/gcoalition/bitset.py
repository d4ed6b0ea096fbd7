"""Fixed-width vertex sets backed by machine integers.

Every set lives inside a universe of ``n`` vertex indices (``n <= 64``), so a
single Python int holds the whole membership mask and all set algebra is a
couple of bitwise operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


@dataclass(frozen=True)
class VertexSet:
    """Immutable subset of the vertices ``0..universe-1``."""

    bits: int
    universe: int

    def __post_init__(self):
        if self.universe < 1:
            raise ValueError("universe must be positive")
        if self.bits < 0 or self.bits >> self.universe:
            raise ValueError("bit set outside universe")

    @classmethod
    def from_indices(cls, universe: int, indices: Iterable[int]) -> "VertexSet":
        return cls(mask_of(indices), universe)

    @classmethod
    def empty(cls, universe: int) -> "VertexSet":
        return cls(0, universe)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
        return cls((1 << universe) - 1, universe)

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and bool(self.bits >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.bits)

    def _check(self, other: "VertexSet") -> None:
        if self.universe != other.universe:
            raise ValueError("mismatched universes")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits | other.bits, self.universe)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & other.bits, self.universe)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & ~other.bits, self.universe)

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return not self.bits & other.bits

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return not self.bits & ~other.bits

    def without_vertex(self, v: int) -> "VertexSet":
        return VertexSet(self.bits & ~(1 << v), self.universe)

    def complement(self) -> "VertexSet":
        return VertexSet((1 << self.universe) - 1 ^ self.bits, self.universe)

    def indices(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"VertexSet({{{','.join(map(str, self))}}}, n={self.universe})"
