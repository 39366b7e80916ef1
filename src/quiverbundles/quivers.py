"""Quivers, double quivers and dimension vectors.

Vertices and arrows carry stable string identifiers.  A quiver may declare
a single framing vertex; the remaining vertices are the ordinary ones that
carry gauge group factors.  Doubling creates arrows "a+" (along a, sign 0)
and "a-" (reversed, sign 1) with an explicit fixed-point-free involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import HypothesisError as HypothesisError, InvariantError as InvariantError


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with an optional distinguished framing vertex."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    framing: str | None = None

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.tail not in vset or a.head not in vset:
                raise ValueError(f"arrow {a.name!r} endpoint outside vertex set")
        if self.framing is not None and self.framing not in vset:
            raise ValueError(f"framing vertex {self.framing!r} not a vertex")

    @cached_property
    def ordinary_vertices(self) -> tuple[str, ...]:
        # cached in the instance __dict__, which a frozen dataclass allows;
        # equality and hashing read only the fields
        return tuple(v for v in self.vertices if v != self.framing)


@dataclass(frozen=True)
class DoubledArrow:
    name: str
    tail: str
    head: str
    base: str
    sign: int  # 0 on a+, 1 on a-
    opposite: str


@dataclass(frozen=True)
class DoubleQuiver:
    base: Quiver
    arrows: tuple[DoubledArrow, ...]

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.base.vertices

    @property
    def framing(self) -> str | None:
        return self.base.framing

    @property
    def ordinary_vertices(self) -> tuple[str, ...]:
        return self.base.ordinary_vertices

    def arrow(self, name: str) -> DoubledArrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)

    def opposite(self, name: str) -> DoubledArrow:
        return self.arrow(self.arrow(name).opposite)


def double(q: Quiver) -> DoubleQuiver:
    """Double quiver: one sign-0 arrow along and one sign-1 arrow against each base arrow."""
    arrows: list[DoubledArrow] = []
    for a in q.arrows:
        arrows.append(DoubledArrow(f"{a.name}+", a.tail, a.head, a.name, 0, f"{a.name}-"))
        arrows.append(DoubledArrow(f"{a.name}-", a.head, a.tail, a.name, 1, f"{a.name}+"))
    return DoubleQuiver(q, tuple(arrows))


@dataclass(frozen=True)
class DimensionVector:
    quiver_vertices: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.quiver_vertices) != len(self.values):
            raise ValueError("dimension vector length mismatch")
        for v, n in zip(self.quiver_vertices, self.values):
            if n < 0:
                raise ValueError(f"negative dimension {n} at vertex {v!r}")

    @staticmethod
    def of(q: Quiver | DoubleQuiver, dims: Mapping[str, int]) -> DimensionVector:
        verts = q.vertices
        if set(dims) != set(verts):
            raise ValueError(
                f"dimension vector vertices {sorted(dims)} do not match quiver vertices {sorted(verts)}"
            )
        return DimensionVector(tuple(verts), tuple(int(dims[v]) for v in verts))

    def __getitem__(self, vertex: str) -> int:
        try:
            return self.values[self.quiver_vertices.index(vertex)]
        except ValueError:
            raise KeyError(vertex) from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.quiver_vertices, self.values))

    def total(self) -> int:
        return sum(self.values)
