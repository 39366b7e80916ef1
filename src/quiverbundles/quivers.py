"""Quivers, double quivers, dimension vectors, stability weights, torus data.

Vertices and arrows carry stable string identifiers.  A quiver may declare
a single framing vertex; the remaining vertices are the ordinary ones that
carry gauge group factors.  Doubling creates arrows "a+" (along a, sign 0)
and "a-" (reversed, sign 1) with an explicit fixed-point-free involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping


class NoFramingDimensionError(ValueError):
    """Raised when an operation needs v at the framing vertex to be nonzero."""


class HypothesisError(ValueError):
    """A stated hypothesis of an operation fails (distinct from a negative verdict)."""


class InvariantError(AssertionError):
    """An internal invariant fails: a defect in the library, not in its input.

    Raised explicitly, so the checks still run under `python -O`.
    """


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


@dataclass(frozen=True)
class StabilityWeights:
    """Rational weights on the ordinary vertices; the framing weight is derived."""

    theta: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def of(weights: Mapping[str, object]) -> StabilityWeights:
        return StabilityWeights(tuple((v, Fraction(w)) for v, w in weights.items()))

    @staticmethod
    def ones(q: Quiver | DoubleQuiver) -> StabilityWeights:
        return StabilityWeights.of({v: 1 for v in q.ordinary_vertices})

    def weight(self, vertex: str) -> Fraction:
        for v, w in self.theta:
            if v == vertex:
                return w
        raise KeyError(vertex)

    def vertices(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.theta)


def theta_zero(weights: StabilityWeights, q: Quiver | DoubleQuiver, v: DimensionVector) -> Fraction:
    """Framing weight making the full dimension vector land on weight zero."""
    framing = q.framing
    if framing is None:
        raise NoFramingDimensionError("quiver has no framing vertex")
    v0 = v[framing]
    if v0 == 0:
        raise NoFramingDimensionError("no framing dimension: v is zero at the framing vertex")
    total = sum((weights.weight(i) * v[i] for i in q.ordinary_vertices), Fraction(0))
    return -total / v0


def theta_value(
    weights: StabilityWeights, q: Quiver | DoubleQuiver, v: DimensionVector, w: DimensionVector
) -> Fraction:
    """Weight of a subspace dimension vector w, with the framing weight bound by v."""
    if w.quiver_vertices != v.quiver_vertices:
        raise ValueError("dimension vector on wrong quiver")
    t0 = theta_zero(weights, q, v)
    framing = q.framing
    total = t0 * w[framing]
    for i in q.ordinary_vertices:
        total += weights.weight(i) * w[i]
    return total


@dataclass(frozen=True)
class TorusElement:
    """Nonzero rational weight per doubled arrow.

    Symplectic mode carries weight t on each sign-0 arrow and 1/t on its
    opposite, so every opposite pair multiplies to 1.
    """

    weights: tuple[tuple[str, Fraction], ...]
    mode: str = "full"  # "full" or "symplectic"

    def __post_init__(self) -> None:
        if self.mode not in ("full", "symplectic"):
            raise ValueError(f"unknown torus mode {self.mode!r}")
        for name, w in self.weights:
            if w == 0:
                raise ValueError(f"zero torus scalar on arrow {name!r}")

    @staticmethod
    def full(dq: DoubleQuiver, weights: Mapping[str, object]) -> TorusElement:
        named = {a.name for a in dq.arrows}
        if set(weights) != named:
            raise ValueError("full torus element needs one scalar per doubled arrow")
        return TorusElement(
            tuple((a.name, Fraction(weights[a.name])) for a in dq.arrows), "full"
        )

    @staticmethod
    def symplectic(dq: DoubleQuiver, base_weights: Mapping[str, object]) -> TorusElement:
        base_names = {a.name for a in dq.base.arrows}
        if set(base_weights) != base_names:
            raise ValueError("symplectic torus element needs one scalar per base arrow")
        pairs = []
        for a in dq.arrows:
            t = Fraction(base_weights[a.base])
            if t == 0:
                raise ValueError(f"zero torus scalar on arrow {a.base!r}")
            pairs.append((a.name, t if a.sign == 0 else 1 / t))
        return TorusElement(tuple(pairs), "symplectic")

    def weight(self, arrow: str) -> Fraction:
        for name, w in self.weights:
            if name == arrow:
                return w
        raise KeyError(arrow)


def refute_semistability(
    weights: StabilityWeights,
    q: Quiver | DoubleQuiver,
    v: DimensionVector,
    family: Iterable[DimensionVector],
) -> DimensionVector | None:
    """Refutation-only semistability check against a supplied subobject family.

    Returns the first member with strictly negative weight, or None.  A None
    result does not certify semistability; the family is rarely exhaustive.
    """
    for w in family:
        if theta_value(weights, q, v, w) < 0:
            return w
    return None
