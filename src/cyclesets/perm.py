"""Permutations of {0, ..., n-1} and finite permutation groups.

Composition applies the right factor first: ``p.compose(q)`` maps ``i`` to
``p(q(i))``.  Every module in this package relies on that single convention;
in particular the exponent arithmetic of the prime-power constructions would
silently break under the opposite one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional

from .errors import BudgetExceeded

DEFAULT_MAX_GROUP_ELEMENTS = 10 ** 6


class Permutation:
    """An immutable bijection of {0, ..., n-1}, stored as its image tuple."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        if n == 0:
            raise ValueError("permutations of the empty set are not supported")
        seen = [False] * n
        for v in imgs:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {imgs!r}")
            seen[v] = True
        self._images = imgs

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple the library built itself, without checks."""
        p = object.__new__(cls)
        p._images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("permutations of the empty set are not supported")
        return cls._trusted(tuple(range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Permutation":
        """The standard n-cycle mapping i to i+1 (mod n)."""
        return cls._trusted(cls.identity(n)._images[1:] + (0,))

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        return self._images[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Permutation):
            return self._images == other._images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)})"

    def __str__(self) -> str:
        return format_cycles(self)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self._images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: the result maps i to self(other(i))."""
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation._trusted(tuple(map(self._images.__getitem__, other._images)))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for i, v in enumerate(self._images):
            inv[v] = i
        return Permutation._trusted(tuple(inv))

    def power(self, e: int) -> "Permutation":
        """The e-fold composition; negative e uses the inverse."""
        n = len(self._images)
        out = list(range(n))
        for cyc in self._orbits():
            m = len(cyc)
            for pos, pt in enumerate(cyc):
                out[pt] = cyc[(pos + e) % m]
        return Permutation._trusted(tuple(out))

    def order(self) -> int:
        return lcm(*(len(c) for c in self._orbits()))

    def _orbits(self) -> list[tuple[int, ...]]:
        """All orbits including fixed points, least element first."""
        seen = [False] * len(self._images)
        out = []
        for i in range(len(self._images)):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self._images[j]
            out.append(tuple(cyc))
        return out

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its least element."""
        return [c for c in self._orbits() if len(c) > 1]

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted lengths of all orbits, fixed points included."""
        return tuple(sorted(len(c) for c in self._orbits()))


def format_oneline(p: Permutation) -> str:
    """One-line image list, e.g. "[1,2,3,0]"."""
    return "[" + ",".join(map(str, p.images)) + "]"


def format_cycles(p: Permutation) -> str:
    """Cycle notation, e.g. "(0 1 2 3)"; the identity prints as "id"."""
    cycs = p.cycles()
    if not cycs:
        return "id"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: Optional[int] = None) -> Permutation:
    """Parse either one-line form "[1,2,3,0]" or cycle form "(0 1 2 3)(4 5)".

    ``degree`` is required for cycle form whenever the permutation moves
    fewer points than its degree (and always for "id").
    """
    s = text.strip()
    if s.startswith("["):
        data = json.loads(s)
        if not isinstance(data, list):
            raise ValueError(f"not a one-line permutation: {text!r}")
        p = Permutation(data)
        if degree is not None and p.degree != degree:
            raise ValueError(f"expected degree {degree}, got {p.degree}")
        return p
    if s == "id" or s == "()":
        if degree is None:
            raise ValueError("degree required to parse the identity")
        return Permutation.identity(degree)
    chunks = _CYCLE_RE.findall(s)
    if not chunks or _CYCLE_RE.sub("", s).strip():
        raise ValueError(f"cannot parse permutation: {text!r}")
    points: list[list[int]] = []
    for chunk in chunks:
        pts = [int(tok) for tok in re.split(r"[,\s]+", chunk.strip()) if tok]
        if pts:
            points.append(pts)
    moved = [pt for cyc in points for pt in cyc]
    if len(set(moved)) != len(moved) or any(pt < 0 for pt in moved):
        raise ValueError(f"cycles are not disjoint in {text!r}")
    n = degree if degree is not None else (max(moved) + 1 if moved else 1)
    imgs = list(range(n))
    for cyc in points:
        if any(pt >= n for pt in cyc):
            raise ValueError(f"point out of range for degree {n}: {text!r}")
        for pos, pt in enumerate(cyc):
            imgs[pt] = cyc[(pos + 1) % len(cyc)]
    return Permutation(imgs)


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators together with its full closure.

    ``elements`` is the complete, lexicographically sorted element list, so
    two groups are equal exactly when they have the same elements.
    """

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def generate_group(
    generators: Iterable[Permutation],
    degree: Optional[int] = None,
    max_elements: int = DEFAULT_MAX_GROUP_ELEMENTS,
) -> PermGroup:
    """Breadth-first closure of the generators under composition.

    The closure of a finite set of permutations under composition alone is
    already a group. Elements are returned sorted by image tuple, so the
    result is reproducible byte for byte.
    """
    gens = tuple(generators)
    if degree is None:
        if not gens:
            raise ValueError("a degree is required when no generators are given")
        degree = gens[0].degree
    if degree < 1:
        raise ValueError("degree must be at least 1")
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    ident = Permutation.identity(degree)
    seen: dict[tuple[int, ...], Permutation] = {ident.images: ident}
    frontier = [ident]
    while frontier:
        new: list[Permutation] = []
        for f in frontier:
            for g in gens:
                h = g.compose(f)
                if h.images not in seen:
                    if len(seen) >= max_elements:
                        raise BudgetExceeded(
                            f"group closure exceeds {max_elements} elements"
                        )
                    seen[h.images] = h
                    new.append(h)
        frontier = new
    elements = tuple(sorted(seen.values(), key=lambda p: p.images))
    return PermGroup(degree=degree, generators=gens, elements=elements)


def is_transitive(group: PermGroup) -> bool:
    """True iff the orbit of the point 0 is the whole domain."""
    gens = group.generators or group.elements
    orbit = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                img = g(pt)
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(orbit) == group.degree


def is_abelian(group: PermGroup) -> bool:
    gens = group.generators or group.elements
    return all(
        g.compose(h) == h.compose(g) for i, g in enumerate(gens) for h in gens[i + 1:]
    )


def is_cyclic(group: PermGroup) -> Optional[Permutation]:
    """A single generator of the whole group, or None.

    When several exist the lexicographically least one (by image tuple) is
    returned, so callers can rely on the choice.
    """
    target = group.order
    for p in group.elements:
        if p.order() == target:
            return p
    return None


def order_of(p: Permutation) -> int:
    return p.order()


def discrete_log(base: Permutation, target: Permutation) -> Optional[int]:
    """Least e >= 0 with base**e == target, or None if target is not a power."""
    cur = Permutation.identity(base.degree)
    for e in range(base.order()):
        if cur == target:
            return e
        cur = base.compose(cur)
    return None
