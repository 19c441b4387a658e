"""Permutations of {0, ..., n-1} and finite permutation groups.

Composition applies the right factor first: ``p.compose(q)`` maps ``i`` to
``p(q(i))``.  Every module in this package relies on that single convention;
in particular the exponent arithmetic of the prime-power constructions would
silently break under the opposite one.

Inverse, cycles, orbits and commutation have one implementation each, the
kernel :func:`_inverse`, :func:`_cycles`, :func:`_orbit` and :func:`_commute`
on image tuples: library code computes on rows through it, and the
:class:`Permutation` methods and group predicates delegate to it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded

DEFAULT_MAX_GROUP_ELEMENTS = 10 ** 6


def _inverse(images: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a bijection given by its images."""
    inv = [0] * len(images)
    for i, v in enumerate(images):
        inv[v] = i
    return tuple(inv)


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """All cycles, fixed points included, each starting at its least element."""
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = images[j]
        out.append(tuple(cyc))
    return out


def _orbit(rows: Iterable[tuple[int, ...]], start: int = 0) -> set[int]:
    """The orbit of ``start`` under the image tuples, so under their group."""
    rows = set(rows)
    orbit = {start}
    frontier = [start]
    while frontier:
        pt = frontier.pop()
        for row in rows:
            img = row[pt]
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return orbit


def _commute(rows: Sequence[tuple[int, ...]]) -> bool:
    """True iff the image tuples commute pairwise.

    ``itemgetter(*s)(r)`` gathers the whole row r o s at once; at degree 1
    it returns the one image rather than a tuple, which compares the same.
    """
    gathers = [itemgetter(*r) for r in rows]
    return all(
        gathers[j](r) == gathers[i](rows[j])
        for i, r in enumerate(rows)
        for j in range(i + 1, len(rows))
    )


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

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)})"

    def __str__(self) -> str:
        return format_cycles(self)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: the result maps i to self(other(i))."""
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation._trusted(tuple(map(self._images.__getitem__, other._images)))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inverse(self._images))

    def power(self, e: int) -> "Permutation":
        """The e-fold composition; negative e uses the inverse."""
        n = len(self._images)
        out = list(range(n))
        for cyc in _cycles(self._images):
            m = len(cyc)
            for pos, pt in enumerate(cyc):
                out[pt] = cyc[(pos + e) % m]
        return Permutation._trusted(tuple(out))

    def order(self) -> int:
        return lcm(*map(len, _cycles(self._images)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its least element."""
        return [c for c in _cycles(self._images) if len(c) > 1]

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted lengths of all orbits, fixed points included."""
        return tuple(sorted(map(len, _cycles(self._images))))


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
        try:
            data = json.loads(s)
        except RecursionError:
            raise ValueError("not a one-line permutation: nested too deeply") from None
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
    images = [g.images for g in gens]
    ident = tuple(range(degree))
    seen = {ident}
    elements = [ident]
    for f in elements:  # the loop also visits the elements appended to the list
        for g in images:
            h = tuple(map(g.__getitem__, f))
            if h not in seen:
                if len(seen) >= DEFAULT_MAX_GROUP_ELEMENTS:
                    raise BudgetExceeded(
                        f"group closure exceeds {DEFAULT_MAX_GROUP_ELEMENTS} elements"
                    )
                seen.add(h)
                elements.append(h)
    elements = tuple(map(Permutation._trusted, sorted(elements)))
    return PermGroup(degree=degree, generators=gens, elements=elements)


def is_transitive(group: PermGroup) -> bool:
    """True iff the orbit of the point 0 is the whole domain."""
    gens = group.generators or group.elements
    return len(_orbit(g.images for g in gens)) == group.degree


def is_abelian(group: PermGroup) -> bool:
    return _commute([g.images for g in group.generators or group.elements])


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


def discrete_log(base: Permutation, target: Permutation) -> Optional[int]:
    """Least e >= 0 with base**e == target, or None if target is not a power."""
    cur = Permutation.identity(base.degree)
    for e in range(base.order()):
        if cur == target:
            return e
        cur = base.compose(cur)
    return None
