"""Finite cycle sets and their involutive Yang-Baxter counterparts.

A cycle set is a finite set X = {0, ..., n-1} with a binary operation
``x . y = table[x][y]`` whose left multiplications sigma_x : y -> x . y are
bijections satisfying

    (x . y) . (x . z) == (y . x) . (y . z)        for all x, y, z.

Equivalently, as permutations, sigma_{x.y} o sigma_x == sigma_{y.x} o sigma_y
for all pairs x, y; the pair form is what the fast paths check.

The module provides validation with explicit violation witnesses, the derived
predicates (non-degenerate, square-free, indecomposable), the retraction
tower and multipermutation level, the two-way conversion to involutive
non-degenerate solutions, isomorphism testing, and the complete isomorphism
invariant for the size-p^2, level-2, cyclic-group family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import prime_power
from .errors import (
    HypothesesError,
    InvalidCycleSet,
    RetractionError,
    SolutionError,
    TableError,
)
from .perm import PermGroup, Permutation, generate_group, is_cyclic, is_transitive

DEFAULT_VIOLATION_LIMIT = 100

#: A violation is either ("row", x) for a non-bijective row x, or
#: ("axiom", x, y, z) for a triple where the defining identity fails.
Violation = tuple


def _normalize_table(table) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(r) for r in table)
    n = len(rows)
    if n == 0:
        raise TableError("empty table")
    for x, row in enumerate(rows):
        if len(row) != n:
            raise TableError(f"row {x} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise TableError(f"entry {v!r} in row {x} out of range 0..{n - 1}")
    return rows


class CycleSet:
    """An n x n multiplication table with bijective rows.

    Construction checks shape, entry range and row bijectivity; the cubic
    axiom check lives in :func:`validate`, which is the entry point for
    untrusted tables.
    """

    __slots__ = ("_table",)

    def __init__(self, table):
        rows = _normalize_table(table)
        for x, row in enumerate(rows):
            if len(set(row)) != len(row):
                raise TableError(f"row {x} is not a bijection")
        self._table = rows

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "CycleSet":
        """Wrap a tuple of bijective row tuples the library built itself,
        without checks."""
        X = object.__new__(cls)
        X._table = rows
        return X

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return self._table

    @property
    def n(self) -> int:
        return len(self._table)

    def row(self, x: int) -> Permutation:
        return Permutation._trusted(self._table[x])

    def rows(self) -> tuple[Permutation, ...]:
        return tuple(Permutation._trusted(r) for r in self._table)

    def encoding(self) -> tuple[int, ...]:
        """Row-major flattening, the canonical sort key for tables."""
        return tuple(v for row in self._table for v in row)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycleSet):
            return self._table == other._table
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._table)

    def __repr__(self) -> str:
        return f"CycleSet({[list(r) for r in self._table]})"


def find_violations(table, limit: int = DEFAULT_VIOLATION_LIMIT) -> list[Violation]:
    """All invariant violations of a table, in canonical order.

    Non-bijective rows are reported first (ascending x), then failing triples
    in lexicographic (x, y, z) order; at most ``limit`` entries are returned.
    Raises :class:`TableError` for tables that are ragged or out of range.
    """
    rows = _normalize_table(table)
    n = len(rows)
    out: list[Violation] = []
    for x, row in enumerate(rows):
        if len(set(row)) != len(row):
            out.append(("row", x))
            if len(out) >= limit:
                return out
    for x in range(n):
        for y in range(n):
            xy, yx = rows[x][y], rows[y][x]
            rxy, ryx = rows[xy], rows[yx]
            rx, ry = rows[x], rows[y]
            for z in range(n):
                if rxy[rx[z]] != ryx[ry[z]]:
                    out.append(("axiom", x, y, z))
                    if len(out) >= limit:
                        return out
    return out


def validate(table, limit: int = DEFAULT_VIOLATION_LIMIT) -> CycleSet:
    """Check both invariants and return the CycleSet, or raise.

    :class:`InvalidCycleSet` carries the (bounded) violation list;
    :class:`TableError` signals a structurally malformed table.
    """
    violations = find_violations(table, limit)
    if violations:
        raise InvalidCycleSet(violations)
    return CycleSet(table)


def squaring_map(X: CycleSet) -> tuple[int, ...]:
    """The diagonal x -> x . x."""
    return tuple(X.table[x][x] for x in range(X.n))


def is_nondegenerate(X: CycleSet) -> bool:
    """True iff the squaring map is a bijection.

    Always true for finite cycle sets; kept as a cheap sanity invariant.
    """
    return len(set(squaring_map(X))) == X.n


def is_square_free(X: CycleSet) -> bool:
    return all(X.table[x][x] == x for x in range(X.n))


def permutation_group(X: CycleSet) -> PermGroup:
    """The subgroup of Sym(X) generated by the distinct rows."""
    gens = [Permutation._trusted(row) for row in dict.fromkeys(X.table)]
    return generate_group(gens, degree=X.n)


def is_indecomposable(X: CycleSet) -> bool:
    """True iff the row group acts transitively on the points.

    The orbit of 0 under the distinct rows is the orbit under the group they
    generate, so no closure is built.
    """
    rows = tuple(dict.fromkeys(X.table))
    orbit = {0}
    frontier = [0]
    while frontier:
        pt = frontier.pop()
        for row in rows:
            img = row[pt]
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return len(orbit) == X.n


@dataclass(frozen=True)
class RetractionStep:
    """One retraction: the quotient table plus the point -> class projection."""

    quotient: CycleSet
    projection: tuple[int, ...]


def retract(X: CycleSet) -> RetractionStep:
    """Quotient by row equality with the induced operation.

    Classes are numbered by their least member, so towers are reproducible.
    A finite valid cycle set always admits this quotient; an ill-defined
    induced operation raises :class:`RetractionError` and indicates a
    degenerate input.
    """
    n = X.n
    class_of: dict[tuple[int, ...], int] = {}
    proj = []
    for x in range(n):
        row = X.table[x]
        if row not in class_of:
            class_of[row] = len(class_of)
        proj.append(class_of[row])
    m = len(class_of)
    qtable = [[-1] * m for _ in range(m)]
    for x in range(n):
        for y in range(n):
            a, b = proj[x], proj[y]
            c = proj[X.table[x][y]]
            if qtable[a][b] == -1:
                qtable[a][b] = c
            elif qtable[a][b] != c:
                raise RetractionError(
                    f"quotient ill-defined on classes ({a}, {b})"
                )
    return RetractionStep(quotient=CycleSet(qtable), projection=tuple(proj))


def retraction_tower(X: CycleSet) -> list[CycleSet]:
    """Iterated retractions until the quotient is a point or stops shrinking."""
    tower = [X]
    while tower[-1].n > 1:
        nxt = retract(tower[-1]).quotient
        if nxt.n == tower[-1].n:
            break
        tower.append(nxt)
    return tower


def retraction_tower_sizes(X: CycleSet) -> list[int]:
    return [level.n for level in retraction_tower(X)]


def mpl(X: CycleSet) -> Optional[int]:
    """Multipermutation level: least m with the m-th retraction a point.

    Returns None when the tower stabilizes above size one (irretractable at
    some stage), which cannot happen for indecomposable abelian-group inputs.
    """
    sizes = retraction_tower_sizes(X)
    return len(sizes) - 1 if sizes[-1] == 1 else None


class Solution:
    """Lambda/rho tables of an involutive non-degenerate solution.

    ``lam[x]`` is the image row of lambda_x and ``rho[y]`` the image row of
    rho_y, so the braiding map is r(x, y) = (lam[x][y], rho[y][x]).
    Construction checks shapes and row bijectivity; the involutive and braid
    identities are checked by :func:`validate_solution`.
    """

    __slots__ = ("_lam", "_rho")

    def __init__(self, lam, rho):
        lam_rows = _normalize_table(lam)
        rho_rows = _normalize_table(rho)
        if len(lam_rows) != len(rho_rows):
            raise TableError("lambda and rho tables have different sizes")
        for name, rows in (("lambda", lam_rows), ("rho", rho_rows)):
            for x, row in enumerate(rows):
                if len(set(row)) != len(row):
                    raise TableError(f"{name} row {x} is not a bijection")
        self._lam = lam_rows
        self._rho = rho_rows

    @property
    def n(self) -> int:
        return len(self._lam)

    @property
    def lam(self) -> tuple[tuple[int, ...], ...]:
        return self._lam

    @property
    def rho(self) -> tuple[tuple[int, ...], ...]:
        return self._rho

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self._lam[x][y], self._rho[y][x]

    def __eq__(self, other):
        if isinstance(other, Solution):
            return self._lam == other._lam and self._rho == other._rho
        return NotImplemented

    def __hash__(self):
        return hash((self._lam, self._rho))

    def __repr__(self):
        return f"Solution(lam={[list(r) for r in self._lam]}, rho={[list(r) for r in self._rho]})"


def validate_solution(lam, rho) -> Solution:
    """Full check: bijective rows, r involutive, braid identity on all triples."""
    sol = Solution(lam, rho)
    n = sol.n
    for x in range(n):
        for y in range(n):
            u, v = sol.r(x, y)
            if sol.r(u, v) != (x, y):
                raise SolutionError("r is not involutive", (x, y))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # r1 = r x id, r2 = id x r acting on triples
                a, b = sol.r(x, y)
                c, d = sol.r(b, z)
                e, f = sol.r(a, c)
                g, h = sol.r(y, z)
                i, j = sol.r(x, g)
                k, m = sol.r(j, h)
                # r1 r2 r1 (x,y,z) == r2 r1 r2 (x,y,z)
                if (e, f, d) != (i, k, m):
                    raise SolutionError("braid identity fails", (x, y, z))
    return sol


def to_solution(X: CycleSet) -> Solution:
    """The involutive solution attached to a cycle set.

    lambda_x is the inverse of the row sigma_x, and rho_y(x) = lambda_x(y) . x.
    """
    n = X.n
    lam = []
    for x in range(n):
        inv = [0] * n
        for y, v in enumerate(X.table[x]):
            inv[v] = y
        lam.append(tuple(inv))
    rho = [[0] * n for _ in range(n)]
    for y in range(n):
        for x in range(n):
            rho[y][x] = X.table[lam[x][y]][x]
    return Solution(lam, rho)


def from_solution(sol: Solution) -> CycleSet:
    """Recover the cycle set via x . y = lambda_x^{-1}(y).

    The input is fully re-validated, so tables that fail involutivity, the
    braid identity, or non-degeneracy are rejected with a witness.
    """
    sol = validate_solution(sol.lam, sol.rho)
    n = sol.n
    table = []
    for x in range(n):
        inv = [0] * n
        for y, v in enumerate(sol.lam[x]):
            inv[v] = y
        table.append(inv)
    return validate(table)


def _row_types(X: CycleSet) -> list[tuple[int, ...]]:
    return [p.cycle_type() for p in X.rows()]


def are_isomorphic(X: CycleSet, Y: CycleSet) -> Optional[tuple[int, ...]]:
    """A bijection F with F(x . y) = F(x) . F(y), or None.

    Backtracking over the image of the least unmapped point with full
    constraint propagation: once F(x) and F(y) are known, F(x . y) is forced.
    For indecomposable inputs one seed assignment cascades through the whole
    table, so the search degenerates to at most n candidate seeds; for
    decomposable inputs the same code backtracks over row-profile-compatible
    maps.  The first witness in this fixed search order is returned, making
    the result deterministic.
    """
    n = X.n
    if n != Y.n:
        return None
    tx, ty = X.table, Y.table
    rtx, rty = _row_types(X), _row_types(Y)
    if sorted(rtx) != sorted(rty):
        return None

    fwd: list[int] = [-1] * n
    bwd: list[int] = [-1] * n

    def assign(x: int, u: int, trail: list[tuple[int, int]]) -> bool:
        stack = [(x, u)]
        while stack:
            a, v = stack.pop()
            if fwd[a] != -1:
                if fwd[a] != v:
                    return False
                continue
            if bwd[v] != -1 or rtx[a] != rty[v]:
                return False
            fwd[a] = v
            bwd[v] = a
            trail.append((a, v))
            for b in range(n):
                w = fwd[b]
                if w == -1:
                    continue
                stack.append((tx[a][b], ty[v][w]))
                stack.append((tx[b][a], ty[w][v]))
        return True

    def undo(trail: list[tuple[int, int]], mark: int) -> None:
        while len(trail) > mark:
            a, v = trail.pop()
            fwd[a] = -1
            bwd[v] = -1

    trail: list[tuple[int, int]] = []

    def search() -> bool:
        x = next((i for i in range(n) if fwd[i] == -1), -1)
        if x == -1:
            return True
        for u in range(n):
            if bwd[u] != -1 or rty[u] != rtx[x]:
                continue
            mark = len(trail)
            if assign(x, u, trail) and search():
                return True
            undo(trail, mark)
        return False

    if search():
        return tuple(fwd)
    return None


def f_invariant(X: CycleSet) -> Optional[tuple[int, ...]]:
    """The complete invariant of size-p^2, level-2, cyclic-group cycle sets.

    Writing phi for the row of the least point whose row generates the whole
    permutation group and x_i = phi^i(x_0), every row satisfies
    sigma_{x_i} = phi^(1 + p * f(i mod p)) for a bijection f of {0, ..., p-1}
    with f(0) = 0; that table is returned.  None signals that the hypotheses
    (prime-square size, multipermutation level 2, cyclic regular group) are
    not met.
    """
    n = X.n
    pk = prime_power(n)
    if pk is None or pk[1] != 2:
        return None
    p = pk[0]
    if mpl(X) != 2:
        return None
    group = permutation_group(X)
    if group.order != n or is_cyclic(group) is None or not is_transitive(group):
        return None
    rows = X.rows()
    base = next((x for x in range(n) if rows[x].order() == n), None)
    if base is None:
        return None
    phi = rows[base]
    exp_of: dict[tuple[int, ...], int] = {}
    cur = Permutation.identity(n)
    for e in range(n):
        exp_of[cur.images] = e
        cur = phi.compose(cur)
    f: list[Optional[int]] = [None] * p
    x = base
    for i in range(n):
        m = exp_of.get(rows[x].images)
        if m is None or (m - 1) % p:
            return None
        val = (m - 1) // p
        r = i % p
        if f[r] is None:
            f[r] = val
        elif f[r] != val:
            return None
        x = phi(x)
    if f[0] != 0 or sorted(f) != list(range(p)):
        return None
    return tuple(f)  # type: ignore[arg-type]


def relabel(X: CycleSet, images: tuple[int, ...]) -> CycleSet:
    """Transport the table along a bijection: new[F(x)][F(y)] = F(x . y)."""
    perm = Permutation(images)
    if perm.degree != X.n:
        raise HypothesesError("relabeling must be a bijection of the points")
    inv = perm.inverse()
    n = X.n
    return CycleSet(
        tuple(
            tuple(perm(X.table[inv(i)][inv(j)]) for j in range(n))
            for i in range(n)
        )
    )
