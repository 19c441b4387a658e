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
non-degenerate solutions, checked through the cycle-set axiom, isomorphism
testing, and the complete isomorphism invariant for the size-p^2, level-2,
cyclic-group family, which is read from the prime-power spec that
:func:`cyclesets.construct.extract_spec` recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import add, itemgetter
from typing import Optional

from .arith import prime_power
from .errors import (
    HypothesesError,
    InvalidCycleSet,
    RetractionError,
    SolutionError,
    SpecError,
    TableError,
)
from .perm import PermGroup, Permutation, _cycles, _inverse, _orbit, generate_group

DEFAULT_VIOLATION_LIMIT = 100

#: A violation is either ("row", x) for a non-bijective row x, or
#: ("axiom", x, y, z) for a triple where the defining identity fails.
Violation = tuple

_INT = frozenset({int})


def _normalize_table(table) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(r) for r in table)
    n = len(rows)
    if n == 0:
        raise TableError("empty table")
    for x, row in enumerate(rows):
        if len(row) != n:
            raise TableError(f"row {x} has length {len(row)}, expected {n}")
        if set(map(type, row)) <= _INT and 0 <= min(row) and max(row) < n:
            continue
        # names the first bad entry, and accepts int subclasses other than bool
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise TableError(f"entry {v!r} in row {x} out of range 0..{n - 1}")
    return rows


class _Leaf:
    """The search leaf that oracle tables were carried from, or the record
    that :func:`is_indecomposable` makes for a table of its own.

    Every table that shares one is a relabelling of the others, so they
    share its ``transitive`` verdict and one isomorphism class.  It is
    hashed by identity.
    """

    __slots__ = ("transitive",)

    def __init__(self, transitive: bool):
        self.transitive = transitive


class CycleSet:
    """An n x n multiplication table with bijective rows.

    Construction checks shape, entry range and row bijectivity; the cubic
    axiom check lives in :func:`validate`, which is the entry point for
    untrusted tables.  ``_leaf`` is the :class:`_Leaf` an oracle table was
    carried from, or one that :func:`is_indecomposable` makes to keep its
    verdict, else None, and is not part of equality.
    """

    __slots__ = ("_table", "_leaf")

    def __init__(self, table):
        rows = _normalize_table(table)
        for x, row in enumerate(rows):
            if len(set(row)) != len(row):
                raise TableError(f"row {x} is not a bijection")
        self._table = rows
        self._leaf = None

    @classmethod
    def _trusted(
        cls, rows: tuple[tuple[int, ...], ...], leaf: Optional[_Leaf] = None
    ) -> "CycleSet":
        """Wrap a tuple of bijective row tuples the library built itself,
        without checks, with the search leaf it was carried from, if any."""
        X = object.__new__(cls)
        X._table = rows
        X._leaf = leaf
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
    Raises :class:`TableError` for tables that are ragged or out of range,
    and ``ValueError`` for a ``limit`` below 1, before any scan.

    A triple (x, y, z) fails iff sigma_{x.y} o sigma_x and sigma_{y.x} o
    sigma_y differ at z.  The two composed rows are compared once per
    unordered pair, by whole-row gathers, when the (x, y) scan reaches x < y;
    the pair (y, x) is the same comparison with its sides swapped and reads
    the stored verdict, and x = y always holds.  z is scanned only on a
    failing pair, in increasing order, so the witness order is that of the
    plain triple scan.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, not {limit}")
    rows = _normalize_table(table)
    n = len(rows)
    out: list[Violation] = []
    for x, row in enumerate(rows):
        if len(set(row)) != len(row):
            out.append(("row", x))
            if len(out) >= limit:
                return out
    after = [itemgetter(*row) for row in rows]  # after[x](s) = s o sigma_x
    failing = bytearray(n * n)  # failing[y * n + x]: pair x < y fails
    for x, row in enumerate(rows):
        for y in range(n):
            if y <= x and not failing[x * n + y]:
                continue
            left = after[x](rows[row[y]])
            right = after[y](rows[rows[y][x]])
            if y > x:
                if left == right:
                    continue
                failing[y * n + x] = 1
            for z in range(n):
                if left[z] != right[z]:
                    out.append(("axiom", x, y, z))
                    if len(out) >= limit:
                        return out
    return out


def validate(table, limit: int = DEFAULT_VIOLATION_LIMIT) -> CycleSet:
    """Check both invariants and return the CycleSet, or raise.

    :class:`InvalidCycleSet` carries the (bounded) violation list;
    :class:`TableError` signals a structurally malformed table, and
    ``ValueError`` a ``limit`` below 1.
    """
    # read once, as the table may be one-shot, and only once the limit is valid
    rows = tuple(map(tuple, table)) if limit >= 1 else ()
    violations = find_violations(rows, limit)
    if violations:
        raise InvalidCycleSet(violations)
    return CycleSet._trusted(rows)


def squaring_map(X: CycleSet) -> tuple[int, ...]:
    """The diagonal x -> x . x."""
    return tuple(X.table[x][x] for x in range(X.n))


def is_nondegenerate(X: CycleSet) -> bool:
    """True iff the squaring map is a bijection.

    Always true for finite cycle sets (Rump, Adv. Math. 193, 2005), and the
    premise of the brute-force oracle, which drops every candidate row that
    would give its point a square another assigned point already holds.
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
    generate, so no closure is built.  Oracle tables return the verdict of
    the search leaf they were carried from; any other table keeps its
    verdict in a leaf of its own.
    """
    if X._leaf is None:
        X._leaf = _Leaf(len(_orbit(X._table)) == X.n)
    return X._leaf.transitive


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

    The points of a class share one row, so each class's quotient row is
    read at the classes' least members and is well defined when it agrees
    with the projected row at every point.  The first class and, in its row,
    the first point where they disagree are the first pair of classes that
    a scan of all (x, y) in order finds with two values.  A well-defined
    quotient of bijective rows has bijective rows, so it is not re-checked.
    """
    table = X._table
    reps: dict[tuple[int, ...], int] = {}  # row -> least point with it
    for x, row in enumerate(table):
        reps.setdefault(row, x)
    class_of = {row: c for c, row in enumerate(reps)}
    proj = tuple(map(class_of.__getitem__, table))
    at_reps = tuple(reps.values())
    qtable = []
    for a, row in enumerate(reps):
        prow = tuple(map(proj.__getitem__, row))
        qrow = tuple(map(prow.__getitem__, at_reps))
        if tuple(map(qrow.__getitem__, proj)) != prow:
            b = next(c for c, v in zip(proj, prow) if qrow[c] != v)
            raise RetractionError(f"quotient ill-defined on classes ({a}, {b})")
        qtable.append(qrow)
    return RetractionStep(quotient=CycleSet._trusted(tuple(qtable)), projection=proj)


def _retraction_steps(X: CycleSet) -> list[RetractionStep]:
    """Iterated retractions until the quotient is a point or stops shrinking."""
    steps: list[RetractionStep] = []
    while X.n > 1:
        step = retract(X)
        if step.quotient.n == X.n:
            break
        steps.append(step)
        X = step.quotient
    return steps


def retraction_tower(X: CycleSet) -> list[CycleSet]:
    """X and its iterated retractions, down to a point or an irretractable
    quotient."""
    return [X] + [step.quotient for step in _retraction_steps(X)]


def retraction_tower_sizes(X: CycleSet) -> list[int]:
    return [level.n for level in retraction_tower(X)]


def mpl(X: CycleSet) -> Optional[int]:
    """Multipermutation level: least m with the m-th retraction a point.

    Returns None when the tower stabilizes above size one (irretractable at
    some stage), which cannot happen for indecomposable abelian-group inputs.
    """
    return _mpl_of_steps(X, _retraction_steps(X))


def _mpl_of_steps(X: CycleSet, steps: list[RetractionStep]) -> Optional[int]:
    """:func:`mpl` read off the retraction steps of X."""
    return len(steps) if (steps[-1].quotient if steps else X).n == 1 else None


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
    """Full check: bijective rows, r involutive, and the braid identity.

    Raises :class:`SolutionError` with the first failing pair (x, y) for
    involutivity, else the first failing triple (x, y, z) for the braid
    identity r1 r2 r1 = r2 r1 r2, both in lexicographic order.

    By Rump (Adv. Math. 193, 2005, Prop. 1), an involutive r with bijective
    lambda rows braids exactly when x . y = lambda_x^{-1}(y) is a cycle set,
    so :func:`find_violations` decides; only a rejected r is scanned.
    """
    sol = Solution(lam, rho)
    _check_solution(sol)
    return sol


def _involution_failure(sol: Solution) -> Optional[tuple[int, int]]:
    """The least pair (x, y) with r(r(x, y)) != (x, y), or None."""
    for x in range(sol.n):
        for y in range(sol.n):
            if sol.r(*sol.r(x, y)) != (x, y):
                return x, y
    return None


def _check_solution(sol: Solution) -> tuple[tuple[int, ...], ...]:
    """The checks of :func:`validate_solution` on a built :class:`Solution`.

    Returns the lambda^{-1} rows, the cycle set's table.
    """
    pair = _involution_failure(sol)
    if pair is not None:
        raise SolutionError("r is not involutive", pair)
    rows = tuple(map(_inverse, sol.lam))
    if find_violations(rows, limit=1):
        raise SolutionError("braid identity fails", _braid_witness(sol))
    return rows


def _braid_witness(sol: Solution) -> tuple[int, int, int]:
    """The least triple (x, y, z) where an involutive r fails to braid.

    With (a, b) = r(x, y), the three components of the two sides are, as
    functions of z, the gathers lambda_a o lambda_b against lambda_x o
    lambda_y, rho_{lambda_b(z)}(a) against lambda_j(h), and rho_z(b) against
    rho_h(j), where h = rho_z(y) and j = rho_{lambda_y(z)}(x).  They are
    compared once per pair (x, y), and z is scanned only on the first failing
    pair, so the witness is that of the plain triple scan.  An r rejected by
    :func:`validate_solution` has one: its first components fail to braid.
    """
    n = sol.n
    lam, rho = sol.lam, sol.rho
    cols = tuple(zip(*rho))  # cols[x][z] = rho_z(x)
    cols_n = tuple(tuple(v * n for v in col) for col in cols)
    flat_lam = tuple(chain.from_iterable(lam))  # flat_lam[j * n + h] = lambda_j(h)
    flat_cols = tuple(chain.from_iterable(cols))  # flat_cols[j * n + h] = rho_h(j)
    after = [itemgetter(*row) for row in lam]  # after[y](s) = s o lambda_y
    for x in range(n):
        for y in range(n):
            a, b = lam[x][y], rho[y][x]
            # r1 r2 r1 (x, y, z) = (e, f, d) and r2 r1 r2 (x, y, z) = (i, k, m)
            e, i = after[b](lam[a]), after[y](lam[x])
            at_jh = itemgetter(*map(add, after[y](cols_n[x]), cols[y]))
            f, k = after[b](cols[a]), at_jh(flat_lam)
            d, m = cols[b], at_jh(flat_cols)
            if (e, f, d) != (i, k, m):
                z = next(z for z in range(n) if (e[z], f[z], d[z]) != (i[z], k[z], m[z]))
                return x, y, z


def to_solution(X: CycleSet) -> Solution:
    """The involutive solution attached to a cycle set.

    lambda_x is the inverse of the row sigma_x, and rho_y(x) = lambda_x(y) . x;
    column x of rho is column x of the table gathered at the rows lambda_x.
    """
    lam = tuple(map(_inverse, X.table))
    rho_cols = [map(col.__getitem__, row) for col, row in zip(zip(*X.table), lam)]
    return Solution(lam, zip(*rho_cols))


def from_solution(sol: Solution) -> CycleSet:
    """Recover the cycle set via x . y = lambda_x^{-1}(y).

    The input gets the checks of :func:`validate_solution`, whose braid check
    accepts exactly this table; a failure raises :class:`SolutionError` with
    a witness.  Non-bijective rows raise :class:`TableError`, with no witness,
    when the :class:`Solution` is built.
    """
    return CycleSet._trusted(_check_solution(sol))


def _row_types(
    X: CycleSet, types: Optional[dict] = None
) -> tuple[tuple[int, ...], ...]:
    """The cycle type of each row, computed once per distinct row.

    ``types`` maps rows to their cycle types and gains the rows it lacks, so
    callers that pass one dict share the work across tables.
    """
    types = {} if types is None else types
    for row in set(X._table).difference(types):
        types[row] = tuple(sorted(map(len, _cycles(row))))
    return tuple(types[row] for row in X._table)


def are_isomorphic(X: CycleSet, Y: CycleSet) -> Optional[tuple[int, ...]]:
    """A bijection F with F(x . y) = F(x) . F(y), or None.

    Backtracking over the image of the least unmapped point with full
    constraint propagation: once F(x) and F(y) are known, F(x . y) is forced.
    For indecomposable inputs one seed assignment cascades through the whole
    table, so the search degenerates to at most n candidate seeds; for
    decomposable inputs the same code backtracks over row-profile-compatible
    maps.  The first witness in this fixed search order is returned, making
    the result deterministic.  The search keeps its own stack, so a deep
    search on a large decomposable table does not recurse.
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

    def first_unmapped() -> int:
        return next((i for i in range(n) if fwd[i] == -1), -1)

    # depth-first over the images of the least unmapped point, with one
    # frame (point, next candidate, trail mark) per assigned point
    trail: list[tuple[int, int]] = []
    frames: list[tuple[int, int, int]] = []
    x, start = first_unmapped(), 0
    while x != -1:
        for u in range(start, n):
            if bwd[u] != -1 or rty[u] != rtx[x]:
                continue
            mark = len(trail)
            if assign(x, u, trail):
                frames.append((x, u + 1, mark))
                x, start = first_unmapped(), 0
                break
            undo(trail, mark)
        else:
            if not frames:
                return None
            x, start, mark = frames.pop()
            undo(trail, mark)
    return tuple(fwd)


def _root(orbit: list[int], x: int) -> int:
    """The root of x in a union-find, halving its path on the way."""
    while orbit[x] != x:
        orbit[x] = orbit[orbit[x]]
        x = orbit[x]
    return x


def _merge(orbit: list[int], xs, ys) -> None:
    """Join the classes of xs[i] and ys[i] for each i in a union-find rooted
    at its least points."""
    for a, b in zip(xs, ys):
        a, b = _root(orbit, a), _root(orbit, b)
        if a != b:
            orbit[max(a, b)] = min(a, b)


def _certificate(X: CycleSet, types: Optional[dict] = None) -> tuple[int, ...]:
    """A canonical form of X: equal for two tables iff they are isomorphic.

    Seeds label points in turn: a seed takes the next free label, and the
    labelled points are then visited in label order.  At the m-th point the
    labels of order[i] . order[m] and order[m] . order[i] for i < m are
    emitted, then that of order[m] . order[m], and a point takes the next
    free label the first time it appears.  When the labelled points close
    under the operation before all n are labelled, the next seed is chosen
    among the unlabelled points, so the n^2 labels always spell the table
    relabelled along the visiting order, and equal sequences mean isomorphic
    tables.  Every choice of seed is tried among the unlabelled points of
    greatest row cycle type, which an isomorphism carries onto each other,
    and the certificate is the least sequence.

    A branch is dropped once one of its blocks exceeds the least sequence's.
    A leaf that ties with it gives an automorphism, best order[i] ->
    order[i], which fixes the labels before the two paths diverge and maps
    the least leaf's finished branch there onto the current one, so the
    search jumps back to that branch point.  Each open branch point keeps
    the orbits of the automorphisms found below it, which fix its labelled
    points, in a union-find rooted at their least point; a seed there that
    is not its orbit's root has the sequences of that root, which was
    already tried, so it is skipped.  This is individualisation-refinement
    (McKay and Piperno, "Practical graph isomorphism II", 2014).  ``types``
    is the cycle-type cache of :func:`_row_types`.
    """
    table = X._table
    n = len(table)
    types = _row_types(X, types)
    orbits: list[list[int]] = []  # a union-find per open branch point
    label = [-1] * n
    order: list[int] = []
    seq: list[int] = []
    best: list[int] = []
    best_order: list[int] = []

    def descend(m: int, below: bool) -> int:
        """Emit the blocks of order[m:], branching over seeds when the
        labelled points close; return the label of the branch point to
        resume at.  ``below`` says the sequence so far is less than best's
        prefix, else it equals it."""
        append = seq.append
        while m < len(order):
            x = order[m]
            rx = table[x]
            start = len(seq)
            for y in order[:m]:  # unrolled: this loop is the whole cost
                v = table[y][x]
                l = label[v]
                if l < 0:
                    l = label[v] = len(order)
                    order.append(v)
                append(l)
                v = rx[y]
                l = label[v]
                if l < 0:
                    l = label[v] = len(order)
                    order.append(v)
                append(l)
            v = rx[x]
            l = label[v]
            if l < 0:
                l = label[v] = len(order)
                order.append(v)
            append(l)
            if not below:
                block, best_block = seq[start:], best[start:len(seq)]
                if block > best_block:
                    return n
                below = block < best_block
            m += 1
        if m == n:
            if below:
                best[:], best_order[:] = seq, order
                return n
            for orbit in orbits:
                _merge(orbit, best_order, order)
            return next(i for i in range(n) if best_order[i] != order[i])
        free = [x for x in range(n) if label[x] < 0]
        top = max(types[x] for x in free)
        mark = len(seq)
        orbit = list(range(n))
        orbits.append(orbit)
        for s in free:
            if types[s] != top or _root(orbit, s) != s:
                continue
            label[s] = m
            order.append(s)
            back = descend(m, below)
            for x in order[m:]:
                label[x] = -1
            del order[m:], seq[mark:]
            if back < m:
                break
            below = False  # the first branch set best through this point
        else:
            back = n
        orbits.pop()
        return back

    descend(0, True)
    del descend  # it refers to itself: free its lists now, not at the next gc
    return tuple(best)


def _cyclic_walk(X: CycleSet) -> Optional[list[int]]:
    """The row exponents e of X along its least n-cycle row, or None.

    phi is the row of the least point b whose row is an n-cycle, and None
    says no row is one.  Label pts[i] = phi^i(b): row pts[i] is phi^e[i],
    with e[i] = -1 when that row is no power of phi.  Each distinct row is
    checked once, as one gather against a rotation of pts.  When no e[i] is
    -1, i . j = j + e[i] on Z/n in these coordinates.

    This reads the paper's class, for :func:`_class_key` and
    :func:`cyclesets.construct.extract_spec`: the rows lie in the cyclic
    group of an n-cycle row iff no e[i] is -1.  The centraliser of an
    n-cycle is the group it generates, so if every row commutes with some
    n-cycle row psi, then <psi> = <phi>, and testing phi decides.
    Relabelling keeps both properties, so isomorphic tables take the same
    route.  For n = p^k these are exactly the indecomposable tables with a
    cyclic row group: that group is regular, so Z/p^k, and any generating
    set of Z/p^k holds a generator.
    """
    table = X._table
    n = len(table)
    rows = dict.fromkeys(table)  # the distinct rows, each hashed once
    for phi in rows:
        pts = [0]  # the cycle of 0 under phi
        x = phi[0]
        while x:
            pts.append(x)
            x = phi[x]
        if len(pts) == n:
            break
    else:
        return None
    b = table.index(phi)
    i = pts.index(b)
    pts = pts[i:] + pts[:i]  # the walk from b
    pos = _inverse(pts)
    ring = tuple(pts + pts)  # phi^k maps pts onto ring[k:k + n]
    at_pts = itemgetter(*pts)  # at n = 1 a scalar: the one row reads as -1
    bad = {row for row in rows if at_pts(row) != ring[(k := pos[row[b]]):k + n]}
    return [-1 if bad and table[x] in bad else pos[table[x][b]] for x in pts]


def _class_key(X: CycleSet, types: Optional[dict] = None) -> tuple[int, ...]:
    """The dedupe's class key: equal for two tables iff they are isomorphic.

    It is the affine form below for a table whose rows all lie in the cyclic
    group of an n-cycle row, and :func:`_certificate` for any other; both
    the route and the exponents e come from :func:`_cyclic_walk`.  A form
    has n entries and a certificate n^2, so the two never collide for
    n >= 2, and n = 1 has a single table.

    The form: an isomorphism conjugates one row group, all translations,
    onto the other, so in the walk's coordinates it is affine, z -> c + u*z
    with u a unit, and it maps e to z -> u^-1 * e[c + u*z].  The form is the
    least such tuple with first entry 1, over the c with e[c] a unit and
    u = e[c]; it is read off e, with no table walk, and a translation of
    the coordinates leaves it as it is.  Candidates are compared lazily.  A
    tie of (c, u) with the least candidate so far (c0, u0) gives the
    automorphism i -> c + (u/u0)(i - c0), which maps c0 to c; its orbits are
    kept in a union-find rooted at their least point, and a candidate that
    is not its orbit's root has the tuple of that root, which was tried
    already, so it is skipped, as in :func:`_certificate`.  ``types`` is the
    cycle-type cache that the certificate reads (see :func:`_row_types`).
    """
    e = _cyclic_walk(X)
    if e is None or -1 in e:
        return _certificate(X, types)
    n = len(e)
    orbit = list(range(n))  # the automorphisms' orbits, as in _certificate
    inv = {u: pow(u, -1, n) for u in set(e) if gcd(u, n) == 1}
    best: list[int] = []
    for c, u in enumerate(e):
        v = inv.get(u)
        if v is None or orbit[c] != c:  # not a unit, or not its orbit's root
            continue
        if not best:
            best, c0, u0 = [v * e[(c + u * z) % n] % n for z in range(n)], c, u
            continue
        for z in range(1, n):  # every candidate starts with 1
            a = v * e[(c + u * z) % n] % n
            if a != best[z]:
                if a < best[z]:
                    best[z:] = [v * e[(c + u * y) % n] % n for y in range(z, n)]
                    c0, u0 = c, u
                break
        else:
            w = u * inv[u0]
            _merge(orbit, range(n), [(c + w * (i - c0)) % n for i in range(n)])
    return tuple(best)


def f_invariant(X: CycleSet) -> Optional[tuple[int, ...]]:
    """The complete invariant of size-p^2, level-2, cyclic-group cycle sets.

    This is the k = 2 case of :func:`cyclesets.construct.extract_spec`: its
    one digit function f, a bijection of {0, ..., p-1} with f(0) = 0.
    Writing phi for the row of the least point whose row generates the whole
    permutation group and x_i = phi^i(x_0), every row satisfies
    sigma_{x_i} = phi^(1 + p * f(i mod p)).  None signals that the hypotheses
    (prime-square size, multipermutation level 2, cyclic regular group) are
    not met.
    """
    return _f_invariant(X, None)


def _f_invariant(X: CycleSet, sizes: Optional[list[int]]) -> Optional[tuple[int, ...]]:
    """:func:`f_invariant`, given the retraction tower sizes of X when the
    caller has walked its tower already, or None to walk it only if needed."""
    from .construct import _extract_spec  # construct imports this module

    pk = prime_power(X.n)
    if pk is None or pk[1] != 2:
        return None
    try:
        return _extract_spec(X, sizes).digit_functions[0]
    except (HypothesesError, SpecError):
        return None


def relabel(X: CycleSet, images: tuple[int, ...]) -> CycleSet:
    """Transport the table along a bijection: new[F(x)][F(y)] = F(x . y).

    Row F(x) of the result is the conjugate F o sigma_x o F^-1, so its rows
    are bijective by construction and the result is not re-checked.
    """
    f = Permutation(images).images
    if len(f) != X.n:
        raise HypothesesError("relabeling must be a bijection of the points")
    inv = _inverse(f)
    return CycleSet._trusted(
        tuple(tuple(map(f.__getitem__, map(X._table[x].__getitem__, inv))) for x in inv)
    )
