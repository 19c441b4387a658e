"""Enumeration and classification drivers.

Two independent routes produce the classification at a given size:

* the parameterized route, which builds candidates from the explicit
  constructions (trivial shift, prime-power specs, elementary abelian), and
* the brute-force oracle, which searches multiplication tables directly.

The oracle's restricted mode draws rows from a fixed regular abelian
permutation group: a transitive abelian group is regular, so after
relabeling, every indecomposable cycle set with abelian permutation group
has all of its rows inside the regular representation of one abelian group
of the right order.  One template per abstract abelian group type is
searched and recorded in the report, keeping the completeness argument
auditable.  Raw counts are never quotiented; deduplication happens in
:func:`dedupe_by_isomorphism` afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from functools import reduce
from operator import and_, itemgetter
from typing import Container, Iterable, Optional, Sequence

from .arith import factorize, is_prime
from .construct import (
    CyclicBuildSpec,
    _offsets,
    build_prime_power,
    build_p2_level2,
    build_elementary_abelian,
    trivial_cycle_set,
)
from .cycleset import (
    CycleSet,
    _Leaf,
    _certificate,
    f_invariant,
    is_indecomposable,
    mpl,
    permutation_group,
)
from .errors import BudgetExceeded, OracleDisagreement
from .perm import PermGroup, _commute, _cycles, _inverse, _orbit, is_abelian, is_cyclic

MODES = ("full-bruteforce", "regular-abelian-restricted")

FULL_MODE_MAX = 6
RESTRICTED_MODE_MAX = 25

#: Oracle cross-checks in classify_pq run automatically up to this size;
#: larger sizes (up to RESTRICTED_MODE_MAX) must be requested explicitly.
AUTO_CROSS_CHECK_MAX = 9


@dataclass(frozen=True)
class SearchConfig:
    """Budget and mode of :func:`brute_force_enumerate`.

    ``max_candidates`` bounds node expansions; exceeding it raises
    :class:`BudgetExceeded` rather than returning partial results.  The
    other drivers take the bound alone, as their ``max_candidates``.
    ``mode`` is one of :data:`MODES`, the oracle's two searches; the spec
    listing is built from :func:`enumerate_specs` and
    :func:`build_prime_power`, not by the oracle.
    """

    max_candidates: int = 10 ** 8
    mode: str = "regular-abelian-restricted"

    def __post_init__(self):
        _Budget(self.max_candidates)  # the drivers' range check, at construction
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class ClassEntry:
    witness: CycleSet
    mpl: Optional[int]
    group_order: int
    group_type: str
    f_invariant: Optional[tuple[int, ...]]
    raw_count: int


@dataclass(frozen=True)
class ClassificationReport:
    size: int
    constraint: str
    templates_searched: tuple[str, ...]
    classes: tuple[ClassEntry, ...]


class _Budget:
    # ``task`` names the search and its driver keeps ``where`` at the phase
    # running, so the one raise in tick says what ran out, and where
    __slots__ = ("limit", "used", "task", "where")

    def __init__(self, limit: int, task: str = "search"):
        if limit < 1:
            raise ValueError("budget must be positive")
        self.limit = limit
        self.used = 0
        self.task = task
        self.where = ""

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(
                f"{self.task} used up its budget of {self.limit} expansions{self.where}"
            )


def group_type_of(group: PermGroup) -> str:
    if is_cyclic(group) is not None:
        return "cyclic"
    if is_abelian(group):
        return "abelian-noncyclic"
    return "nonabelian"


def _group_order_type(X: CycleSet) -> tuple[int, str]:
    """The order and :func:`group_type_of` of the row group of X.

    The group is abelian iff its distinct rows commute, and an abelian group
    is cyclic iff its exponent, the lcm of the row orders, is its order.  An
    abelian group that acts transitively is regular, so its order is n; any
    other group is closed for its order.
    """
    rows = tuple(dict.fromkeys(X.table))
    if not _commute(rows):
        return permutation_group(X).order, "nonabelian"
    order = X.n if is_indecomposable(X) else permutation_group(X).order
    exponent = lcm(*(len(c) for r in rows for c in _cycles(r)))
    return order, "cyclic" if exponent == order else "abelian-noncyclic"


def dedupe_by_isomorphism(
    structures: Iterable[CycleSet],
    constraint: str = "any",
    templates: Sequence[str] = (),
) -> ClassificationReport:
    """Partition into isomorphism classes.

    Each class is a ``[witness, count]`` record filed under the certificate
    of its tables (see :func:`cyclesets.cycleset._certificate`): isomorphic
    tables have equal certificates, and equal certificates spell the same
    relabelled table.  The inputs are scanned in increasing row-major
    encoding, which is the order of their tables, row by row, at one size,
    so the witness of each class is its least member and classes are
    created, and listed, in increasing witness encoding: identical inputs
    produce byte-identical reports.  The certificates share one cache of
    row cycle types.  Tables that share a search leaf are relabellings of
    one another, so only the leaf's first table is certified, and the
    others are filed in its class; tables without a leaf are certified one
    by one.
    """
    xs = sorted(structures, key=lambda X: X.table)
    if xs and any(X.n != xs[0].n for X in xs):
        raise ValueError("all structures must have the same size")
    classes: dict[tuple[int, ...], list] = {}
    types: dict = {}
    filed: dict = {}  # leaf -> the [witness, count] record of its class
    for X in xs:
        entry = filed.get(X._leaf)  # None for a table without a leaf
        if entry is None:
            entry = classes.setdefault(_certificate(X, types), [X, 0])
            if X._leaf is not None:
                filed[X._leaf] = entry
        entry[1] += 1
    entries = []
    for w, count in classes.values():
        level = mpl(w)
        order, kind = _group_order_type(w)
        entries.append(
            ClassEntry(
                witness=w,
                mpl=level,
                group_order=order,
                group_type=kind,
                # None at every level but 2
                f_invariant=f_invariant(w) if level == 2 else None,
                raw_count=count,
            )
        )
    return ClassificationReport(
        size=xs[0].n if xs else 0,
        constraint=constraint,
        templates_searched=tuple(templates),
        classes=tuple(entries),
    )


def _lift_digit_function(
    p: int,
    exps: tuple[int, ...],
    tail: tuple[tuple[int, ...], ...],
    budget: _Budget,
) -> list[tuple[int, ...]]:
    """Every f_1 that lifts the admissible tail (f_2, ...) to chain ``exps``.

    With r = p^{j_1} and E' the tail's exponent offset, the symmetry
    congruence for the pair (i, j) reads only i and j mod r, and after
    dividing by r it is linear in f_1 at four residues:

        f_1(b) + f_1(K(a, b)) - f_1(a) - f_1(K(b, a))
            == (E'(a) + E'(K(b, a)) - E'(b) - E'(K(a, b))) / r  (mod p^{k - j_1})

    for residues a < b, where K(a, b) = a + 1 + E'(b) mod r.  The entries of
    f_1 are set in increasing order, each constraint is tested when its
    largest residue is set, and phi_1(l) = 1 + r f_1(l) + E'(l) is kept
    injective as entries are set.  Solutions come out in increasing order.

    The constraints with b = x are filed when the search first reaches entry
    x, so the work done beyond the budgeted expansions stays proportional to
    the depth reached, however large r is.
    """
    r = p ** exps[1]
    radix = p ** (exps[0] - exps[1])
    e_tail = _offsets(p, exps[1:], tail)  # E', the offset of f_2, f_3, ...
    period = len(e_tail)
    buckets: dict[int, list[tuple[int, int, int, int, int]]] = {}
    filed = 0
    f: list[int] = []
    phis: set[int] = set()
    out: list[tuple[int, ...]] = []

    def dfs(x: int) -> None:
        nonlocal filed
        if x == filed:
            filed += 1
            ex = e_tail[x % period]
            for a in range(x):
                ea = e_tail[a % period]
                kab = (a + 1 + ex) % r
                kba = (x + 1 + ea) % r
                # exact, as the tail is admissible
                c = (ea + e_tail[kba % period] - ex - e_tail[kab % period]) // r
                buckets.setdefault(max(x, kab, kba), []).append((x, kab, a, kba, c))
        for v in range(radix) if x else (0,):  # digit functions fix 0
            budget.tick()
            phi = v * r + e_tail[x % period]
            if phi in phis:
                continue
            f.append(v)
            if all(
                (f[b] + f[kab] - f[a] - f[kba] - c) % radix == 0
                for b, kab, a, kba, c in buckets.get(x, ())
            ):
                if x == r - 1:
                    out.append(tuple(f))
                else:
                    phis.add(phi)
                    dfs(x + 1)
                    phis.remove(phi)
            f.pop()

    dfs(0)
    return out


def enumerate_specs(
    p: int, k: int, max_candidates: int = SearchConfig.max_candidates
) -> list[CyclicBuildSpec]:
    """All admissible prime-power build specs at (p, k), lexicographically.

    Specs are constructed by lifting from the retraction rather than by
    testing every digit-function tuple.  Reduced mod p^{j_1}, the symmetry
    congruence of a spec with chain (k, j_1, ..., 0) loses its f_1 term and
    becomes exactly the congruence of the tail spec (p, j_1; f_2, ...), whose
    injectivity maps are phi_2, phi_3, ...; so the tail of every admissible
    spec is admissible.  Each chain's admissible tails are therefore found
    recursively (a level-2 chain has the empty tail), memoised within the
    call, and only f_1 is searched on top of each (see
    :func:`_lift_digit_function`).

    Chains come in increasing level, and the specs of one chain in
    increasing ``digit_functions``.  Specs are admissible by construction
    and none is filtered; :func:`build_prime_power` validates each one it
    builds, so a faulty lift raises :class:`SpecError`, not a lost class.
    The budget counts expansions, one per digit value tried; exceeding it
    raises :class:`BudgetExceeded` naming the chain being lifted.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    budget = _Budget(max_candidates, f"spec enumeration at (p, k) = ({p}, {k})")
    lifts: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}

    def admissible(exps: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
        if len(exps) == 2:
            return [()]
        if exps not in lifts:
            tails = admissible(exps[1:])
            budget.where = f" while lifting exponent chain {exps} at size {p}^{exps[0]}"
            lifts[exps] = sorted(
                (f1,) + tail
                for tail in tails
                for f1 in _lift_digit_function(p, exps, tail, budget)
            )
        return lifts[exps]

    out: list[CyclicBuildSpec] = []
    for lvl in range(2, k + 1):
        for mids in itertools.combinations(range(k - 1, 0, -1), lvl - 1):
            exps = (k,) + mids + (0,)
            out.extend(
                CyclicBuildSpec(p=p, k=k, level=lvl, exponents=exps, digit_functions=fs)
                for fs in admissible(exps)
            )
    return out


def _spec_family(
    p: int, k: int, max_candidates: int = SearchConfig.max_candidates
) -> list[CycleSet]:
    """The trivial shift of size p^k plus one member per admissible spec."""
    specs = enumerate_specs(p, k, max_candidates)  # budgeted, so before any table
    return [trivial_cycle_set(p ** k)] + [build_prime_power(spec) for spec in specs]


def classify_cyclic_prime_power(
    p: int, k: int, max_candidates: int = SearchConfig.max_candidates
) -> ClassificationReport:
    """Isomorphism classes at size p^k with cyclic permutation group.

    The level-1 trivial shift plus one structure per admissible spec, deduped.
    For k = 2 the class count is exactly p: one of level 1 and p - 1 of
    level 2.
    """
    return dedupe_by_isomorphism(
        _spec_family(p, k, max_candidates),
        constraint="cyclic-group",
        templates=("parameterized",),
    )


def abelian_templates(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """One regular template per abstract abelian group of order n.

    Each is an invariant-factor chain of n, the factors d_1, d_2, ... > 1
    with product n, each dividing the one before; it names the template and
    sizes the cyclic factors of its regular action.  Chains are listed in
    descending order, and n = 1 gives (1,).
    """
    divisors = [1]
    for p, k in factorize(n).items():
        divisors = [d * p**i for d in divisors for i in range(k + 1)]
    divisors.sort(reverse=True)
    below = {d: [e for e in divisors if e > 1 and d % e == 0] for d in divisors}

    def chains(m, cap):
        if m == 1:
            yield ()
        for d in below[cap]:
            if m % d == 0:
                for rest in chains(m // d, d):
                    yield (d,) + rest

    return [
        ("x".join(f"Z/{d}" for d in parts), parts)
        for parts in (chain or (1,) for chain in chains(n, n))
    ]


def _labelled(parts: tuple[int, ...]) -> tuple[list[tuple[int, ...]], dict]:
    """The elements of Z/d_1 x ... x Z/d_k in big-endian order, and their labels."""
    elems = list(itertools.product(*map(range, parts)))
    return elems, {v: i for i, v in enumerate(elems)}


def _translation_rows(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Regular action of the product of cyclic groups Z/d, flattened big-endian.

    Row e maps point y to y + e (componentwise); because points are labeled
    by group elements, the same table also serves as the composition table.
    """
    elems, index = _labelled(parts)
    return [
        tuple(index[tuple((a + b) % d for a, b, d in zip(y, e, parts))] for y in elems)
        for e in elems
    ]


def _row_code(rows: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], bytes]:
    """Each distinct row -> its code.

    The code is the row's rank in sorted order, as big-endian bytes of one
    width that holds every rank, so a table's key, the codes of its rows
    joined, sorts and equates as the table does.
    """
    distinct = sorted(set(rows))
    width = ((len(distinct) - 1).bit_length() + 7) // 8 or 1
    return {row: i.to_bytes(width, "big") for i, row in enumerate(distinct)}


def _orbit_walk(
    gens: list[tuple],
    points: int,
    size: int,
    side: int = 1,
    stabilise: Container = (),
    roots: Optional[Iterable[int]] = None,
) -> dict[int, tuple[list[tuple], list[tuple]]]:
    """Orbits of the group that ``gens`` generate, with transporters and stabilisers.

    Each generator is a pair (f, c) as in the ``carry`` of
    :func:`_group_search`: f relabels the points and c maps the elements,
    and f determines c.  The group acts on the points through f (``side``
    0) or on the elements through c (``side`` 1).  Each orbit is walked
    breadth-first from its least member r, and the result maps r to (walk,
    stab).  walk lists the identity first, then one product u_s of
    generators, with u_s(r) == s, for each other member s.  When a generator
    g takes a walked s to a walked t, u_t^-1 o g o u_s fixes r; these
    Schreier generators generate the stabiliser of r, and stab keeps one
    per f other than the identity, for each r in ``stabilise`` (none by default).
    Given ``roots``, least members as :func:`_orbit_roots` gives them, only
    their orbits are walked, each exactly as a walk of every orbit, the
    default, walks it.
    """
    identity = (tuple(range(points)), tuple(range(size)))
    at: dict[int, tuple] = {}
    out = {}
    for r in range((points, size)[side]) if roots is None else roots:
        if r in at:
            continue
        at[r] = identity
        walk, stab = [identity], {}
        for u in walk:  # the loop also visits the pairs appended to walk
            s = u[side][r]
            for g in gens:
                f, t = tuple(map(g[0].__getitem__, u[0])), g[side][s]
                if t not in at:
                    at[t] = (f, tuple(map(g[1].__getitem__, u[1])))
                    walk.append(at[t])
                elif r in stabilise:
                    # the Schreier generator u_t^-1 o g o u, one per point map
                    back = _inverse(at[t][0])
                    z = tuple(map(back.__getitem__, f))
                    if z != identity[0] and z not in stab:
                        back = _inverse(at[t][1])
                        stab[z] = (z, tuple(back[g[1][e]] for e in u[1]))
        out[r] = (walk, list(stab.values()))
    return out


def _point_one_walk(stab: list[tuple], points: int, size: int) -> list[tuple]:
    """Generators of K_r, from generators of Stab(r).

    ``stab`` generates the stabiliser of an element r, as :func:`_orbit_walk`
    gives it, and K_r is its stabiliser of point 1: the Schreier generators
    of point 1's orbit walk on the points, the one stabiliser that walk builds.
    """
    return _orbit_walk(stab, points, size, 0, (1,))[1][1]


def _orbit_roots(gens: list[tuple], size: int) -> list[int]:
    """The least member of each orbit on the elements, in increasing order.

    The orbits are those of :func:`_orbit_walk` on side 1, labelled through
    the generators' element maps alone, with no transporter built.
    """
    maps, seen, roots = [c for _, c in gens], bytearray(size), []
    for r in range(size):
        if not seen[r]:
            roots.append(r)
            seen[r], orbit = 1, [r]
            for s in orbit:  # the loop also visits the members appended
                for c in maps:
                    if not seen[c[s]]:
                        seen[c[s]] = 1
                        orbit.append(c[s])
    return roots


def _group_search(
    act: list[tuple[int, ...]],
    code: list[bytes],
    mul: Sequence[Sequence[int]],
    inv: list[int],
    carry: dict[int, tuple[list[tuple], list[tuple]]],
    trans: list[tuple],
    budget: _Budget,
    found: dict[bytes, CycleSet],
) -> None:
    """Fill ``found`` with the tables whose rows lie in a permutation group.

    ``act[e]`` is element e as a row on the points, ``code[e]`` that row's
    code, as :func:`_row_code` gives it, ``mul[e][f]`` the element
    e o f (f first), ``inv[e]`` that of e^-1, and 0 is the identity.  There
    are n >= 2 points: :func:`brute_force_enumerate` answers n = 1 itself.
    A table is a map x -> a[x] with row x equal to ``act[a[x]]``, and the pair
    condition sigma_{x.y} o sigma_x == sigma_{y.x} o sigma_y reads
    a[x.y] == a[y.x] o (a[y] o a[x]^-1).  So the search keeps the points in
    classes of known relations: every pair constraint is merged in as soon
    as both its points are assigned, contradictions prune at once, and a
    point whose class has a known value admits exactly one candidate.  Such
    points come first; else the search branches on the first point of the
    largest class without a value, whose candidate fixes every member.  At
    the root every class is one point, so the first branch is at 0.  The
    classes are an offset quick-find: each point stores its root and its
    offset, composed on the right (a[i] == a[root[i]] o off[i]), each root
    its member list and its value, if known.  A branch sets its class's
    value for each candidate and clears it after the last one; a forced
    candidate writes nothing.  A merge relabels the smaller class and is
    undone on backtracking by truncating the larger class's member list and
    shifting the moved offsets back, so the undo trail records merges only;
    two classes that both have values are compared, never merged.  Each
    candidate's loop over the assigned points merges the pair constraints
    itself, with no helper call per constraint: a same-class test, then the
    comparison of two classes with values, then the merge and its trail
    entry.

    Every finite cycle set is non-degenerate (Rump, Adv. Math. 193, 2005):
    its squares x.x == act[a[x]][x] are distinct.  So ``taken`` flags the
    squares of the assigned points, set when a point joins ``assigned`` and
    cleared when it leaves, and a candidate e for pt is dropped, before it
    counts against the budget, when act[e][pt] is taken, or when its pair
    ranks below a[0]'s, as below.  Every candidate passes those two tests:
    branch and forced ones, and the keys at points 0 and 1.  A relabelling
    keeps the squares distinct, so no table is lost.

    ``carry`` maps each candidate r for a[0] to its (walk, stab) from
    :func:`_orbit_walk`, over a group of pairs (f, c): f relabels the
    points, fixes 0 and carries solutions to solutions, and c maps elements
    with act[c[e]] == f o act[e] o f^-1, so a solution a goes to the one
    with c[a[x]] at f(x).  A loop runs one search per key r, with a[0] == r.
    No pair constraint has run once a[0] is set, so the next branch is at
    point 1, and a[1] ranges only over the least member of each orbit of
    K_r, the pairs that fix r and point 1: the loop takes K_r's generators
    from :func:`_point_one_walk` and labels its orbits by
    :func:`_orbit_roots`, with no transporter built.  A stabiliser chain at
    every branch point cut the expansions further, but its work at each node
    made it no faster, so the reduction stops at point 1.

    ``trans`` is a transversal: pairs t_c == (g, c) like those of the
    carry, with g(0) == c (t_0 the identity), which with the carry's pairs,
    all fixing 0, make up the whole relabelling group.  Each element is
    ranked by its orbit among the keys, in increasing order with the
    identity's last, and the pair (x, e) of a table by the rank of
    c^-1[e], the element that t_x^-1 moves to 0 along with x.  So a
    relabelling moves each pair with its rank; a point past the end of the
    transversal, which it never moves to 0, gets a rank above all.  Once
    a[0] == r, a candidate whose pair ranks below r's is dropped, and the
    search finds the tables whose least pair rank is at point 0.  Under the
    identity's key every pair must be the identity's own, which leaves the
    identity table alone, so its K_r gets no generators, and every element
    is its own key at point 1.

    The search records only each leaf's assignment a.  The loop then walks
    K_r only from the roots that some leaf's a[1] is, as the walk of every
    orbit would, and carries each leaf by every pair of the walk for its
    a[1], then by every pair of r's walk.  When each walk lists its orbit
    once and the orbits cover the group, at both levels, that is a
    bijection onto all the solutions: the
    output is complete and free of repeats, and the budget counts the
    expansions of the reduced search.  A pair (f, c) moves a to the map
    y -> c[a[f^-1(y)]], so every walk keeps f^-1 as an ``itemgetter``,
    ``back``, and r's walk, composed with the transversal, keeps each
    t_c o w's rows and codes pre-composed by one gather, rows_c[e] ==
    act[c[e]]: a carried table is back(at_a(rows_c)), where at_a gathers at
    a, and its key is back(at_a(code_c)), joined.  ``found`` maps keys to
    tables: a table is gathered and wrapped only if its key is new, so the
    first copy is kept, with its leaf.  Let Y be the points of a leaf whose
    pairs have r's rank.  A table carried by K_r's f1, then by f, goes on by
    each t_c with c the least point of t_c(f(ys)), ys == f1(Y): the c set
    in mask[y] (the c with t_c(y) >= c) at every y of f(ys).  Each key
    lists per set ys the triples (back, rows_c, code_c) it accepts over r's
    walk, so every table comes out once, from the least c among its
    least-rank points.  Each table is wrapped with the
    :class:`cyclesets.cycleset._Leaf` of the leaf it was carried from.  A
    relabelling keeps the row group transitive or not, so each leaf's rows
    are walked once, by :func:`cyclesets.perm._orbit`, for the verdict that
    its tables share.
    """
    n, order = len(act[0]), len(act)  # points, elements
    root = list(range(n))
    off = [0] * n  # a[i] == a[root[i]] o off[i]
    members = [[i] for i in range(n)]  # members[r], for each root r
    value = [-1] * n  # value[r] == a[r] for a root r, or -1 if unknown
    assign = [-1] * n
    taken = [False] * n  # taken[s]: s is the square of an assigned point
    trail: list[tuple[int, int, int]] = []  # merges (big, small, d) to undo
    keys: list = [range(order)] * n  # unforced candidates per depth; 0 and 1 per key

    def rollback(mark: int) -> None:
        while len(trail) > mark:
            big, small, d = trail.pop()
            moved = members[small]
            del members[big][-len(moved):]
            back = mul[inv[d]]
            for m in moved:
                root[m] = small
                off[m] = back[off[m]]
            if value[small] >= 0:  # the merge gave big its value
                value[big] = -1

    assigned: list[int] = []

    def next_point() -> tuple[int, int]:
        # prefer a point of a class with a known value: it admits one
        # candidate and feeds its pair constraints back into the search;
        # else take the first point of the largest class without a value
        best, size = -1, 0
        for pt in range(n):
            if assign[pt] >= 0:
                continue
            r = root[pt]
            if value[r] >= 0:
                return pt, mul[value[r]][off[pt]]
            if len(members[r]) > size:
                best, size = pt, len(members[r])
        return best, -1

    # rank[e]: the place of e's orbit among the keys, the identity's last;
    # ranks[x][e]: that of the pair (x, e), read at 0 through t_x^-1, or a
    # rank above all at a point outside the transversal's reach
    rank = [len(carry)] * order
    for i, r in enumerate(sorted(carry, key=lambda r: (not r, r))):
        for _, c in carry[r][0]:
            rank[c[r]] = i
    ranks = [tuple(map(rank.__getitem__, _inverse(c))) for _, c in trans]
    ranks += [(len(carry),) * order] * (n - len(trans))

    def dfs(low: int) -> None:  # low: the rank of a[0]'s pair
        pt, pinned = next_point()
        candidates = keys[len(assigned)] if pinned < 0 else (pinned,)
        r, to_root, pair_rank = root[pt], inv[off[pt]], ranks[pt]
        for e in candidates:
            square = act[e][pt]
            if taken[square] or pair_rank[e] < low:
                continue
            budget.tick()
            mark = len(trail)
            assign[pt] = e
            mul_e = mul[e]
            if pinned < 0:  # a branch gives pt's class its value
                value[r] = mul_e[to_root]
            row = act[e]
            for x in assigned:
                ax = assign[x]
                # a[x . pt] == a[pt . x] o a[pt] o a[x]^-1, that is
                # a[i] == a[j] o delta, so a[ri] == a[rj] o d for the roots
                i, j = act[ax][pt], row[x]
                ri, rj = root[i], root[j]
                d = mul[mul[off[j]][mul_e[inv[ax]]]][inv[off[i]]]
                if ri == rj:
                    if d:
                        break
                    continue
                vi, vj = value[ri], value[rj]
                if vi >= 0 and vj >= 0:
                    if vi != mul[vj][d]:
                        break
                    continue
                if len(members[ri]) > len(members[rj]):
                    ri, rj, d, vi = rj, ri, inv[d], vj
                mul_d = mul[d]
                for m in members[ri]:  # relabel the smaller class ri into rj
                    root[m] = rj
                    off[m] = mul_d[off[m]]
                members[rj].extend(members[ri])
                if vi >= 0:
                    value[rj] = mul[vi][inv[d]]
                trail.append((rj, ri, d))
            else:
                assigned.append(pt)
                taken[square] = True
                if len(assigned) == n:
                    leaves.append(tuple(assign))
                else:
                    dfs(low)
                taken[square] = False
                assigned.pop()
            rollback(mark)
        assign[pt] = -1
        if pinned < 0:  # only after the last rollback, which may read it
            value[r] = -1

    # mask[y]: the bits c with t_c(y) >= c, every bit at y == 0
    mask = [sum(1 << c for c, t in enumerate(trans) if t[0][y] >= c) for y in range(n)]
    # each t_c as its point map g, its rows pre-composed, act[c[e]], and their codes
    lift = [(g, itemgetter(*c)(act), itemgetter(*c)(code)) for g, c in trans]
    wrap, join = CycleSet._trusted, b"".join
    for r, (walk, stab) in carry.items():
        leaves: list[tuple[int, ...]] = []  # the assignments of r's leaves
        gens = _point_one_walk(stab, n, order) if r else []
        keys[0], keys[1] = (r,), _orbit_roots(gens, order)
        low = rank[r]
        dfs(low)
        # carry by K_r's pairs for a[1], walked only where a leaf lands, then
        # by r's, then by the t_c that the least points of the least rank accept
        reached = _orbit_walk(gens, n, order, roots=(a[1] for a in leaves))
        inner = {
            s: [(f, itemgetter(*_inverse(f)), c) for f, c in w]
            for s, (w, _) in reached.items()
        }
        outer = [
            (f, [
                (itemgetter(*_inverse(tuple(map(g.__getitem__, f)))),
                 at_c(rows_g), at_c(code_g))
                for g, rows_g, code_g in lift
            ])
            for f, at_c in ((f, itemgetter(*c)) for f, c in walk)
        ]
        accept: dict[int, list[tuple]] = {}  # set ys, as bits -> the pairs it accepts
        for a in leaves:
            at = itemgetter(*a)
            leaf = _Leaf(len(_orbit(at(act))) == n)
            least = [x for x in range(n) if ranks[x][a[x]] == low]
            for f1, back1, c1 in inner[a[1]]:
                at_a = itemgetter(*back1(at(c1)))
                ys = [f1[y] for y in least]
                held = sum(1 << y for y in ys)
                emit = accept.get(held)
                if emit is None:
                    emit = accept[held] = []
                    for f, pairs in outer:
                        bits = reduce(and_, [mask[f[y]] for y in ys])
                        emit += [p for c, p in enumerate(pairs) if bits >> c & 1]
                for back, rows_c, code_c in emit:
                    key = join(back(at_a(code_c)))
                    if key not in found:
                        found[key] = wrap(back(at_a(rows_c)), leaf)


def _template_search(
    parts: tuple[int, ...], act: list, code: list[bytes], budget: _Budget, found: dict
) -> None:
    """All row assignments from one regular template satisfying the axiom,
    filed in ``found`` with their search leaves by :func:`_group_search`.

    ``act`` is the template's translation rows, as :func:`_translation_rows`
    lists them, and ``code`` their codes, as :func:`_row_code` gives them;
    the templates of a call share one tuple per distinct row, so their
    tables share their equal rows.

    Points are labeled by the elements of G = Z/d_1 x ... x Z/d_k, so the
    translation rows are also G's composition table.  An automorphism alpha
    of G relabels a solution a into alpha o a o alpha^-1, whose value at 0 is
    alpha(a[0]), so :func:`_group_search` carries by the pairs (alpha, alpha)
    of :func:`_orbit_walk`, and a[1] by the automorphisms that fix a[0] and
    the point 1; for cyclic G, 1 generates, so only the identity does.  The
    generators replace y_j by y_j + m y_i mod d_j: for i == j with m + 1 a
    unit mod d_i, the scalings, and for i != j with m = d_j / gcd(d_i, d_j),
    the transvections.  Their orbits are those of Aut(G) for every template
    up to RESTRICTED_MODE_MAX, as tests check, and so are those of each
    stabiliser of a[0] and point 1.

    The translation t_c: y -> y + c, the row ``act[c]``, relabels a solution
    a into y -> a[y - c]: G is abelian, so it fixes every translation row
    and its element map is the identity.  The translations complete Aut(G)
    to the affine group of G, and :func:`_group_search` takes them as its
    transversal: the search keeps the tables whose least pair rank is at
    point 0, and carries each by the t_c it accepts.
    """
    elems, index = _labelled(parts)
    gens = []
    for i, di in enumerate(parts):
        for j, dj in enumerate(parts):
            if i == j:
                ms = [u - 1 for u in range(2, di) if gcd(u, di) == 1]
            else:
                ms = [dj // gcd(di, dj)]
            for m in ms:
                alpha = tuple(
                    index[y[:j] + ((y[j] + m * y[i]) % dj,) + y[j + 1:]] for y in elems
                )
                gens.append((alpha, alpha))
    carry = _orbit_walk(gens, len(act), len(act), 1, range(len(act)))
    trans = [(row, act[0]) for row in act]  # t_c, the identity on elements
    inv = [row.index(0) for row in act]
    _group_search(act, code, act, inv, carry, trans, budget, found)


def _sym_table(n: int) -> tuple[list, dict, list[tuple[int, ...]], list[int]]:
    """(perms, index, mul, inv): Sym(n) in lexicographic order, numbered.

    ``index`` inverts ``perms``; ``mul[i][j]`` is the index of perms[i] o
    perms[j] (perms[j] first, as in :meth:`Permutation.compose`) and
    ``inv[i]`` that of perms[i]^-1.  Index 0 is the identity.  Column j is
    built by C-level gathers, p o q being ``itemgetter(*q)(p)``.
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # itemgetter of one index returns a scalar; at n = 1, q is the identity
    cols = (
        map(index.__getitem__, map(itemgetter(*q), perms) if n > 1 else perms)
        for q in perms
    )
    mul = list(zip(*cols))
    return perms, index, mul, [row.index(0) for row in mul]


def _full_search(n: int, budget: _Budget, found: dict[bytes, CycleSet]) -> None:
    """Every cycle-set table on n points, filed in ``found`` with its search
    leaf: :func:`_group_search` over Sym(n).

    A relabeling f with f(0) = 0 carries a solution T to the solution
    T'[f(x)][f(y)] = f(T[x][y]), whose row 0 is f o sigma_0 o f^-1.  So row 0
    ranges only over the least permutation of each orbit of Stab(0) acting
    by conjugation (12 of 120 at n = 5), row 1 over one permutation per
    orbit of the f that fix 0 and 1 and commute with row 0, and
    :func:`_group_search` carries each solution over both orbits.  Stab(0)
    is generated by (1 2) and (1 2 ... n-1), each with its element map
    e -> f o perms[e] o f^-1 read off the Cayley table of :func:`_sym_table`.
    The transpositions t_c == (0 c), with t_0 the identity, complete Stab(0)
    to Sym(n): the search keeps the tables whose least pair rank is at point
    0, and :func:`_group_search` carries each by the t_c it accepts (140
    leaves for the 2,640 tables at n = 5).  Output rows are the shared
    tuples of ``perms``, and the code of perms[e] ranks e.
    """
    perms, index, mul, inv = _sym_table(n)

    def pair(f: tuple[int, ...]) -> tuple:  # f, and e -> f o perms[e] o f^-1
        i = index[f]
        return f, [mul[g][inv[i]] for g in mul[i]]

    one = perms[0]
    stab = ((0, 2, 1) + one[3:], (0,) + one[2:] + (1,)) if n > 2 else ()
    carry = _orbit_walk(list(map(pair, stab)), n, len(perms), 1, range(len(perms)))
    swaps = [one] + [(c,) + one[1:c] + (0,) + one[c + 1:] for c in range(1, n)]
    trans = list(map(pair, swaps))
    code = list(map(_row_code(perms).__getitem__, perms))
    _group_search(perms, code, mul, inv, carry, trans, budget, found)


def brute_force_enumerate(
    n: int, config: Optional[SearchConfig] = None
) -> list[CycleSet]:
    """Enumerate cycle sets on {0, ..., n-1} according to ``config.mode``.

    full-bruteforce (n <= 6): every cycle-set table, rows ranging over all of
    Sym(n).  Counts are raw: nothing is quotiented by relabeling.

    regular-abelian-restricted (n <= 25): rows drawn from the regular
    representation of each abelian group of order n; complete for
    indecomposable cycle sets with abelian permutation group, up to
    relabeling.

    Both modes answer n = 1 with the one-point table, without a search.
    Above it, they run :func:`_group_search`, over the Cayley table of
    Sym(n) or over each template group's translations, and cut the search
    by the mode's whole relabelling group, Sym(n) or the template's affine
    group; a size above the mode's limit raises ``ValueError`` before any
    table.

    Results are sorted by table, so output is reproducible: both modes sort
    one key per table, made of the codes of :func:`_row_code`, and a table
    that several templates find is the first one's copy.  Each carries the
    leaf of the search it was carried from, whose verdict
    :func:`is_indecomposable` returns without a walk and whose one
    certificate :func:`dedupe_by_isomorphism` computes once.  Running out of
    budget raises :class:`BudgetExceeded` naming the mode, n and, in
    restricted mode, the template and the expansions of earlier templates.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cfg = config or SearchConfig()
    if n == 1:
        return [trivial_cycle_set(1)]
    full = cfg.mode == "full-bruteforce"
    name, cap = ("full", FULL_MODE_MAX) if full else ("restricted", RESTRICTED_MODE_MAX)
    if n > cap:
        raise ValueError(f"{name} mode supports n <= {cap}")
    budget = _Budget(cfg.max_candidates, f"{cfg.mode} search at n = {n}")
    found: dict[bytes, CycleSet] = {}  # each table's key -> its first copy
    if full:
        _full_search(n, budget, found)
    else:
        # the identity table lies in every template, so tables can repeat;
        # the templates share one tuple and one code per distinct row
        templates, shared = abelian_templates(n), {}
        acts = [
            [shared.setdefault(row, row) for row in _translation_rows(parts)]
            for _, parts in templates
        ]
        code = _row_code(shared)
        for (template, parts), act in zip(templates, acts):
            budget.where = (
                f" in template {template}, after {budget.used} expansions in "
                "earlier templates"
            )
            _template_search(parts, act, [code[row] for row in act], budget, found)
    return [found[key] for key in sorted(found)]


def _require_matching(expected: ClassificationReport, oracle: ClassificationReport):
    """Insist on a class-by-class isomorphism matching, else hard-fail.

    Both reports are free of repeats, so they match one to one exactly when
    every certificate of their witnesses occurs twice.  Scanned by witness
    table, parameterized first on a tie, the first entry whose certificate
    does not is the least member of the first bad merged class; it is named
    in the :class:`OracleDisagreement` with its side, invariants and witness.
    """
    entries = [("parameterized", e) for e in expected.classes]
    entries += [("oracle", e) for e in oracle.classes]
    entries.sort(key=lambda side_entry: side_entry[1].witness.table)
    certs = [_certificate(entry.witness) for _, entry in entries]
    for (side, entry), cert in zip(entries, certs):
        if (count := certs.count(cert)) != 2:
            raise OracleDisagreement(
                f"{side} class at size {expected.size} has no one-to-one match "
                f"(merged class of {count}, expected 2): mpl={entry.mpl}, "
                f"group {entry.group_type} of order {entry.group_order}, "
                f"f_invariant={entry.f_invariant}, witness {entry.witness!r}"
            )


def classify_pq(
    p: int,
    q: int,
    max_candidates: int = SearchConfig.max_candidates,
    cross_check: Optional[bool] = None,
) -> ClassificationReport:
    """Indecomposable cycle sets of size p*q with abelian permutation group.

    For p != q the trivial shift is the only class; for p = q there are
    p + 1 classes: the level-1 shift, the p - 1 level-2 members with cyclic
    group, and the elementary-abelian one.

    The result is cross-checked against the restricted brute-force oracle
    (automatically for sizes up to AUTO_CROSS_CHECK_MAX, on request up to
    RESTRICTED_MODE_MAX, above which the oracle's ``ValueError`` refuses it
    before any search); disagreement raises :class:`OracleDisagreement`,
    which always indicates an implementation bug.  When the oracle runs, the
    returned report carries its raw counts and searched templates.
    """
    if not is_prime(p) or not is_prime(q):
        raise ValueError("p and q must be prime")
    n = p * q
    structures = [trivial_cycle_set(n)]
    if p == q:
        structures += [build_p2_level2(p, t) for t in range(1, p)]
        structures.append(build_elementary_abelian(p))
    report = dedupe_by_isomorphism(
        structures, constraint="abelian-group", templates=("parameterized",)
    )
    run_oracle = cross_check if cross_check is not None else n <= AUTO_CROSS_CHECK_MAX
    if not run_oracle:
        return report
    raw = brute_force_enumerate(n, SearchConfig(max_candidates))
    indecomposable = [X for X in raw if is_indecomposable(X)]
    oracle_report = dedupe_by_isomorphism(
        indecomposable,
        constraint="abelian-group",
        templates=tuple(name for name, _ in abelian_templates(n)),
    )
    _require_matching(report, oracle_report)
    return oracle_report
