"""The brute-force oracle: every cycle-set table whose rows lie in a group.

The oracle is the second route to each classification, so it imports
nothing from the first (``construct``, ``classify``) or from the front ends
(``cli``, ``jsonio``), as tier-1 checks.  Each group it searches is one
:class:`_Group`, built by :func:`_symmetric` for Sym(n) or by
:func:`_abelian` for the regular representation of an abelian group: a
transitive abelian group is regular, so every indecomposable cycle set
with abelian permutation group has, after relabeling, all of its rows in
one such template of its order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import and_, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .arith import factorize
from .cycleset import CycleSet, _Leaf
from .errors import BudgetExceeded
from .perm import _inverse, _orbit

MODES = ("full-bruteforce", "regular-abelian-restricted")

FULL_MODE_MAX = 6
RESTRICTED_MODE_MAX = 25


@dataclass(frozen=True)
class SearchConfig:
    """Budget and mode of :func:`brute_force_enumerate`.

    ``max_candidates`` bounds node expansions; exceeding it raises
    :class:`BudgetExceeded` rather than returning partial results.  The
    other drivers take the bound alone, as their ``max_candidates``.
    ``mode`` is one of :data:`MODES`, the oracle's two searches.
    """

    max_candidates: int = 10 ** 8
    mode: str = "regular-abelian-restricted"

    def __post_init__(self):
        _Budget(self.max_candidates)  # the drivers' range check, at construction
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


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
    stabilise: bool = False,
    roots: Optional[Iterable[int]] = None,
) -> dict[int, tuple[list[tuple], list[tuple]]]:
    """Orbits of the group that ``gens`` generate, with transporters and stabilisers.

    Each generator is a pair (f, c) as in a :class:`_Group`'s ``carry``: f
    relabels the points and c maps the elements, and f determines c.  The
    group acts on the points through f (``side`` 0) or on the elements
    through c (``side`` 1).  Each orbit is walked breadth-first from its
    least member r, and the result maps r to (walk, stab).  walk lists the
    identity first, then one product u_s of generators, with u_s(r) == s,
    for each other member s.  When a generator g takes a walked s to a
    walked t, u_t^-1 o g o u_s fixes r; these Schreier generators generate
    the stabiliser of r, and if ``stabilise`` is set, stab keeps one per f
    other than the identity.  Given ``roots``, least members as
    :func:`_orbit_roots` gives them, only their orbits are walked, each
    exactly as a walk of every orbit, the default, walks it.
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
                elif stabilise:
                    # the Schreier generator u_t^-1 o g o u, one per point map
                    back = _inverse(at[t][0])
                    z = tuple(map(back.__getitem__, f))
                    if z != identity[0] and z not in stab:
                        back = _inverse(at[t][1])
                        stab[z] = (z, tuple(back[g[1][e]] for e in u[1]))
        out[r] = (walk, list(stab.values()))
    return out


def _orbit_roots(gens: list[tuple], size: int) -> list[int]:
    """The least member of each orbit on the elements, in increasing order.

    The orbits are those of :func:`_orbit_walk` on side 1, labelled through
    the generators' element maps alone, with no transporter built.  It is
    not :func:`cyclesets.perm._orbit`, which hashes every map into a set
    once per orbit: labelling every key's orbits through it took about 3
    times as long per full search at n = 5, and 9 times at n = 6, where the
    19 keys have 6,254 orbits.
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


class _Group(NamedTuple):
    """A permutation group on the points, with the relabellings that keep it.

    ``act[e]`` is element e as a row on the points, 0 the identity,
    ``code[e]`` that row's code, as :func:`_row_code` gives it, ``mul[e][f]``
    the element e o f (f first) and ``inv[e]`` that of e^-1.  ``carry`` maps
    each key r, the least member of an orbit on the elements, to its (walk,
    stab) from :func:`_orbit_walk` over a group of pairs (f, c): f relabels
    the points, fixes 0 and carries solutions to solutions, and c maps the
    elements with act[c[e]] == f o act[e] o f^-1, so a solution a goes to
    the one with c[a[x]] at f(x).  ``trans`` is a transversal: pairs t_c ==
    (g, c) like those of the carry, with g(0) == c and t_0 the identity.
    """

    act: list[tuple[int, ...]]
    code: list[bytes]
    mul: Sequence[Sequence[int]]
    inv: list[int]
    carry: dict[int, tuple[list[tuple], list[tuple]]]
    trans: list[tuple]


def _abelian(parts: tuple[int, ...], act: list, code: dict) -> _Group:
    """The template G = Z/d_1 x ... x Z/d_k: ``act`` lists its translation
    rows, as :func:`_translation_rows` does, and ``code`` maps each to its code.

    An automorphism alpha of G relabels a solution a into alpha o a o
    alpha^-1, so the carry's pairs are (alpha, alpha).  Its generators
    replace y_j by y_j + m y_i mod d_j: the scalings, for i == j with m + 1
    a unit mod d_i, and the transvections, for i != j with m = d_j /
    gcd(d_i, d_j).  Their orbits are those of Aut(G) for every template up
    to RESTRICTED_MODE_MAX, as tests check, and so are those of each
    stabiliser of a[0] and point 1.

    The translation t_c: y -> y + c relabels a into y -> a[y - c]; G is
    abelian, so t_c fixes every translation row and its element map is the
    identity.  Every element of the affine group of G is t_c o alpha, with
    c its image of 0, so the translations are the transversal.
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
    carry = _orbit_walk(gens, len(act), len(act), 1, True)
    trans = [(row, act[0]) for row in act]  # t_c, the identity on elements
    inv = [row.index(0) for row in act]
    return _Group(act, list(map(code.__getitem__, act)), act, inv, carry, trans)


def _sym_table(n: int) -> tuple[list, dict, list[tuple[int, ...]], list[int]]:
    """(perms, index, mul, inv): Sym(n) in lexicographic order, numbered.

    ``index`` inverts ``perms``; ``mul[i][j]`` is the index of perms[i] o
    perms[j] (perms[j] first, as in :meth:`Permutation.compose`) and
    ``inv[i]`` that of perms[i]^-1.  Index 0 is the identity.
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


def _symmetric(n: int) -> _Group:
    """Sym(n) on the Cayley table of :func:`_sym_table`, its rows the shared
    tuples of ``perms``, the code of perms[e] ranking e.

    A relabeling f with f(0) = 0 carries a solution T to the solution
    T'[f(x)][f(y)] = f(T[x][y]), whose row 0 is f o sigma_0 o f^-1.  So the
    carry walks Stab(0), generated by (1 2) and (1 2 ... n-1), each with its
    element map e -> f o perms[e] o f^-1 read off the Cayley table, and the
    transpositions t_c == (0 c), t_0 the identity, complete it to Sym(n).
    """
    perms, index, mul, inv = _sym_table(n)

    def pair(f: tuple[int, ...]) -> tuple:  # f, and e -> f o perms[e] o f^-1
        i = index[f]
        return f, [mul[g][inv[i]] for g in mul[i]]

    one = perms[0]
    stab = ((0, 2, 1) + one[3:], (0,) + one[2:] + (1,)) if n > 2 else ()
    carry = _orbit_walk(list(map(pair, stab)), n, len(perms), 1, True)
    swaps = [one] + [(c,) + one[1:c] + (0,) + one[c + 1:] for c in range(1, n)]
    code = list(map(_row_code(perms).__getitem__, perms))
    return _Group(perms, code, mul, inv, carry, list(map(pair, swaps)))


def _group_search(group: _Group, budget: _Budget, found: dict[bytes, CycleSet]) -> None:
    """File in ``found`` every table whose rows lie in ``group``, on n >= 2
    points (:func:`brute_force_enumerate` answers n = 1 itself).

    A table is a map x -> a[x] with row x equal to ``act[a[x]]``, and the
    pair condition sigma_{x.y} o sigma_x == sigma_{y.x} o sigma_y reads
    a[x.y] == a[y.x] o (a[y] o a[x]^-1).  So the search keeps the points in
    classes of known relations, an offset quick-find (a[i] == a[root[i]] o
    off[i]) into which each pair constraint is merged once both its points
    are assigned: a contradiction prunes at once, and a point whose class
    has a value admits one candidate and comes first.  Else the search
    branches on the first point of the largest class without a value.

    Every finite cycle set is non-degenerate (Rump, Adv. Math. 193, 2005):
    its squares x.x == act[a[x]][x] are distinct, and a relabelling keeps
    them so.  So a candidate whose square an assigned point already holds
    is dropped before it counts against the budget, and no table is lost.

    One search runs per key r of the carry, with a[0] == r.  No pair
    constraint has run once a[0] is set, so the next branch is at point 1,
    and a[1] ranges only over the least member of each orbit of K_r, the
    carry's pairs that fix r and point 1.  K_r is generated by the Schreier
    generators of the walk of point 1 over r's stabiliser (every pair fixes
    0, so 1 is the least of its orbit), and :func:`_orbit_roots` labels its
    orbits.

    Every relabelling is t_c o h, with c its image of 0 and h fixing 0, so
    the transversal and the carry's pairs make up the whole relabelling
    group.  Each element is ranked by its orbit among the keys, the
    identity's last, and the pair (x, e) by the rank of the element that
    t_x^-1 moves to 0 along with x (above all past the transversal's end),
    so a relabelling moves each pair with its rank.  Once a[0] == r, a
    candidate whose pair ranks below r's is dropped: the search finds the
    tables whose least pair rank is at point 0, to which every table has a
    relabelling.  Under the identity's key that is the identity table
    alone, so its K_r gets no generators.

    Each leaf is carried by every pair of K_r's walk for its a[1] (walked
    only from the roots that leaves reach), then by every pair of r's walk,
    then by each t_c with c the least point of t_c(Y), Y its points of
    least rank (mask[y] holds the c with t_c(y) >= c).  Each walk lists its
    orbit once and the orbits cover the group, at both levels, so that is a
    bijection onto all the solutions, each from the least c among its
    least-rank points: the output is complete and free of repeats, and the
    budget counts the expansions of the reduced search.  A table, keyed by
    the codes of its rows, is gathered and wrapped with the
    :class:`cyclesets.cycleset._Leaf` of its leaf only if its key is new in
    ``found``.  A relabelling keeps the row group transitive or not, so
    each leaf's rows are walked once, for the verdict its tables share.
    """
    act, code, mul, inv, carry, trans = group
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
        gens = _orbit_walk(stab, n, order, 0, True, (1,))[1][1] if r else []  # K_r's
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


def brute_force_enumerate(
    n: int, config: Optional[SearchConfig] = None
) -> list[CycleSet]:
    """Enumerate cycle sets on {0, ..., n-1} according to ``config.mode``.

    full-bruteforce (n <= 6): every cycle-set table, rows ranging over
    Sym(n).  regular-abelian-restricted (n <= 25): every table whose rows lie
    in the regular representation of an abelian group of order n, one
    template per group type; complete for indecomposable cycle sets with
    abelian permutation group, up to relabeling.  Counts are raw: nothing is
    quotiented by relabeling.

    Both modes answer n = 1 with the one-point table, without a search, and
    refuse a size above the mode's limit with ``ValueError`` before any
    table.  Results are sorted by table, and a table that several templates
    find is the first one's copy, with the leaf of the search it was carried
    from: :func:`is_indecomposable` returns its verdict without a walk, and
    :func:`dedupe_by_isomorphism` certifies it once.  Running out of budget
    raises :class:`BudgetExceeded` naming the mode, n and, in restricted
    mode, the template and the expansions of earlier templates.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cfg = config or SearchConfig()
    if n == 1:
        return [CycleSet._trusted(((0,),))]
    full = cfg.mode == "full-bruteforce"
    name, cap = ("full", FULL_MODE_MAX) if full else ("restricted", RESTRICTED_MODE_MAX)
    if n > cap:
        raise ValueError(f"{name} mode supports n <= {cap}")
    budget = _Budget(cfg.max_candidates, f"{cfg.mode} search at n = {n}")
    found: dict[bytes, CycleSet] = {}  # each table's key -> its first copy
    if full:
        _group_search(_symmetric(n), budget, found)
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
            _group_search(_abelian(parts, act, code), budget, found)
    return [found[key] for key in sorted(found)]
