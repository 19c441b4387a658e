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
from math import prod
from typing import Iterable, Optional, Sequence

from .arith import factorize, is_prime, partitions, prime_power
from .construct import (
    CyclicBuildSpec,
    build_prime_power,
    build_p2_level2,
    build_elementary_abelian,
    exponent_symmetry_check,
    phi_injectivity_check,
    trivial_cycle_set,
)
from .cycleset import (
    CycleSet,
    are_isomorphic,
    f_invariant,
    is_indecomposable,
    mpl,
    permutation_group,
    retraction_tower_sizes,
)
from .errors import BudgetExceeded, HypothesesError, OracleDisagreement
from .perm import PermGroup, is_abelian, is_cyclic

MODES = ("full-bruteforce", "regular-abelian-restricted", "spec-parameterized")

FULL_MODE_MAX = 9
RESTRICTED_MODE_MAX = 25

#: Oracle cross-checks in classify_pq run automatically up to this size;
#: larger sizes (up to RESTRICTED_MODE_MAX) must be requested explicitly.
AUTO_CROSS_CHECK_MAX = 9


@dataclass(frozen=True)
class SearchConfig:
    """Search budget and mode.

    ``max_candidates`` bounds node expansions; exceeding it raises
    :class:`BudgetExceeded` rather than returning partial results.
    """

    max_candidates: int = 10 ** 8
    mode: str = "regular-abelian-restricted"

    def __post_init__(self):
        if self.max_candidates <= 0:
            raise ValueError("budget must be positive")
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
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} expansions exceeded")


def group_type_of(group: PermGroup) -> str:
    if is_cyclic(group) is not None:
        return "cyclic"
    if is_abelian(group):
        return "abelian-noncyclic"
    return "nonabelian"


def _invariant_key(X: CycleSet):
    group = permutation_group(X)
    return (
        tuple(retraction_tower_sizes(X)),
        group.order,
        group_type_of(group),
        tuple(sorted(p.cycle_type() for p in X.rows())),
    )


def dedupe_by_isomorphism(
    structures: Iterable[CycleSet],
    constraint: str = "any",
    templates: Sequence[str] = (),
) -> ClassificationReport:
    """Greedy partition into isomorphism classes.

    The witness of each class is its least member by row-major encoding, and
    classes are listed in increasing witness encoding, so identical inputs
    produce byte-identical reports.
    """
    xs = sorted(structures, key=lambda X: X.encoding())
    if xs and any(X.n != xs[0].n for X in xs):
        raise ValueError("all structures must have the same size")
    reps: list[dict] = []
    for X in xs:
        key = _invariant_key(X)
        for rep in reps:
            if rep["key"] == key and are_isomorphic(X, rep["witness"]) is not None:
                rep["count"] += 1
                break
        else:
            reps.append({"witness": X, "key": key, "count": 1})
    entries = []
    for rep in reps:
        w = rep["witness"]
        group = permutation_group(w)
        entries.append(
            ClassEntry(
                witness=w,
                mpl=mpl(w),
                group_order=group.order,
                group_type=group_type_of(group),
                f_invariant=f_invariant(w),
                raw_count=rep["count"],
            )
        )
    entries.sort(key=lambda e: e.witness.encoding())
    return ClassificationReport(
        size=xs[0].n if xs else 0,
        constraint=constraint,
        templates_searched=tuple(templates),
        classes=tuple(entries),
    )


def enumerate_specs(
    p: int,
    k: int,
    level: Optional[int] = None,
    config: Optional[SearchConfig] = None,
) -> list[CyclicBuildSpec]:
    """All admissible prime-power build specs at (p, k), lexicographically.

    The candidate space (exponent chains, then digit-function tables) is
    enumerated exhaustively and filtered through the injectivity and symmetry
    invariants; the budget counts candidate tuples, and the whole space is
    summed against it before any candidate is tested.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    limit = (config or SearchConfig()).max_candidates
    levels = [level] if level is not None else list(range(2, k + 1))
    chains: list[tuple[tuple[int, ...], list[tuple[int, int]]]] = []
    total = 0
    for lvl in levels:
        if not 2 <= lvl <= k:
            continue
        for mids in itertools.combinations(range(k - 1, 0, -1), lvl - 1):
            exps = (k,) + mids + (0,)
            # (domain size, range size) of each digit function f_1 ... f_{lvl-1}
            shape = [
                (p ** exps[m], p ** (exps[m - 1] - exps[m])) for m in range(1, lvl)
            ]
            # every range has at least 2 values, so a domain this large
            # already overflows the budget; skip the huge power
            if any(dom > limit.bit_length() for dom, _ in shape):
                total = limit + 1
            else:
                total += prod(rng ** (dom - 1) for dom, rng in shape)
            if total > limit:
                raise BudgetExceeded(
                    f"spec enumeration at (p, k) = ({p}, {k}): the digit-function "
                    f"space through exponent chain {exps} exceeds the budget of "
                    f"{limit} candidates"
                )
            chains.append((exps, shape))
    out: list[CyclicBuildSpec] = []
    for exps, shape in chains:
        spaces = [
            [(0,) + rest for rest in itertools.product(range(rng), repeat=dom - 1)]
            for dom, rng in shape
        ]
        for combo in itertools.product(*spaces):
            spec = CyclicBuildSpec(
                p=p, k=k, level=len(exps) - 1, exponents=exps, digit_functions=combo
            )
            if phi_injectivity_check(spec) is not None:
                continue
            if exponent_symmetry_check(spec) is not None:
                continue
            out.append(spec)
    return out


def classify_cyclic_prime_power(
    p: int, k: int, config: Optional[SearchConfig] = None
) -> ClassificationReport:
    """Isomorphism classes at size p^k with cyclic permutation group.

    The level-1 trivial shift plus one structure per admissible spec, deduped.
    For k = 2 the class count is exactly p: one of level 1 and p - 1 of
    level 2.
    """
    structures = [trivial_cycle_set(p ** k)]
    for spec in enumerate_specs(p, k, config=config):
        structures.append(build_prime_power(spec, check=False))
    return dedupe_by_isomorphism(
        structures, constraint="cyclic-group", templates=("parameterized",)
    )


def abelian_templates(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """One regular template per abstract abelian group of order n.

    Each template is named by its invariant factors d_1 | d_2 | ... (largest
    first) and carries the cyclic factor sizes used to build the regular
    action.
    """
    fact = factorize(n)
    primes = sorted(fact)
    per_prime = [list(partitions(fact[p])) for p in primes]
    templates = []
    for choice in itertools.product(*per_prime):
        depth = max((len(part) for part in choice), default=1)
        invariants = []
        for i in range(depth):
            d = 1
            for p, part in zip(primes, choice):
                if i < len(part):
                    d *= p ** part[i]
            invariants.append(d)
        parts = tuple(invariants)
        name = "x".join(f"Z/{d}" for d in parts)
        templates.append((name, parts))
    templates.sort(key=lambda item: item[1], reverse=True)
    return templates


def _translation_rows(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Regular action of the product of cyclic groups Z/d, flattened big-endian.

    Row e maps point y to y + e (componentwise); because points are labeled
    by group elements, the same table also serves as the composition table.
    """
    n = prod(parts)
    digs = []
    for v in range(n):
        rem = v
        vec = []
        for d in reversed(parts):
            vec.append(rem % d)
            rem //= d
        vec.reverse()
        digs.append(tuple(vec))

    def flat(vec):
        idx = 0
        for c, d in zip(vec, parts):
            idx = idx * d + c
        return idx

    return [
        tuple(
            flat(tuple((yc + ec) % d for yc, ec, d in zip(digs[y], digs[e], parts)))
            for y in range(n)
        )
        for e in range(n)
    ]


def _automorphism_transporters(
    parts: tuple[int, ...], act: list[tuple[int, ...]]
) -> dict[int, dict[int, tuple[int, ...]]]:
    """Orbits of Aut(G) on the template group G, with one transporter each.

    Returns {r: {s: alpha}} over the orbit representatives r (the least point
    of each orbit), where alpha is an automorphism with alpha(r) = s, for
    every s in the orbit of r.  Automorphisms are streamed, never listed:
    the images of the basis generators range over the elements of order
    exactly d_i, and a choice is kept when the induced map is a bijection,
    which is checked generator by generator to prune early.
    """
    n = len(act)
    multiples = []  # multiples[g] = [0, g, 2g, ...], as long as the order of g
    for g in range(n):
        mult = [0]
        while act[mult[-1]][g] != 0:
            mult.append(act[mult[-1]][g])
        multiples.append(mult)
    reach: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]

    def extend(i: int, imgs: list[int]) -> None:
        # imgs maps the flattened prefix (x_1, ..., x_i) to x_1 g_1 + ... + x_i g_i
        if i == len(parts):
            alpha = tuple(imgs)
            for x, s in enumerate(alpha):
                reach[x].setdefault(s, alpha)
            return
        for mult in multiples:
            if len(mult) == parts[i]:
                nxt = [act[u][m] for u in imgs for m in mult]
                if len(set(nxt)) == len(nxt):
                    extend(i + 1, nxt)

    extend(0, [0])
    return {r: reach[r] for r in range(n) if min(reach[r]) == r}


def _template_search(parts: tuple[int, ...], budget: _Budget) -> list[tuple]:
    """All row assignments from one regular template satisfying the axiom.

    Solutions are a map x -> a[x] with row x the translation by a[x].  An
    automorphism alpha of G relabels a solution a into alpha o a o alpha^-1,
    again a solution, whose value at 0 is alpha(a[0]).  So the search only
    lets a[0] range over the least point r of each Aut(G)-orbit, and every
    solution found is carried to each s in the orbit of r by one fixed
    transporter; that is a bijection onto the solutions with a[0] = s, so
    the output is complete and free of repeats, and the budget counts the
    expansions of the reduced search.

    Inside the abelian template the pair condition for (x, y) reads
    a[x.y] + a[x] == a[y.x] + a[y] in the group, i.e. it pins the
    *difference* of two row values.  The search therefore keeps an offset
    union-find over the points (plus a ground node for known values): every
    pair constraint is merged in as soon as both its points are assigned,
    contradictions prune immediately, and a point whose class touches ground
    admits exactly one candidate.  Union by rank without path compression
    keeps the structure cheap to roll back on backtracking.
    """
    act = _translation_rows(parts)  # act[u][v] is also the group sum u + v
    n = len(act)
    transporters = _automorphism_transporters(parts, act)
    inv = [act[e].index(0) for e in range(n)]
    ground = n
    parent = list(range(n + 1))
    offset = [0] * (n + 1)  # a[i] == a[parent[i]] + offset[i]
    rank = [0] * (n + 1)
    rank[ground] = n + 2  # ground must stay a root
    assign = [-1] * n
    trail: list[tuple[int, int, bool]] = []
    out: list[tuple] = []

    def find(i: int) -> tuple[int, int]:
        off = 0
        while parent[i] != i:
            off = act[offset[i]][off]
            i = parent[i]
        return i, off

    def union(i: int, j: int, delta: int) -> bool:
        # impose a[i] == a[j] + delta
        ri, oi = find(i)
        rj, oj = find(j)
        if ri == rj:
            return oi == act[oj][delta]
        if rank[ri] > rank[rj]:
            parent[rj] = ri
            offset[rj] = act[oi][inv[act[oj][delta]]]
            trail.append((rj, ri, False))
        else:
            parent[ri] = rj
            offset[ri] = act[act[oj][delta]][inv[oi]]
            bump = rank[ri] == rank[rj]
            if bump:
                rank[rj] += 1
            trail.append((ri, rj, bump))
        return True

    def rollback(mark: int) -> None:
        while len(trail) > mark:
            child, par, bump = trail.pop()
            parent[child] = child
            offset[child] = 0
            if bump:
                rank[par] -= 1

    assigned: list[int] = []

    def next_point() -> tuple[int, int]:
        # prefer a point already pinned to ground: it admits one candidate
        # and assigning it feeds its pair constraints back into the search
        first_free = -1
        for pt in range(n):
            if assign[pt] >= 0:
                continue
            root, off = find(pt)
            if root == ground:
                return pt, off
            if first_free < 0:
                first_free = pt
        return first_free, -1

    def dfs() -> None:
        pt, pinned = next_point()
        if pinned >= 0:
            candidates = (pinned,)
        elif assigned:
            candidates = range(n)
        else:  # the root point 0 takes one value per Aut(G)-orbit
            candidates = transporters
        for e in candidates:
            budget.tick()
            mark = len(trail)
            assign[pt] = e
            ok = union(pt, ground, e)
            if ok:
                for x in assigned:
                    ax = assign[x]
                    tx = act[ax][pt]  # the point x . pt
                    ty = act[e][x]  # the point pt . x
                    # a[tx] == a[ty] + (a[pt] - a[x])
                    if not union(tx, ty, act[e][inv[ax]]):
                        ok = False
                        break
            if ok:
                assigned.append(pt)
                if len(assigned) == n:
                    for alpha in transporters[assign[0]].values():
                        moved = [0] * n
                        for x in range(n):
                            moved[alpha[x]] = alpha[assign[x]]
                        out.append(tuple(act[v] for v in moved))
                else:
                    dfs()
                assigned.pop()
            rollback(mark)
        assign[pt] = -1

    dfs()
    return out


def _full_search(n: int, budget: _Budget) -> list[tuple]:
    """Depth-first search over all rows with incremental axiom pruning.

    Same scheduling and propagation as the restricted search, except that
    rows range over all of Sym(n): the pair condition composes permutations
    pointwise, and a single missing row is forced to the explicit composite
    sigma_{y.x} o sigma_y o sigma_x^{-1}.
    """
    perms = sorted(itertools.permutations(range(n)))
    rows: list = [None] * n
    forced: list = [None] * n
    pending: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    out: list[tuple] = []

    def pair_ok(x: int, y: int, tx: int, ty: int) -> bool:
        ra, rx = rows[tx], rows[x]
        rb, ry = rows[ty], rows[y]
        return all(ra[rx[z]] == rb[ry[z]] for z in range(n))

    def forced_row(x: int, y: int, ty: int) -> tuple:
        # the unique sigma with sigma o sigma_x == sigma_{y.x} o sigma_y
        rx, rb, ry = rows[x], rows[ty], rows[y]
        inv_x = [0] * n
        for z in range(n):
            inv_x[rx[z]] = z
        return tuple(rb[ry[inv_x[z]]] for z in range(n))

    def force(slot: int, value: tuple, added_f: list[int]) -> bool:
        if forced[slot] is None:
            forced[slot] = value
            added_f.append(slot)
            return True
        return forced[slot] == value

    def dfs(d: int) -> None:
        candidates = perms if forced[d] is None else (forced[d],)
        for cand in candidates:
            budget.tick()
            rows[d] = cand
            ok = True
            added_p: list[int] = []
            added_f: list[int] = []
            for x, y, tx, ty in pending[d]:
                if tx <= d and ty <= d:
                    if not pair_ok(x, y, tx, ty):
                        ok = False
                        break
                elif ty > d:
                    if not force(ty, forced_row(y, x, tx), added_f):
                        ok = False
                        break
                else:
                    if not force(tx, forced_row(x, y, ty), added_f):
                        ok = False
                        break
            if ok:
                for x in range(d):
                    tx = rows[x][d]
                    ty = cand[x]
                    if tx <= d and ty <= d:
                        if not pair_ok(x, d, tx, ty):
                            ok = False
                            break
                    elif tx > d and ty > d:
                        slot = tx if tx < ty else ty
                        pending[slot].append((x, d, tx, ty))
                        added_p.append(slot)
                    elif tx > d:
                        if not force(tx, forced_row(x, d, ty), added_f):
                            ok = False
                            break
                    else:
                        if not force(ty, forced_row(d, x, tx), added_f):
                            ok = False
                            break
            if ok:
                if d == n - 1:
                    out.append(tuple(rows))
                else:
                    dfs(d + 1)
            for slot in reversed(added_p):
                pending[slot].pop()
            for slot in added_f:
                forced[slot] = None
        rows[d] = None

    dfs(0)
    return out


def brute_force_enumerate(
    n: int, config: Optional[SearchConfig] = None
) -> list[CycleSet]:
    """Enumerate cycle sets on {0, ..., n-1} according to ``config.mode``.

    full-bruteforce (n <= 9): every cycle-set table, rows ranging over all of
    Sym(n).  Counts are raw: nothing is quotiented by relabeling.

    regular-abelian-restricted (n <= 25): rows drawn from the regular
    representation of each abelian group of order n; complete for
    indecomposable cycle sets with abelian permutation group, up to
    relabeling.

    spec-parameterized (prime powers only): the trivial shift plus the
    structures built from every admissible spec.

    Results are sorted by table encoding, so output is reproducible.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cfg = config or SearchConfig()
    if cfg.mode == "full-bruteforce":
        if n > FULL_MODE_MAX:
            raise ValueError(f"full mode supports n <= {FULL_MODE_MAX}")
        tables = set(_full_search(n, _Budget(cfg.max_candidates)))
    elif cfg.mode == "regular-abelian-restricted":
        if n > RESTRICTED_MODE_MAX:
            raise ValueError(f"restricted mode supports n <= {RESTRICTED_MODE_MAX}")
        budget = _Budget(cfg.max_candidates)
        # the identity table lies in every template, so tables can repeat
        tables = set()
        for _, parts in abelian_templates(n):
            tables.update(_template_search(parts, budget))
    else:  # spec-parameterized
        pk = prime_power(n) if n > 1 else None
        if n == 1:
            return [trivial_cycle_set(1)]
        if pk is None:
            raise HypothesesError(
                "spec-parameterized mode requires a prime-power size"
            )
        p, k = pk
        structures = [trivial_cycle_set(n)]
        structures += [
            build_prime_power(s, check=False) for s in enumerate_specs(p, k, config=cfg)
        ]
        return sorted(structures, key=lambda X: X.encoding())
    return [CycleSet._trusted(t) for t in sorted(tables)]


def _require_matching(expected: ClassificationReport, oracle: ClassificationReport):
    """Insist on a class-by-class isomorphism matching, else hard-fail."""
    if len(expected.classes) != len(oracle.classes):
        raise OracleDisagreement(
            f"{len(expected.classes)} parameterized classes vs "
            f"{len(oracle.classes)} oracle classes at size {expected.size}"
        )
    unmatched = list(oracle.classes)
    for entry in expected.classes:
        for cand in unmatched:
            if are_isomorphic(entry.witness, cand.witness) is not None:
                unmatched.remove(cand)
                break
        else:
            raise OracleDisagreement(
                f"parameterized class {entry.witness!r} has no oracle match"
            )


def classify_pq(
    p: int,
    q: int,
    config: Optional[SearchConfig] = None,
    cross_check: Optional[bool] = None,
) -> ClassificationReport:
    """Indecomposable cycle sets of size p*q with abelian permutation group.

    For p != q the trivial shift is the only class; for p = q there are
    p + 1 classes: the level-1 shift, the p - 1 level-2 members with cyclic
    group, and the elementary-abelian one.

    The result is cross-checked against the restricted brute-force oracle
    (automatically for sizes up to AUTO_CROSS_CHECK_MAX, on request up to
    RESTRICTED_MODE_MAX); disagreement raises :class:`OracleDisagreement`,
    which always indicates an implementation bug.  When the oracle runs, the
    returned report carries its raw counts and searched templates.
    """
    if not is_prime(p) or not is_prime(q):
        raise ValueError("p and q must be prime")
    n = p * q
    if p == q:
        structures = [trivial_cycle_set(n)]
        structures += [build_p2_level2(p, t) for t in range(1, p)]
        structures.append(build_elementary_abelian(p))
    else:
        structures = [trivial_cycle_set(n)]
    report = dedupe_by_isomorphism(
        structures, constraint="abelian-group", templates=("parameterized",)
    )
    run_oracle = cross_check if cross_check is not None else n <= AUTO_CROSS_CHECK_MAX
    if not run_oracle:
        return report
    if n > RESTRICTED_MODE_MAX:
        raise ValueError(
            f"oracle cross-check supports sizes up to {RESTRICTED_MODE_MAX}"
        )
    cfg = config or SearchConfig()
    oracle_cfg = SearchConfig(
        max_candidates=cfg.max_candidates, mode="regular-abelian-restricted"
    )
    raw = brute_force_enumerate(n, oracle_cfg)
    indecomposable = [X for X in raw if is_indecomposable(X)]
    oracle_report = dedupe_by_isomorphism(
        indecomposable,
        constraint="abelian-group",
        templates=tuple(name for name, _ in abelian_templates(n)),
    )
    _require_matching(report, oracle_report)
    return oracle_report
