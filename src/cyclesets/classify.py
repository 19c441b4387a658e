"""Classification drivers: the spec route, the dedupe and the cross-check.

Two independent routes produce the classification at a given size:

* the parameterized route, which builds candidates from the explicit
  constructions (trivial shift, prime-power specs, elementary abelian), and
* the brute-force oracle of :mod:`cyclesets.oracle`, which searches
  multiplication tables directly and is re-exported here.

Raw counts are never quotiented; deduplication happens in
:func:`dedupe_by_isomorphism` afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .arith import is_prime
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
    _class_key,
    _f_invariant,
    _mpl_of_steps,
    _retraction_steps,
    is_indecomposable,
    permutation_group,
)
from .errors import OracleDisagreement
from .oracle import (  # the oracle's public names, re-exported
    FULL_MODE_MAX, MODES, RESTRICTED_MODE_MAX, SearchConfig, _Budget, abelian_templates,
    brute_force_enumerate,
)
from .perm import PermGroup, _commute, _cycles, is_abelian, is_cyclic

#: Oracle cross-checks in classify_pq run automatically up to this size;
#: larger sizes (up to RESTRICTED_MODE_MAX) must be requested explicitly.
AUTO_CROSS_CHECK_MAX = 9


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

    Each class is a ``[witness, count]`` record filed under the class key
    of its tables (see :func:`cyclesets.cycleset._class_key`): the affine
    form of a table whose rows lie in the cyclic group of an n-cycle row,
    read off its row exponents, else its certificate; either is equal for
    isomorphic tables and only for them.  The inputs are scanned in
    increasing row-major encoding, which is the order of their tables, row
    by row, at one size, so the witness of each class is its least member
    and classes are created, and listed, in increasing witness encoding:
    identical inputs produce byte-identical reports.  Tables that share a
    search leaf are relabellings of one another, so only the leaf's first
    table is keyed, and the others are filed in its class.
    """
    xs = sorted(structures, key=attrgetter("_table"))
    if len({len(X._table) for X in xs}) > 1:
        raise ValueError("all structures must have the same size")
    classes: dict[tuple[int, ...], list] = {}
    types: dict = {}
    filed: dict = {}  # leaf -> the [witness, count] record of its class
    for X in xs:
        entry = filed.get(X._leaf)  # None for a table without a leaf
        if entry is None:
            entry = classes.setdefault(_class_key(X, types), [X, 0])
            if X._leaf is not None:
                filed[X._leaf] = entry
        entry[1] += 1
    entries = []
    for w, count in classes.values():
        steps = _retraction_steps(w)  # one tower walk for mpl and f_invariant
        level = _mpl_of_steps(w, steps)
        sizes = [w.n] + [step.quotient.n for step in steps]
        order, kind = _group_order_type(w)
        entries.append(
            ClassEntry(
                witness=w,
                mpl=level,
                group_order=order,
                group_type=kind,
                # None at every level but 2
                f_invariant=_f_invariant(w, sizes) if level == 2 else None,
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


def _require_matching(expected: ClassificationReport, oracle: ClassificationReport):
    """Insist on a class-by-class isomorphism matching, else hard-fail.

    Both reports are free of repeats, so they match one to one exactly when
    every class key of their witnesses (the dedupe's, see
    :func:`cyclesets.cycleset._class_key`) occurs twice.  Scanned by witness
    table, parameterized first on a tie, the first entry whose key does not
    is the least member of the first bad merged class; it is named in the
    :class:`OracleDisagreement` with its side, invariants and witness.
    """
    entries = [("parameterized", e) for e in expected.classes]
    entries += [("oracle", e) for e in oracle.classes]
    entries.sort(key=lambda side_entry: side_entry[1].witness.table)
    keys = [_class_key(entry.witness) for _, entry in entries]
    for (side, entry), key in zip(entries, keys):
        if (count := keys.count(key)) != 2:
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
