import ast
import hashlib
import itertools
import json
import random
import types
from math import factorial, gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cyclesets
from cyclesets import (
    BudgetExceeded,
    ClassEntry,
    ClassificationReport,
    CycleSet,
    CyclicBuildSpec,
    OracleDisagreement,
    SearchConfig,
    SpecError,
    abelian_templates,
    are_isomorphic,
    brute_force_enumerate,
    build_elementary_abelian,
    build_p2_level2,
    build_prime_power,
    classify_cyclic_prime_power,
    classify_pq,
    dedupe_by_isomorphism,
    enumerate_specs,
    exponent_symmetry_check,
    extract_spec,
    f_invariant,
    find_violations,
    group_type_of,
    is_indecomposable,
    is_nondegenerate,
    is_square_free,
    mpl,
    permutation_group,
    phi_injectivity_check,
    relabel,
    retraction_tower_sizes,
    trivial_cycle_set,
)
from cyclesets import classify as classify_module
from cyclesets import cycleset as cycleset_module
from cyclesets import oracle as oracle_module
from cyclesets.arith import factorize
from cyclesets.cycleset import _Leaf, _certificate
from cyclesets.classify import _group_order_type, _require_matching, _spec_family
from cyclesets.oracle import (
    _Budget,
    _Group,
    _abelian,
    _group_search,
    _orbit_roots,
    _orbit_walk,
    _row_code,
    _sym_table,
    _symmetric,
    _translation_rows,
)
from cyclesets.jsonio import report_to_dict
from cyclesets.perm import _commute, _cycles, _inverse, _orbit, generate_group, Permutation


def tables_of(found) -> list[tuple]:
    """The tables of a search's output, without the leaves they carry."""
    return [X.table for X in found]


class Filing(dict):
    """The dict that one search files its tables in, keyed as the search
    keys them, which also lists every key the search asks for again.  A
    search files a table only if its key is new, so repeats never enter the
    dict; :meth:`tables` shows them, so a search that finds a table twice
    fails the checks that each table comes out once."""

    def __init__(self):
        super().__init__()
        self.asked, self.again = 0, []

    def __contains__(self, key):
        self.asked += 1
        held = super().__contains__(key)
        if held:
            self.again.append(key)
        return held

    def tables(self) -> list[CycleSet]:
        """Every table the search carried, in the order it filed them, then
        the filed copy once more for each time it carried it again."""
        # every table filed or dropped was asked for first
        assert self.asked == len(self) + len(self.again)
        return list(self.values()) + [self[key] for key in self.again]


def abelian(parts) -> _Group:
    """The group record of one template, searched alone."""
    act = _translation_rows(parts)
    return _abelian(parts, act, _row_code(act))


def template_search(parts, budget) -> list[CycleSet]:
    """One template's search alone: every table it carries, repeats included."""
    found = Filing()
    _group_search(abelian(parts), budget, found)
    return found.tables()


def full_search(n, budget) -> list[CycleSet]:
    """The full search at n: every table it carries, repeats included."""
    found = Filing()
    _group_search(_symmetric(n), budget, found)
    return found.tables()


def group_search(act, mul, inv, carry, trans, budget) -> list[CycleSet]:
    """A search over the group of ``act``: every table it carries, repeats included."""
    found, code = Filing(), list(map(_row_code(act).__getitem__, act))
    _group_search(_Group(act, code, mul, inv, carry, trans), budget, found)
    return found.tables()


def table_digest(tables) -> str:
    """sha256 of the entries of the sorted tables, one byte each (n < 256)."""
    digest = hashlib.sha256()
    for table in sorted(tables):
        digest.update(b"".join(map(bytes, table)))
    return digest.hexdigest()


def generate_and_test_specs(p, k):
    """Reference: every digit-function tuple of every chain, filtered.

    Chains come in increasing level, then in ``itertools.combinations``
    order, and each chain's tuples in ``itertools.product`` order.
    """
    out = []
    for lvl in range(2, k + 1):
        for mids in itertools.combinations(range(k - 1, 0, -1), lvl - 1):
            exps = (k,) + mids + (0,)
            spaces = [
                [
                    (0,) + rest
                    for rest in itertools.product(
                        range(p ** (exps[m - 1] - exps[m])), repeat=p ** exps[m] - 1
                    )
                ]
                for m in range(1, lvl)
            ]
            for combo in itertools.product(*spaces):
                spec = CyclicBuildSpec(p, k, lvl, exps, combo)
                if phi_injectivity_check(spec) is None and (
                    exponent_symmetry_check(spec) is None
                ):
                    out.append(spec)
    return out


def partitions(n):
    """Yield the partitions of n as descending tuples, largest part first."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def reference_abelian_templates(n):
    """Reference: a partition of each prime's exponent, merged slot by slot
    into invariant factors, over the Cartesian product of those choices,
    then sorted in descending order."""
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


def row_major(X):
    """The row-major flattening of X's table: the documented witness order."""
    return tuple(itertools.chain.from_iterable(X.table))


def pairwise_dedupe(structures):
    """Reference: the greedy pairwise partition, every table tested with
    ``are_isomorphic`` against the witnesses that share its key (tower
    sizes and sorted row cycle types)."""
    reps = []
    for X in sorted(structures, key=row_major):
        key = (
            retraction_tower_sizes(X),
            sorted(Permutation(row).cycle_type() for row in X.table),
        )
        for rep in reps:
            if rep[1] == key and are_isomorphic(X, rep[0]) is not None:
                rep[2] += 1
                break
        else:
            reps.append([X, key, 1])
    entries = []
    for w, _, count in reps:
        group = permutation_group(w)
        entries.append(ClassEntry(
            witness=w,
            mpl=mpl(w),
            group_order=group.order,
            group_type=group_type_of(group),
            f_invariant=f_invariant(w),
            raw_count=count,
        ))
    return ClassificationReport(
        size=reps[0][0].n if reps else 0,
        constraint="any",
        templates_searched=(),
        classes=tuple(entries),
    )


class TestEnumerateSpecs:
    def test_counts(self):
        assert len(enumerate_specs(2, 2)) == 1
        assert len(enumerate_specs(3, 2)) == 2
        assert len(enumerate_specs(2, 1)) == 0
        assert len(enumerate_specs(2, 3)) == 1
        assert len(enumerate_specs(5, 2)) == 4

    @pytest.mark.parametrize(
        "p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]
    )
    def test_lift_equals_generate_and_test(self, p, k):
        reference = generate_and_test_specs(p, k)
        assert enumerate_specs(p, k) == reference

    def test_emitted_specs_are_admissible(self):
        for p, k in ((2, 6), (3, 4), (5, 3), (13, 2)):
            for spec in enumerate_specs(p, k):
                assert phi_injectivity_check(spec) is None
                assert exponent_symmetry_check(spec) is None

    def test_expansion_counts(self):
        # the least budget that lets the search finish is its expansion
        # count; generate-and-test tested 65,691 / 117,649 candidates at
        # (3, 3) / (7, 2) and could not start at (2, 5)
        for p, k, expansions in ((3, 3, 296), (7, 2, 218), (2, 5, 618)):
            enumerate_specs(p, k, max_candidates=expansions)
            with pytest.raises(BudgetExceeded):
                enumerate_specs(p, k, max_candidates=expansions - 1)

    def test_budget_trips_at_size_32(self):
        with pytest.raises(BudgetExceeded, match=r"at \(p, k\) = \(2, 5\)"):
            enumerate_specs(2, 5, max_candidates=100)

    def test_budget_message_names_the_chain(self):
        with pytest.raises(BudgetExceeded) as err:
            enumerate_specs(2, 5, max_candidates=300)
        message = str(err.value)
        assert "budget of 300 expansions" in message
        # (4, 1, 0) is the tail of the level-3 chain (5, 4, 1, 0)
        assert message.endswith("exponent chain (4, 1, 0) at size 2^4")

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            enumerate_specs(4, 2)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            enumerate_specs(2, 0)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_specs(3, 2, max_candidates=2)


class TestClassifyCyclicPrimePower:
    @pytest.mark.parametrize("p,k,count", [(2, 2, 2), (3, 2, 3), (5, 2, 5)])
    def test_prime_square_counts(self, p, k, count):
        report = classify_cyclic_prime_power(p, k)
        assert len(report.classes) == count
        assert report.size == p ** k
        assert report.constraint == "cyclic-group"
        profiles = sorted((e.mpl, e.group_type) for e in report.classes)
        assert profiles == sorted([(1, "cyclic")] + [(2, "cyclic")] * (count - 1))

    def test_prime_size_has_single_class(self):
        report = classify_cyclic_prime_power(2, 1)
        assert len(report.classes) == 1
        assert report.classes[0].mpl == 1

    def test_level2_classes_carry_distinct_f_invariants(self):
        report = classify_cyclic_prime_power(5, 2)
        fs = [e.f_invariant for e in report.classes if e.mpl == 2]
        assert sorted(fs) == sorted(tuple(k * t % 5 for k in range(5)) for t in range(1, 5))

    @pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_matches_cyclic_template_oracle(self, p, k):
        n = p ** k
        found = tables_of(template_search((n,), _Budget(10 ** 8)))
        indecomposable = [CycleSet(t) for t in found if is_indecomposable(CycleSet(t))]
        oracle = dedupe_by_isomorphism(indecomposable)
        # a transitive subgroup of the regular Z/n is all of Z/n
        assert all(e.group_type == "cyclic" for e in oracle.classes)
        expected = classify_cyclic_prime_power(p, k)
        assert len(expected.classes) == {4: 2, 8: 2, 9: 3, 16: 4}[n]
        _require_matching(expected, oracle)

    # class counts found independently by lifting each table through its
    # retraction, without the spec construction
    @pytest.mark.parametrize("p,k,count", [
        (2, 5, 6), (2, 6, 10), (2, 7, 14), (3, 4, 11), (5, 3, 9), (11, 2, 11),
    ])
    def test_counts_beyond_the_oracle(self, p, k, count):
        report = classify_cyclic_prime_power(p, k)
        assert len(report.classes) == count
        assert all(e.group_type == "cyclic" for e in report.classes)

    def test_a_faulty_lift_raises_rather_than_losing_a_class(self, monkeypatch):
        # an all-zero f_1 is not injective; every spec is validated when it is
        # built, so it cannot slip through or vanish from the report
        lift = classify_module._lift_digit_function

        def faulty(p, exps, tail, budget):
            return lift(p, exps, tail, budget) + [(0,) * p ** exps[1]]

        monkeypatch.setattr(classify_module, "_lift_digit_function", faulty)
        with pytest.raises(SpecError, match="not injective"):
            classify_cyclic_prime_power(3, 2)

    def test_golden32_has_one_class(self, golden32):
        report = classify_cyclic_prime_power(2, 5)
        homes = [
            e for e in report.classes
            if are_isomorphic(golden32, e.witness) is not None
        ]
        assert len(homes) == 1


class TestTemplates:
    def test_abelian_group_types(self):
        assert [name for name, _ in abelian_templates(4)] == ["Z/4", "Z/2xZ/2"]
        assert [name for name, _ in abelian_templates(6)] == ["Z/6"]
        assert [name for name, _ in abelian_templates(9)] == ["Z/9", "Z/3xZ/3"]
        assert [name for name, _ in abelian_templates(12)] == ["Z/12", "Z/6xZ/2"]

    def test_equals_the_partition_reference(self):
        for n in range(1, 3001):
            assert abelian_templates(n) == reference_abelian_templates(n), n

    @pytest.mark.parametrize(
        "n, count",
        # p(40); p(12) squared; p(20) * p(10)
        [(2**40, 37338), (10**12, 5929), (2**20 * 3**10, 26334)],
    )
    def test_counts_are_products_of_partition_numbers(self, n, count):
        assert len(abelian_templates(n)) == count

    def test_translation_rows_form_a_regular_group(self):
        rows = _translation_rows((2, 2))
        group = generate_group([Permutation(r) for r in rows])
        assert group.order == 4
        assert rows[0] == (0, 1, 2, 3)
        for n in range(1, 17):
            for name, parts in abelian_templates(n):
                act = _translation_rows(parts)
                assert len(act) == n
                # row e maps 0 to e, so the rows are distinct and transitive
                assert [row[0] for row in act] == list(range(n)), name
                for u in range(n):
                    for v in range(n):
                        assert act[u][v] == act[v][u], name
                        assert all(
                            act[u][act[v][y]] == act[act[u][v]][y] for y in range(n)
                        ), name
                # in an abelian group of type Z/d_1 x ... x Z/d_r, exactly
                # prod gcd(m, d_i) elements g satisfy m * g == 0
                orders = [Permutation(row).order() for row in act]
                for m in range(1, n + 1):
                    if n % m == 0:
                        expected = prod(gcd(m, d) for d in parts)
                        assert sum(m % o == 0 for o in orders) == expected, name


def _stabilizer_transporters(
    perms: list[tuple[int, ...]],
) -> dict[tuple, dict[tuple, tuple[int, ...]]]:
    """Orbits of Stab(0) on Sym(n) by conjugation, with one transporter each.

    Returns {r: {s: f}} over the orbit representatives r (the least
    permutation of each orbit, as ``perms`` is in lexicographic order), where
    f fixes 0 and f o r o f^-1 == s, for every s in the orbit of r.  Two
    permutations share an orbit exactly when they have the same cycle type
    and the same length of the cycle through 0; f is read off by aligning
    their cycle notations, 0's cycle first and starting at 0, the other
    cycles longest first.
    """
    reps: dict[tuple, tuple[tuple[int, ...], list[int]]] = {}
    out: dict[tuple, dict[tuple, tuple[int, ...]]] = {}
    for s in perms:
        first, *rest = _cycles(s)
        rest.sort(key=len, reverse=True)
        key = (len(first), tuple(map(len, rest)))
        seq = [x for cycle in (first, *rest) for x in cycle]
        if key not in reps:
            reps[key] = (s, seq)
            out[s] = {}
        r, seq_r = reps[key]
        f = [0] * len(s)
        for a, b in zip(seq_r, seq):
            f[a] = b
        out[r][s] = tuple(f)
    return out


def tuple_full_search(n, budget):
    """Reference: a row-by-row full search with rows held as tuples.

    Row d ranges over Sym(n), a pair whose points are both set is checked
    pointwise, a pair with one unset point forces that point's row, and a
    pair with two unset points waits on the lesser one.  Its Stab(0) orbits
    come from ``_stabilizer_transporters``, not from the library's orbit walk,
    and the search over ``_symmetric(n)`` has a different tree, so the two
    are compared as sets of tables.
    """
    perms = list(itertools.permutations(range(n)))
    shared = {p: p for p in perms}
    transporters = _stabilizer_transporters(perms)
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
        if forced[d] is not None:
            candidates = (forced[d],)
        elif d:
            candidates = perms
        else:  # row 0 takes one value per Stab(0)-orbit
            candidates = transporters
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
                    for f in transporters[rows[0]].values():
                        inv = sorted(range(n), key=f.__getitem__)
                        moved = [None] * n
                        for x, row in enumerate(rows):
                            moved[f[x]] = shared[tuple(f[row[w]] for w in inv)]
                        out.append(tuple(moved))
                else:
                    dfs(d + 1)
            for slot in reversed(added_p):
                pending[slot].pop()
            for slot in added_f:
                forced[slot] = None
        rows[d] = None

    dfs(0)
    return out


@pytest.fixture(scope="module")
def full_census():
    """Full-mode output for n = 1..5, searched once per module."""
    return {
        n: brute_force_enumerate(n, SearchConfig(mode="full-bruteforce"))
        for n in range(1, 6)
    }


@pytest.fixture(scope="module")
def census16():
    """Restricted-mode output at n = 16, searched once per module."""
    return brute_force_enumerate(16)


class SearchWork:
    """The work of the oracle searches run while it is installed: the
    budgets they make, the leaf records they make, and the K_r transporter
    pairs that the loop of ``_group_search`` builds (its side-1 walks with
    no stabiliser; the carry's own walks keep stabilisers)."""

    def __init__(self, monkeypatch):
        self.budgets, self.leaves, self.built = [], 0, 0
        walk, budget, leaf = oracle_module._orbit_walk, _Budget, _Leaf

        def walking(gens, points, size, side=1, stabilise=False, roots=None):
            out = walk(gens, points, size, side, stabilise, roots)
            if side == 1 and not stabilise:
                self.built += sum(len(pairs) for pairs, _ in out.values())
            return out

        def budgeting(*args):
            self.budgets.append(budget(*args))
            return self.budgets[-1]

        def recording(transitive):
            self.leaves += 1
            return leaf(transitive)

        monkeypatch.setattr(oracle_module, "_orbit_walk", walking)
        monkeypatch.setattr(oracle_module, "_Budget", budgeting)
        monkeypatch.setattr(oracle_module, "_Leaf", recording)

    @property
    def expansions(self) -> int:
        return self.budgets[-1].used  # the search's; its config's comes first


@pytest.fixture(scope="module")
def census6():
    """Full-mode output at n = 6, searched once per module, with the
    :class:`SearchWork` of its search."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        work = SearchWork(monkeypatch)
        out = brute_force_enumerate(6, SearchConfig(mode="full-bruteforce"))
    return out, work


class TestFullBruteForce:
    def test_counts(self, full_census):
        counts = {n: len(found) for n, found in full_census.items()}
        assert counts == {1: 1, 2: 2, 3: 12, 4: 168, 5: 2640}

    # (labeled tables, isomorphism classes, indecomposable classes) for
    # n = 1..6: Etingof-Schedler-Soloviev (1999); Akgun-Mereb-Vendramin
    # (arXiv:2008.04483)
    PUBLISHED = (
        (1, 1, 1), (2, 2, 1), (12, 5, 1), (168, 23, 5), (2640, 88, 1), (82080, 595, 10),
    )

    def test_published_census(self, full_census, census6):
        censuses = {**full_census, 6: census6[0]}
        for n, (labeled, classes, indecomposable) in enumerate(self.PUBLISHED, 1):
            report = dedupe_by_isomorphism(censuses[n])
            assert len(censuses[n]) == labeled, n
            assert len(report.classes) == classes, n
            assert sum(is_indecomposable(e.witness) for e in report.classes) == (
                indecomposable
            ), n
            assert sum(e.raw_count for e in report.classes) == labeled, n
            # orbit-stabiliser: a class has n! / |Aut(X)| labeled members
            assert all(factorial(n) % e.raw_count == 0 for e in report.classes), n

    def test_search_work_at_six(self, census6):
        # pinned: the expansions, leaf records and K_r transporter pairs of
        # the search (13,680 pairs when every orbit of every K_r was walked)
        out, work = census6
        assert (len(out), work.expansions, work.leaves, work.built) == (
            82080, 525398, 2053, 186,
        )

    def test_output_closed_under_relabeling(self, full_census):
        for n in range(1, 5):
            found = set(full_census[n])
            assert all(not find_violations(X.table, limit=1) for X in found)
            for f in itertools.permutations(range(n)):
                assert all(relabel(X, f) in found for X in found), (n, f)

    def test_stabilizer_orbits(self):
        for n, orbits in ((1, 1), (2, 2), (3, 4), (4, 7), (5, 12)):
            perms = list(itertools.permutations(range(n)))
            transporters = _stabilizer_transporters(perms)
            assert len(transporters) == orbits
            assert sorted(s for by in transporters.values() for s in by) == perms
            for r, by_target in transporters.items():
                assert r == min(by_target)
                for s, f in by_target.items():
                    assert f[0] == 0 and sorted(f) == list(range(n))
                    # f o r o f^-1 == s
                    assert all(f[r[x]] == s[f[x]] for x in range(n))

    def test_reduced_node_counts(self):
        # row 0 ranges over one value per Stab(0)-orbit; unreduced, the
        # row-by-row reference expanded 106 / 9,546 / 4,228,212 nodes.
        # Pinned: the reduced reference's expansions, then the full search's,
        # where row 1 also ranges over one value per orbit of the
        # stabiliser of row 0 and point 1 (1,398 / 83,501 at n = 4 / 5
        # with the reduction at row 0 alone), and a candidate whose square
        # x.x an assigned point already holds is dropped before it counts
        # (58 / 1,205 / 52,500 without that), and, once row 0 is set, one
        # whose pair ranks below row 0's (31 / 505 / 20,965 without that)
        for n, row_nodes, nodes in ((3, 82, 20), (4, 2578, 224), (5, 279431, 7870)):
            budget, reference_budget = _Budget(10 ** 8), _Budget(10 ** 8)
            tuple_full_search(n, reference_budget)
            full_search(n, budget)
            assert (reference_budget.used, budget.used) == (row_nodes, nodes), n

    def test_pinned_digest(self):
        # pinned at n = 5 when only row 0 was keyed on orbits: a tree that is
        # cut further may drop or repeat no table
        found = tables_of(full_search(5, _Budget(10 ** 8)))
        assert len(set(found)) == len(found)
        assert table_digest(found) == (
            "799bbf54be15f651d0996103ad87099300078e9e21732c5121ab30a9970b3c67"
        )

    def test_search_equals_tuple_reference(self):
        # the same tables, each found once; n = 1 never reaches the search
        for n in range(2, 6):
            found = tables_of(full_search(n, _Budget(10 ** 8)))
            assert len(set(found)) == len(found), n
            assert sorted(found) == sorted(tuple_full_search(n, _Budget(10 ** 8))), n

    def test_search_without_symmetry(self):
        # the engine on a nonabelian group with no reduction: every element
        # its own key, carried by the identity alone, and a transversal of
        # the identity alone, so no pair rank bounds another.  Pinned: its
        # expansions (6 / 82 / 4,034 / 578,832 before squares were kept
        # distinct)
        for n, nodes in ((2, 4), (3, 46), (4, 1836), (5, 264644)):
            perms, _, mul, inv = _sym_table(n)
            budget, carry = _Budget(10 ** 8), _orbit_walk([], n, len(perms))
            trans = [(perms[0], tuple(range(len(perms))))]
            found = tables_of(group_search(perms, mul, inv, carry, trans, budget))
            assert len(set(found)) == len(found), n
            expected = tables_of(full_search(n, _Budget(10 ** 8)))
            assert sorted(found) == sorted(expected), n
            assert budget.used == nodes, n

    def test_keys_wider_than_one_byte(self):
        # the codes of the full search's group at n = 6, for its 720 rows:
        # joined, they must sort and equate random tables as the tables
        # themselves do, tables a row apart by 256 ranks included, which a
        # one-byte code would confuse
        group = _symmetric(6)
        perms, codes = group.act, group.code
        assert len(perms) == len(codes) == 720
        code = dict(zip(perms, codes))
        rng = random.Random(720)
        tables = [tuple(rng.choices(perms, k=6)) for _ in range(400)]
        for t in tables[:200]:
            e = perms.index(t[5])
            tables.append(t[:5] + (perms[(e + 256) % 720],))
            tables.append(t[:5] + (perms[e - 256],))
        tables += tables[:100]  # equal tables
        key = {t: b"".join(map(code.__getitem__, t)) for t in tables}
        assert sorted(tables, key=key.__getitem__) == sorted(tables)
        assert len(set(key.values())) == len(set(tables)) == 800
        assert {len(k) for k in key.values()} == {12}

    def test_cayley_table(self):
        for n in range(1, 6):
            perms, index, mul, inv = _sym_table(n)
            assert perms == list(itertools.permutations(range(n)))
            assert [index[p] for p in perms] == list(range(len(perms)))
            # entry by entry against a row-by-row comprehension
            old = [[index[tuple(map(p.__getitem__, q))] for q in perms] for p in perms]
            assert list(map(list, mul)) == old, n
            group = [Permutation(p) for p in perms]
            for i, f in enumerate(group):
                assert perms[inv[i]] == f.inverse().images
                for j, g in enumerate(group):
                    assert perms[mul[i][j]] == f.compose(g).images

    def test_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            brute_force_enumerate(
                5, SearchConfig(max_candidates=1000, mode="full-bruteforce")
            )
        assert str(err.value) == (
            "full-bruteforce search at n = 5 used up its budget of 1000 expansions"
        )

    def test_exhaustive_product_oracle_small(self):
        # independent check: try every row assignment and count axiom
        # survivors; each also has distinct squares x.x (Rump), the premise
        # on which the search drops a candidate whose square is taken
        for n in (2, 3):
            perms = list(itertools.permutations(range(n)))
            survivors = [
                rows
                for rows in itertools.product(perms, repeat=n)
                if not find_violations(rows, limit=1)
            ]
            assert all(
                len({row[x] for x, row in enumerate(rows)}) == n for rows in survivors
            ), n
            found = brute_force_enumerate(n, SearchConfig(mode="full-bruteforce"))
            assert sorted(survivors) == [X.table for X in found], n

    def test_two_point_structures(self):
        found = brute_force_enumerate(2, SearchConfig(mode="full-bruteforce"))
        assert [X.table for X in found] == [
            ((0, 1), (0, 1)),  # all-identity
            ((1, 0), (1, 0)),  # shift
        ]

    def test_outputs_are_valid_and_sorted(self):
        found = brute_force_enumerate(4, SearchConfig(mode="full-bruteforce"))
        encodings = [row_major(X) for X in found]
        assert encodings == sorted(encodings)
        assert all(not find_violations(X.table, limit=1) for X in found)

    def test_restricted_is_a_subset_of_full(self):
        full = set(brute_force_enumerate(4, SearchConfig(mode="full-bruteforce")))
        restricted = brute_force_enumerate(4, SearchConfig())
        assert set(restricted) <= full

    def test_size_limits(self):
        with pytest.raises(ValueError):
            brute_force_enumerate(10, SearchConfig(mode="full-bruteforce"))
        with pytest.raises(ValueError):
            brute_force_enumerate(26, SearchConfig())
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            brute_force_enumerate(0)


def _automorphisms(parts: tuple[int, ...], act: list[tuple[int, ...]]):
    """Every automorphism of the template group G, streamed, never listed.

    The images of the basis generators range over the elements of order
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

    def extend(i: int, imgs: list[int]):
        # imgs maps the flattened prefix (x_1, ..., x_i) to x_1 g_1 + ... + x_i g_i
        if i == len(parts):
            yield tuple(imgs)
            return
        for mult in multiples:
            if len(mult) == parts[i]:
                nxt = [act[u][m] for u in imgs for m in mult]
                if len(set(nxt)) == len(nxt):
                    yield from extend(i + 1, nxt)

    return extend(0, [0])


def _automorphism_transporters(
    parts: tuple[int, ...], act: list[tuple[int, ...]]
) -> dict[int, dict[int, tuple[int, ...]]]:
    """Orbits of Aut(G) on the template group G, with one transporter each.

    Returns {r: {s: alpha}} over the orbit representatives r (the least point
    of each orbit), where alpha is an automorphism with alpha(r) = s, for
    every s in the orbit of r, the first that :func:`_automorphisms` yields.
    """
    reach: list[dict[int, tuple[int, ...]]] = [{} for _ in act]
    for alpha in _automorphisms(parts, act):
        for x, s in enumerate(alpha):
            reach[x].setdefault(s, alpha)
    return {r: reach[r] for r in range(len(act)) if min(reach[r]) == r}


def abelian_template_search(parts, budget):
    """Reference: the offset quick-find written for abelian templates alone.

    It adds offsets with the translation rows, in whichever order comes
    first, which only an abelian group allows, and branches on the first
    free point in index order; the library's search branches on the largest
    class without a value, so the two trees differ but the tables do not.

    All row assignments from one regular template satisfying the axiom.

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
    *difference* of two row values.  The search therefore keeps the points
    in classes of known differences: every pair constraint is merged in as
    soon as both its points are assigned, contradictions prune immediately,
    and a point whose class has a known value admits exactly one candidate.
    The classes are an offset quick-find: each point stores its root and its
    offset to the root, each root its member list and its value, if known.
    A merge relabels the smaller class, so undoing it on backtracking
    truncates the larger class's member list and shifts the moved offsets
    back; two classes that both have values are compared, never merged.
    """
    act = _translation_rows(parts)  # act[u][v] is also the group sum u + v
    n = len(act)
    transporters = _automorphism_transporters(parts, act)
    inv = [act[e].index(0) for e in range(n)]
    root = list(range(n))
    off = [0] * n  # a[i] == a[root[i]] + off[i]
    members = [[i] for i in range(n)]  # members[r], for each root r
    value = [-1] * n  # value[r] == a[r] for a root r, or -1 if unknown
    assign = [-1] * n
    trail: list[tuple[int, int, int]] = []  # (big, small, d), or (r, -1, 0)
    out: list[tuple] = []

    def pin(i: int, e: int) -> bool:
        # impose a[i] == e
        r = root[i]
        v = act[e][inv[off[i]]]
        if value[r] >= 0:
            return value[r] == v
        value[r] = v
        trail.append((r, -1, 0))
        return True

    def union(i: int, j: int, delta: int) -> bool:
        # impose a[i] == a[j] + delta, i.e. a[ri] == a[rj] + d
        ri, rj = root[i], root[j]
        d = act[act[off[j]][delta]][inv[off[i]]]
        if ri == rj:
            return d == 0
        if value[ri] >= 0 and value[rj] >= 0:
            return value[ri] == act[value[rj]][d]
        if len(members[ri]) > len(members[rj]):
            ri, rj, d = rj, ri, inv[d]
        for m in members[ri]:  # relabel the smaller class ri into rj
            root[m] = rj
            off[m] = act[off[m]][d]
        members[rj].extend(members[ri])
        if value[ri] >= 0:
            value[rj] = act[value[ri]][inv[d]]
        trail.append((rj, ri, d))
        return True

    def rollback(mark: int) -> None:
        while len(trail) > mark:
            big, small, d = trail.pop()
            if small < 0:
                value[big] = -1
                continue
            moved = members[small]
            del members[big][-len(moved):]
            back = inv[d]
            for m in moved:
                root[m] = small
                off[m] = act[off[m]][back]
            if value[small] >= 0:  # the merge gave big its value
                value[big] = -1

    assigned: list[int] = []

    def next_point() -> tuple[int, int]:
        # prefer a point of a class with a known value: it admits one
        # candidate and assigning it feeds its pair constraints back into
        # the search
        first_free = -1
        for pt in range(n):
            if assign[pt] >= 0:
                continue
            v = value[root[pt]]
            if v >= 0:
                return pt, act[v][off[pt]]
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
            ok = pin(pt, e)
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


class TestPublishedTheorems:
    """Published theorems on every finite cycle set, checked on the
    censuses that the oracle finds."""

    def test_square_free_tables_decompose(self, full_census, census16):
        # Rump (Adv. Math. 193, 2005): a finite square-free cycle set with
        # more than one point is decomposable
        tables = [X for found in full_census.values() for X in found] + census16
        square_free = [X for X in tables if X.n > 1 and is_square_free(X)]
        assert len(square_free) == 432
        assert not any(map(is_indecomposable, square_free))

    def test_prime_sizes_have_only_the_shift(self, full_census):
        # Etingof, Schedler and Soloviev (Duke Math. J. 100, 1999): an
        # indecomposable cycle set of prime size p is the shift; on the full
        # census up to 5 and the restricted census up to 23
        censuses = [full_census[p] for p in (2, 3, 5)]
        censuses += [brute_force_enumerate(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
        for tables in censuses:
            report = dedupe_by_isomorphism(X for X in tables if is_indecomposable(X))
            (entry,) = report.classes
            assert are_isomorphic(entry.witness, trivial_cycle_set(report.size)) is not None

    def test_cyclic_classes_are_the_papers_family(self, census16):
        # the paper's own claim: every indecomposable class with cyclic
        # group and mpl >= 2 that the restricted oracle finds is a member of
        # the prime-power family, all but the shift of the spec route's
        expected = {4: 1, 8: 1, 9: 2, 16: 3, 25: 4}
        for n, count in expected.items():
            tables = census16 if n == 16 else brute_force_enumerate(n)
            report = dedupe_by_isomorphism(X for X in tables if is_indecomposable(X))
            witnesses = [
                e.witness for e in report.classes
                if e.group_type == "cyclic" and e.mpl >= 2
            ]
            for X in witnesses:
                assert _certificate(build_prime_power(extract_spec(X))) == _certificate(X)
            (p, k), = factorize(n).items()
            assert len(witnesses) == count
            assert len(classify_cyclic_prime_power(p, k).classes) == count + 1

    def test_abelian_row_groups_are_multipermutation(self, full_census, census16):
        # Cedo, Jespers and Okninski (Adv. Math. 224, 2010): a cycle set
        # whose row group is abelian has a multipermutation level.  At
        # n = 16, one table per search leaf: the rest are its relabellings
        tables = [X for found in full_census.values() for X in found]
        tables += {X._leaf: X for X in census16}.values()
        abelian = [X for X in tables if _commute(list(dict.fromkeys(X.table)))]
        assert len(tables) - len(abelian) == 684  # the converse fails at n = 4
        assert all(mpl(X) is not None for X in abelian)

    def test_square_free_tables_decompose_at_six(self, census6):
        # Rump's theorem, as above, on the full census at n = 6
        square_free = [X for X in census6[0] if is_square_free(X)]
        assert len(square_free) == 7680
        assert not any(map(is_indecomposable, square_free))

    def test_abelian_row_groups_are_multipermutation_at_six(self, census6):
        # Cedo, Jespers and Okninski's theorem, as above, on the full census
        # at n = 6, one table per search leaf
        tables = {X._leaf: X for X in census6[0]}.values()
        abelian = [X for X in tables if _commute(list(dict.fromkeys(X.table)))]
        assert (len(tables), len(tables) - len(abelian)) == (2053, 606)
        assert all(mpl(X) is not None for X in abelian)

    def test_square_free_sizes_are_multipermutation(self, full_census, census6):
        # Cedo and Okninski (Adv. Math. 430, 2023, as recalled here, and
        # checked here by the oracle): an indecomposable cycle set of
        # square-free size has a multipermutation level.  On the full census
        # at 2, 3, 5 and 6, one table per search leaf at 6, and on the
        # restricted census at every composite square-free size up to 22
        tables = [X for n in (2, 3, 5) for X in full_census[n] if is_indecomposable(X)]
        six = {X._leaf: X for X in census6[0] if is_indecomposable(X)}.values()
        assert sorted(map(mpl, six)) == [1] + [2] * 9
        for n in (6, 10, 14, 15, 21, 22):
            restricted = [X for X in brute_force_enumerate(n) if is_indecomposable(X)]
            tables += {X._leaf: X for X in restricted}.values()
        assert len(tables) == 1 + 2 + 24 + 6
        assert all(mpl(X) is not None for X in tables)

    # (class count by mpl, raw spec count) of the spec route at each (p, k)
    # that the test below builds, as measured; where a rule is noted below,
    # the entry is checked against it too
    SPEC_ROUTE = {
        (2, 2): ((1, 1), 1), (2, 3): ((1, 1), 1), (2, 4): ((1, 3), 3),
        (2, 5): ((1, 3, 2), 7), (2, 6): ((1, 7, 2), 15), (2, 7): ((1, 7, 4, 2), 31),
        (3, 2): ((1, 2), 2), (3, 3): ((1, 2, 2), 8), (3, 4): ((1, 8, 0, 2), 26),
        (5, 2): ((1, 4), 4), (5, 3): ((1, 4, 4), 24), (7, 2): ((1, 6), 6),
        (11, 2): ((1, 10), 10), (13, 2): ((1, 12), 12),
    }

    def test_spec_route_counts(self):
        # Observations, not theorems: the class count of the spec route is
        # C(p, k) = p^(k // 2) + p^(ceil(k / 2) - 1) - 1, one less for p = 2
        # from k = 3; the raw spec count is p^(k - 1) - 1, but 2^(k - 2) - 1
        # for p = 2 from k = 3 ((2, 2) has 1 spec); the split by mpl is
        # 1, p - 1 at k = 2 and 1, p - 1, p - 1 at odd p^3
        for (p, k), (split, specs) in self.SPEC_ROUTE.items():
            classes = p ** (k // 2) + p ** ((k + 1) // 2 - 1) - 1 - (p == 2 and k >= 3)
            raw = 2 ** (k - 2) - 1 if p == 2 and k >= 3 else p ** (k - 1) - 1
            report = classify_cyclic_prime_power(p, k)
            levels = [e.mpl for e in report.classes]
            got = tuple(levels.count(m) for m in range(1, max(levels) + 1))
            assert (len(report.classes), got) == (classes, split), (p, k)
            assert len(enumerate_specs(p, k)) == specs == raw, (p, k)
            if k == 2 or (k == 3 and p > 2):
                assert split == (1,) + (p - 1,) * (k - 1), (p, k)

    def test_constructions_are_nondegenerate(self):
        # Rump (Adv. Math. 193, 2005): a finite cycle set is non-degenerate.
        # The search assumes it, so it is checked on the constructions: the
        # spec family at every prime power up to 2^7, 3^4, 5^3 and 13^2, and
        # the p^2 builders for p <= 13
        sizes = {2: range(2, 8), 3: range(2, 5), 5: (2, 3), 7: (2,), 11: (2,), 13: (2,)}
        tables = [X for p, ks in sizes.items() for k in ks for X in _spec_family(p, k)]
        tables += [build_p2_level2(p, t) for p in sizes for t in range(1, p)]
        tables += map(build_elementary_abelian, sizes)
        assert len(tables) == 205
        assert all(map(is_nondegenerate, tables))


class TestRestrictedBruteForce:
    def test_size_four_census(self):
        raw = brute_force_enumerate(4, SearchConfig())
        assert len(raw) == 20
        indec = [X for X in raw if is_indecomposable(X)]
        report = dedupe_by_isomorphism(indec)
        assert len(report.classes) == 3

    def test_size_six_has_only_level_one(self):
        raw = brute_force_enumerate(6, SearchConfig())
        indec = [X for X in raw if is_indecomposable(X)]
        assert indec and all(mpl(X) == 1 for X in indec)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_enumerate(4, SearchConfig(max_candidates=3))

    def test_budget_message_names_the_template(self):
        # Z/4 takes 20 expansions and Z/2xZ/2 13, so the 30th falls in the
        # second template
        with pytest.raises(BudgetExceeded) as err:
            brute_force_enumerate(4, SearchConfig(max_candidates=30))
        assert str(err.value) == (
            "regular-abelian-restricted search at n = 4 used up its budget of "
            "30 expansions in template Z/2xZ/2, after 20 expansions in earlier "
            "templates"
        )

    def test_one_point(self):
        assert abelian_templates(1) == [("Z/1", (1,))]
        assert brute_force_enumerate(1) == [CycleSet([[0]])]

    @pytest.mark.parametrize("mode", oracle_module.MODES)
    def test_one_point_needs_no_search(self, monkeypatch, mode):
        # both modes answer n = 1 before any search, within a budget of 1
        def no_search(*args):
            raise AssertionError("n = 1 reached the search")

        monkeypatch.setattr(oracle_module, "_group_search", no_search)
        config = SearchConfig(max_candidates=1, mode=mode)
        assert brute_force_enumerate(1, config) == [CycleSet([[0]])]

    def test_pinned_output_order(self, census16):
        # sha256 of the entries, one byte each, in output order: it pins the
        # merge across templates and the final sort, which the per-template
        # digests, taken after sorting, do not see
        chain = itertools.chain.from_iterable
        digest = hashlib.sha256(bytes(chain(chain(X.table for X in census16))))
        assert len(census16) == 64384
        assert digest.hexdigest() == (
            "f0a6d76e4f148ea8dbe1d47b12d9ba052ef3d9fdf9c116bb8aed9909f6bf9b32"
        )

    def test_merge_equals_the_sorted_union(self, census16):
        # the merge across templates, one sort and repeats dropped, gives the
        # set union of the templates' outputs, sorted, at every size with
        # more than one template
        chain = itertools.chain.from_iterable
        for n in range(2, 21):
            templates = abelian_templates(n)
            if len(templates) < 2:
                continue
            found = [
                tables_of(template_search(parts, _Budget(10 ** 8)))
                for _, parts in templates
            ]
            merged = sorted(set(chain(found)))
            out = census16 if n == 16 else brute_force_enumerate(n)
            assert [X.table for X in out] == merged, n
            if n == 16:
                assert (sum(map(len, found)), len(merged)) == (81344, 64384)

    def test_merge_keeps_the_earliest_copy(self, monkeypatch):
        # a table that several templates find is the copy of the first
        # template whose search finds it, with the leaf it was carried from
        # there.  Each leaf record is named by its template and its place
        # among the records of that template's search, alone and in the merge
        made = []

        def recording(transitive):
            made.append(_Leaf(transitive))
            return made[-1]

        def naming(*args):
            del made[:]
            merge(*args)
            named.update((id(leaf), (len(calls), k)) for k, leaf in enumerate(made))
            calls.append(made[:])  # keeps every record alive, so no id is reused

        monkeypatch.setattr(oracle_module, "_Leaf", recording)
        merge = oracle_module._group_search
        for n in range(2, 21):
            templates = abelian_templates(n)
            if len(templates) < 2:
                continue
            first: dict = {}  # table -> the name of its first finder's leaf
            carried = 0
            for i, (_, parts) in enumerate(templates):
                del made[:]
                out = template_search(parts, _Budget(10 ** 8))
                carried += len(out)
                place = {id(leaf): k for k, leaf in enumerate(made)}
                for X in out:
                    first.setdefault(X.table, (i, place[id(X._leaf)]))
            named: dict = {}
            calls: list = []
            monkeypatch.setattr(oracle_module, "_group_search", naming)
            out = brute_force_enumerate(n)
            monkeypatch.setattr(oracle_module, "_group_search", merge)
            assert len(calls) == len(templates) and len(out) == len(first), n
            assert [named[id(X._leaf)] for X in out] == [first[X.table] for X in out], n
            assert carried > len(first), n  # repeats, so a later copy would show

    def test_output_rows_are_shared(self, census16):
        # the templates share one tuple per distinct row; templates that each
        # built their own rows would give 80 row objects for the 48 at n = 16
        for n, out in ((8, brute_force_enumerate(8)), (12, brute_force_enumerate(12)),
                       (16, census16)):
            rows = [row for X in out for row in X.table]
            assert len({id(row) for row in rows}) == len(set(rows)), n
        assert len(set(rows)) == 48

    # (raw tables, indecomposable tables) for n = 1..15, unchanged by the
    # Aut(G)-orbit reduction of the template search
    CENSUS = (
        (1, 1), (2, 1), (3, 2), (20, 10), (5, 4), (18, 2), (7, 6), (496, 48),
        (171, 66), (60, 4), (11, 10), (684, 20), (13, 12), (182, 6), (375, 8),
    )

    def test_pinned_census(self):
        for n, (raw_count, indecomposable) in enumerate(self.CENSUS, start=1):
            raw = brute_force_enumerate(n)
            assert (len(raw), sum(map(is_indecomposable, raw))) == (
                raw_count, indecomposable,
            ), n

    def test_reduced_node_counts(self):
        # expansions summed over the templates of each size: any change to
        # the search tree (scheduling, pruning, the Aut(G) reduction) shows.
        # Pinned: the first-free reference's expansions, then the template search's,
        # which branches on the largest class without a value and lets
        # a[1] take one value per orbit of the automorphisms that fix a[0]
        # and point 1 (2,894 / 1,362 / 11,442 at n = 8 / 9 / 12 before; n = 14
        # and 15 have only cyclic templates, where only the identity fixes 1),
        # drops a candidate whose square x.x an assigned point already holds
        # (2,267 / 1,021 / 10,380 / 5,313 / 6,414 without that), and, once
        # a[0] is set, one whose pair ranks below a[0]'s (1,172 / 531 /
        # 5,175 / 2,601 / 3,553 without that)
        for n, first_free_nodes, nodes in (
            (8, 3109, 523), (9, 1445, 225), (12, 17989, 1871),
            (14, 11260, 941), (15, 20240, 1213),
        ):
            budget, reference_budget = _Budget(10 ** 8), _Budget(10 ** 8)
            for _, parts in abelian_templates(n):
                abelian_template_search(parts, reference_budget)
                template_search(parts, budget)
            assert (reference_budget.used, budget.used) == (first_free_nodes, nodes), n

    # sha256 of the sorted tables' entries as bytes, for each template's
    # search, pinned when only a[0] was keyed on orbits: a tree that is cut
    # further may drop or repeat no table
    DIGESTS = {
        "Z/16": "f0a53c79e823e341a58a3ed82d53d8223949b3a52379f1362f53b4aeb1bb9dc4",
        "Z/8xZ/2": "722ea46be9e7defc71e2fb037878d6cbce28ca1193d9b56e87816b512ef5cf8e",
        "Z/4xZ/4": "7d691a9dcea3d84e9c800eaefab936ffe5b73263d35f50264973f5a556250ad2",
        "Z/4xZ/2xZ/2": "149c12ad418e4983372dc876962b312e546b918ad6b35b75ad82c2ea41a3e3e9",
        "Z/2xZ/2xZ/2xZ/2": "8c95472e25d177d09241e77878338445e094b0c182bd891dd3b594fba527b503",
        "Z/25": "29c93dcbb846c0e2c190ca0afc0548d5ef1b2619cf7987600d0ef1c03069ab5e",
        "Z/5xZ/5": "c95feca125f0457bb4bb928c8d18eda34e7618a3f08e74e8b362d8c40bce0362",
    }

    # each template's expansions and distinct search leaves, pinned at the
    # whole-group tie break: a search that regroups the leaves or expands
    # other nodes fails here
    WORK = {
        "Z/16": (2438, 277), "Z/8xZ/2": (6797, 902), "Z/4xZ/4": (3171, 515),
        "Z/4xZ/2xZ/2": (9147, 1297), "Z/2xZ/2xZ/2xZ/2": (10363, 1529),
        "Z/25": (11757, 631), "Z/5xZ/5": (5139, 627),
    }

    def test_pinned_template_digests(self):
        for name, parts in abelian_templates(16) + abelian_templates(25):
            budget = _Budget(10 ** 8)
            out = template_search(parts, budget)
            found = tables_of(out)
            assert len(set(found)) == len(found), name
            assert table_digest(found) == self.DIGESTS[name], name
            assert (budget.used, len({X._leaf for X in out})) == self.WORK[name], name

    def test_carry_bound_template(self):
        # (Z/3)^3 at n = 27, above the cap: few expansions, many tables to
        # carry from each leaf, pinned before the carry read one acceptance
        # list per set of least-rank points
        out = template_search((3, 3, 3), _Budget(47526))
        found = sorted(tables_of(out))
        assert (len(found), len({X._leaf for X in out})) == (348219, 7525)
        assert all(map(tuple.__ne__, found, found[1:]))  # no repeats
        assert table_digest(found) == (
            "1c6753a50a01b19c54efd1ea55c16f8f0989ac44d1a0361b261071a8eeb33f6c"
        )

    def test_search_equals_abelian_reference(self):
        # the same tables, each found once; the trees differ, so the order may.
        # n = 1 never reaches the search
        for n in range(2, 13):
            for name, parts in abelian_templates(n):
                found = tables_of(template_search(parts, _Budget(10 ** 8)))
                assert len(set(found)) == len(found), name
                reference = abelian_template_search(parts, _Budget(10 ** 8))
                assert sorted(found) == sorted(reference), name

    def test_root_branches_at_point_zero(self):
        # the carry is keyed on a[0], so the first branch must be at point 0:
        # with one key r, only the identity to carry by, no stabiliser
        # generators and a transversal of the identity alone, every table
        # found has row 0 == act[r], and the keys together find every table
        # once
        for n in (4, 8, 9, 12):
            for name, parts in abelian_templates(n):
                act = _translation_rows(parts)
                inv = [row.index(0) for row in act]
                identity = act[0]
                found = []
                for r in range(n):
                    carry = {r: ([(identity, identity)], [])}
                    trans = [(identity, identity)]
                    part = group_search(act, act, inv, carry, trans, _Budget(10 ** 8))
                    part = tables_of(part)
                    assert all(table[0] == act[r] for table in part), (name, r)
                    found += part
                whole = tables_of(template_search(parts, _Budget(10 ** 8)))
                assert sorted(found) == sorted(whole)

    def test_aut_orbits(self):
        orbits = {
            parts: sorted(_automorphism_transporters(parts, _translation_rows(parts)))
            for parts in ((16,), (4, 4), (2, 2, 2, 2))
        }
        assert orbits == {(16,): [0, 1, 2, 4, 8], (4, 4): [0, 1, 2], (2, 2, 2, 2): [0, 1]}

    def test_transporters_are_automorphisms(self):
        for n in (8, 9, 12, 16):
            for _, parts in abelian_templates(n):
                act = _translation_rows(parts)
                for r, by_target in _automorphism_transporters(parts, act).items():
                    for s, alpha in by_target.items():
                        assert alpha[r] == s and sorted(alpha) == list(range(n))
                        assert all(
                            alpha[act[u][v]] == act[alpha[u]][alpha[v]]
                            for u in range(n) for v in range(n)
                        )

    def test_template_output_closed_under_relabeling(self):
        # the output of each template is closed under the automorphisms of
        # the template group and under the translations, which together
        # preserve "every row is a translation"
        for n in range(2, 13):
            for _, parts in abelian_templates(n):
                act = _translation_rows(parts)
                found = tables_of(template_search(parts, _Budget(10 ** 8)))
                assert len(set(found)) == len(found)
                found = set(found)
                maps = [
                    alpha
                    for by_target in _automorphism_transporters(parts, act).values()
                    for alpha in by_target.values()
                ] + act
                for f in maps:
                    inv = sorted(range(n), key=f.__getitem__)
                    for table in found:
                        moved = tuple(
                            tuple(f[table[x][y]] for y in inv) for x in inv
                        )
                        assert moved in found
                assert relabel(CycleSet(table), f).table == moved


def transitive_by_walk(table) -> bool:
    return len(_orbit(table)) == len(table)


class TestLeafVerdict:
    """Each search walks the rows of its leaves, not of every table it
    carries from them: the verdict it hands on must be the orbit walk's
    verdict on each table itself."""

    def test_oracle_tables_carry_the_walk_verdict(self, full_census, census16):
        for n in range(2, 17):
            out = census16 if n == 16 else brute_force_enumerate(n)
            assert all(X._leaf.transitive is transitive_by_walk(X.table) for X in out), n
        for n in range(2, 6):
            out = full_census[n]
            assert all(X._leaf.transitive is transitive_by_walk(X.table) for X in out), n

    @staticmethod
    def check(found, where):
        # every table the search hands out, with its leaf's verdict
        verdicts = [X._leaf.transitive is transitive_by_walk(X.table) for X in found]
        assert all(verdicts), where

    def test_searches_list_their_transitive_tables(self):
        for n in range(2, 17):
            for name, parts in abelian_templates(n):
                self.check(template_search(parts, _Budget(10 ** 8)), name)
        for n in range(2, 6):
            self.check(full_search(n, _Budget(10 ** 8)), n)


class TestLeafRecord:
    """The tables carried from one search leaf share one record, and the
    dedupe certifies each record once.  That is sound only if the tables
    that share a record are isomorphic: their leafless copies must have one
    certificate and one orbit verdict, and the dedupe must give the report
    of their leafless copies, which it certifies one by one."""

    @staticmethod
    def searches():
        for n in range(2, 6):
            yield n, full_search(n, _Budget(10 ** 8))
        for n in range(2, 13):
            for name, parts in abelian_templates(n):
                yield name, template_search(parts, _Budget(10 ** 8))

    def test_tables_of_one_leaf_are_isomorphic(self):
        for where, found in self.searches():
            leaves: dict = {}
            for X in found:
                leaves.setdefault(X._leaf, []).append(CycleSet(X.table))
            assert None not in leaves, where
            for copies in leaves.values():
                assert len({_certificate(Y) for Y in copies}) == 1, where
                assert len({transitive_by_walk(Y.table) for Y in copies}) == 1, where

    def test_dedupe_equals_the_dedupe_of_leafless_copies(self, full_census, census16):
        indecomposable = [X for X in census16 if is_indecomposable(X)]
        for tables in (*full_census.values(), indecomposable):
            report = dedupe_by_isomorphism(tables)
            expected = dedupe_by_isomorphism([CycleSet(X.table) for X in tables])
            assert report == expected
            assert report_to_dict(report) == report_to_dict(expected)

    @staticmethod
    def certificates(monkeypatch, tables) -> int:
        """The certificates one dedupe of ``tables`` computes."""
        calls = []

        def counting(X, types=None):
            calls.append(X)
            return _certificate(X, types)

        monkeypatch.setattr(classify_module, "_certificate", counting)
        dedupe_by_isomorphism(tables)
        return len(calls)

    def test_one_certificate_per_leaf(self, monkeypatch, full_census, census16):
        # pinned: the certificates of the dedupe, one per leaf, then those
        # of the leafless copies, one per table
        for tables, leaves, copies in (
            (full_census[5], 140, 2640),
            ([X for X in census16 if is_indecomposable(X)], 61, 960),
            ([X for X in brute_force_enumerate(9) if is_indecomposable(X)], 4, 66),
        ):
            assert len(tables) == copies and len({X._leaf for X in tables}) == leaves
            assert self.certificates(monkeypatch, tables) == leaves
            leafless = [CycleSet(X.table) for X in tables]
            assert self.certificates(monkeypatch, leafless) == copies


class TestOrbitWalk:
    """The carry that each oracle mode builds with ``_orbit_walk`` from its
    own generators, against the reference transporters: the same keys, and
    each key's c[r] list its orbit once each.  Then, for each key r but the
    identity's, the walk of K_r, the stabiliser of r and point 1, against
    K_r filtered out of the whole group."""

    @staticmethod
    def point_one_of(monkeypatch, group):
        # each key's generators of K_r, as the search takes them, with no
        # candidate for point 1, so no search reaches past point 0
        seen = []
        monkeypatch.setattr(
            oracle_module, "_orbit_roots", lambda gens, size: seen.append(gens) or []
        )
        _group_search(group, _Budget(10 ** 8), {})
        monkeypatch.undo()
        assert len(seen) == len(group.carry)
        return dict(zip(group.carry, seen))

    def test_template_orbits_equal_the_automorphism_orbits(self):
        for n in range(1, 26):
            for name, parts in abelian_templates(n):
                act = _translation_rows(parts)
                carry = abelian(parts).carry
                reference = _automorphism_transporters(parts, act)
                assert list(carry) == sorted(reference), name
                for r, (pairs, _) in carry.items():
                    reached = [c[r] for f, c in pairs]
                    assert len(set(reached)) == len(reached), (name, r)
                    assert set(reached) == set(reference[r]), (name, r)
                    for f, c in pairs:
                        assert f == c and sorted(f) == list(range(n)), (name, r)
                        assert all(
                            f[act[u][v]] == act[f[u]][f[v]]
                            for u in range(n) for v in range(n)
                        ), (name, r)

    def test_sym_orbits_equal_the_stabilizer_orbits(self):
        for n in range(1, 7):
            perms, index, _, _ = _sym_table(n)
            carry = _symmetric(n).carry
            reference = _stabilizer_transporters(perms)
            assert list(carry) == [index[r] for r in reference], n
            for r, (pairs, _) in carry.items():
                reached = [c[r] for f, c in pairs]
                assert len(set(reached)) == len(reached), (n, r)
                assert set(reached) == {index[s] for s in reference[perms[r]]}, (n, r)
                for f, c in pairs:
                    assert f[0] == 0 and sorted(f) == list(range(n)), (n, r)
                    inv = sorted(range(n), key=f.__getitem__)
                    assert all(
                        perms[c[e]] == tuple(f[p[inv[x]]] for x in range(n))
                        for e, p in enumerate(perms)
                    ), (n, r)

    @staticmethod
    def check_inner(inner, orbit, r, size, where):
        # each key s is the least of its orbit(s) under the true K_r, its
        # c[s] list that orbit once each, the orbits cover the elements, and
        # every transporter fixes point 0, point 1 and element r
        covered = []
        for s, (pairs, _) in inner.items():
            reached = [c[s] for f, c in pairs]
            assert len(set(reached)) == len(reached), where
            assert set(reached) == orbit(s) and min(reached) == s, where
            covered += reached
            assert all((f[0], f[1], c[r]) == (0, 1, r) for f, c in pairs), where
        assert sorted(covered) == list(range(size)), where

    def test_template_point_one_orbits_equal_the_stabilizer_orbits(self, monkeypatch):
        for n in range(2, 26):
            for name, parts in abelian_templates(n):
                act = _translation_rows(parts)
                auts = list(_automorphisms(parts, act))
                for r, gens in self.point_one_of(monkeypatch, abelian(parts)).items():
                    if r == 0:  # the identity's key, whose K_r the search never walks
                        assert gens == []
                        continue
                    k_r = {alpha for alpha in auts if alpha[r] == r and alpha[1] == 1}
                    inner = _orbit_walk(gens, n, n)
                    self.check_inner(
                        inner, lambda s: {alpha[s] for alpha in k_r}, r, n, (name, r)
                    )
                    for pairs, _ in inner.values():
                        assert all(f == c and f in k_r for f, c in pairs), (name, r)

    def test_sym_point_one_orbits_equal_the_stabilizer_orbits(self, monkeypatch):
        for n in range(2, 6):
            perms, index, mul, inv = _sym_table(n)
            for r, gens in self.point_one_of(monkeypatch, _symmetric(n)).items():
                if r == 0:  # the identity's key, as above
                    assert gens == []
                    continue
                # K_r: the permutations fixing 0 and 1 that commute with perms[r]
                conj = {
                    i: tuple(mul[m][inv[i]] for m in mul[i])
                    for i, f in enumerate(perms)
                    if f[:2] == (0, 1) and mul[i][r] == mul[r][i]
                }
                inner = _orbit_walk(gens, n, len(perms))
                self.check_inner(
                    inner, lambda s: {c[s] for c in conj.values()}, r, len(perms), (n, r)
                )
                for pairs, _ in inner.values():
                    assert all(conj.get(index[f]) == c for f, c in pairs), (n, r)

    @classmethod
    def point_one_generators(cls, monkeypatch):
        # (where, n, elements, generators of K_r) for every key r of every
        # template up to 25 and of full mode up to 5, as the search takes
        # them: none under the identity's key, where every element is its own
        for n in range(2, 26):
            for name, parts in abelian_templates(n):
                for r, gens in cls.point_one_of(monkeypatch, abelian(parts)).items():
                    yield (name, r), n, n, gens
        for n in range(2, 6):
            size = factorial(n)
            for r, gens in cls.point_one_of(monkeypatch, _symmetric(n)).items():
                yield (n, r), n, size, gens

    def test_roots_are_the_walks_keys(self, monkeypatch):
        # the labelling that keys point 1 finds the least member of each
        # orbit, in order, as the walk over the same generators does
        for where, n, size, gens in self.point_one_generators(monkeypatch):
            assert _orbit_roots(gens, size) == list(_orbit_walk(gens, n, size)), where

    def test_walk_from_some_roots(self, monkeypatch):
        # a walk from some of the roots, in any order and with repeats, holds
        # the whole walk's entries for those roots: the same pairs, in the
        # same order, so a carry that walks only where a leaf lands is the same
        rng = random.Random(40)
        for where, n, size, gens in self.point_one_generators(monkeypatch):
            whole = _orbit_walk(gens, n, size)
            some = rng.sample(list(whole), (len(whole) + 1) // 2)
            part = _orbit_walk(gens, n, size, roots=some + some[:1])
            assert list(part) == list(dict.fromkeys(some)), where
            assert all(part[r] == whole[r] for r in some), where

    def test_walks_only_where_a_leaf_lands(self, monkeypatch):
        # pinned: the K_r transporter pairs that a search builds, 1,440 at
        # full n = 5 and 320 at n = 16 when every orbit of every K_r was
        # walked, next to its expansions and leaf records, which that cut
        # leaves as they were
        for n, mode, pinned in (
            (5, "full-bruteforce", (59, 7870, 140)),
            (16, "regular-abelian-restricted", (116, 31916, 4520)),
        ):
            with monkeypatch.context() as patch:
                work = SearchWork(patch)
                brute_force_enumerate(n, SearchConfig(mode=mode))
            assert (work.built, work.expansions, work.leaves) == pinned, n

    def test_point_one_is_the_second_branch(self):
        # a[1] is keyed on the orbits of K_r, so the second branch must be at
        # point 1: with one key r, only the identity to carry it by, r's
        # stabiliser generators and a transversal of the identity alone, the
        # tables found are those with row 0 == act[r], each once
        for n in (4, 8, 9, 12):
            for name, parts in abelian_templates(n):
                act = _translation_rows(parts)
                inv = [row.index(0) for row in act]
                identity = act[0]
                found = tables_of(template_search(parts, _Budget(10 ** 8)))
                for r, (_, stab) in abelian(parts).carry.items():
                    keyed = {r: ([(identity, identity)], stab)}
                    trans = [(identity, identity)]
                    part = group_search(act, act, inv, keyed, trans, _Budget(10 ** 8))
                    part = tables_of(part)
                    assert len(set(part)) == len(part), (name, r)
                    assert sorted(part) == sorted(t for t in found if t[0] == act[r])


class TestTransversal:
    """Both searches carry each table they find by the t_c, t_c(0) == c,
    that the points of its least pair rank accept: t_c is the transposition
    (0 c) in full mode and the translation y -> y + c in a template.
    Checked here by brute force on every table a search hands out, each
    once, with each row's rank read off the reference transporters' orbits,
    the identity's last, and the rank of the pair (x, row) read at 0 through
    t_x^-1: the t_c^-1 that put a least-ranked pair at point 0 are those with
    c among the least points Y, and the rule, c is the least of t_c(Y) for
    the Y of t_c^-1 of the table, accepts exactly one of them, the least
    point of Y."""

    @staticmethod
    def ranks_of(orbits):
        # {s: its orbit's key} -> {s: rank}, the identity's orbit last
        keys = sorted(set(orbits.values()), key=lambda r: (r == min(orbits), r))
        return {s: keys.index(r) for s, r in orbits.items()}

    @staticmethod
    def check(tables, trans, pair_rank, where):
        n = len(trans)
        found = set(tables)
        assert len(found) == len(tables), where
        for table in tables:
            ranks = [pair_rank(table, x) for x in range(n)]
            least = [x for x in range(n) if ranks[x] == min(ranks)]
            accepted = []
            for c, t in enumerate(trans):
                moved = relabel(CycleSet(table), _inverse(t)).table
                assert moved in found, where
                moved_ranks = [pair_rank(moved, x) for x in range(n)]
                assert sorted(moved_ranks) == sorted(ranks), where
                at_zero = moved_ranks[0] == min(moved_ranks)
                assert at_zero == (c in least), (where, table, c)
                ys = [y for y in range(n) if moved_ranks[y] == moved_ranks[0]]
                if at_zero and min(t[y] for y in ys) == c:
                    accepted.append(c)
            assert accepted == least[:1], (where, table)

    def test_full_census(self):
        for n in range(2, 5):
            perms = list(itertools.permutations(range(n)))
            rank = self.ranks_of({
                s: r for r, by in _stabilizer_transporters(perms).items() for s in by
            })
            trans = []
            for c in range(n):
                t = list(range(n))
                t[0], t[c] = c, 0
                trans.append(tuple(t))

            def pair_rank(table, x):
                t = trans[x]
                return rank[tuple(t[table[x][t[y]]] for y in range(n))]

            found = tables_of(full_search(n, _Budget(10 ** 8)))
            self.check(found, trans, pair_rank, n)

    def test_templates(self):
        for n in range(2, 10):
            for name, parts in abelian_templates(n):
                act = _translation_rows(parts)
                rank = self.ranks_of({
                    s: r
                    for r, by in _automorphism_transporters(parts, act).items()
                    for s in by
                })
                found = tables_of(template_search(parts, _Budget(10 ** 8)))
                # row x is the translation by row[0], and t_x maps rows to
                # themselves
                self.check(found, act, lambda table, x: rank[table[x][0]], name)


class TestDedupe:
    def test_merges_equal_constructions(self, golden4):
        report = dedupe_by_isomorphism([golden4, build_p2_level2(2, 1)])
        assert len(report.classes) == 1
        assert report.classes[0].raw_count == 2

    def test_separates_different_levels(self, golden4):
        report = dedupe_by_isomorphism([trivial_cycle_set(4), golden4])
        assert len(report.classes) == 2

    def test_a_level_two_entry_walks_its_tower_once(self, monkeypatch):
        # mpl and f_invariant read one walk: 121 -> 11 -> 1, two retractions
        sizes = []
        retract = cycleset_module.retract
        monkeypatch.setattr(cycleset_module, "retract",
                            lambda X: sizes.append(X.n) or retract(X))
        (entry,) = dedupe_by_isomorphism([build_p2_level2(11, 3)]).classes
        assert sizes == [121, 11]
        assert (entry.mpl, entry.f_invariant) == (2, tuple(3 * k % 11 for k in range(11)))

    def test_empty(self):
        report = dedupe_by_isomorphism([])
        assert report.size == 0 and report.classes == ()

    def test_mixed_sizes_rejected(self, golden4):
        with pytest.raises(ValueError):
            dedupe_by_isomorphism([golden4, trivial_cycle_set(5)])

    def test_classes_pairwise_non_isomorphic(self):
        raw = brute_force_enumerate(9, SearchConfig())
        indec = [X for X in raw if is_indecomposable(X)]
        report = dedupe_by_isomorphism(indec)
        witnesses = [e.witness for e in report.classes]
        for i, a in enumerate(witnesses):
            for b in witnesses[i + 1:]:
                assert are_isomorphic(a, b) is None

    def test_every_structure_lands_in_exactly_one_class(self):
        raw = brute_force_enumerate(4, SearchConfig())
        indec = [X for X in raw if is_indecomposable(X)]
        report = dedupe_by_isomorphism(indec)
        assert sum(e.raw_count for e in report.classes) == len(indec)
        for X in indec:
            homes = [
                e for e in report.classes if are_isomorphic(X, e.witness) is not None
            ]
            assert len(homes) == 1

    def test_row_types_are_computed_once_per_table(self, monkeypatch):
        indec = [X for X in brute_force_enumerate(8) if is_indecomposable(X)]
        assert len(indec) == 48
        calls = []
        cycles = cycleset_module._cycles

        def counting(row):
            calls.append(row)
            return cycles(row)

        monkeypatch.setattr(cycleset_module, "_cycles", counting)
        dedupe_by_isomorphism(indec)
        assert 0 < len(calls) <= sum(len(set(X.table)) for X in indec)
        # the certificate reads nothing but the table: relabeled copies share it
        f = (3, 0, 5, 1, 7, 2, 4, 6)
        for X in indec:
            assert _certificate(relabel(X, f)) == _certificate(X)

    @pytest.mark.parametrize("kind,arg", [
        *(("full", n) for n in range(1, 6)),
        *(("restricted", n) for n in range(1, 15)),
        ("spec-family", (2, 6)),
        ("spec-family", (5, 3)),
    ], ids=str)
    def test_report_equals_pairwise_reference(self, full_census, kind, arg):
        if kind == "full":
            tables = full_census[arg]
        elif kind == "restricted":
            tables = brute_force_enumerate(arg)
        else:
            tables = _spec_family(*arg)
        got = json.dumps(report_to_dict(dedupe_by_isomorphism(tables)))
        assert got == json.dumps(report_to_dict(pairwise_dedupe(tables)))

    def test_dedupe_makes_no_are_isomorphic_call(self, monkeypatch):
        calls = []

        def counting(X, Y):
            calls.append((X, Y))
            return are_isomorphic(X, Y)

        for module in (cycleset_module, classify_module):
            monkeypatch.setattr(module, "are_isomorphic", counting, raising=False)
        assert len(classify_pq(11, 11).classes) == 12
        report = classify_cyclic_prime_power(13, 2)
        assert len(report.classes) == 13
        assert all(e.group_type == "cyclic" for e in report.classes)
        # decomposable tables take the same route
        full = SearchConfig(mode="full-bruteforce")
        assert len(dedupe_by_isomorphism(brute_force_enumerate(3, full)).classes) == 5
        assert calls == []

    def test_report_makes_no_group_closure(self, monkeypatch):
        def closure(*args, **kwargs):
            raise AssertionError("generate_group called")

        for module in (cycleset_module, classify_module):
            monkeypatch.setattr(module, "generate_group", closure, raising=False)
        report = classify_pq(11, 11)
        assert len(report.classes) == 12
        assert all(e.group_order == 121 for e in report.classes)
        report = classify_cyclic_prime_power(13, 2)
        assert [e.group_type for e in report.classes] == ["cyclic"] * 13

    @given(st.data())
    def test_table_order_is_encoding_order(self, data):
        # the dedupe and spec mode sort by the table, row by row
        n = data.draw(st.integers(1, 4))
        table = st.lists(st.permutations(range(n)), min_size=n, max_size=n)
        xs = [CycleSet(t) for t in data.draw(st.lists(table, max_size=12))]
        by_table = sorted(xs, key=lambda X: X.table)
        assert by_table == sorted(xs, key=row_major)

    def test_shared_row_types_keep_the_certificate(self, full_census, census16):
        indecomposable = [X for X in census16 if is_indecomposable(X)]
        assert len(indecomposable) == 960
        for tables in (*full_census.values(), indecomposable):
            types = {}
            for X in tables:
                assert _certificate(X, types) == _certificate(X), X

    def test_witness_is_least_encoding_member(self, golden4):
        from cyclesets import relabel

        shuffled = relabel(golden4, (1, 0, 3, 2))
        report = dedupe_by_isomorphism([shuffled, golden4])
        assert report.classes[0].witness == min(
            (golden4, shuffled), key=row_major
        )


class TestClassifyPq:
    def test_distinct_primes(self):
        report = classify_pq(2, 3)
        assert len(report.classes) == 1
        entry = report.classes[0]
        assert entry.mpl == 1 and entry.group_type == "cyclic" and entry.group_order == 6
        assert report.templates_searched == ("Z/6",)

    @pytest.mark.parametrize("p,q", [(2, 5), (2, 7), (3, 5), (3, 7), (2, 11)])
    def test_distinct_primes_match_the_oracle(self, p, q):
        # the p != q theorem: the trivial shift is the only class; its
        # labelled copies are the translations by the (p - 1)(q - 1) units
        report = classify_pq(p, q, cross_check=True)
        assert report.templates_searched == (f"Z/{p * q}",)
        assert [(e.mpl, e.group_type, e.group_order, e.raw_count)
                for e in report.classes] == [(1, "cyclic", p * q, (p - 1) * (q - 1))]
        assert report.classes[0].witness == trivial_cycle_set(p * q)

    def test_p_equals_two(self):
        report = classify_pq(2, 2)
        assert len(report.classes) == 3
        profiles = sorted((e.mpl, e.group_type) for e in report.classes)
        assert profiles == [(1, "cyclic"), (2, "abelian-noncyclic"), (2, "cyclic")]

    def test_p_equals_three(self):
        report = classify_pq(3, 3)
        assert len(report.classes) == 4
        profiles = sorted((e.mpl, e.group_type) for e in report.classes)
        assert profiles == [
            (1, "cyclic"),
            (2, "abelian-noncyclic"),
            (2, "cyclic"),
            (2, "cyclic"),
        ]
        fs = sorted(e.f_invariant for e in report.classes if e.f_invariant)
        assert fs == [(0, 1, 2), (0, 2, 1)]

    def test_p_equals_thirteen(self):
        # the paper's p + 1 classes
        report = classify_pq(13, 13)
        assert len(report.classes) == 14
        profiles = sorted((e.mpl, e.group_type) for e in report.classes)
        assert profiles == sorted(
            [(1, "cyclic"), (2, "abelian-noncyclic")] + [(2, "cyclic")] * 12
        )

    def test_p_equals_five_matches_the_oracle(self, monkeypatch):
        # the oracle at RESTRICTED_MODE_MAX: both templates of order 25
        raw, budget = [], 10 ** 7

        def recording(n, config=None):
            assert (config.mode, config.max_candidates) == (
                "regular-abelian-restricted", budget
            )
            raw.extend(brute_force_enumerate(n, config))
            return raw

        monkeypatch.setattr(classify_module, "brute_force_enumerate", recording)
        report = classify_pq(5, 5, budget, cross_check=True)
        assert report.templates_searched == ("Z/25", "Z/5xZ/5")
        assert [(e.mpl, e.group_type, e.raw_count) for e in report.classes] == [
            (2, "abelian-noncyclic", 480), (1, "cyclic", 20),
        ] + [(2, "cyclic", 20)] * 4
        assert (len(raw), sum(map(is_indecomposable, raw))) == (19325, 580)

    def test_without_cross_check(self):
        report = classify_pq(3, 3, cross_check=False)
        assert report.templates_searched == ("parameterized",)
        assert len(report.classes) == 4

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            classify_pq(4, 3)

    def test_cross_check_size_limit(self, monkeypatch):
        # refused by the oracle's own size check, before any search
        def no_search(*args):
            raise AssertionError("the oracle ran past its size limit")

        monkeypatch.setattr(oracle_module, "_abelian", no_search)
        monkeypatch.setattr(oracle_module, "_group_search", no_search)
        with pytest.raises(ValueError, match="^restricted mode supports n <= 25$"):
            classify_pq(2, 13, cross_check=True)

    def test_determinism(self):
        a = json.dumps(report_to_dict(classify_pq(2, 2)))
        b = json.dumps(report_to_dict(classify_pq(2, 2)))
        assert a == b

    def test_matching_guard_detects_mismatches(self, golden4):
        good = dedupe_by_isomorphism([golden4])
        other = dedupe_by_isomorphism([trivial_cycle_set(4)])
        _require_matching(good, good)
        with pytest.raises(OracleDisagreement) as err:
            _require_matching(good, other)
        message = str(err.value)
        assert message.startswith("oracle class at size 4 ")
        assert "mpl=1, group cyclic of order 4, f_invariant=None" in message
        assert message.endswith(repr(trivial_cycle_set(4)))
        both = dedupe_by_isomorphism([golden4, trivial_cycle_set(4)])
        with pytest.raises(OracleDisagreement):
            _require_matching(good, both)
        with pytest.raises(OracleDisagreement) as err:
            _require_matching(both, other)
        message = str(err.value)
        assert message.startswith("parameterized class at size 4 ")
        assert "mpl=2, group cyclic of order 4, f_invariant=(0, 1)" in message
        assert message.endswith(repr(golden4))


class TestGroupTypeOf:
    def test_group_types(self):
        cyclic = generate_group([Permutation.cycle(4)])
        klein = generate_group(
            [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))]
        )
        sym3 = generate_group(
            [Permutation((1, 0, 2)), Permutation((1, 2, 0))]
        )
        assert group_type_of(cyclic) == "cyclic"
        assert group_type_of(klein) == "abelian-noncyclic"
        assert group_type_of(sym3) == "nonabelian"

    def test_order_and_type_equal_the_closure(self, full_census):
        # decomposable and nonabelian tables take the closure; restricted
        # tables with abelian transitive row groups do not
        tables = [X for n in range(1, 5) for X in full_census[n]]
        tables += [X for n in range(1, 13) for X in brute_force_enumerate(n)]
        # bijective rows (0 1), (3 4), (1 2), (0 3), (0 3): transitive, and
        # each row commutes with the next, but the first and third do not
        tables.append(CycleSet([
            (1, 0, 2, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 3, 4), (3, 1, 2, 0, 4),
            (3, 1, 2, 0, 4),
        ]))
        for X in tables:
            group = permutation_group(X)
            assert _group_order_type(X) == (group.order, group_type_of(group))


class TestBudgetMessages:
    # each driver's budget names the search and the phase it ran out in,
    # and raises that message once, over no other exception
    @pytest.mark.parametrize("call,message", [
        (lambda: classify_cyclic_prime_power(2, 5, max_candidates=100),
         "spec enumeration at (p, k) = (2, 5) used up its budget of 100 expansions "
         "while lifting exponent chain (5, 2, 0) at size 2^5"),
        (lambda: classify_pq(3, 3, max_candidates=20, cross_check=True),
         "regular-abelian-restricted search at n = 9 used up its budget of 20 "
         "expansions in template Z/9, after 0 expansions in earlier templates"),
        (lambda: brute_force_enumerate(8, SearchConfig(max_candidates=1)),
         "regular-abelian-restricted search at n = 8 used up its budget of 1 "
         "expansions in template Z/8, after 0 expansions in earlier templates"),
        (lambda: brute_force_enumerate(
            4, SearchConfig(max_candidates=5, mode="full-bruteforce")),
         "full-bruteforce search at n = 4 used up its budget of 5 expansions"),
    ], ids=["cyclic-prime-power", "pq", "restricted-mode", "full-mode"])
    def test_message_is_raised_once(self, call, message):
        with pytest.raises(BudgetExceeded) as err:
            call()
        assert str(err.value) == message
        assert err.value.__context__ is None


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_candidates=0)
        with pytest.raises(ValueError):
            SearchConfig(mode="nonsense")

    def test_the_oracle_has_two_modes(self):
        # the spec listing is the spec route's, built by the CLI's
        # enumerate --mode spec, not a mode of the oracle
        assert classify_module.MODES == ("full-bruteforce", "regular-abelian-restricted")
        with pytest.raises(ValueError) as err:
            SearchConfig(mode="spec-parameterized")
        assert str(err.value) == f"mode must be one of {classify_module.MODES}"

    @pytest.mark.parametrize("n,config,message", [
        (26, None, "^restricted mode supports n <= 25$"),
        (7, SearchConfig(mode="full-bruteforce"), "^full mode supports n <= 6$"),
    ])
    def test_size_cap_comes_before_any_group(self, monkeypatch, n, config, message):
        # the oracle's cap is checked before a template's group, Sym(n) or
        # its table is built, so none of the builders runs
        def no_work(*args, **kwargs):
            raise AssertionError("the oracle ran past its size cap")

        for name in ("_group_search", "_sym_table", "_symmetric", "_abelian",
                     "_translation_rows"):
            monkeypatch.setattr(oracle_module, name, no_work)
        with pytest.raises(ValueError, match=message):
            brute_force_enumerate(n, config)

    @pytest.mark.parametrize("call", [
        lambda budget: enumerate_specs(3, 2, max_candidates=budget),
        lambda budget: classify_cyclic_prime_power(3, 2, max_candidates=budget),
        lambda budget: classify_pq(3, 3, max_candidates=budget, cross_check=True),
    ], ids=["specs", "cyclic-prime-power", "pq"])
    def test_drivers_take_the_bound_alone(self, call):
        # the same range check as SearchConfig's, and a SearchConfig in
        # place of the bound fails before any search
        with pytest.raises(ValueError, match="^budget must be positive$"):
            call(0)
        with pytest.raises(TypeError):
            call(SearchConfig())


class TestOracleModule:
    """The oracle stands alone in ``cyclesets.oracle``, and ``classify`` and
    the package still give every name they gave."""

    FORBIDDEN = {"construct", "classify", "cli", "jsonio"}

    def test_imports_nothing_from_the_construction_route(self):
        # the oracle is the second route to every classification, so it
        # imports nothing from the first or from the front ends, at module
        # level or inside a function, relatively or by absolute name
        tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        assert {"cycleset", "perm", "errors", "arith"} <= set(imported)
        assert not [name for name in imported if self.FORBIDDEN & set(name.split("."))]

    def test_classify_reexports_the_oracle(self):
        for name in ("MODES", "FULL_MODE_MAX", "RESTRICTED_MODE_MAX", "SearchConfig",
                     "abelian_templates", "brute_force_enumerate"):
            assert getattr(classify_module, name) is getattr(oracle_module, name), name
        assert cyclesets.brute_force_enumerate is oracle_module.brute_force_enumerate
        for name in ("AUTO_CROSS_CHECK_MAX", "ClassEntry", "ClassificationReport",
                     "classify_cyclic_prime_power", "classify_pq", "dedupe_by_isomorphism",
                     "enumerate_specs", "group_type_of"):
            assert getattr(classify_module, name) is getattr(cyclesets, name), name

    def test_package_names_unchanged(self):
        # the 61 imported names; none of the 7 submodules they come from
        names = cyclesets.__all__
        assert len(names) == 61 and len(set(names)) == 61
        assert not [name for name in names
                    if isinstance(getattr(cyclesets, name), types.ModuleType)]
        bound: dict = {}
        exec("from cyclesets import *", bound)
        assert sorted(set(bound) - {"__builtins__"}) == sorted(names)
