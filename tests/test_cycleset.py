import enum
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from cyclesets import (
    CycleSet,
    HypothesesError,
    InvalidCycleSet,
    Permutation,
    RetractionError,
    SearchConfig,
    Solution,
    SolutionError,
    TableError,
    are_isomorphic,
    brute_force_enumerate,
    build_elementary_abelian,
    build_p2_level2,
    f_invariant,
    find_violations,
    from_solution,
    is_cyclic,
    is_indecomposable,
    is_nondegenerate,
    is_square_free,
    mpl,
    permutation_group,
    relabel,
    retract,
    retraction_tower_sizes,
    squaring_map,
    to_solution,
    is_transitive,
    trivial_cycle_set,
    validate,
    validate_solution,
)
from cyclesets import cycleset as cycleset_module
from cyclesets.classify import _spec_family
from cyclesets.cycleset import _certificate, _normalize_table, _row_types
from cyclesets.perm import _orbit
from conftest import GOLDEN4_TABLE

ALL_IDENTITY_4 = [[0, 1, 2, 3]] * 4

# valid, but every row distinct and the quotient does not shrink; taken from
# the full size-4 census (its permutation group is nonabelian of order 8)
IRRETRACTABLE_4 = ((0, 1, 3, 2), (2, 3, 1, 0), (1, 0, 2, 3), (3, 2, 0, 1))

# a restricted-mode table on Z/10: rows 0 and 5 are x -> x + 5, the rest the
# identity, so seeds of least row cycle type each close at one point
TWO_INVOLUTIONS_10 = tuple(
    tuple((y + 5 * (x % 5 == 0)) % 10 for y in range(10)) for x in range(10)
)


class TestValidate:
    def test_golden_table_is_valid(self, golden4):
        assert validate(GOLDEN4_TABLE) == golden4

    def test_singleton(self):
        assert validate([[0]]).n == 1

    def test_two_point_failure_reports_first_triple(self):
        # sigma_0 = id, sigma_1 = (0 1)
        violations = find_violations([[0, 1], [1, 0]])
        assert violations[0] == ("axiom", 0, 1, 0)
        with pytest.raises(InvalidCycleSet):
            validate([[0, 1], [1, 0]])

    def test_non_bijective_row_reported_before_triples(self):
        violations = find_violations([[0, 0], [1, 0]])
        assert ("row", 0) == violations[0]

    def test_violation_limit(self):
        broken = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]  # constant rows
        assert len(find_violations(broken, limit=2)) == 2

    @pytest.mark.parametrize("limit", [0, -1])
    @pytest.mark.parametrize("table", [GOLDEN4_TABLE, [[0, 1], [1, 0]], None])
    def test_limit_below_one_is_rejected(self, table, limit):
        # an empty list would let validate accept a table that breaks the
        # axiom; the limit is refused before the table is read
        for check in (find_violations, validate):
            with pytest.raises(ValueError, match="limit must be at least 1"):
                check(table, limit)

    @pytest.mark.parametrize("limit", [1, 0])
    @pytest.mark.parametrize("table", [
        GOLDEN4_TABLE, [[1, 0], [1, 0]], [[0, 1], [1, 0]], [[0, 0], [1, 0]],
        [[0, 1], [0]], [[0, 2], [1, 0]], [],
    ])
    def test_one_shot_iterables_validate_like_lists(self, table, limit):
        # the table is read once, so generators of generators give the same
        # table, or the same exception, as lists; a limit below 1 comes first
        def outcome(t):
            try:
                return validate(t, limit).table
            except ValueError as e:
                return type(e), str(e), getattr(e, "violations", None)

        expected = outcome(table)
        assert outcome(iter(table)) == expected
        assert outcome([iter(row) for row in table]) == expected
        assert outcome(iter(row) for row in table) == expected

    def test_ragged_table(self):
        with pytest.raises(TableError):
            find_violations([[0, 1], [0]])

    def test_out_of_range_entry(self):
        with pytest.raises(TableError):
            find_violations([[0, 2], [1, 0]])

    def test_empty_table(self):
        with pytest.raises(TableError):
            find_violations([])

    def test_cycleset_constructor_requires_bijective_rows(self):
        with pytest.raises(TableError):
            CycleSet([[0, 0], [1, 0]])


class TestPredicates:
    def test_squaring_of_shift_is_shift(self):
        X = trivial_cycle_set(4)
        assert squaring_map(X) == (1, 2, 3, 0)
        assert is_nondegenerate(X)
        assert not is_square_free(X)

    def test_golden_nondegenerate(self, golden4):
        assert is_nondegenerate(golden4)
        assert squaring_map(golden4) == (1, 0, 3, 2)

    def test_all_identity_is_square_free(self):
        X = CycleSet(ALL_IDENTITY_4)
        assert is_nondegenerate(X)
        assert is_square_free(X)

    def test_eight_point_not_square_free(self, golden8):
        assert not is_square_free(golden8)

    def test_corpus_is_nondegenerate(self, corpus):
        # finite cycle sets are always non-degenerate; checked as a sanity net
        assert all(is_nondegenerate(X) for _, X in corpus)


class TestPermutationGroup:
    def test_golden4_group(self, golden4):
        g = permutation_group(golden4)
        assert g.order == 4
        assert is_cyclic(g) == Permutation.cycle(4)

    def test_golden32_group(self, golden32):
        g = permutation_group(golden32)
        assert g.order == 32
        assert is_cyclic(g) == Permutation.cycle(32)

    def test_all_identity_group_is_trivial(self):
        assert permutation_group(CycleSet(ALL_IDENTITY_4)).order == 1

    def test_indecomposability(self, golden4):
        assert is_indecomposable(golden4)
        assert is_indecomposable(trivial_cycle_set(6))
        assert not is_indecomposable(CycleSet([[0, 1], [0, 1]]))

    @given(st.data())
    def test_indecomposable_iff_group_transitive(self, corpus, data):
        _, X = data.draw(st.sampled_from(corpus))
        f = tuple(data.draw(st.permutations(range(X.n))))
        Y = relabel(X, f)
        expected = is_transitive(permutation_group(Y))
        assert is_indecomposable(Y) == expected == is_indecomposable(X)

    def test_rows_equal_checked_permutations(self, corpus):
        for _, X in corpus:
            assert X.rows() == tuple(Permutation(r) for r in X.table)
            assert X.row(X.n - 1) == Permutation(X.table[-1])


def walked(X):
    """The transitivity verdict by a fresh orbit walk on X's rows."""
    return len(_orbit(X.table)) == X.n


class TestTransitivityVerdict:
    """Oracle tables carry the leaf record of their search leaf, with its
    verdict; every other table starts without one and keeps the verdict in
    a record of its own after its first is_indecomposable call.  The record
    is no part of a table's identity."""

    ORACLE = ((8, SearchConfig()), (9, SearchConfig()),
              (4, SearchConfig(mode="full-bruteforce")))

    def test_oracle_tables_equal_unchecked_copies(self):
        for n, config in self.ORACLE:
            for X in brute_force_enumerate(n, config):
                Y = CycleSet(X.table)
                assert X._leaf.transitive is walked(X) and Y._leaf is None
                assert X == Y and hash(X) == hash(Y) and len({X, Y}) == 1
                assert is_indecomposable(Y) is is_indecomposable(X)
                assert Y._leaf.transitive is X._leaf.transitive

    def test_other_tables_fill_the_slot_on_first_call(self):
        def made_from(X):
            f = tuple(range(1, X.n)) + (0,)
            yield relabel(X, f)
            yield validate(X.table)
            yield from_solution(to_solution(X))
            yield retract(X).quotient

        def check(Y):
            assert Y._leaf is None
            assert is_indecomposable(Y) is walked(Y)
            assert Y._leaf.transitive is walked(Y)
            assert is_indecomposable(Y) is Y._leaf.transitive

        for n, config in self.ORACLE:
            for X in brute_force_enumerate(n, config):
                for Y in made_from(X):
                    check(Y)
                    if Y.n == X.n:  # isomorphic to X, or X itself
                        assert Y._leaf.transitive is X._leaf.transitive
        constructions = _spec_family(2, 3) + _spec_family(3, 2) + [
            build_p2_level2(5, 2), build_elementary_abelian(3), trivial_cycle_set(1),
            CycleSet(ALL_IDENTITY_4), CycleSet(TWO_INVOLUTIONS_10),
        ]
        for Y in constructions:
            check(Y)


def reference_retract(X):
    """Reference: the n^2 scan of every pair (x, y), raising on the first
    pair of classes that gets two values."""
    class_of = {}
    proj = [class_of.setdefault(row, len(class_of)) for row in X.table]
    m = len(class_of)
    qtable = [[-1] * m for _ in range(m)]
    for x in range(X.n):
        for y in range(X.n):
            a, b, c = proj[x], proj[y], proj[X.table[x][y]]
            if qtable[a][b] == -1:
                qtable[a][b] = c
            elif qtable[a][b] != c:
                raise RetractionError(f"quotient ill-defined on classes ({a}, {b})")
    return tuple(proj), CycleSet(qtable)


class TestRetraction:
    def test_golden4_retracts_to_two_point_shift(self, golden4):
        step = retract(golden4)
        assert step.projection == (0, 1, 0, 1)
        assert step.quotient == trivial_cycle_set(2)

    def test_shift_retracts_to_point(self):
        step = retract(trivial_cycle_set(5))
        assert step.quotient.n == 1
        assert step.projection == (0,) * 5

    def test_golden32_retracts_to_golden8(self, golden32, golden8):
        step = retract(golden32)
        assert step.quotient.n == 8
        assert are_isomorphic(step.quotient, golden8) is not None

    def test_ill_defined_quotient_raises(self):
        # row-bijective but not a cycle set; classes {0,1} and {2} conflict
        bad = CycleSet([[1, 2, 0], [1, 2, 0], [0, 1, 2]])
        with pytest.raises(RetractionError, match=r"^quotient ill-defined on classes \(0, 0\)$"):
            retract(bad)
        # class 0 = {0, 1} has a well-defined quotient row; row 2 sends 0
        # and 1, one class, to the classes 0 and 1
        bad = CycleSet([[0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 1, 3], [1, 0, 2, 3]])
        with pytest.raises(RetractionError, match=r"^quotient ill-defined on classes \(1, 0\)$"):
            retract(bad)

    def test_equals_the_reference_scan(self):
        full = SearchConfig(mode="full-bruteforce")
        tables = [X for n in range(1, 6) for X in brute_force_enumerate(n, full)]
        tables += [X for n in range(1, 13) for X in brute_force_enumerate(n)]
        for X in tables:
            step = retract(X)
            assert (step.projection, step.quotient) == reference_retract(X)
            assert type(step.quotient.table[0]) is tuple

    def test_names_the_reference_scans_pair(self):
        # row-bijective tables whose rows repeat, most of them not cycle sets
        rng = random.Random(12)
        raised = 0
        for _ in range(500):
            n = rng.randint(2, 7)
            rows = [rng.sample(range(n), n) for _ in range(rng.randint(1, n))]
            X = CycleSet([rng.choice(rows) for _ in range(n)])
            try:
                expected = reference_retract(X)
            except RetractionError as exc:
                raised += 1
                with pytest.raises(RetractionError, match=rf"^{re.escape(str(exc))}$"):
                    retract(X)
            else:
                step = retract(X)
                assert (step.projection, step.quotient) == expected
        assert 100 < raised < 400

    def test_tower_sizes(self, golden4, golden8, golden32):
        assert retraction_tower_sizes(golden32) == [32, 8, 2, 1]
        assert retraction_tower_sizes(golden8) == [8, 2, 1]
        assert retraction_tower_sizes(golden4) == [4, 2, 1]
        assert retraction_tower_sizes(trivial_cycle_set(6)) == [6, 1]
        assert retraction_tower_sizes(trivial_cycle_set(1)) == [1]

    def test_mpl(self, golden4, golden32):
        assert mpl(trivial_cycle_set(4)) == 1
        assert mpl(golden4) == 2
        assert mpl(golden32) == 3
        assert mpl(trivial_cycle_set(1)) == 0

    def test_mpl_none_for_irretractable(self):
        X = validate(IRRETRACTABLE_4)
        assert retraction_tower_sizes(X) == [4]
        assert mpl(X) is None


class TestSolutionCorrespondence:
    def test_shift_solution_formula(self):
        X = trivial_cycle_set(5)
        s = to_solution(X)
        for x in range(5):
            for y in range(5):
                assert s.r(x, y) == ((y - 1) % 5, (x + 1) % 5)

    def test_all_identity_gives_twist(self):
        s = to_solution(CycleSet(ALL_IDENTITY_4))
        assert all(s.r(x, y) == (y, x) for x in range(4) for y in range(4))

    def test_golden4_solution_passes_all_checks(self, golden4):
        s = to_solution(golden4)
        validate_solution(s.lam, s.rho)
        assert from_solution(s) == golden4

    def test_from_solution_recovers_shift(self):
        X = trivial_cycle_set(5)
        assert from_solution(to_solution(X)) == X

    def test_from_solution_rejects_broken_rho(self, golden4):
        s = to_solution(golden4)
        rho = [list(r) for r in s.rho]
        rho[0][0], rho[0][1] = rho[0][1], rho[0][0]
        with pytest.raises(SolutionError):
            from_solution(Solution(s.lam, rho))

    def test_solution_shape_errors(self):
        with pytest.raises(TableError):
            Solution([[0, 1], [1, 0]], [[0]])

    def test_solution_hash_repr_and_foreign_equality(self):
        s = to_solution(trivial_cycle_set(2))
        assert repr(s) == "Solution(lam=[[1, 0], [1, 0]], rho=[[1, 0], [1, 0]])"
        assert len({s, Solution(s.lam, s.rho)}) == 1
        assert s != (s.lam, s.rho)
        X = trivial_cycle_set(2)
        assert X != [[1, 0], [1, 0]]
        assert X.__eq__(X.table) is NotImplemented

    def test_corpus_roundtrip(self, corpus):
        for name, X in corpus:
            s = to_solution(X)
            validate_solution(s.lam, s.rho)
            assert from_solution(s) == X, name


def reference_normalize_table(table):
    """Reference: the per-entry check of every row."""
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


def reference_find_violations(table, limit=100):
    """Reference: the cubic scan of every triple (x, y, z) in order."""
    rows = reference_normalize_table(table)
    n = len(rows)
    out = []
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


def reference_validate_solution(lam, rho):
    """Reference: six r calls per triple (x, y, z), in order."""
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


def solution_outcome(check, lam, rho):
    """The solution, or the message and witness of the SolutionError."""
    try:
        return check(lam, rho)
    except SolutionError as exc:
        return str(exc), exc.witness


def kernel_tables():
    """Relabelled members of every family up to n = 64, and a seeded sample
    of the full census at n <= 4."""
    rng = random.Random(2024)
    members = [trivial_cycle_set(n) for n in (1, 2, 3, 5, 8, 16, 64)]
    members += [build_p2_level2(p, t) for p in (2, 3, 5, 7) for t in range(1, p)]
    members += [build_elementary_abelian(p) for p in (2, 3, 5, 7)]
    for p, k in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)):
        members += _spec_family(p, k)[1:]
    full = SearchConfig(mode="full-bruteforce")
    for n in (2, 3, 4):
        census = brute_force_enumerate(n, full)
        members += rng.sample(census, min(len(census), 12))
    tables = []
    for X in members:
        images = list(range(X.n))
        rng.shuffle(images)
        tables.append(relabel(X, tuple(images)).table)
    return tables


def row_mutant(table, rng, duplicate=False):
    """The table with two entries of one row swapped or, with ``duplicate``,
    one entry copied over another (a non-bijective row)."""
    n = len(table)
    rows = [list(r) for r in table]
    x = rng.randrange(n)
    i, j = rng.sample(range(n), 2)
    if duplicate:
        rows[x][i] = rows[x][j]
    else:
        rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    return rows


@pytest.fixture(scope="module")
def kernel_corpus():
    return kernel_tables()


def involutive_maps(n):
    """Every (lam, rho) at n points with bijective rows where rho is forced
    by r^2 = id, rho_y(x) = lambda^{-1}_{lambda_x(y)}(x).

    The search runs over the tables T of the lambda^{-1} rows.  rho_y sends
    x to T[u][x] where T[x][u] = y, so rho has bijective rows exactly when
    the pairs (T[x][u], T[u][x]) are distinct over all (x, u); each row of T
    is kept only if its pairs with the rows before it are new."""
    perms = list(itertools.permutations(range(n)))

    def extend(rows, seen):
        k = len(rows)
        if k == n:
            yield rows
            return
        for row in perms:
            new = [(row[k], row[k])]
            for u in range(k):
                new += [(row[u], rows[u][k]), (rows[u][k], row[u])]
            if len(set(new)) == len(new) and seen.isdisjoint(new):
                yield from extend(rows + (row,), seen.union(new))

    for table in extend((), frozenset()):
        lam = [tuple(sorted(range(n), key=row.__getitem__)) for row in table]
        yield lam, [[table[lam[x][y]][x] for x in range(n)] for y in range(n)]


def forced_rho_maps(n):
    """The same maps by the plain loop over every lambda."""
    perms = list(itertools.permutations(range(n)))
    for lam in itertools.product(perms, repeat=n):
        inv = [tuple(sorted(range(n), key=row.__getitem__)) for row in lam]
        rho = [[inv[lam[x][y]][x] for x in range(n)] for y in range(n)]
        if all(len(set(row)) == n for row in rho):
            yield list(lam), rho


class TestPairKernels:
    """The per-pair kernels against the triple scans they replace."""

    def test_find_violations_equals_the_triple_scan(self, kernel_corpus):
        rng = random.Random(7)
        failing = 0
        for table in kernel_corpus:
            mutants = [row_mutant(table, rng, dup) for dup in (False, True)] if len(table) > 1 else []
            for rows in [table, *mutants]:
                full = reference_find_violations(rows, 10**6)
                failing += bool(full)
                for limit in (1, 2, 100, 10**6):
                    assert find_violations(rows, limit) == full[:limit], (rows, limit)
        assert failing > len(kernel_corpus)

    def test_validate_solution_equals_the_triple_scan(self, kernel_corpus):
        rng = random.Random(11)
        witnesses = {"braid identity fails": 0, "r is not involutive": 0, "valid": 0}
        for table in kernel_corpus:
            X = CycleSet(table)
            s = to_solution(X)
            cases = [(s.lam, s.rho)] if X.n <= 32 else []
            for _ in range(3 if X.n > 1 else 0):
                try:
                    t = to_solution(CycleSet(row_mutant(table, rng)))
                except TableError:  # rho is not bijective
                    continue
                cases.append((t.lam, t.rho))
            if X.n > 1:  # swaps inside lambda or rho mostly break involutivity
                cases += [(row_mutant(s.lam, rng), s.rho), (s.lam, row_mutant(s.rho, rng))]
            for lam, rho in cases:
                expected = solution_outcome(reference_validate_solution, lam, rho)
                assert solution_outcome(validate_solution, lam, rho) == expected
                witnesses[expected[0].split(" at ")[0] if isinstance(expected, tuple) else "valid"] += 1
        assert witnesses == {"braid identity fails": 49, "r is not involutive": 192, "valid": 73}

    def test_criterion_equals_the_triple_scan_exhaustively(self):
        for n in (2, 3):
            assert sorted(involutive_maps(n)) == sorted(forced_rho_maps(n))
        counts = []
        for n in (2, 3, 4):
            maps = accepted = 0
            for lam, rho in involutive_maps(n):
                expected = solution_outcome(reference_validate_solution, lam, rho)
                assert solution_outcome(validate_solution, lam, rho) == expected
                maps += 1
                if isinstance(expected, Solution):
                    accepted += 1
                else:
                    assert expected[0].startswith("braid identity fails at ")
            counts.append((maps, accepted))
        # the accepted maps are the labelled cycle sets of the census
        assert counts == [(2, 2), (24, 12), (3360, 168)]

    def test_valid_solutions_skip_the_witness_scan(self, kernel_corpus, monkeypatch):
        def entered(sol):
            raise AssertionError(f"witness scan entered at n = {sol.n}")

        monkeypatch.setattr(cycleset_module, "_braid_witness", entered)
        full = SearchConfig(mode="full-bruteforce")
        census = [brute_force_enumerate(n, full) for n in range(1, 6)]
        assert list(map(len, census)) == [1, 2, 12, 168, 2640]
        for X in [*itertools.chain(*census), *map(CycleSet, kernel_corpus)]:
            s = to_solution(X)
            assert validate_solution(s.lam, s.rho) == s

    def test_valid_solutions_at_64(self):
        for X in (trivial_cycle_set(64), _spec_family(2, 6)[-1]):
            s = to_solution(X)
            assert validate_solution(s.lam, s.rho) == reference_validate_solution(s.lam, s.rho)

    @pytest.mark.parametrize("table, expected", [
        ([[0]], []),
        ([[1, 0], [1, 0]], []),
        ([[0, 1], [1, 0]], [("axiom", 0, 1, 0), ("axiom", 0, 1, 1),
                            ("axiom", 1, 0, 0), ("axiom", 1, 0, 1)]),
        ([[0, 0], [1, 0]], [("row", 0), ("axiom", 0, 1, 1), ("axiom", 1, 0, 1)]),
    ])
    def test_find_violations_at_one_and_two_points(self, table, expected):
        assert reference_find_violations(table, 10**6) == expected
        for limit in (1, 2, 100):
            assert find_violations(table, limit) == expected[:limit]

    def test_validate_solution_at_one_and_two_points(self):
        assert validate_solution([[0]], [[0]]) == Solution([[0]], [[0]])
        bijections = [(0, 1), (1, 0)]
        outcomes = []
        for lam0, lam1, rho0, rho1 in itertools.product(bijections, repeat=4):
            lam, rho = (lam0, lam1), (rho0, rho1)
            expected = solution_outcome(reference_validate_solution, lam, rho)
            assert solution_outcome(validate_solution, lam, rho) == expected
            outcomes.append(expected)
        assert sum(isinstance(o, Solution) for o in outcomes) == 2
        assert ("r is not involutive at (0, 1)", (0, 1)) in outcomes

    def test_braid_witness_at_three_points(self):
        lam = [[0, 2, 1], [0, 2, 1], [1, 2, 0]]
        rho = [[0, 2, 1], [2, 0, 1], [0, 2, 1]]
        with pytest.raises(SolutionError, match=re.escape("braid identity fails at (0, 0, 1)")):
            validate_solution(lam, rho)


class Small(enum.IntEnum):
    ZERO = 0
    ONE = 1


class TestNormalizeTable:
    @pytest.mark.parametrize("table, message", [
        ([[0, True], [1, 0]], "entry True in row 0 out of range 0..1"),
        ([[0, 1], [1.0, 0]], "entry 1.0 in row 1 out of range 0..1"),
        ([[0, 1], [2, -1]], "entry 2 in row 1 out of range 0..1"),
        ([[0, -1], [1, 0]], "entry -1 in row 0 out of range 0..1"),
        ([[0, 1], [1, "0"]], "entry '0' in row 1 out of range 0..1"),
        ([[0, 1], [0]], "row 1 has length 1, expected 2"),
    ])
    def test_rejects_with_the_first_bad_entry(self, table, message):
        for normalize in (reference_normalize_table, _normalize_table):
            with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
                normalize(table)

    def test_accepts_int_enum_members(self):
        table = [[Small.ONE, Small.ZERO], [1, 0]]
        assert _normalize_table(table) == reference_normalize_table(table)
        assert find_violations(table) == []


def reference_are_isomorphic(X, Y):
    """Reference: the recursive search, one call per branch point, kept
    verbatim."""
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


class TestIsomorphism:
    def test_equal_tables_are_isomorphic(self, golden4):
        w = are_isomorphic(golden4, build_p2_level2(2, 1))
        assert w is not None

    def test_different_mpl_not_isomorphic(self, golden4):
        assert are_isomorphic(trivial_cycle_set(4), golden4) is None

    def test_witness_is_a_homomorphism(self, golden4):
        shuffled = relabel(golden4, (2, 0, 3, 1))
        w = are_isomorphic(golden4, shuffled)
        assert w is not None
        for x in range(4):
            for y in range(4):
                assert w[golden4.table[x][y]] == shuffled.table[w[x]][w[y]]

    def test_symmetry_and_reflexivity(self, golden4):
        shuffled = relabel(golden4, (1, 3, 0, 2))
        w = are_isomorphic(golden4, shuffled)
        wb = are_isomorphic(shuffled, golden4)
        assert w is not None and wb is not None
        # the inverse of a forward witness is a valid backward witness
        inv = Permutation(w).inverse().images
        for x in range(4):
            for y in range(4):
                assert inv[shuffled.table[x][y]] == golden4.table[inv[x]][inv[y]]
        assert are_isomorphic(golden4, golden4) is not None

    def test_size_mismatch(self, golden4, golden8):
        assert are_isomorphic(golden4, golden8) is None

    def test_relabel_needs_a_bijection_of_the_points(self):
        with pytest.raises(HypothesesError):
            relabel(trivial_cycle_set(3), (1, 0))

    def test_decomposable_fallback(self):
        # two decomposable tables differing by a relabeling
        X = CycleSet([[0, 1, 2], [0, 1, 2], [0, 1, 2]])
        Y = relabel(X, (1, 2, 0))
        assert are_isomorphic(X, Y) is not None

    def test_invariants_match_on_isomorphic_pairs(self, golden8):
        shuffled = relabel(golden8, (3, 1, 4, 7, 0, 2, 6, 5))
        assert are_isomorphic(golden8, shuffled) is not None
        assert mpl(golden8) == mpl(shuffled)
        assert retraction_tower_sizes(golden8) == retraction_tower_sizes(shuffled)
        assert permutation_group(golden8).order == permutation_group(shuffled).order

    def test_equals_the_reference_on_census_pairs(self):
        # every ordered pair of the full census n <= 4, decomposable tables
        # included
        full = SearchConfig(mode="full-bruteforce")
        for n in range(1, 5):
            tables = brute_force_enumerate(n, full)
            for X in tables:
                for Y in tables:
                    assert are_isomorphic(X, Y) == reference_are_isomorphic(X, Y)

    def test_equals_the_reference_on_relabelled_members(self):
        rng = random.Random(1019)
        families = [_spec_family(p, k) for p, k in ((2, 4), (3, 3), (5, 2))]
        families.append([CycleSet(t) for t in (
            ALL_IDENTITY_4, IRRETRACTABLE_4, TWO_INVOLUTIONS_10)])
        families.append([build_elementary_abelian(p) for p in (2, 3)])
        witnesses = 0
        for members in families:
            tables = members + [
                relabel(X, tuple(rng.sample(range(X.n), X.n))) for X in members
            ]
            for X in tables:
                for Y in tables:
                    w = are_isomorphic(X, Y)
                    assert w == reference_are_isomorphic(X, Y), (X, Y)
                    witnesses += w is not None
        assert witnesses == 140

    def test_large_decomposable_tables(self):
        # the reference recursed once per point here, past the interpreter's
        # recursion limit
        X = CycleSet([list(range(1000))] * 1000)
        assert are_isomorphic(X, X) == tuple(range(1000))


def decode_certificate(cert):
    """The table a certificate spells: block m holds (i . m, m . i) for
    i < m, then m . m."""
    n = round(len(cert) ** 0.5)
    table = [[-1] * n for _ in range(n)]
    labels = iter(cert)
    for m in range(n):
        for i in range(m):
            table[i][m] = next(labels)
            table[m][i] = next(labels)
        table[m][m] = next(labels)
    return table


class TestCertificate:
    def test_agrees_with_are_isomorphic_on_census_pairs(self):
        full = SearchConfig(mode="full-bruteforce")
        # the full census, decomposable tables included
        tables = [X for n in range(1, 5) for X in brute_force_enumerate(n, full)]
        tables += [
            X for n in (8, 9) for X in brute_force_enumerate(n) if is_indecomposable(X)
        ]
        assert len(tables) == 183 + 48 + 66
        certs = [_certificate(X) for X in tables]
        for i, X in enumerate(tables):
            for j in range(i, len(tables)):
                iso = are_isomorphic(X, tables[j]) is not None
                assert (certs[i] == certs[j]) == iso, (X, tables[j])

    @given(st.data())
    def test_relabeling_keeps_the_certificate(self, corpus, data):
        decomposable = [
            (name, CycleSet(table))
            for name, table in (
                ("all-identity-4", ALL_IDENTITY_4),
                ("irretractable-4", IRRETRACTABLE_4),
                ("two-involutions-10", TWO_INVOLUTIONS_10),
            )
        ]
        _, X = data.draw(st.sampled_from(corpus + decomposable))
        f = tuple(data.draw(st.permutations(range(X.n))))
        assert _certificate(relabel(X, f)) == _certificate(X)

    @pytest.mark.parametrize("p,k", [(2, 5), (3, 3)])
    def test_relabeling_keeps_the_certificate_of_spec_members(self, p, k):
        # the smaller censuses have automorphism groups transitive on their
        # seeds; several of these members have 2 or 3 seed orbits with
        # different sequences, so the orbit pruning decides the result
        rng = random.Random(100 * p + k)
        for X in _spec_family(p, k):
            cert = _certificate(X)
            for _ in range(4):
                f = tuple(rng.sample(range(X.n), X.n))
                assert _certificate(relabel(X, f)) == cert

    def test_spells_an_isomorphic_table(self, golden8, golden32):
        for X in (trivial_cycle_set(5), golden8, golden32, build_p2_level2(5, 2)):
            cert = _certificate(X)
            assert len(cert) == X.n ** 2
            Y = validate(decode_certificate(cert))
            assert are_isomorphic(X, Y) is not None
            assert _certificate(Y) == cert

    def test_spells_an_isomorphic_table_without_a_generating_seed(self):
        # decomposable: every point's products stay in its invariant part
        assert not is_indecomposable(CycleSet(TWO_INVOLUTIONS_10))
        assert CycleSet(TWO_INVOLUTIONS_10) in brute_force_enumerate(10)
        # indecomposable, but its idempotent points 0 and 2 each generate
        # only themselves
        assert is_indecomposable(CycleSet(IRRETRACTABLE_4))
        for table in (ALL_IDENTITY_4, TWO_INVOLUTIONS_10, IRRETRACTABLE_4):
            X = validate(table)
            cert = _certificate(X)
            Y = validate(decode_certificate(cert))
            assert are_isomorphic(X, Y) is not None
            assert _certificate(Y) == cert
        assert _certificate(trivial_cycle_set(1)) == (0,)
        # x . y = y + 1 from the seed 0: blocks (1), (2, 1, 2), (0, 1, 0, 2, 0)
        assert _certificate(trivial_cycle_set(3)) == (1, 2, 1, 2, 0, 1, 0, 2, 0)


class TestFInvariant:
    def test_golden4(self, golden4):
        assert f_invariant(golden4) == (0, 1)

    def test_level_one_has_no_invariant(self):
        assert f_invariant(trivial_cycle_set(4)) is None

    def test_slope_two_at_p3(self):
        assert f_invariant(build_p2_level2(3, 2)) == (0, 2, 1)

    def test_non_prime_square_sizes(self, golden8):
        assert f_invariant(golden8) is None
        assert f_invariant(trivial_cycle_set(6)) is None

    def test_base_point_independence(self, golden4):
        # recompute from the second generating point by hand
        rows = golden4.rows()
        n = golden4.n
        base = next(x for x in range(1, n) if rows[x].order() == n)
        phi = rows[base]
        f = {}
        x = base
        for i in range(n):
            exponent = next(e for e in range(n) if phi.power(e) == rows[x])
            f.setdefault(i % 2, (exponent - 1) // 2)
            assert f[i % 2] == (exponent - 1) // 2
            x = phi(x)
        assert tuple(f[i] for i in range(2)) == f_invariant(golden4)

    def test_invariant_is_isomorphism_invariant(self):
        X = build_p2_level2(3, 2)
        shuffled = relabel(X, (4, 7, 2, 6, 0, 3, 8, 1, 5))
        assert f_invariant(shuffled) == f_invariant(X)
