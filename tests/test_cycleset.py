import pytest
from hypothesis import given, strategies as st

from cyclesets import (
    CycleSet,
    InvalidCycleSet,
    Permutation,
    RetractionError,
    Solution,
    SolutionError,
    TableError,
    are_isomorphic,
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
from conftest import GOLDEN4_TABLE

ALL_IDENTITY_4 = [[0, 1, 2, 3]] * 4

# valid, but every row distinct and the quotient does not shrink; taken from
# the full size-4 census (its permutation group is nonabelian of order 8)
IRRETRACTABLE_4 = ((0, 1, 3, 2), (2, 3, 1, 0), (1, 0, 2, 3), (3, 2, 0, 1))


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
        with pytest.raises(RetractionError):
            retract(bad)

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

    def test_corpus_roundtrip(self, corpus):
        for name, X in corpus:
            s = to_solution(X)
            validate_solution(s.lam, s.rho)
            assert from_solution(s) == X, name


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
