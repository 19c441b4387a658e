import pytest
from hypothesis import given, strategies as st

from cyclesets import (
    BudgetExceeded,
    Permutation,
    discrete_log,
    format_cycles,
    format_oneline,
    generate_group,
    is_abelian,
    is_cyclic,
    is_transitive,
    order_of,
    parse_permutation,
)


def cyc(text, degree=None):
    return parse_permutation(text, degree)


class TestPermutationBasics:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 3])
        with pytest.raises(ValueError):
            Permutation([])
        with pytest.raises(ValueError):
            Permutation([1, 2, 0, 1])
        with pytest.raises(ValueError):
            Permutation((0, -1))

    def test_rejects_bools(self):
        with pytest.raises(ValueError):
            Permutation([True, False])
        with pytest.raises(ValueError):
            Permutation([0, True])

    def test_identity_and_cycle_need_a_point(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                Permutation.identity(n)
            with pytest.raises(ValueError):
                Permutation.cycle(n)

    def test_identity_and_cycle(self):
        assert Permutation.identity(4).images == (0, 1, 2, 3)
        assert Permutation.cycle(4).images == (1, 2, 3, 0)

    def test_compose_identity(self):
        p = cyc("(0 1 2 3)")
        assert p.compose(Permutation.identity(4)) == p

    def test_compose_double_transpositions(self):
        p = cyc("(0 1)(2 3)")
        q = cyc("(0 2)(1 3)")
        assert p.compose(q) == cyc("(0 3)(1 2)")

    def test_compose_square_of_four_cycle(self):
        p = cyc("(0 1 2 3)")
        assert p.compose(p) == cyc("(0 2)(1 3)")

    def test_compose_applies_right_factor_first(self):
        p = cyc("(0 1)", 3)
        q = cyc("(1 2)", 3)
        # (p o q)(1) = p(q(1)) = p(2) = 2
        assert p.compose(q)(1) == 2

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).compose(Permutation.identity(4))

    def test_inverse(self):
        assert Permutation.identity(5).inverse() == Permutation.identity(5)
        assert cyc("(0 1 2 3)").inverse() == cyc("(0 3 2 1)")

    def test_inverse_is_right_inverse(self):
        p = Permutation([2, 0, 3, 1, 4])
        assert p.compose(p.inverse()) == Permutation.identity(5)

    def test_power_zero(self):
        assert cyc("(0 1 2 3)").power(0) == Permutation.identity(4)

    def test_power_wraps_modulo_order(self):
        p = cyc("(0 1 2 3)")
        assert p.power(5) == p

    def test_power_of_eight_cycle(self):
        p = Permutation.cycle(8)
        assert p.power(5) == cyc("(0 5 2 7 4 1 6 3)")

    def test_power_negative(self):
        p = cyc("(0 1 2 3)")
        assert p.power(-1) == p.inverse()

    def test_order(self):
        assert order_of(cyc("(0 1 2 3 4)")) == 5
        assert order_of(cyc("(0 1)(2 3 4)")) == 6
        assert order_of(Permutation.identity(3)) == 1


class TestParsing:
    def test_oneline_roundtrip(self):
        p = Permutation([1, 2, 3, 0])
        assert format_oneline(p) == "[1,2,3,0]"
        assert parse_permutation("[1,2,3,0]") == p

    def test_cycle_roundtrip(self):
        p = cyc("(0 1)(2 4 3)")
        assert parse_permutation(format_cycles(p), 5) == p

    def test_identity_forms(self):
        assert format_cycles(Permutation.identity(3)) == "id"
        assert parse_permutation("id", 3) == Permutation.identity(3)

    def test_degree_padding(self):
        assert parse_permutation("(0 1)", 4).images == (1, 0, 2, 3)

    def test_rejects_overlapping_cycles(self):
        with pytest.raises(ValueError):
            parse_permutation("(0 1)(1 2)")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_permutation("nonsense")


class TestGroups:
    def test_cyclic_group_of_four_cycle(self):
        g = generate_group([cyc("(0 1 2 3)")])
        assert g.order == 4
        assert is_abelian(g)
        assert is_cyclic(g) == cyc("(0 1 2 3)")

    def test_klein_group(self):
        g = generate_group([cyc("(0 1)(2 3)"), cyc("(0 2)(1 3)")])
        assert g.order == 4
        assert is_abelian(g)
        assert is_cyclic(g) is None
        assert is_transitive(g)

    def test_trivial_group(self):
        g = generate_group([Permutation.identity(5)])
        assert g.order == 1
        assert is_cyclic(g) == Permutation.identity(5)

    def test_transitivity(self):
        assert is_transitive(generate_group([cyc("(0 1 2 3)")]))
        assert not is_transitive(generate_group([cyc("(0 1)", 4), cyc("(2 3)", 4)]))

    def test_degree_required_without_generators(self):
        with pytest.raises(ValueError):
            generate_group([])
        with pytest.raises(ValueError):
            generate_group([], degree=0)
        assert generate_group([], degree=3).order == 1

    def test_closure_cap(self):
        with pytest.raises(BudgetExceeded):
            generate_group([cyc("(0 1 2 3 4 5)"), cyc("(0 1)", 6)], max_elements=10)

    def test_nonabelian_detection(self):
        g = generate_group([cyc("(0 1 2)"), cyc("(0 1)", 3)])
        assert g.order == 6
        assert not is_abelian(g)
        assert is_cyclic(g) is None

    def test_regenerating_from_elements_is_idempotent(self):
        g = generate_group([cyc("(0 1 2 3)"), cyc("(0 2)(1 3)")])
        again = generate_group(g.elements, degree=g.degree)
        assert again.elements == g.elements

    def test_closure_invariants(self):
        from math import factorial

        for gens in (
            [cyc("(0 1 2 3)")],
            [cyc("(0 1 2)"), cyc("(0 1)", 3)],
            [cyc("(0 1)(2 3)"), cyc("(0 2)(1 3)")],
        ):
            g = generate_group(gens)
            elements = set(g.elements)
            assert Permutation.identity(g.degree) in elements
            assert all(gen in elements for gen in g.generators)
            assert all(p.inverse() in elements for p in g.elements)
            assert all(
                p.compose(q) in elements for p in g.elements for q in g.elements
            )
            assert factorial(g.degree) % g.order == 0

    def test_abelian_transitive_groups_are_regular(self):
        for gens in ([cyc("(0 1 2 3)")], [cyc("(0 1)(2 3)"), cyc("(0 2)(1 3)")]):
            g = generate_group(gens)
            assert is_abelian(g) and is_transitive(g)
            assert g.order == g.degree

    def test_transitive_groups_are_at_least_degree_sized(self):
        for gens in (
            [cyc("(0 1 2)"), cyc("(0 1)", 3)],
            [cyc("(0 1 2 3)")],
            [cyc("(0 1)(2 3)"), cyc("(0 2)(1 3)")],
        ):
            g = generate_group(gens)
            if is_transitive(g):
                assert g.order >= g.degree

    def test_discrete_log(self):
        p = Permutation.cycle(8)
        assert discrete_log(p, p.power(5)) == 5
        assert discrete_log(p, cyc("(0 1)", 8)) is None


@st.composite
def permutations(draw, max_degree=8):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    return Permutation(draw(st.permutations(range(n))))


@given(permutations(), st.data())
def test_inverse_of_composite(p, data):
    q = Permutation(data.draw(st.permutations(range(p.degree))))
    assert p.compose(q).inverse() == q.inverse().compose(p.inverse())


@given(permutations(), st.data())
def test_power_is_additive(p, data):
    n = p.degree
    a = data.draw(st.integers(min_value=-2 * n, max_value=2 * n))
    b = data.draw(st.integers(min_value=-2 * n, max_value=2 * n))
    assert p.power(a + b) == p.power(a).compose(p.power(b))


@given(permutations(), st.data())
def test_derived_permutations_equal_checked_ones(p, data):
    # compose, inverse and power skip the constructor's checks; their
    # results must equal what the checked constructor builds
    q = Permutation(data.draw(st.permutations(range(p.degree))))
    e = data.draw(st.integers(min_value=-3, max_value=3))
    for r in (p.compose(q), p.inverse(), p.power(e)):
        assert r == Permutation(list(r.images))
        assert type(r.images) is tuple


@given(permutations())
def test_power_at_order_is_identity(p):
    assert p.power(p.order()) == Permutation.identity(p.degree)
