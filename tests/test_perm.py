import random

import pytest
from hypothesis import given, strategies as st

from cyclesets import (
    BudgetExceeded,
    Permutation,
    discrete_log,
    format_cycles,
    generate_group,
    is_abelian,
    is_cyclic,
    is_transitive,
    parse_permutation,
)
from cyclesets import perm


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

    def test_repr_str_and_foreign_equality(self):
        p = cyc("(0 1 2)", 4)
        assert repr(p) == "Permutation([1, 2, 0, 3])"
        assert str(p) == "(0 1 2)"
        assert str(Permutation.identity(2)) == "id"
        assert p != (1, 2, 0, 3)
        assert p.__eq__([1, 2, 0, 3]) is NotImplemented

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
        assert cyc("(0 1 2 3 4)").order() == 5
        assert cyc("(0 1)(2 3 4)").order() == 6
        assert Permutation.identity(3).order() == 1


class TestParsing:
    def test_oneline_roundtrip(self):
        p = Permutation([1, 2, 3, 0])
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
        for text, degree in (("[1, 0]", 3), ("id", None), ("(0 5)", 3)):
            with pytest.raises(ValueError):
                parse_permutation(text, degree)

    def test_rejects_deep_nesting_without_echoing_it(self):
        with pytest.raises(ValueError) as err:
            parse_permutation("[" * 100000 + "]" * 100000)
        assert str(err.value) == "not a one-line permutation: nested too deeply"


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

    def test_generators_must_share_a_degree(self):
        with pytest.raises(ValueError, match="^generator degree 3 != 2$"):
            generate_group([cyc("(0 1)"), cyc("(0 1 2)")])

    def test_closure_cap(self, monkeypatch):
        monkeypatch.setattr(perm, "DEFAULT_MAX_GROUP_ELEMENTS", 10)
        with pytest.raises(BudgetExceeded):
            generate_group([cyc("(0 1 2 3 4 5)"), cyc("(0 1)", 6)])

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


# References for the kernel on image tuples: the code it replaced where the
# kernel changed it, and an independent cycle walk where it kept the code.
def ref_inverse(f):
    return tuple(sorted(range(len(f)), key=f.__getitem__))


def ref_cycles(f):
    """Each cycle walked from every point, kept from its least element."""
    out = []
    for i in range(len(f)):
        cyc = [i]
        while f[cyc[-1]] != i:
            cyc.append(f[cyc[-1]])
        if min(cyc) == i:
            out.append(tuple(cyc))
    return out


def ref_orbit(gens, start):
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                img = g[pt]
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return orbit


def ref_commute(gens):
    ps = [Permutation(g) for g in gens]
    return all(
        g.compose(h) == h.compose(g) for i, g in enumerate(ps) for h in ps[i + 1:]
    )


def ref_closure(gens, degree):
    """Breadth-first by frontiers; the sorted image tuples of the elements."""
    gens = [Permutation(g) for g in gens]
    ident = Permutation.identity(degree)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = g.compose(f)
                if h.images not in seen:
                    if len(seen) >= perm.DEFAULT_MAX_GROUP_ELEMENTS:
                        raise BudgetExceeded("closure cap")
                    seen[h.images] = h
                    new.append(h)
        frontier = new
    return sorted(seen)


def random_images(rng, n):
    return tuple(rng.sample(range(n), n))


def random_generator_sets(seed):
    """Sets of 0 to 3 image tuples on n = 1..8 points, with their degree;
    the sets of three stay on at most 6 points, so Sym(n) stays small."""
    rng = random.Random(seed)
    for n in range(1, 9):
        for size in (0, 1, 2, 2, 3) if n <= 6 else (0, 1, 2):
            yield [random_images(rng, n) for _ in range(size)], n


class TestKernelAgainstReferences:
    def test_inverse_and_cycles(self):
        rng = random.Random(9431)
        for n in range(1, 9):
            for _ in range(30):
                f = random_images(rng, n)
                assert perm._inverse(f) == ref_inverse(f)
                assert perm._cycles(f) == ref_cycles(f)

    def test_orbit(self):
        for gens, n in random_generator_sets(5120):
            for start in range(n):
                assert perm._orbit(gens, start) == ref_orbit(gens, start)

    def test_commute(self):
        rng = random.Random(2261)
        for gens, n in random_generator_sets(2261):
            assert perm._commute(gens) == ref_commute(gens)
            # powers of one permutation always commute
            p = Permutation(random_images(rng, n))
            powers = [p.power(e).images for e in range(4)]
            assert perm._commute(powers) and ref_commute(powers)

    def test_closure(self):
        for gens, n in random_generator_sets(7784):
            g = generate_group([Permutation(f) for f in gens], degree=n)
            assert [p.images for p in g.elements] == ref_closure(gens, n)
            assert is_transitive(g) == (ref_orbit(gens, 0) == set(range(n)))
            assert is_abelian(g) == ref_commute(gens or [p.images for p in g.elements])

    def test_closure_cap_matches_the_reference(self, monkeypatch):
        cases = [
            (gens, n, len(ref_closure(gens, n)))
            for gens, n in random_generator_sets(3307) if n <= 5
        ]

        def capped(closure):
            try:
                closure()
            except BudgetExceeded:
                return True
            return False

        for gens, n, order in cases:
            for cap in range(1, order + 1):
                monkeypatch.setattr(perm, "DEFAULT_MAX_GROUP_ELEMENTS", cap)
                # both stop at the first element past the cap, and only there
                assert capped(
                    lambda: generate_group([Permutation(f) for f in gens], degree=n)
                ) == (cap < order), (gens, cap)
                assert capped(lambda: ref_closure(gens, n)) == (cap < order)
