import json

import pytest

from cyclesets import (
    BudgetExceeded,
    CycleSet,
    HypothesesError,
    OracleDisagreement,
    SearchConfig,
    abelian_templates,
    are_isomorphic,
    brute_force_enumerate,
    build_p2_level2,
    classify_cyclic_prime_power,
    classify_pq,
    dedupe_by_isomorphism,
    enumerate_specs,
    find_violations,
    group_type_of,
    is_indecomposable,
    mpl,
    relabel,
    trivial_cycle_set,
)
from cyclesets.classify import (
    _Budget,
    _automorphism_transporters,
    _require_matching,
    _template_search,
    _translation_rows,
)
from cyclesets.jsonio import report_to_dict
from cyclesets.perm import generate_group, Permutation


class TestEnumerateSpecs:
    def test_counts(self):
        assert len(enumerate_specs(2, 2)) == 1
        assert len(enumerate_specs(3, 2)) == 2
        assert len(enumerate_specs(2, 1)) == 0
        assert len(enumerate_specs(2, 3)) == 1
        assert len(enumerate_specs(5, 2)) == 4

    def test_budget_trips_before_any_candidate_is_tested(self, monkeypatch):
        import cyclesets.classify as classify

        calls = []
        real = classify.phi_injectivity_check
        monkeypatch.setattr(
            classify, "phi_injectivity_check",
            lambda spec: calls.append(spec) or real(spec),
        )
        with pytest.raises(BudgetExceeded, match="budget"):
            enumerate_specs(2, 5)
        assert calls == []

    def test_level_filter(self):
        assert enumerate_specs(2, 3, level=3) == []
        assert len(enumerate_specs(2, 3, level=2)) == 1

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            enumerate_specs(4, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_specs(3, 2, config=SearchConfig(max_candidates=2))


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


class TestTemplates:
    def test_abelian_group_types(self):
        assert [name for name, _ in abelian_templates(4)] == ["Z/4", "Z/2xZ/2"]
        assert [name for name, _ in abelian_templates(6)] == ["Z/6"]
        assert [name for name, _ in abelian_templates(9)] == ["Z/9", "Z/3xZ/3"]
        assert [name for name, _ in abelian_templates(12)] == ["Z/12", "Z/6xZ/2"]

    def test_translation_rows_form_a_regular_group(self):
        rows = _translation_rows((2, 2))
        group = generate_group([Permutation(r) for r in rows])
        assert group.order == 4
        assert rows[0] == (0, 1, 2, 3)


class TestFullBruteForce:
    def test_counts(self):
        for n, want in ((1, 1), (2, 2), (3, 12), (4, 168)):
            found = brute_force_enumerate(n, SearchConfig(mode="full-bruteforce"))
            assert len(found) == want, n

    def test_exhaustive_product_oracle_small(self):
        # independent check: try every row assignment and count axiom survivors
        import itertools as it

        for n in (2, 3):
            perms = list(it.permutations(range(n)))
            count = sum(
                1
                for rows in it.product(perms, repeat=n)
                if not find_violations(rows, limit=1)
            )
            found = brute_force_enumerate(n, SearchConfig(mode="full-bruteforce"))
            assert count == len(found)

    def test_two_point_structures(self):
        found = brute_force_enumerate(2, SearchConfig(mode="full-bruteforce"))
        assert [X.table for X in found] == [
            ((0, 1), (0, 1)),  # all-identity
            ((1, 0), (1, 0)),  # shift
        ]

    def test_outputs_are_valid_and_sorted(self):
        found = brute_force_enumerate(4, SearchConfig(mode="full-bruteforce"))
        encodings = [X.encoding() for X in found]
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

    def test_one_point(self):
        assert abelian_templates(1) == [("Z/1", (1,))]
        assert brute_force_enumerate(1) == [CycleSet([[0]])]

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
                found = _template_search(parts, _Budget(10 ** 8))
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

    def test_spec_parameterized_mode(self):
        found = brute_force_enumerate(4, SearchConfig(mode="spec-parameterized"))
        assert len(found) == 2  # the shift plus the single admissible spec
        with pytest.raises(HypothesesError):
            brute_force_enumerate(6, SearchConfig(mode="spec-parameterized"))
        assert len(brute_force_enumerate(1, SearchConfig(mode="spec-parameterized"))) == 1


class TestDedupe:
    def test_merges_equal_constructions(self, golden4):
        report = dedupe_by_isomorphism([golden4, build_p2_level2(2, 1)])
        assert len(report.classes) == 1
        assert report.classes[0].raw_count == 2

    def test_separates_different_levels(self, golden4):
        report = dedupe_by_isomorphism([trivial_cycle_set(4), golden4])
        assert len(report.classes) == 2

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

    def test_witness_is_least_encoding_member(self, golden4):
        from cyclesets import relabel

        shuffled = relabel(golden4, (1, 0, 3, 2))
        report = dedupe_by_isomorphism([shuffled, golden4])
        assert report.classes[0].witness == min(
            (golden4, shuffled), key=lambda X: X.encoding()
        )


class TestClassifyPq:
    def test_distinct_primes(self):
        report = classify_pq(2, 3)
        assert len(report.classes) == 1
        entry = report.classes[0]
        assert entry.mpl == 1 and entry.group_type == "cyclic" and entry.group_order == 6
        assert report.templates_searched == ("Z/6",)

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

    def test_without_cross_check(self):
        report = classify_pq(3, 3, cross_check=False)
        assert report.templates_searched == ("parameterized",)
        assert len(report.classes) == 4

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            classify_pq(4, 3)

    def test_determinism(self):
        a = json.dumps(report_to_dict(classify_pq(2, 2)))
        b = json.dumps(report_to_dict(classify_pq(2, 2)))
        assert a == b

    def test_matching_guard_detects_mismatches(self, golden4):
        good = dedupe_by_isomorphism([golden4])
        other = dedupe_by_isomorphism([trivial_cycle_set(4)])
        _require_matching(good, good)
        with pytest.raises(OracleDisagreement):
            _require_matching(good, other)
        both = dedupe_by_isomorphism([golden4, trivial_cycle_set(4)])
        with pytest.raises(OracleDisagreement):
            _require_matching(good, both)


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


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_candidates=0)
        with pytest.raises(ValueError):
            SearchConfig(mode="nonsense")
