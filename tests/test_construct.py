import gc
import itertools
import random

import pytest

from cyclesets import construct as construct_module
from cyclesets import (
    CycleSet,
    CyclicBuildSpec,
    HypothesesError,
    RetractionError,
    SearchConfig,
    SpecError,
    are_isomorphic,
    brute_force_enumerate,
    build_elementary_abelian,
    build_p2_level2,
    build_prime_power,
    compatible_bijections,
    exponent_symmetry_check,
    extract_spec,
    f_invariant,
    group_type_of,
    is_cyclic,
    is_indecomposable,
    mpl,
    parse_permutation,
    permutation_group,
    phi_injectivity_check,
    relabel,
    retraction_tower_sizes,
    sigma_exponents,
    trivial_cycle_set,
    validate,
    validate_spec,
)
from cyclesets.arith import ilog, prime_power
from cyclesets.classify import _spec_family, enumerate_specs
from conftest import (
    GOLDEN32_ROW_EXPONENTS,
    GOLDEN32_SPEC,
    GOLDEN4_SPEC,
    GOLDEN4_TABLE,
    GOLDEN8_SPEC,
)


class TestTrivialFamily:
    def test_singleton(self):
        assert trivial_cycle_set(1).table == ((0,),)

    def test_shift_table(self):
        X = trivial_cycle_set(4)
        assert X.table == tuple(tuple((j + 1) % 4 for j in range(4)) for _ in range(4))
        assert mpl(X) == 1
        assert retraction_tower_sizes(X) == [4, 1]

    def test_six_point_group(self):
        g = permutation_group(trivial_cycle_set(6))
        assert g.order == 6 and group_type_of(g) == "cyclic"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            trivial_cycle_set(0)


def reference_mixed_radix_digits(value, p, exponents):
    """Reference: the mixed-radix digit decomposition that the extraction
    used to call once per row, kept verbatim."""
    exps = tuple(exponents)
    if len(exps) < 2 or exps[0] != 0 or any(a >= b for a, b in zip(exps, exps[1:])):
        raise ValueError(f"exponent chain must strictly increase from 0: {exps}")
    top = p ** exps[-1]
    if not 0 <= value < top:
        raise ValueError(f"value {value} out of range 0..{top - 1}")
    return tuple(
        (value // p ** exps[i]) % p ** (exps[i + 1] - exps[i])
        for i in range(len(exps) - 1)
    )


def reference_extract_spec(X):
    """Reference: the extraction that decomposed every row exponent into
    mixed-radix digits and checked each digit function for consistency, kept
    verbatim."""
    n = X.n
    pk = prime_power(n)
    if pk is None:
        raise HypothesesError(f"size {n} is not a prime power")
    p, k = pk
    not_cyclic = HypothesesError(f"permutation group is not cyclic of order {n}")

    rows = X.rows()
    base = next((x for x in range(n) if rows[x].order() == n), None)
    if base is None:
        raise not_cyclic
    phi = rows[base]
    labels = [base]
    for _ in range(n - 1):
        labels.append(phi(labels[-1]))
    pos = {x: i for i, x in enumerate(labels)}
    t = X.table
    shifts = []
    for i in range(n):
        row = t[labels[i]]
        shift = pos[row[base]]
        # row i must be the power phi^shift: labels[j] -> labels[j + shift]
        if list(map(row.__getitem__, labels)) != labels[shift:] + labels[:shift]:
            raise not_cyclic
        if shift == 0:
            raise HypothesesError(f"row {i} does not generate the group")
        shifts.append(shift)

    sizes = retraction_tower_sizes(X)
    level = len(sizes) - 1
    if sizes[-1] != 1 or level < 2:
        raise HypothesesError("multipermutation level must be at least 2")
    exps = tuple(ilog(s, p) for s in sizes)
    chain = tuple(reversed(exps))  # (0, j_{level-1}, ..., j_0 = k)
    tables = [
        [None] * (p ** exps[m]) for m in range(1, level)
    ]
    for i in range(n):
        digits = reference_mixed_radix_digits(shifts[i] - 1, p, chain)
        if digits[0] != 0:
            raise HypothesesError(f"row exponent {shifts[i]} has a stray low digit")
        for m in range(1, level):
            d = digits[level - m]
            r = i % (p ** exps[m])
            if tables[m - 1][r] is None:
                tables[m - 1][r] = d
            elif tables[m - 1][r] != d:
                raise HypothesesError(
                    f"digit function {m} is not well defined at residue {r}"
                )
    spec = CyclicBuildSpec(
        p=p,
        k=k,
        level=level,
        exponents=exps,
        digit_functions=tuple(tuple(ft) for ft in tables),
    )
    return validate_spec(spec)


def reference_f_invariant(X):
    """Reference: :func:`f_invariant` through :func:`reference_extract_spec`."""
    pk = prime_power(X.n)
    if pk is None or pk[1] != 2:
        return None
    try:
        return reference_extract_spec(X).digit_functions[0]
    except (HypothesesError, SpecError):
        return None


def extraction_outcome(extract, X):
    """The spec that ``extract`` gives on X, or the class and message of the
    exception it raises."""
    try:
        return extract(X)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def translation_table(shifts):
    """The table whose row i is the translation j -> j + shifts[i] (mod n)."""
    n = len(shifts)
    return CycleSet(tuple(tuple((j + e) % n for j in range(n)) for e in shifts))


def all_pairs_symmetry_scan(spec):
    """Reference: Q(i, j) against Q(j, i) over every pair i < j of Z/p^k,
    straight from the definitions E(x) = sum_m p^{j_m} f_m(x) and
    K(j, i) = j + 1 + sum_{m >= 2} p^{j_m} f_m(i)."""
    size = spec.size
    scales = [spec.p ** j for j in spec.exponents[1:-1]]

    def offset(x, first):
        return sum(
            s * f[x % s]
            for s, f in zip(scales[first - 1:], spec.digit_functions[first - 1:])
        )

    e = [offset(x, 1) for x in range(size)]
    k_minus_j = [1 + offset(x, 2) for x in range(size)]

    def q(j, i):
        return (e[i] + e[(j + k_minus_j[i]) % size]) % size

    for i in range(size):
        for j in range(i + 1, size):
            qij = q(i, j)
            qji = q(j, i)
            if qij != qji:
                return (i, j, qij, qji)
    return None


def random_spec(rng, p, exps):
    """A structurally valid spec on chain ``exps`` with random digit values."""
    fs = tuple(
        (0,) + tuple(
            rng.randrange(p ** (exps[m - 1] - exps[m])) for _ in range(p ** exps[m] - 1)
        )
        for m in range(1, len(exps) - 1)
    )
    return CyclicBuildSpec(p, exps[0], len(exps) - 1, exps, fs)


def reference_offset_terms(spec):
    """Reference: (p^{j_m}, f_m table) for m = 1..level-1, the per-level
    terms that the exponent maps used to sum, kept verbatim."""
    return [
        (spec.p ** spec.exponents[m], spec.digit_functions[m - 1])
        for m in range(1, spec.level)
    ]


def reference_offset(terms, x):
    return sum(scale * f[x % scale] for scale, f in terms)


def reference_phi_injectivity_check(spec):
    """Reference: :func:`phi_injectivity_check` summing the terms from m on
    at each level."""
    terms = reference_offset_terms(spec)
    for m in range(1, spec.level):
        dom = spec.p ** spec.exponents[m]
        seen = {}
        for l in range(dom):
            v = 1 + reference_offset(terms[m - 1:], l)
            if v in seen:
                return (m, seen[v], l)
            seen[v] = l
    return None


def reference_exponent_symmetry_check(spec):
    """Reference: :func:`exponent_symmetry_check` with E and K(j, i) - j
    tabulated from two term lists."""
    size = spec.size
    terms = reference_offset_terms(spec)
    period = spec.p ** spec.exponents[1]
    etab = [reference_offset(terms, x) for x in range(period)]
    ktab = [1 + reference_offset(terms[1:], x) for x in range(period)]

    def q(j, i):
        return (etab[i] + etab[(j + ktab[i]) % period]) % size

    for i in range(period):
        for j in range(i + 1, period):
            qij = q(i, j)
            qji = q(j, i)
            if qij != qji:
                return (i, j, qij, qji)
    return None


def reference_sigma_exponents(spec):
    """Reference: :func:`sigma_exponents` summing every term at every point."""
    terms = reference_offset_terms(spec)
    return tuple(1 + reference_offset(terms, i) for i in range(spec.size))


def all_chains(k):
    """Every exponent chain (k, ..., 0) of level at least 2."""
    return [
        (k,) + mids + (0,)
        for lvl in range(2, k + 1)
        for mids in itertools.combinations(range(k - 1, 0, -1), lvl - 1)
    ]


OFFSET_SIZES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2),
                (5, 3), (7, 2)]


class TestOffsetTable:
    def test_readers_equal_the_term_sums(self):
        # 300 structurally valid specs at each size, on a chain drawn at
        # random, inadmissible ones included: the same witnesses and exponents
        rng = random.Random(8238)
        outcomes = set()
        for p, k in OFFSET_SIZES:
            chains = all_chains(k)
            for _ in range(300):
                spec = random_spec(rng, p, rng.choice(chains))
                phi = phi_injectivity_check(spec)
                sym = exponent_symmetry_check(spec)
                assert phi == reference_phi_injectivity_check(spec), spec
                assert sym == reference_exponent_symmetry_check(spec), spec
                assert sigma_exponents(spec) == reference_sigma_exponents(spec), spec
                outcomes.add((phi is None, sym is None))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_partial_offsets_are_residues_of_the_table(self):
        # E_m(l) = sum_{t >= m} p^{j_t} f_t(l) is E(l) mod p^{j_{m-1}} for
        # every admissible spec, at every l < p^{j_1}
        specs = pairs = 0
        for p, k in OFFSET_SIZES + [(2, 7)]:
            for spec in enumerate_specs(p, k):
                specs += 1
                exps, terms = spec.exponents, reference_offset_terms(spec)
                etab = construct_module._offsets(p, exps, spec.digit_functions)
                assert len(etab) == p ** exps[1]
                for m in range(1, spec.level):
                    for l, e in enumerate(etab):
                        assert reference_offset(terms[m - 1:], l) == e % p ** exps[m - 1]
                        pairs += 1
        assert (specs, pairs) == (127, 4938)


class TestSpecValidation:
    def test_golden_specs_pass(self):
        for spec in (GOLDEN4_SPEC, GOLDEN8_SPEC, GOLDEN32_SPEC):
            assert validate_spec(spec) == spec
            assert exponent_symmetry_check(spec) is None
            assert phi_injectivity_check(spec) is None

    def test_bad_exponent_chain(self):
        with pytest.raises(SpecError):
            validate_spec(CyclicBuildSpec(2, 2, 2, (2, 2, 0), ((0, 1),)))
        with pytest.raises(SpecError):
            validate_spec(CyclicBuildSpec(2, 2, 2, (2, 1), ((0, 1),)))
        with pytest.raises(SpecError):
            validate_spec(CyclicBuildSpec(2, 2, 1, (2, 0), ()))
        with pytest.raises(SpecError):
            validate_spec(CyclicBuildSpec(4, 2, 2, (2, 1, 0), ((0, 1),)))
        with pytest.raises(SpecError, match="^k must be at least 1: 0$"):
            validate_spec(CyclicBuildSpec(2, 0, 2, (0, 0, 0), ((0,),)))
        with pytest.raises(
            SpecError, match=r"^exponent chain must run from k down to 0: \(3, 1, 0\)$"
        ):
            validate_spec(CyclicBuildSpec(2, 2, 2, (3, 1, 0), ((0, 1),)))
        with pytest.raises(
            SpecError, match=r"^exponent chain must run from k down to 0: \(2, 1, 1\)$"
        ):
            validate_spec(CyclicBuildSpec(2, 2, 2, (2, 1, 1), ((0, 1),)))

    def test_bad_digit_functions(self):
        with pytest.raises(SpecError):
            validate_spec(CyclicBuildSpec(2, 2, 2, (2, 1, 0), ((1, 0),)))  # f(0) != 0
        with pytest.raises(SpecError):
            validate_spec(CyclicBuildSpec(2, 2, 2, (2, 1, 0), ((0, 2),)))  # out of range
        with pytest.raises(SpecError):
            validate_spec(CyclicBuildSpec(2, 2, 2, (2, 1, 0), ((0, 1, 0),)))  # wrong length
        with pytest.raises(SpecError, match="^need level - 1 digit functions: 1$"):
            build_prime_power(CyclicBuildSpec(2, 3, 3, (3, 2, 1, 0), ((0, 1, 2, 3),)))

    def test_all_zero_digit_function_fails_injectivity_not_symmetry(self):
        spec = CyclicBuildSpec(3, 2, 2, (2, 1, 0), ((0, 0, 0),))
        assert phi_injectivity_check(spec) == (1, 0, 1)
        assert exponent_symmetry_check(spec) is None
        with pytest.raises(SpecError) as err:
            validate_spec(spec)
        assert "injective" in str(err.value)

    def test_symmetry_witness_for_nonlinear_bijection(self):
        spec = CyclicBuildSpec(5, 2, 2, (2, 1, 0), ((0, 1, 3, 2, 4),))
        assert phi_injectivity_check(spec) is None
        witness = exponent_symmetry_check(spec)
        assert witness == (0, 1, 10, 15)
        # independent evaluation at the pair (1, 2): offsets are 5*f
        f = (0, 1, 3, 2, 4)
        q12 = (5 * f[2] + 5 * f[(1 + 1) % 5]) % 25
        q21 = (5 * f[1] + 5 * f[(2 + 1) % 5]) % 25
        assert q12 != q21
        with pytest.raises(SpecError):
            validate_spec(spec)

    def test_symmetry_scan_matches_all_pairs_reference(self):
        # the residue scan names the all-pairs scan's first witness, on random
        # specs over every chain and on one-entry mutants of admissible specs
        rng = random.Random(20190)
        witnesses = 0
        sizes = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
                 (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]
        for p, k in sizes:
            for lvl in range(2, k + 1):
                for mids in itertools.combinations(range(k - 1, 0, -1), lvl - 1):
                    for _ in range(40):
                        spec = random_spec(rng, p, (k,) + mids + (0,))
                        expected = all_pairs_symmetry_scan(spec)
                        assert exponent_symmetry_check(spec) == expected
                        witnesses += expected is not None
            for spec in enumerate_specs(p, k):
                assert exponent_symmetry_check(spec) is None
                assert all_pairs_symmetry_scan(spec) is None
                for _ in range(3):
                    fs = [list(f) for f in spec.digit_functions]
                    m = rng.randrange(len(fs))
                    radix = p ** (spec.exponents[m] - spec.exponents[m + 1])
                    x = rng.randrange(1, len(fs[m]))
                    fs[m][x] = (fs[m][x] + rng.randrange(1, radix)) % radix
                    mutant = CyclicBuildSpec(p, k, spec.level, spec.exponents, fs)
                    expected = all_pairs_symmetry_scan(mutant)
                    assert exponent_symmetry_check(mutant) == expected
                    witnesses += expected is not None
        assert witnesses > 1000  # most draws fail


class TestPrimePowerBuilder:
    def test_golden4_table(self, golden4):
        assert golden4.table == GOLDEN4_TABLE

    def test_golden8_rows(self, golden8):
        eight = parse_permutation("(0 1 2 3 4 5 6 7)")
        assert golden8.row(0) == eight
        assert golden8.row(1) == parse_permutation("(0 5 2 7 4 1 6 3)")
        assert golden8.row(2) == eight

    def test_golden32_exponent_pattern(self):
        exps = sigma_exponents(GOLDEN32_SPEC)
        assert exps[:8] == GOLDEN32_ROW_EXPONENTS
        assert all(exps[i] == exps[i % 8] for i in range(32))

    def test_outputs_satisfy_promises(self, golden4, golden8, golden32):
        for spec, X in ((GOLDEN4_SPEC, golden4), (GOLDEN8_SPEC, golden8),
                        (GOLDEN32_SPEC, golden32)):
            validate(X.table)
            assert is_indecomposable(X)
            assert mpl(X) == spec.level
            assert retraction_tower_sizes(X) == [spec.p ** j for j in spec.exponents]

    def test_rejects_inadmissible_spec(self):
        with pytest.raises(SpecError):
            build_prime_power(CyclicBuildSpec(3, 2, 2, (2, 1, 0), ((0, 0, 0),)))


class TestExtractSpec:
    def test_golden_roundtrips(self, golden4, golden8, golden32):
        assert extract_spec(golden4) == GOLDEN4_SPEC
        assert extract_spec(golden8) == GOLDEN8_SPEC
        assert extract_spec(golden32) == GOLDEN32_SPEC

    def test_relabeled_input_recovers_same_spec(self, golden4):
        shuffled = relabel(golden4, (2, 0, 3, 1))
        assert extract_spec(shuffled) == GOLDEN4_SPEC

    def test_roundtrip_over_all_small_specs(self):
        for p, kmax in ((2, 3), (3, 2)):
            for k in range(1, kmax + 1):
                for spec in enumerate_specs(p, k):
                    X = build_prime_power(spec)
                    assert extract_spec(X) == spec
                    assert are_isomorphic(build_prime_power(extract_spec(X)), X)

    def test_census_matches_group_closure(self):
        # reference: the full group closure and the retraction tower
        censuses = [
            brute_force_enumerate(4, SearchConfig(mode="full-bruteforce")),
            brute_force_enumerate(8),
            brute_force_enumerate(9),
        ]
        assert [len(c) for c in censuses] == [168, 496, 171]
        for census in censuses:
            for X in census:
                n = X.n
                group = permutation_group(X)
                level = mpl(X)
                member = (
                    group.order == n
                    and is_cyclic(group) is not None
                    and level is not None
                    and level >= 2
                )
                if member:
                    spec = extract_spec(X)
                    assert are_isomorphic(build_prime_power(spec), X) is not None
                else:
                    with pytest.raises(HypothesesError):
                        extract_spec(X)
                p2_member = member and level == 2 and prime_power(n)[1] == 2
                assert (f_invariant(X) is not None) == p2_member

    def test_hypotheses_errors(self, golden8):
        with pytest.raises(HypothesesError):
            extract_spec(trivial_cycle_set(4))  # level 1
        with pytest.raises(HypothesesError):
            extract_spec(build_elementary_abelian(2))  # group not cyclic
        with pytest.raises(HypothesesError):
            extract_spec(trivial_cycle_set(6))  # not a prime power
        # a 4-cycle row and row exponents read as golden4's, but row 1 is not
        # a power of that cycle: the group is dihedral of order 8
        dihedral = CycleSet(((1, 2, 3, 0), (3, 2, 1, 0), (1, 2, 3, 0), (3, 0, 1, 2)))
        assert permutation_group(dihedral).order == 8
        with pytest.raises(HypothesesError, match="not cyclic of order 4"):
            extract_spec(dihedral)
        # the identity row at points 2 and 1, the first and second after the
        # base along its row's cycle 0 -> 2 -> 1 -> 3: named at the first
        repeated = CycleSet(((2, 3, 1, 0), (0, 1, 2, 3), (0, 1, 2, 3), (2, 3, 1, 0)))
        for extract in (extract_spec, reference_extract_spec):
            with pytest.raises(HypothesesError, match="^row 1 does not generate the group$"):
                extract(repeated)
        # an identity row and a row that is no power of the base cycle, in
        # both orders along that cycle: the first one met is named
        for table, message in (
            (((1, 2, 3, 0), (0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0)),
             "row 1 does not generate the group"),
            (((1, 2, 3, 0), (1, 0, 2, 3), (0, 1, 2, 3), (1, 2, 3, 0)),
             "permutation group is not cyclic of order 4"),
        ):
            X = CycleSet(table)
            assert extraction_outcome(extract_spec, X) == (HypothesesError, message)
            assert extraction_outcome(reference_extract_spec, X) == (HypothesesError, message)

    def test_equals_the_reference_on_tables(self):
        # the full census n <= 5, the restricted censuses at 8, 9 and 12, and
        # every spec-family member at nine sizes, each also relabelled
        full = SearchConfig(mode="full-bruteforce")
        tables = [X for n in range(1, 6) for X in brute_force_enumerate(n, full)]
        tables += [X for n in (8, 9, 12) for X in brute_force_enumerate(n)]
        rng = random.Random(2019)
        for p, k in ((2, 5), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                     (11, 2), (13, 2)):
            for X in _spec_family(p, k):
                tables += [X, relabel(X, tuple(rng.sample(range(X.n), X.n)))]
        assert len(tables) == 4416
        specs = 0
        for X in tables:
            outcome = extraction_outcome(extract_spec, X)
            assert outcome == extraction_outcome(reference_extract_spec, X), X
            assert f_invariant(X) == reference_f_invariant(X), X
            specs += isinstance(outcome, CyclicBuildSpec)
        assert specs == 246

    def test_equals_the_reference_on_exponent_vectors(self):
        # the table whose row i translates by shifts[i]: every vector at
        # n = 4, then seeded vectors at 8, 9 and 27, drawn at random, periodic
        # with unit-like entries, or one entry off a family member's
        vectors = list(itertools.product(range(4), repeat=4))
        for p, k in ((2, 3), (3, 2), (3, 3)):
            n = p ** k
            rng = random.Random(n)
            members = [[row[0] for row in X.table] for X in _spec_family(p, k)]
            for i in range(5000):
                if i % 3 == 0:
                    v = [rng.randrange(n) for _ in range(n)]
                elif i % 3 == 1:
                    period = p ** rng.randrange(1, k)
                    base = [1 + p * rng.randrange(n // p) for _ in range(period)]
                    v = [base[x % period] for x in range(n)]
                else:
                    v = list(rng.choice(members))
                    x = rng.randrange(n)
                    v[x] = (v[x] + p * rng.randrange(1, n // p)) % n
                vectors.append(v)
        kinds = set()
        for v in vectors:
            X = translation_table(v)
            outcome = extraction_outcome(extract_spec, X)
            assert outcome == extraction_outcome(reference_extract_spec, X), v
            kinds.add(outcome[0] if isinstance(outcome, tuple) else CyclicBuildSpec)
        assert kinds == {CyclicBuildSpec, HypothesesError, RetractionError, SpecError}

    def test_a_rejection_leaves_no_reference_cycle(self):
        # the exception must not hold the frames of the report that caught it
        dihedral = CycleSet(((1, 2, 3, 0), (3, 2, 1, 0), (1, 2, 3, 0), (3, 0, 1, 2)))
        gc.collect()
        gc.disable()
        try:
            for X in (build_elementary_abelian(5), dihedral):
                assert f_invariant(X) is None  # the group is not cyclic
                assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("sizes,reference_message", [
        ([32, 8, 1], "stray low digit"),
        ([32, 4, 1], "not well defined at residue 0"),
    ])
    def test_rejects_row_exponents_off_the_chain(self, golden32, monkeypatch, sizes,
                                                 reference_message):
        # a cycle set's tower always gives a chain its row exponents follow,
        # so a wrong chain is patched in to reach the check
        monkeypatch.setattr(construct_module, "retraction_tower_sizes",
                            lambda X: sizes)
        monkeypatch.setitem(globals(), "retraction_tower_sizes", lambda X: sizes)
        with pytest.raises(HypothesesError, match="row exponents are not those"):
            extract_spec(golden32)
        with pytest.raises(HypothesesError, match=reference_message):
            reference_extract_spec(golden32)


class TestCompatibleBijections:
    def test_small_primes(self):
        assert compatible_bijections(2) == [(0, 1)]
        assert compatible_bijections(3) == [(0, 1, 2), (0, 2, 1)]
        assert len(compatible_bijections(5)) == 4

    def test_all_members_are_linear(self):
        for p in (2, 3, 5, 7):
            for t, f in enumerate(compatible_bijections(p), start=1):
                assert f == tuple(k * t % p for k in range(p))

    def test_exhaustive_filter_agrees(self):
        # independent oracle: filter every bijection fixing 0 through the
        # shift-compatibility condition
        for p in (2, 3, 5):
            survivors = []
            for perm in itertools.permutations(range(1, p)):
                f = (0,) + perm
                if all(
                    (f[(i + 1) % p] + f[j]) % p == (f[i] + f[(j + 1) % p]) % p
                    for i in range(p)
                    for j in range(p)
                ):
                    survivors.append(f)
            assert sorted(survivors) == sorted(compatible_bijections(p))

    def test_rejected_bijections_fail_the_symmetry_congruence(self):
        for p in (3, 5):
            admissible = set(compatible_bijections(p))
            for perm in itertools.permutations(range(1, p)):
                f = (0,) + perm
                spec = CyclicBuildSpec(p, 2, 2, (2, 1, 0), (f,))
                witness = exponent_symmetry_check(spec)
                if f in admissible:
                    assert witness is None
                    validate(build_prime_power(spec).table)
                else:
                    assert witness is not None

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            compatible_bijections(6)


class TestP2Level2Builder:
    def test_matches_golden4(self, golden4):
        assert build_p2_level2(2, 1) == golden4

    def test_distinct_slopes_not_isomorphic(self):
        assert are_isomorphic(build_p2_level2(3, 1), build_p2_level2(3, 2)) is None

    def test_invariant_roundtrip(self):
        for p in (2, 3, 5, 7, 11, 13):
            n = p * p
            for t in range(1, p):
                f = tuple(k * t % p for k in range(p))
                X = build_p2_level2(p, t)
                assert X == build_prime_power(CyclicBuildSpec(p, 2, 2, (2, 1, 0), (f,)))
                # the closed form sigma_i = psi^(1 + p * f(i mod p))
                assert X.table == tuple(
                    tuple((j + 1 + p * f[i % p]) % n for j in range(n))
                    for i in range(n)
                )
                assert f_invariant(X) == f

    def test_builds_every_slope_up_to_the_cli_cap(self):
        # every spec is validated, up to p = 31, the largest prime whose
        # p^2 is within the cap of `cycleset build`
        for p in (2, 3, 5, 7, 31):
            n = p * p
            for t in range(1, p):
                X = build_p2_level2(p, t)
                # row i is the translation by 1 + p * (i * t mod p)
                assert [row[0] for row in X.table] == [
                    (1 + p * (i * t % p)) % n for i in range(n)
                ]

    def test_invariant_equality_decides_isomorphism(self):
        # complete invariant on the cyclic level-2 family: isomorphic exactly
        # when the digit bijections agree
        members = {t: build_p2_level2(5, t) for t in range(1, 5)}
        for t1, X in members.items():
            for t2, Y in members.items():
                same_invariant = f_invariant(X) == f_invariant(Y)
                assert (are_isomorphic(X, Y) is not None) == same_invariant
                assert same_invariant == (t1 == t2)

    def test_structure(self):
        X = build_p2_level2(5, 3)
        g = permutation_group(X)
        assert g.order == 25 and group_type_of(g) == "cyclic"
        assert mpl(X) == 2 and is_indecomposable(X)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_p2_level2(4, 1)
        with pytest.raises(ValueError):
            build_p2_level2(3, 0)
        with pytest.raises(ValueError):
            build_p2_level2(3, 3)


class TestElementaryAbelian:
    def test_klein_group_at_p2(self):
        X = build_elementary_abelian(2)
        g = permutation_group(X)
        assert g.order == 4
        assert group_type_of(g) == "abelian-noncyclic"
        assert is_indecomposable(X)

    def test_canonical_form(self):
        # (i, s) . (j, t) = (j + 1, t + i) with pairs flattened as i*p + s
        p = 3
        table = [
            [((j + 1) % p) * p + (t + i) % p for j in range(p) for t in range(p)]
            for i in range(p)
            for s in range(p)
        ]
        assert build_elementary_abelian(p) == CycleSet(table)

    def test_invariants(self):
        for p in (2, 3, 5):
            X = build_elementary_abelian(p)
            g = permutation_group(X)
            assert g.order == p * p
            assert group_type_of(g) == "abelian-noncyclic"
            assert mpl(X) == 2
            assert is_indecomposable(X)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            build_elementary_abelian(4)
