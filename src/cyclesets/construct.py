"""Explicit constructions of indecomposable cycle sets.

The centerpiece is the prime-power family: on X = {0, ..., p^k - 1} with the
standard cycle psi (i -> i+1), choose a strictly decreasing exponent chain
k = j_0 > j_1 > ... > j_n = 0 and digit functions

    f_m : Z/p^{j_m} -> {0, ..., p^{j_{m-1} - j_m} - 1},   f_m(0) = 0,

for m = 1..n-1, and set

    sigma_i = psi ** (1 + sum_m p^{j_m} * f_m(i mod p^{j_m})).

Two conditions make this a cycle set of multipermutation level n with cyclic
permutation group and retraction tower sizes p^{j_0}, ..., p^{j_n}:

* injectivity of each partial-exponent map
  phi_m(l) = 1 + sum_{t >= m} p^{j_t} f_t(l), and
* the symmetry congruence Q(i, j) == Q(j, i)  (mod p^k), where
  K(j, i) = j + 1 + sum_{m >= 2} p^{j_m} f_m(i) and
  Q(j, i) = E(i) + E(K(j, i)) with E the exponent offset above.

The symmetry congruence is exactly the cycle-set axiom for this table, and
every indecomposable cycle set of prime-power size with cyclic permutation
group and level >= 2 arises this way; :func:`extract_spec` recovers the
parameters.

All of these read one table, E on Z/p^{j_1} (:func:`_offsets`): each term
p^{j_m} f_m is below p^{j_{m-1}}, so phi_m(l) = 1 + (E(l) mod p^{j_{m-1}})
and K(j, i) == j + 1 + E(i)  (mod p^{j_1}), the only modulus E reads it at.

The size-p^2, level-2 builder :func:`build_p2_level2` is the k = 2 case of
:func:`build_prime_power`.  The map from a spec to its row exponents lives in
one place, :func:`sigma_exponents`: the builder reads it forwards, and
:func:`extract_spec` accepts a table only if that map gives back its row
exponents.  The module also houses the level-1 (trivial shift) family and the
elementary-abelian construction on Z/p x Z/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import ilog, is_prime, prime_power
from .cycleset import CycleSet, _cyclic_walk, retraction_tower_sizes
from .errors import HypothesesError, SpecError


def _shift(m: int, e: int) -> tuple[int, ...]:
    """The row j -> j + e (mod m)."""
    e %= m
    return tuple(range(e, m)) + tuple(range(e))


def trivial_cycle_set(m: int) -> CycleSet:
    """The shift table i . j = j + 1 (mod m): indecomposable, level 1."""
    if m < 1:
        raise ValueError("size must be at least 1")
    return CycleSet._trusted((_shift(m, 1),) * m)


@dataclass(frozen=True)
class CyclicBuildSpec:
    """Parameters of the prime-power construction.

    exponents is the full chain (j_0, ..., j_level) with j_0 = k and
    j_level = 0; digit_functions[m-1] is the lookup table of f_m, of length
    p^{j_m}.  Instances are plain records; :func:`validate_spec` runs the
    full admissibility gauntlet.
    """

    p: int
    k: int
    level: int
    exponents: tuple[int, ...]
    digit_functions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        object.__setattr__(
            self, "digit_functions", tuple(tuple(f) for f in self.digit_functions)
        )

    @property
    def size(self) -> int:
        return self.p ** self.k


def _structural_check(spec: CyclicBuildSpec) -> None:
    if not is_prime(spec.p):
        raise SpecError("p must be prime", spec.p)
    if spec.k < 1:
        raise SpecError("k must be at least 1", spec.k)
    if spec.level < 2:
        raise SpecError("level must be at least 2", spec.level)
    exps = spec.exponents
    if len(exps) != spec.level + 1:
        raise SpecError("exponent chain length must be level + 1", exps)
    if exps[0] != spec.k or exps[-1] != 0:
        raise SpecError("exponent chain must run from k down to 0", exps)
    if any(b >= a for a, b in zip(exps, exps[1:])):
        raise SpecError("exponent chain must strictly decrease", exps)
    if len(spec.digit_functions) != spec.level - 1:
        raise SpecError(
            "need level - 1 digit functions", len(spec.digit_functions)
        )
    for m, f in enumerate(spec.digit_functions, start=1):
        dom = spec.p ** exps[m]
        rng = spec.p ** (exps[m - 1] - exps[m])
        if len(f) != dom:
            raise SpecError(f"digit function {m} must have length {dom}", f)
        if f[0] != 0:
            raise SpecError(f"digit function {m} must fix 0", f)
        for v in f:
            if not 0 <= v < rng:
                raise SpecError(
                    f"digit function {m} value out of range 0..{rng - 1}", v
                )


def _offsets(p: int, exps: tuple[int, ...], fs) -> list[int]:
    """E(l) = sum_m p^{j_m} f_m(l mod p^{j_m}) for l < p^{j_1}, on chain ``exps``."""
    scales = [p ** j for j in exps[1:]]
    return [sum(s * f[l % s] for s, f in zip(scales, fs)) for l in range(scales[0])]


def phi_injectivity_check(
    spec: CyclicBuildSpec,
) -> Optional[tuple[int, int, int]]:
    """None when every partial-exponent map is injective, else a witness.

    The witness (m, l, l') names the first map phi_m and domain pair with
    phi_m(l) == phi_m(l').
    """
    _structural_check(spec)
    p, exps = spec.p, spec.exponents
    etab = _offsets(p, exps, spec.digit_functions)
    for m in range(1, spec.level):
        mod = p ** exps[m - 1]
        seen: dict[int, int] = {}
        for l in range(p ** exps[m]):
            v = 1 + etab[l] % mod
            if v in seen:
                return (m, seen[v], l)
            seen[v] = l
    return None


def exponent_symmetry_check(
    spec: CyclicBuildSpec,
) -> Optional[tuple[int, int, int, int]]:
    """None when Q(i, j) == Q(j, i) (mod p^k) for all pairs, else a witness.

    The witness is the first (i, j, Q(i, j) mod p^k, Q(j, i) mod p^k) in
    lexicographic pair order with mismatched values.

    Q reads i and j only mod period = p^{j_1} < p^k, so only residues are
    scanned: a mismatch at (i, j) is one at (a, b) = (i, j) mod period, so
    at (b, a) too, and a != b; so (min(a, b), max(a, b)) is a mismatched
    pair i < j < period no later than (i, j).
    """
    _structural_check(spec)
    size = spec.size
    etab = _offsets(spec.p, spec.exponents, spec.digit_functions)
    period = len(etab)

    def q(j: int, i: int) -> int:
        # E reads K(j, i) only mod p^{j_1}, where it is j + 1 + E(i)
        return (etab[i] + etab[(j + 1 + etab[i]) % period]) % size

    for i in range(period):
        for j in range(i + 1, period):
            qij = q(i, j)
            qji = q(j, i)
            if qij != qji:
                return (i, j, qij, qji)
    return None


def validate_spec(spec: CyclicBuildSpec) -> CyclicBuildSpec:
    """Run all spec invariants, cheapest first, raising with a witness.

    The structural check runs first, inside :func:`phi_injectivity_check`.
    """
    collision = phi_injectivity_check(spec)
    if collision is not None:
        raise SpecError("partial-exponent map not injective", collision)
    asym = exponent_symmetry_check(spec)
    if asym is not None:
        raise SpecError("exponent symmetry congruence fails", asym)
    return spec


def sigma_exponents(spec: CyclicBuildSpec) -> tuple[int, ...]:
    """The exponent 1 + E(i) of the i-th row, for i = 0..p^k-1."""
    _structural_check(spec)
    etab = _offsets(spec.p, spec.exponents, spec.digit_functions)
    return tuple(1 + etab[i % len(etab)] for i in range(spec.size))


def build_prime_power(spec: CyclicBuildSpec) -> CycleSet:
    """Build the table of the prime-power family member described by ``spec``.

    The spec is validated first (:func:`validate_spec`), on every call; the
    symmetry congruence is equivalent to the cycle-set axiom, so the output
    is always a valid, indecomposable cycle set of level ``spec.level``.
    """
    validate_spec(spec)
    exps = sigma_exponents(spec)
    rows = {e: _shift(spec.size, e) for e in exps}  # translations, so bijective
    return CycleSet._trusted(tuple(map(rows.__getitem__, exps)))


def extract_spec(X: CycleSet) -> CyclicBuildSpec:
    """Recover build parameters from an indecomposable prime-power cycle set.

    Requires cyclic regular permutation group and multipermutation level at
    least 2.  The points are relabeled along the table's least n-cycle row,
    as :func:`cyclesets.cycleset._cyclic_walk` walks it, which also tells
    whether the group is cyclic of order n, with no group closure built, and
    reads the row exponents.  The exponent chain comes from the retraction
    tower, and f_m(r) is read off row r < p^{j_m} as the digit of its
    exponent minus one at place p^{j_m}.  The spec is accepted only if
    :func:`sigma_exponents`, the builder's own map, gives back every row
    exponent, and then validated.  The result satisfies
    ``build_prime_power(extract_spec(X))`` isomorphic to X, with equality
    after the same relabeling.
    """
    return _extract_spec(X, None)


def _extract_spec(X: CycleSet, sizes: Optional[list[int]]) -> CyclicBuildSpec:
    """:func:`extract_spec`, given the retraction tower sizes of X when the
    caller has walked its tower already, or None to walk it here."""
    n = X.n
    pk = prime_power(n)
    if pk is None:
        raise HypothesesError(f"size {n} is not a prime power")
    p, k = pk
    shifts = _cyclic_walk(X) or [-1]  # no n-cycle row: not cyclic
    for i, e in enumerate(shifts):  # the first failing row, in walk order
        if e < 0:
            raise HypothesesError(f"permutation group is not cyclic of order {n}")
        if e == 0:
            raise HypothesesError(f"row {i} does not generate the group")

    if sizes is None:
        sizes = retraction_tower_sizes(X)
    level = len(sizes) - 1
    if sizes[-1] != 1 or level < 2:
        raise HypothesesError("multipermutation level must be at least 2")
    exps = tuple(ilog(s, p) for s in sizes)
    # f_m(r) is the digit of E(r) = shift_r - 1 at place p^{j_m}; shifts[0] is
    # 1, so every f_m fixes 0
    spec = CyclicBuildSpec(p, k, level, exps, tuple(
        tuple((e - 1) // p ** exps[m] % p ** (exps[m - 1] - exps[m])
              for e in shifts[:p ** exps[m]])
        for m in range(1, level)
    ))
    if sigma_exponents(spec) != tuple(shifts):
        raise HypothesesError(
            f"row exponents are not those of a family member on chain {exps}"
        )
    return validate_spec(spec)


def compatible_bijections(p: int) -> list[tuple[int, ...]]:
    """Bijections f of Z/p with f(0) = 0 and constant successive difference.

    These are exactly the admissible digit functions of the two-level size
    p^2 family: the condition f(i+1) + f(j) == f(i) + f(j+1)  (mod p) forces
    f(k) = k*t mod p for a unit t, and every such map qualifies.  The p - 1
    tables are returned in increasing order of t.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return [tuple(k * t % p for k in range(p)) for t in range(1, p)]


def build_p2_level2(p: int, t: int) -> CycleSet:
    """The size-p^2, level-2 member with digit function f(k) = k*t mod p.

    This is the k = 2 case of :func:`build_prime_power`, with spec
    (p, 2, 2, (2, 1, 0), (f,)), and is validated like every other spec.
    Indecomposable, multipermutation level 2, cyclic permutation group of
    order p^2; two values of t give non-isomorphic tables.
    """
    fs = compatible_bijections(p)  # raises first on a p that is not prime
    if not 1 <= t <= p - 1:
        raise ValueError(f"t must lie in 1..{p - 1}")
    return build_prime_power(CyclicBuildSpec(p, 2, 2, (2, 1, 0), (fs[t - 1],)))


def build_elementary_abelian(p: int) -> CycleSet:
    """The cycle set (a, i) . (b, j) = (b + 1, j + a) on Z/p x Z/p.

    Pairs are flattened as (a, i) -> a*p + i.  The permutation group is
    elementary abelian of order p^2 and the level is 2.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = [  # row (a, i) is the translation by (1, a), so bijective
        tuple(((b + 1) % p) * p + (j + a) % p for b in range(p) for j in range(p))
        for a in range(p)
    ]
    return CycleSet._trusted(tuple(row for row in rows for _ in range(p)))
