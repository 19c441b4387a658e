"""Shared fixtures: golden tables and the cycle-set corpus used by the
property suites."""

from __future__ import annotations

import pytest

from cyclesets import (
    CycleSet,
    CyclicBuildSpec,
    SearchConfig,
    brute_force_enumerate,
    build_elementary_abelian,
    build_p2_level2,
    build_prime_power,
    relabel,
    trivial_cycle_set,
)

# Four-point witness of the level-2 family: rows (0 1 2 3) and (0 3 2 1),
# alternating.  Everything about it is known in closed form, which makes it
# the main golden fixture.
GOLDEN4_SPEC = CyclicBuildSpec(
    p=2, k=2, level=2, exponents=(2, 1, 0), digit_functions=((0, 1),)
)
GOLDEN4_TABLE = ((1, 2, 3, 0), (3, 0, 1, 2), (1, 2, 3, 0), (3, 0, 1, 2))

# Eight-point level-2 witness: even rows are the 8-cycle, odd rows its 5th power.
GOLDEN8_SPEC = CyclicBuildSpec(
    p=2, k=3, level=2, exponents=(3, 1, 0), digit_functions=((0, 2),)
)

# Thirty-two-point level-3 witness; row exponents depend on the residue mod 8.
GOLDEN32_SPEC = CyclicBuildSpec(
    p=2,
    k=5,
    level=3,
    exponents=(5, 3, 1, 0),
    digit_functions=((0, 0, 3, 3, 2, 2, 1, 1), (0, 2)),
)
GOLDEN32_ROW_EXPONENTS = (1, 5, 25, 29, 17, 21, 9, 13)


@pytest.fixture(scope="session")
def golden4() -> CycleSet:
    return build_prime_power(GOLDEN4_SPEC)


@pytest.fixture(scope="session")
def golden8() -> CycleSet:
    return build_prime_power(GOLDEN8_SPEC)


@pytest.fixture(scope="session")
def golden32() -> CycleSet:
    return build_prime_power(GOLDEN32_SPEC)


@pytest.fixture(scope="session")
def corpus(golden4, golden8, golden32) -> list[tuple[str, CycleSet]]:
    """Every cycle set the suite produces, for the cross-cutting property
    checks (solution correspondence, structural invariants)."""
    items: list[tuple[str, CycleSet]] = [
        ("trivial-1", trivial_cycle_set(1)),
        ("trivial-2", trivial_cycle_set(2)),
        ("trivial-4", trivial_cycle_set(4)),
        ("trivial-6", trivial_cycle_set(6)),
        ("trivial-9", trivial_cycle_set(9)),
        ("four-point-level2", golden4),
        ("eight-point-level2", golden8),
        ("thirtytwo-point-level3", golden32),
    ]
    for p in (2, 3, 5):
        for t in range(1, p):
            items.append((f"p2-level2-{p}-{t}", build_p2_level2(p, t)))
        items.append((f"elementary-abelian-{p}", build_elementary_abelian(p)))
    for p in (2, 3):
        # (s, i) . (t, j) = (t + i, j + 1), flattened as s*p + i: the
        # elementary-abelian table with its two coordinates swapped
        swap = tuple(i * p + a for a in range(p) for i in range(p))
        items.append((f"shift-extension-{p}", relabel(build_elementary_abelian(p), swap)))
    for n in (2, 3, 4):
        full = brute_force_enumerate(n, SearchConfig(mode="full-bruteforce"))
        items.extend((f"full-{n}-{i}", X) for i, X in enumerate(full))
    for n in (6, 9):
        restricted = brute_force_enumerate(n, SearchConfig())
        items.extend((f"restricted-{n}-{i}", X) for i, X in enumerate(restricted))
    return items
