"""Exception types shared across the package."""


class CycleSetError(Exception):
    """Base class for all domain errors raised by this package."""


class TableError(CycleSetError, ValueError):
    """Malformed multiplication table: ragged, empty, or entries out of range."""


class InvalidCycleSet(CycleSetError, ValueError):
    """A table that fails the cycle-set invariants.

    The offending rows/triples are available as ``violations``; see
    ``cycleset.find_violations`` for the encoding.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        shown = ", ".join(map(str, self.violations[:3]))
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(f"not a cycle set: {shown}{more}")


class SolutionError(CycleSetError, ValueError):
    """Lambda/rho tables that do not form an involutive non-degenerate solution."""

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason}" + (f" at {witness}" if witness is not None else ""))


class RetractionError(CycleSetError, ValueError):
    """Quotient by row-equality is not well defined (degenerate input)."""


class SpecError(CycleSetError, ValueError):
    """A cyclic build specification violating one of its invariants."""

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason}" + (f": {witness}" if witness is not None else ""))


class HypothesesError(CycleSetError, ValueError):
    """An operation invoked on a structure outside its hypotheses."""


class FormatError(CycleSetError, ValueError):
    """Malformed JSON payload (wrong keys or types)."""


class BudgetExceeded(CycleSetError, RuntimeError):
    """A search exceeded its node-expansion budget. No partial results."""


class OracleDisagreement(CycleSetError, RuntimeError):
    """The brute-force oracle and the parameterized route disagree.

    This is a hard failure: it signals an implementation bug, never a
    property of the input.
    """
