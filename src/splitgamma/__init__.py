"""Exact tools for the split equation pair delta + ax + by = (a-1)(b-1)/2.

Every public name below is importable from the package, but the submodule
that defines it is imported on first access (PEP 562), so ``import
splitgamma`` loads nothing else and a process pays only for what it uses.
"""

import importlib

# defining submodule -> the public names it exports
_EXPORTS = {
    "core": (
        "DomainError", "InvariantViolation", "ResourceLimitError", "BruteForceReport", "SplitInstance",
        "SplitSolution", "brute_force_split", "gamma", "mod_inverse", "solve_split"
    ),
    "sequences": (
        "Arithmetic", "Balancing", "Explicit", "FactorialPower", "FibonacciLike", "FibonacciPower", "KthPower",
        "LucasBalancing", "Naturals", "Odds", "PowerRecurrence", "SequenceSpec", "ShiftedGeometric", "fib",
        "fib_pair", "fiblike_pair", "format_spec", "iter_terms", "parse_spec", "term", "term_mod"
    ),
    "identities": (
        "OddrResult", "closed_form_mod6_4", "fib_cube_solution", "fib_identity_solution", "fib_square_solution",
        "first_alternation_index", "oddr"
    ),
    "periodicity": (
        "InconclusiveError", "PeriodReport", "StatePeriod", "detect_period", "fibonacci_period_table",
        "gamma_row", "pair_row", "pisano", "row_period", "state_period_mod"
    ),
    "density": ("DensityTrace", "build_density_sequence", "verify_growth_bounds"),
    "explorer": ("NVarReport", "ScanRecord", "beiter_density", "nvar_classify", "rs_solve", "run_scan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so later lookups of the name skip this hook
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
