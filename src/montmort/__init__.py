"""Exact reconstruction of the games in Montmort's Essay d'analyse.

Three problems from the Montmort-Bernoulli-Waldegrave correspondence, solved
in exact rational arithmetic: the card game Le Her (pure, conditional and
token-mixed lots, and the minimax solution), the problem of the pool for any
number of players, and the parity-guessing game Les Etrennes.

Importing the package loads no engine module. Each public name is resolved
on first use through the module-level `__getattr__` of PEP 562, which
imports the name's module and binds every name that module exports into the
package, as an eager import would have, so `from montmort import *`,
`dir(montmort)` and a later lookup all see the same objects.
"""

__version__ = "0.1.0"

#: Each engine module and the public names it exports.
_EXPORTS = {
    "etrennes": ("EtrennesConfig", "etrennes_matrix", "etrennes_solve"),
    "leher": (
        "PaulAction",
        "PaulStrategy",
        "PierreAction",
        "PierreStrategy",
        "build_leher_matrix",
        "conditional_lot_paul",
        "conditional_lot_pierre",
        "conditional_mixed_lot_paul7",
        "mixed_value",
        "paul_win_probability",
        "pierre_win_probability",
        "threshold_matrix",
    ),
    "montecarlo": ("LeherSimulation", "RandomStream", "leher_simulate"),
    "pool": (
        "PoolConfig",
        "PoolDivergenceError",
        "PoolSimulation",
        "PoolSolution",
        "pool_expected_games",
        "pool_simulate",
        "pool_solve",
        "pool_win_probabilities",
    ),
    "rational": ("as_rational", "decimal_string", "format_rational", "parse_rational"),
    "report": ("ReportEntry", "build_reproduction_report"),
    "solver": (
        "Certificate",
        "EliminationResult",
        "EquilibriumCheck",
        "GameMatrix",
        "GameSolution",
        "MixedStrategy",
        "eliminate_dominated",
        "solve_zero_sum",
        "verify_equilibrium",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    for exported in _EXPORTS[module]:
        globals()[exported] = getattr(loaded, exported)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
