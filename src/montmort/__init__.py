"""Exact reconstruction of the games in Montmort's Essay d'analyse.

Three problems from the Montmort-Bernoulli-Waldegrave correspondence, solved
in exact rational arithmetic: the card game Le Her (pure, conditional and
token-mixed lots, and the minimax solution), the problem of the pool for any
number of players, and the parity-guessing game Les Etrennes.
"""

from .etrennes import EtrennesConfig, etrennes_matrix, etrennes_solve
from .leher import (
    PaulAction,
    PaulStrategy,
    PierreAction,
    PierreStrategy,
    build_leher_matrix,
    conditional_lot_paul,
    conditional_lot_pierre,
    conditional_mixed_lot_paul7,
    mixed_value,
    paul_win_probability,
    pierre_win_probability,
    threshold_matrix,
)
from .montecarlo import LeherSimulation, RandomStream, leher_simulate
from .pool import (
    PoolConfig,
    PoolDivergenceError,
    PoolSimulation,
    PoolSolution,
    pool_expected_games,
    pool_simulate,
    pool_solve,
    pool_win_probabilities,
)
from .rational import (
    as_rational,
    decimal_string,
    format_rational,
    parse_rational,
)
from .report import ReportEntry, build_reproduction_report
from .solver import (
    Certificate,
    EliminationResult,
    EquilibriumCheck,
    GameMatrix,
    GameSolution,
    MixedStrategy,
    eliminate_dominated,
    solve_zero_sum,
    verify_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "EliminationResult",
    "EquilibriumCheck",
    "EtrennesConfig",
    "GameMatrix",
    "GameSolution",
    "LeherSimulation",
    "MixedStrategy",
    "PaulAction",
    "PaulStrategy",
    "PierreAction",
    "PierreStrategy",
    "PoolConfig",
    "PoolDivergenceError",
    "PoolSimulation",
    "PoolSolution",
    "RandomStream",
    "ReportEntry",
    "as_rational",
    "build_leher_matrix",
    "build_reproduction_report",
    "conditional_lot_paul",
    "conditional_lot_pierre",
    "conditional_mixed_lot_paul7",
    "decimal_string",
    "eliminate_dominated",
    "etrennes_matrix",
    "etrennes_solve",
    "format_rational",
    "leher_simulate",
    "mixed_value",
    "parse_rational",
    "paul_win_probability",
    "pierre_win_probability",
    "pool_expected_games",
    "pool_simulate",
    "pool_solve",
    "pool_win_probabilities",
    "solve_zero_sum",
    "threshold_matrix",
    "verify_equilibrium",
]
