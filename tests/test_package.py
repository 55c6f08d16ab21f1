"""The public namespace: every name `montmort` exports, resolved on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import montmort

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# defining module -> the public names the package exports from it
EXPORTS = {
    "etrennes": ["EtrennesConfig", "etrennes_matrix", "etrennes_solve"],
    "leher": [
        "PaulAction", "PaulStrategy", "PierreAction", "PierreStrategy", "build_leher_matrix",
        "conditional_lot_paul", "conditional_lot_pierre", "conditional_mixed_lot_paul7",
        "mixed_value", "paul_win_probability", "pierre_win_probability", "threshold_matrix",
    ],
    "montecarlo": ["LeherSimulation", "RandomStream", "leher_simulate"],
    "pool": [
        "PoolConfig", "PoolDivergenceError", "PoolSimulation", "PoolSolution",
        "pool_expected_games", "pool_simulate", "pool_solve", "pool_win_probabilities",
    ],
    "rational": ["as_rational", "decimal_string", "format_rational", "parse_rational"],
    "report": ["ReportEntry", "build_reproduction_report"],
    "solver": [
        "Certificate", "EliminationResult", "EquilibriumCheck", "GameMatrix", "GameSolution",
        "MixedStrategy", "eliminate_dominated", "solve_zero_sum", "verify_equilibrium",
    ],
}


def test_star_import_binds_each_defining_modules_object():
    namespace = {}
    exec("from montmort import *", namespace)
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert montmort.__all__ == names
    assert sorted(name for name in namespace if name != "__builtins__") == names
    for module, exported in EXPORTS.items():
        defining = importlib.import_module(f"montmort.{module}")
        for name in exported:
            assert namespace[name] is getattr(defining, name) is getattr(montmort, name), name


def test_dir_lists_every_public_name():
    listed = dir(montmort)
    assert "__all__" in listed and "__version__" in listed
    assert set(montmort.__all__) <= set(listed)
    assert listed == sorted(set(listed))


def test_an_unknown_attribute_is_refused_by_name():
    with pytest.raises(AttributeError, match="module 'montmort' has no attribute 'nonexistent'"):
        montmort.nonexistent
    assert not hasattr(montmort, "leher_table")


def test_importing_the_package_loads_no_engine_module():
    probe = (
        "import sys, montmort\n"
        "print(montmort.__version__, sorted(m for m in sys.modules if m.startswith('montmort')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True)
    expected = f"{montmort.__version__} ['montmort']\n".encode()
    assert (run.returncode, run.stdout, run.stderr) == (0, expected, b"")
