"""Exact solving of two-player zero-sum matrix games.

Entries are Fractions and everything stays exact. There is one solving path:
a pure saddle-point check first; failing that, iterated elimination of
strictly dominated pure strategies in whole passes, then one rational simplex
tableau for the column player's LP (Dantzig's matrix-game LP, with Bland's
anti-cycling rule) over the reduced matrix. Either step yields a pair of
probability vectors, which are zero-extended to the original strategies,
stored as whole-number weights and certified against the original,
unreduced matrix before being returned.

The row player maximises; column payoffs are what the row player receives.
Mixed strategies carry raw nonnegative weights (token counts, in the spirit
of the historical bag of black and white tokens) and normalise on demand.
Values are unique; optimal mixes need not be. Ties are broken
deterministically and the same way for every positive affine map of the
payoffs (the simplex runs on the entries rescaled onto [1, 2]).

The module also holds the exact linear solve the pool runs on: fraction-free
integer elimination, with one Fraction per unknown built at the end.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import gt, lt

from .rational import as_rational, format_rational, require_rational


@dataclass(frozen=True)
class GameMatrix:
    """A rectangular payoff matrix to the row player, with labelled strategies."""

    entries: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(as_rational(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows must all have the same length")
        if len(self.row_labels) != len(entries) or len(self.col_labels) != width:
            raise ValueError("label counts must match the matrix shape")

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Iterable[Fraction | int | str]],
        row_labels: Iterable[str] | None = None,
        col_labels: Iterable[str] | None = None,
    ) -> GameMatrix:
        """A matrix from row iterables; unlabelled strategies become row{i} and col{j}."""
        entries = tuple(tuple(row) for row in rows)
        if row_labels is None:
            row_labels = (f"row{i}" for i in range(len(entries)))
        if col_labels is None:
            col_labels = (f"col{j}" for j in range(len(entries[0]) if entries else 0))
        return cls(entries, row_labels, col_labels)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [[format_rational(x) for x in row] for row in self.entries],
        }


@dataclass(frozen=True)
class MixedStrategy:
    """Nonnegative weights over pure strategies; probabilities derived on demand."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = tuple(require_rational("mixed-strategy weight", w, 0) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if not any(w > 0 for w in weights):
            raise ValueError("mixed strategy needs at least one positive weight")

    @classmethod
    def from_probabilities(cls, probabilities: Iterable[Fraction]) -> MixedStrategy:
        """Store probabilities as the smallest whole-number token counts."""
        probs = tuple(probabilities)
        scale = lcm(*(p.denominator for p in probs)) if probs else 1
        ints = [int(p * scale) for p in probs]
        divisor = gcd(*ints)
        if divisor > 1:
            ints = [i // divisor for i in ints]
        return cls(tuple(Fraction(i) for i in ints))

    def __len__(self) -> int:
        return len(self.weights)

    def probabilities(self) -> tuple[Fraction, ...]:
        total = sum(self.weights)
        return tuple(w / total for w in self.weights)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


@dataclass(frozen=True)
class Certificate:
    """Pure-strategy payoffs against the returned mixes.

    row_payoffs[i] is what pure row i earns against the column mix;
    col_payoffs[j] is what the row player earns when column j is played pure
    against the row mix. At an equilibrium with value v, every row payoff is
    at most v and every column payoff at least v, with equality on the
    respective supports.
    """

    row_payoffs: tuple[Fraction, ...]
    col_payoffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class GameSolution:
    value: Fraction
    row_mix: MixedStrategy
    col_mix: MixedStrategy
    certificate: Certificate


EquilibriumCheck = namedtuple("EquilibriumCheck", "is_equilibrium value certificate")


@dataclass(frozen=True)
class EliminationResult:
    """A dominance-reduced game plus the mapping back to original indices."""

    matrix: GameMatrix
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def solve_linear_system(
    coefficients: list[list[Fraction]], constants: list[Fraction]
) -> list[Fraction] | None:
    """Solve a square system exactly; None when the matrix is singular.

    Fraction-free Gaussian elimination (Bareiss 1968, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination"): every step runs
    on Python ints, and one Fraction per unknown is built at the end.

    Each matrix row is scaled to integers by the lcm of its own
    denominators. The constants are put over one common denominator D_b of
    their own, and each row's constant is then multiplied by that row's
    scale, so the integer system's solution is D_b times the original one.
    D_b is kept out of the row scales on purpose: the constants can carry
    far larger denominators than the matrix (the pool's coupled right-hand
    side does), and folding them into a row scale would blow up the matrix
    entries and every minor computed from them, where kept apart they only
    enlarge the one constant column.

    Column by column, the pivot is the first row at or below the diagonal
    with a nonzero entry there; the solution is unique, so which nonzero
    pivot is taken does not change it. Every row below is updated as
    (pivot * x - factor * y) // previous pivot. By Sylvester's identity each
    entry after step k is a (k + 1) x (k + 1) minor of the row-permuted
    integer matrix, so every division is exact. When a column has no
    nonzero entry left at or below the diagonal, its leading columns are
    linearly dependent: the matrix is singular exactly then, and None is
    returned. Otherwise the last pivot is the determinant det (up to the
    sign of the row swaps), and by Cramer's rule det times each unknown of
    the integer system is a minor, so back-substitution for det * D_b * x
    divides exactly too. Floats and bools are refused with the TypeError of
    `as_rational`.
    """
    size = len(coefficients)
    if any(len(row) != size for row in coefficients) or len(constants) != size:
        raise ValueError("system must be square with a matching constant vector")
    constants = [as_rational(b) for b in constants]
    rhs_scale = lcm(*(b.denominator for b in constants))
    rows = []
    for row, constant in zip(coefficients, constants):
        row = [as_rational(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        rows.append(
            [x.numerator * (scale // x.denominator) for x in row]
            + [constant.numerator * (rhs_scale // constant.denominator) * scale]
        )
    previous = 1
    for col in range(size):
        pivot_index = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot_index is None:
            return None
        rows[col], rows[pivot_index] = rows[pivot_index], rows[col]
        pivot_row = rows[col]
        pivot, tail = pivot_row[col], pivot_row[col + 1:]
        for row in rows[col + 1:]:
            factor = row[col]
            row[col + 1:] = [
                (pivot * x - factor * y) // previous for x, y in zip(row[col + 1:], tail)
            ]
        previous = pivot
    # previous is now det, the row-permuted integer matrix's determinant.
    scaled = [0] * size
    for r in range(size - 1, -1, -1):
        row = rows[r]
        total = previous * row[size] - sum(row[k] * scaled[k] for k in range(r + 1, size))
        scaled[r] = total // row[r]
    denominator = previous * rhs_scale
    return [Fraction(x, denominator) for x in scaled]


# ---------------------------------------------------------------------------
# Payoffs and certificates
# ---------------------------------------------------------------------------


def _row_payoffs(matrix: GameMatrix, col_probs: tuple[Fraction, ...]) -> list[Fraction]:
    support = [j for j, q in enumerate(col_probs) if q]
    return [sum(row[j] * col_probs[j] for j in support) for row in matrix.entries]


def _col_payoffs(matrix: GameMatrix, row_probs: tuple[Fraction, ...]) -> list[Fraction]:
    support = [(p, row) for p, row in zip(row_probs, matrix.entries) if p]
    return [sum(p * row[j] for p, row in support) for j in range(matrix.n_cols)]


def verify_equilibrium(
    matrix: GameMatrix, row_mix: MixedStrategy, col_mix: MixedStrategy
) -> EquilibriumCheck:
    """Check that no pure deviation improves either player.

    Returns the profile value and the full deviation-payoff certificate
    whether or not the profile is an equilibrium. Each payoff is summed over
    the opposing mix's support and the value over the row mix's, since a
    strategy played with probability 0 adds exactly 0.
    """
    if len(row_mix) != matrix.n_rows or len(col_mix) != matrix.n_cols:
        raise ValueError("mix lengths must match the matrix shape")
    x = row_mix.probabilities()
    row_payoffs = _row_payoffs(matrix, col_mix.probabilities())
    col_payoffs = _col_payoffs(matrix, x)
    value = sum(x[i] * row_payoffs[i] for i in row_mix.support())
    ok = max(row_payoffs) <= value and min(col_payoffs) >= value
    return EquilibriumCheck(ok, value, Certificate(tuple(row_payoffs), tuple(col_payoffs)))


# ---------------------------------------------------------------------------
# Dominance elimination
# ---------------------------------------------------------------------------


def _undominated(
    vectors: list[list[Fraction]], better: Callable[[Fraction, Fraction], bool]
) -> list[int]:
    """Positions of the vectors that no other vector beats in every entry."""
    return [
        k for k, v in enumerate(vectors) if not any(all(map(better, w, v)) for w in vectors)
    ]


def eliminate_dominated(matrix: GameMatrix) -> EliminationResult:
    """Iteratively remove strictly dominated pure strategies, in whole passes.

    A row is dominated when another row pays the row player strictly more in
    every surviving column; a column when another column concedes strictly
    less in every surviving row. Each pass drops every dominated row, then
    every dominated column, and passes repeat until one removes nothing.
    Strict dominance is transitive, so every elimination order reaches this
    same reduced game (Gilboa, Kalai & Zemel 1990), and it keeps the value
    and every equilibrium of the original.
    """
    entries = matrix.entries
    rows, cols = list(range(matrix.n_rows)), list(range(matrix.n_cols))
    while True:
        row_vectors = [[entries[i][j] for j in cols] for i in rows]
        kept_rows = [rows[k] for k in _undominated(row_vectors, gt)]
        # The column player pays out the entries, so smaller dominates.
        col_vectors = [[entries[i][j] for i in kept_rows] for j in cols]
        kept_cols = [cols[k] for k in _undominated(col_vectors, lt)]
        if (kept_rows, kept_cols) == (rows, cols):
            break
        rows, cols = kept_rows, kept_cols
    reduced = GameMatrix(
        [[entries[i][j] for j in cols] for i in rows],
        [matrix.row_labels[i] for i in rows],
        [matrix.col_labels[j] for j in cols],
    )
    return EliminationResult(reduced, tuple(rows), tuple(cols))


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def _pure_saddle(matrix: GameMatrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """Unit probability vectors on the first maximin row and minimax column.

    None when maximin and minimax differ: the game has no pure saddle point.
    """
    row_mins = [min(row) for row in matrix.entries]
    col_maxs = [max(col) for col in zip(*matrix.entries)]
    maximin = max(row_mins)
    minimax = min(col_maxs)
    if maximin != minimax:
        return None
    i = row_mins.index(maximin)
    j = col_maxs.index(minimax)
    return (
        tuple(Fraction(k == i) for k in range(matrix.n_rows)),
        tuple(Fraction(k == j) for k in range(matrix.n_cols)),
    )


def _simplex(matrix: GameMatrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact optimal (row, column) mixes from one rational simplex tableau.

    The entries are mapped affinely onto [1, 2], so the game value is
    positive and the column player's LP, maximise sum(t) subject to B t <= 1
    and t >= 0, starts feasible from the slack basis and is bounded. Bland's
    rule (enter the lowest column with a negative reduced cost; among tied
    ratios, leave by the lowest basic index) guarantees termination. At the
    optimum sum(t) = 1 / value of the mapped game, the column mix is
    t / sum(t), and the slack reduced costs divided by sum(t) are the row
    mix. A positive affine map of the payoffs leaves the mapped game, hence
    every pivot and both mixes, unchanged.
    """
    m, n = matrix.n_rows, matrix.n_cols
    low = min(min(row) for row in matrix.entries)
    span = max(max(row) for row in matrix.entries) - low  # > 0: no saddle point
    one, zero = Fraction(1), Fraction(0)
    rows = [
        [(x - low) / span + 1 for x in payoffs]
        + [one if k == i else zero for k in range(m)]
        + [one]
        for i, payoffs in enumerate(matrix.entries)
    ]
    objective = [-one] * n + [zero] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        entering = next((k for k in range(n + m) if objective[k] < 0), None)
        if entering is None:
            break
        _, _, leaving = min(
            (row[-1] / row[entering], basis[i], i)
            for i, row in enumerate(rows)
            if row[entering] > 0
        )
        pivot = rows[leaving]
        scale = pivot[entering]
        pivot[:] = [x / scale for x in pivot]
        for row in rows + [objective]:
            factor = row[entering]
            if row is not pivot and factor:
                row[:] = [x - factor * y for x, y in zip(row, pivot)]
        basis[leaving] = entering
    total = objective[-1]
    t = [zero] * n
    for i, k in enumerate(basis):
        if k < n:
            t[k] = rows[i][-1]
    return tuple(y / total for y in objective[n:n + m]), tuple(x / total for x in t)


def _zero_extend(
    size: int, indices: Iterable[int], probabilities: Iterable[Fraction]
) -> list[Fraction]:
    """Place probabilities at their original indices; every other one is 0."""
    full = [Fraction(0)] * size
    for index, p in zip(indices, probabilities):
        full[index] = p
    return full


def solve_zero_sum(matrix: GameMatrix) -> GameSolution:
    """Exact minimax value and optimal mixes for a zero-sum matrix game.

    A pure saddle point gives unit probability vectors directly. Otherwise
    strictly dominated strategies are eliminated (which preserves the value
    and every equilibrium) and the reduced game is solved by one exact
    simplex tableau. Either way the probabilities are zero-extended to the
    original strategies, stored as whole-number weights, and the mixes are
    certified against the original matrix.
    Where optimal mixes are not unique, the one returned is deterministic
    and unchanged by any positive affine map of the payoffs.
    """
    rows, cols = range(matrix.n_rows), range(matrix.n_cols)
    probabilities = _pure_saddle(matrix)
    if probabilities is None:
        reduced = eliminate_dominated(matrix)
        rows, cols = reduced.row_indices, reduced.col_indices
        probabilities = _simplex(reduced.matrix)
    x, y = probabilities
    row_mix = MixedStrategy.from_probabilities(_zero_extend(matrix.n_rows, rows, x))
    col_mix = MixedStrategy.from_probabilities(_zero_extend(matrix.n_cols, cols, y))
    check = verify_equilibrium(matrix, row_mix, col_mix)
    if not check.is_equilibrium:
        raise RuntimeError("computed solution failed certification against the original matrix")
    return GameSolution(check.value, row_mix, col_mix, check.certificate)
