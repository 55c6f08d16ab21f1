"""Exact solving of two-player zero-sum matrix games.

Entries are Fractions and every answer is exact. There is one solving path:
a pure saddle-point check first; failing that, iterated elimination of
strictly dominated pure strategies in whole passes, then one exact simplex
tableau for the column player's LP (Dantzig's matrix-game LP, with Bland's
anti-cycling rule) over the reduced matrix. Either step yields a pair of
token-weight vectors, which are zero-extended to the original strategies,
stored as whole-number weights and certified against the original,
unreduced matrix before being returned. Every stage reads the ints D * A,
D any positive common denominator of A's entries; as D > 0, every order and
inequality among them is the one the entries give, whichever D it is. A
matrix built from integer counts over one denominator keeps both, so no
stage scales it: Le Her's threshold game and historical 2 x 2 (counts of
the 132,600 ordered deals) and Paul's conditional 2 x 2 with a seven (over
4 * 51 * 50). Any other matrix is scaled to D = L, the lcm of its entries'
denominators. A solve reads the ints once for the saddle check and the
tableau, whose rows are those of the entries mapped onto [1, 2] times a
positive constant, so Bland's rule takes the same pivots for every D;
dominance and the certificate, public stages, read them for themselves.
A pivot touches only the pivot row's nonzero columns: in exact arithmetic
0 / s = 0 and x - f * 0 = x, so the columns it skips keep their values and
every entry, hence every pivot, is the one a full-row update gives.

The row player maximises; column payoffs are what the row player receives.
Mixed strategies carry raw nonnegative weights (token counts, in the spirit
of the historical bag of black and white tokens) and normalise on demand.
Values are unique; optimal mixes need not be. Ties are broken
deterministically and the same way for every positive affine map of the
payoffs, which leaves the entries mapped onto [1, 2] unchanged.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import gt, lt

from .rational import as_rational, format_rational, require_integer, require_rational


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
        [ints], _ = _scaled([tuple(probabilities)])
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
# Payoffs and certificates
# ---------------------------------------------------------------------------


def _scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """(L * rows as ints, L), L the lcm of the denominators: L > 0 keeps every order."""
    scale = lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _count_matrix(
    counts: Iterable[Iterable[int]],
    denominator: int,
    row_labels: Iterable[str] | None = None,
    col_labels: Iterable[str] | None = None,
) -> GameMatrix:
    """The matrix of entries count / denominator, labelled as `GameMatrix.from_rows` does.

    It keeps (counts, denominator) outside the dataclass fields, so repr,
    equality and hashing see only the entries and labels, and every solver
    stage reads the counts through `_integer_form` instead of scaling.
    """
    require_integer("denominator", denominator, 1)
    counts = tuple(tuple(row) for row in counts)
    matrix = GameMatrix.from_rows(
        ([Fraction(c, denominator) for c in row] for row in counts), row_labels, col_labels
    )
    object.__setattr__(matrix, "_counts", (counts, denominator))
    return matrix


def _integer_form(matrix: GameMatrix) -> tuple[Sequence[Sequence[int]], int]:
    """(D * entries as ints, D) for a positive common denominator D of the entries.

    A `_count_matrix` brings its own counts and D; any other matrix is
    scaled by `_scaled` to D = L, the lcm of its denominators.
    """
    return getattr(matrix, "_counts", None) or _scaled(matrix.entries)


def verify_equilibrium(
    matrix: GameMatrix, row_mix: MixedStrategy, col_mix: MixedStrategy
) -> EquilibriumCheck:
    """Check that no pure deviation improves either player.

    Returns the profile value and the full deviation-payoff certificate
    whether or not the profile is an equilibrium. It sums ints: A' = D * A
    from `_integer_form`, and weights x', y' scaled by their own lcms, with
    sums X and Y. With R = A'y', C = x'A' and V = x'.R, each over the
    opposing support, the row payoffs are R / (D * Y), the column payoffs
    C / (D * X) and the value V / (D * X * Y); multiplied through by
    D * X * Y > 0, the equilibrium test is max(R) * X <= V and
    min(C) * Y >= V. Every payoff reduces to the same Fraction for any D.
    """
    if len(row_mix) != matrix.n_rows or len(col_mix) != matrix.n_cols:
        raise ValueError("mix lengths must match the matrix shape")
    entries, scale = _integer_form(matrix)
    [x], _ = _scaled([row_mix.weights])
    [y], _ = _scaled([col_mix.weights])
    row_sums = [sum(a * q for a, q in zip(row, y) if q) for row in entries]
    weighted_rows = [[p * a for a in row] for p, row in zip(x, entries) if p]
    col_sums = [sum(column) for column in zip(*weighted_rows)]
    total_x, total_y = sum(x), sum(y)
    value = sum(p * r for p, r in zip(x, row_sums) if p)
    ok = max(row_sums) * total_x <= value and min(col_sums) * total_y >= value
    certificate = Certificate(
        tuple(Fraction(r, scale * total_y) for r in row_sums),
        tuple(Fraction(c, scale * total_x) for c in col_sums),
    )
    return EquilibriumCheck(ok, Fraction(value, scale * total_x * total_y), certificate)


# ---------------------------------------------------------------------------
# Dominance elimination
# ---------------------------------------------------------------------------


def _undominated(vectors: list[list[int]], better: Callable[[int, int], bool]) -> list[int]:
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
    and every equilibrium of the original. It compares the ints D * A of
    `_integer_form`, which order as the entries do, and keeps the entries in
    the reduced matrix.
    """
    entries = matrix.entries
    scaled, _ = _integer_form(matrix)
    rows, cols = list(range(matrix.n_rows)), list(range(matrix.n_cols))
    while True:
        row_vectors = [[scaled[i][j] for j in cols] for i in rows]
        kept_rows = [rows[k] for k in _undominated(row_vectors, gt)]
        # The column player pays out the entries, so smaller dominates.
        col_vectors = [[scaled[i][j] for i in kept_rows] for j in cols]
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


def _pure_saddle(scaled: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The first maximin row and minimax column of the ints D * A.

    None when maximin and minimax differ: the game has no pure saddle point.
    As D > 0, the ints order as the entries do.
    """
    row_mins = [min(row) for row in scaled]
    col_maxs = [max(col) for col in zip(*scaled)]
    maximin = max(row_mins)
    if maximin != min(col_maxs):
        return None
    return row_mins.index(maximin), col_maxs.index(maximin)


def _simplex(scaled: Sequence[Sequence[int]]) -> tuple[list[Fraction], list[Fraction]]:
    """Optimal (row, column) token weights from one exact Fraction tableau.

    `scaled` holds the reduced game's ints S = D * A, D any positive common
    denominator of the entries, with min low and max - min span > 0. The
    column player's LP, maximise sum(t) subject to B t <= 1 and t >= 0, on
    B = (S - low) / span + 1 (the entries mapped onto [1, 2]) has a
    positive value, so it starts feasible from the slack basis and is
    bounded. Row i is built times span, (S_i - low + span) t + s_i = span,
    its slack column a unit vector: every t-column reduced cost and every
    ratio stays, the slack reduced costs shrink by 1 / span, so Bland's
    rule (enter the lowest column with a negative reduced cost; among tied
    ratios, leave by the lowest basic index) takes B's pivots for every D
    and terminates: it never revisits a basis, so it pivots at most
    comb(m + n, m) times. A tableau that revisits one would cycle forever,
    so it raises RuntimeError at the first repeat. At the optimum t and the
    slack reduced costs are positive multiples of the column and row mixes.
    A positive affine map of the payoffs leaves B, hence every pivot and
    both mixes, unchanged.
    A pivot divides only the pivot row's nonzero entries, and updates the
    other rows with a nonzero entering entry, the objective included, only
    at those columns: a zero column of the pivot row would divide to 0 and
    subtract nothing, so every entry stays the Fraction a full-row update
    gives and Bland's rule sees the same tableau. Early pivot rows are mostly
    zero (the slack identity block, the t-columns not yet basic).
    """
    m, n = len(scaled), len(scaled[0])
    low = min(min(row) for row in scaled)
    span = max(max(row) for row in scaled) - low  # > 0: no saddle point
    one, zero = Fraction(1), Fraction(0)
    rows = [
        [Fraction(x - low + span) for x in payoffs]
        + [one if k == i else zero for k in range(m)]
        + [Fraction(span)]
        for i, payoffs in enumerate(scaled)
    ]
    objective = [-one] * n + [zero] * (m + 1)
    basis = list(range(n, n + m))
    visited = {frozenset(basis)}
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
        nonzero = [(k, x / scale) for k, x in enumerate(pivot) if x]
        for k, y in nonzero:
            pivot[k] = y
        for row in rows + [objective]:
            factor = row[entering]
            if row is not pivot and factor:
                for k, y in nonzero:
                    row[k] -= factor * y
        basis[leaving] = entering
        reached = frozenset(basis)
        if reached in visited:
            raise RuntimeError("the simplex tableau revisited a basis, which Bland's rule never does")
        visited.add(reached)
    t = [zero] * n
    for i, k in enumerate(basis):
        if k < n:
            t[k] = rows[i][-1]
    return objective[n:n + m], t


def _zero_extend(
    size: int, indices: Iterable[int], weights: Iterable[Fraction | int]
) -> list[Fraction | int]:
    """Place weights at their original indices; every other one is 0."""
    full = [Fraction(0)] * size
    for index, w in zip(indices, weights):
        full[index] = w
    return full


def solve_zero_sum(matrix: GameMatrix) -> GameSolution:
    """Exact minimax value and optimal mixes for a zero-sum matrix game.

    The game is read once as ints. A pure saddle point gives its row and
    its column a weight of 1. Otherwise strictly dominated strategies are
    eliminated (which preserves the value and every equilibrium) and the
    reduced game's ints are solved by one exact simplex tableau. Either way
    the weights are zero-extended to the original strategies, stored as the
    smallest whole-number weights, and the mixes are certified against the
    original matrix.
    Where optimal mixes are not unique, the one returned is deterministic
    and unchanged by any positive affine map of the payoffs.

    Montmort's table of Paul's lots (rows: switch or hold the 7; columns:
    Pierre switches or holds the 8) gives Waldegrave's solution, 3 : 5
    tokens for Paul and 5 : 3 for Pierre:

    >>> lots = GameMatrix.from_rows(
    ...     [["2828/5525", "2838/5525"], ["2834/5525", "2828/5525"]]
    ... )
    >>> solution = solve_zero_sum(lots)
    >>> solution.value
    Fraction(11327, 22100)
    >>> solution.row_mix.weights, solution.col_mix.weights
    ((Fraction(3, 1), Fraction(5, 1)), (Fraction(5, 1), Fraction(3, 1)))
    """
    scaled, _ = _integer_form(matrix)
    saddle = _pure_saddle(scaled)
    if saddle is None:
        reduced = eliminate_dominated(matrix)
        rows, cols = reduced.row_indices, reduced.col_indices
        x, y = _simplex([[scaled[i][j] for j in cols] for i in rows])
    else:
        rows, cols = (saddle[0],), (saddle[1],)
        x = y = (1,)
    row_mix = MixedStrategy.from_probabilities(_zero_extend(matrix.n_rows, rows, x))
    col_mix = MixedStrategy.from_probabilities(_zero_extend(matrix.n_cols, cols, y))
    check = verify_equilibrium(matrix, row_mix, col_mix)
    if not check.is_equilibrium:
        raise RuntimeError("computed solution failed certification against the original matrix")
    return GameSolution(check.value, row_mix, col_mix, check.certificate)
