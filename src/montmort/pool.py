"""Exact solution of the problem of the pool (Waldegrave's problem).

Three or more players gamble through a two-player game: everyone antes into
a pot, the first two seats play, the winner stays on against the front of
the queue, each game's loser pays a fee into the pot and goes to the back of
the queue, and the first player to win enough games in a row (by default
n - 1, one against each rival) takes the pot. The historical sources state
the rotation for three players only; the queue here is the canonical
generalisation. The loser of the final game pays the fee like any other,
and the pot is taken after all fees are settled.

A single incumbent-win probability p applies to the current champion in
every game (seat 0 is the incumbent of game one). That makes the chain over
(champion, streak, queue) states label equivariant: p attaches to the
champion role, never to a seat identity, so relabelling seats maps
trajectories to trajectories. A tracked player's winning chances, expected
fee losses and games-weighted winnings therefore depend on the state only
through the player's role: the champion's streak level and the player's
place at that level (champion or queue position). A champion win moves one
level up and every loss lands on level 1, so the pool is one exact n x n
system over the level-1 roles (the absorbing-chain argument of Kemeny and
Snell), each row read off the role's win path through consecutive champion
wins. A player gets a new chance only by challenging, and every loss sends
its loser to the back of the queue, so one elimination counts each role's
challenges, and its win chance and fee losses are that count read two ways.
Games-weighted wins are a second right-hand side, and game one is one more
step of the same law from streak 0. The upper levels are never formed and
the duration has a closed form. `pool_solve` is the one exact solve, and
`pool_win_probabilities` reads its win chances. The test suite cross-checks
against the unlumped state-space solve, truncated enumeration of game
sequences and, under the default streak, the historical pool's closed-form
ratio.

Everything is exact: the solve runs on integers, each level-1 row times
b^(R-1) for p = a/b, and builds one Fraction per reported figure; the Monte
Carlo cross-check returns its counts and their Fraction frequencies; the
command that prints a run computes its standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational import _digits, require_integer, require_rational

DEFAULT_TRIAL_GAME_CAP = 1_000_000
#: Largest players * max(players, streak_required - 1) the exact solve takes on.
MAX_EXACT_POOL_SIZE = 10_000

class PoolDivergenceError(ValueError):
    """The pool can never finish: with p = 0 no champion ever builds a streak."""


@dataclass(frozen=True)
class PoolConfig:
    """Parameters of a pool: table size, incumbent edge, and the stakes."""

    players: int
    champion_win_prob: Fraction = Fraction(1, 2)
    ante: Fraction = Fraction(1)
    fee: Fraction = Fraction(1)
    streak_required: int | None = None

    def __post_init__(self) -> None:
        require_integer("players", self.players, 2)
        for name, high in (("champion_win_prob", 1), ("ante", None), ("fee", None)):
            object.__setattr__(self, name, require_rational(name, getattr(self, name), 0, high))
        streak = self.players - 1 if self.streak_required is None else self.streak_required
        object.__setattr__(self, "streak_required", require_integer("streak_required", streak, 1))

    @property
    def pot(self) -> Fraction:
        """Antes only; fees join the pot as games are lost."""
        return self.players * self.ante


# ---------------------------------------------------------------------------
# Level-1 role solve along the win paths
# ---------------------------------------------------------------------------


def _require_absorbing(config: PoolConfig) -> None:
    if config.champion_win_prob == 0 and config.streak_required > 1:
        raise PoolDivergenceError(
            "champion_win_prob = 0 with streak_required > 1 never finishes a pool"
        )


def _require_within_reach(config: PoolConfig) -> None:
    """Refuse, before any Fraction work, an n x n system or win paths beyond the cap."""
    _require_absorbing(config)
    size = config.players * max(config.players, config.streak_required - 1)
    if size > MAX_EXACT_POOL_SIZE:
        raise ValueError(
            f"pool beyond the exact solve's reach: players * max(players, streak - 1)"
            f" = {_digits(size)} exceeds {MAX_EXACT_POOL_SIZE}"
        )


def _moves(players: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each role's next role after a champion win (won) and a loss (lost)."""
    waiting = tuple(range(1, players - 1))
    return (0, players - 1, *waiting), (players - 1, 0, *waiting)


def _eliminate(rows: list[list[int]]) -> None:
    """Bareiss forward elimination of the int rows in place, with no pivot search.

    Each row below step k's pivot row becomes (pivot * x - factor * y) //
    previous pivot, exact as each entry is then a minor (Bareiss 1968). Rows
    keep their factors and the diagonal its pivots, the last being det, so
    `_solve` can replay the steps on constants: that gives the minors of an
    augmented column, and det * x is minors too (Cramer). No pivot is needed:
    with p = a/b and K = R - 1, row r is b^K e_r less entries a^j (b - a)
    b^(K-1-j) >= 0 that telescope to b^K - a^K, strictly diagonally dominant
    by a^K > 0 if p > 0 (p = 0 only at R = 1, where the rows are I). That
    survives elimination (Golub and Van Loan), and a Bareiss entry is the
    Gaussian one times a positive leading minor: every pivot is positive.
    """
    previous = 1
    for col, pivot_row in enumerate(rows):
        pivot, tail = pivot_row[col], pivot_row[col + 1:]
        for row in rows[col + 1:]:
            factor = row[col]
            row[col + 1:] = [(pivot * x - factor * y) // previous
                             for x, y in zip(row[col + 1:], tail)]
        previous = pivot


def _solve(rows: list[list[int]], constants: list[int]) -> tuple[list[int], int]:
    """(det * x, det) with A x = constants, from A's rows after `_eliminate`."""
    size, column, previous = len(rows), list(constants), 1
    for col in range(size):
        pivot, y = rows[col][col], column[col]
        for r in range(col + 1, size):
            column[r] = (pivot * column[r] - rows[r][col] * y) // previous
        previous = pivot
    for r in range(size - 1, -1, -1):  # back-substitution, in place
        done = sum(x * s for x, s in zip(rows[r][r + 1:], column[r + 1:]))
        column[r] = (previous * column[r] - done) // rows[r][r]
    return column, previous


def pool_win_probabilities(config: PoolConfig) -> tuple[Fraction, ...]:
    """Exact probability that each seat eventually takes the pot.

    This is `pool_solve(config).win_prob`: the one exact solve, which also
    finds every seat's payment and the expected number of games.

    >>> pool_win_probabilities(PoolConfig(3))
    (Fraction(5, 14), Fraction(5, 14), Fraction(2, 7))
    """
    return pool_solve(config).win_prob


def pool_expected_games(config: PoolConfig) -> Fraction:
    """Exact expected number of games played, the final one included.

    After game one every loss restarts a champion at streak 1, so the rest
    of the pool is the wait for K = R - 1 champion wins in a row, whose mean
    is Feller's (1 - p^K) / (q p^K). With p = a/b the total is the integer
    (b^(K+1) - a^(K+1)) / (b - a) over a^K, and R at p = 1.
    """
    _require_within_reach(config)
    a, b = config.champion_win_prob.as_integer_ratio()
    k = config.streak_required - 1
    return Fraction(k + 1 if a == b else (b ** (k + 1) - a ** (k + 1)) // (b - a), a**k)


@dataclass(frozen=True)
class PoolSolution:
    """Per-seat exact results: chances, stakes paid, and net expectation."""

    win_prob: tuple[Fraction, ...]
    expected_games: Fraction
    expected_payment: tuple[Fraction, ...]
    expected_net: tuple[Fraction, ...]


def pool_solve(config: PoolConfig) -> PoolSolution:
    """Complete exact solution: win chances, duration, payments and nets.

    Level s (streak 1..R-1) has n roles: role 0 is the champion on streak s
    and role i is queue position i. A champion win moves role r up a level
    as won[r] (0 -> 0, 1 -> n - 1, i -> i - 1; the pool ends from the top
    level) and a loss sends it to level 1 as lost[r] (0 -> n - 1, 1 -> 0,
    i -> i - 1). After j wins in a row (j = 0..R-2) level-1 role r is role
    won^j(r) on level j + 1, with weight p^j; each game there pays a reward
    and with probability q = 1 - p sends it to level 1, so a quantity solves
    x1[r] = c[r] + sum_j p^j q x1[lost[won^j r]], c[r] read off that path.

    With c[r] = sum_j p^j [won^j r = 1], x1 is C, the expected challenges
    (games played as queue position 1) still to come. A challenge is won
    with probability q and the reign it starts takes the pot with
    probability p^(R-1); role 0 also holds its current reign. A challenge
    or reign that misses the pot ends in exactly one loss, so role r wins
    with probability (q C + [r = 0]) p^(R-1) and loses C + [r = 0] less
    that. With R = 1 every path is empty and C = 0. The coupled term
    E[G 1{seat wins}] is a second right-hand side of the same elimination,
    and game one is one more step of the same law from streak 0: seat s
    holds role s at streak 0, collects its game-one reward and lands on
    level 1 as won[s] or lost[s].

    On integers, with p = a/b and K = R - 1, row r times b^K is b^K e_r -
    sum_j a^j (b - a) b^(K-1-j) e_lost[won^j r], constant
    sum_j a^j b^(K-j) [won^j r = 1]; the level-1 win chances and losses are
    numerators over level = b^(K+1) det, and the seats' over b level.

    A seat's payment is its ante plus the fee times its expected losses, and
    its pot share is E[(n * ante + fee * G) 1{seat wins}]. Before any
    Fraction is built, the win chances are certified to sum to 1, and the
    losses and the games-weighted wins to E[G] (each game has one loser,
    each pool one winner); with the pot of n antes, the nets sum to 0.

    >>> pool_solve(PoolConfig(3))  # doctest: +NORMALIZE_WHITESPACE
    PoolSolution(win_prob=(Fraction(5, 14), Fraction(5, 14), Fraction(2, 7)),
                 expected_games=Fraction(3, 1),
                 expected_payment=(Fraction(29, 14), Fraction(29, 14), Fraction(13, 7)),
                 expected_net=(Fraction(1, 98), Fraction(1, 98), Fraction(-1, 49)))
    """
    games = pool_expected_games(config)  # refuses a pool beyond reach first
    n, k = config.players, config.streak_required - 1
    a, b = config.champion_win_prob.as_integer_ratio()
    won, lost = _moves(n)
    steps = [a**j * b ** (k - 1 - j) for j in range(k)]
    rows, landings, challenges = [], [], []
    for r in range(n):
        row, landing, challenge, role = [0] * n, [0] * n, 0, r
        for j, weight in enumerate(steps):
            challenge += weight * (role == 1)
            row[lost[role]] -= (b - a) * weight
            landing[lost[role]] += (j + 1) * weight
            role = won[role]
        row[r] += b**k
        rows.append(row)
        landings.append(landing)
        challenges.append(b * challenge)
    _eliminate(rows)
    counts, det = _solve(rows, challenges)
    counts[0] += det  # role 0 also holds its current reign
    reign, scale = a**k, b ** (k + 1)
    level = scale * det
    level_win = [reign * ((b - a) * held + a * det * (r == 0)) for r, held in enumerate(counts)]
    if sum(level_win) != level:
        raise RuntimeError("pool solution failed certification: win chances do not sum to 1")

    def game_one(level_one: list[int], reward: list[int]) -> list[int]:
        return [gain + a * level_one[up] + (b - a) * level_one[down]
                for gain, up, down in zip(reward, won, lost)]

    seat, win = b * level, game_one(level_win, [0] * n)
    # The champion pays when beaten; the challenger pays whenever the
    # champion wins, the final game included.
    level_losses = [scale * held - w for held, w in zip(counts, level_win)]
    losses = game_one(level_losses, [(b - a) * level, a * level] + [0] * (n - 2))
    # E[(games from level 1 on) 1{wins}], times b^K level: a path cut by a
    # loss at step j has played j + 1 games and restarts on level 1; role 0's
    # path takes the pot after K games. Game one adds a game to every win.
    coupled = [(b - a) * sum(x * w for x, w in zip(landing, level_win)) for landing in landings]
    coupled[0] += k * reign * level
    games_won, det = _solve(rows, coupled)
    games_won = game_one(games_won, [w * det for w in win])
    sums = [sum(losses) * games.denominator, sum(games_won) * games.denominator]
    if sums != [games.numerator * seat, games.numerator * seat * det]:
        raise RuntimeError("pool solution failed certification: a sum misses the expected games")
    # Payments over stakes * seat, nets over stakes * seat * det.
    ante, fee = config.ante, config.fee
    stake, charge = ante.numerator * fee.denominator, fee.numerator * ante.denominator
    paid = [stake * seat + charge * x for x in losses]
    nets = [n * stake * w * det + charge * g - x * det for w, g, x in zip(win, games_won, paid)]
    stakes = ante.denominator * fee.denominator * seat
    return PoolSolution(
        tuple(Fraction(w, seat) for w in win), games,
        tuple(Fraction(x, stakes) for x in paid), tuple(Fraction(x, stakes * det) for x in nets),
    )


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolSimulation:
    """Empirical pool results: each seat's win frequency and the mean games, exact."""

    trials: int
    win_prob: tuple[Fraction, ...]
    expected_games: Fraction
    truncated_trials: int


def pool_simulate(
    config: PoolConfig,
    seed: int,
    trials: int,
    max_games: int = DEFAULT_TRIAL_GAME_CAP,
) -> PoolSimulation:
    """Simulate whole pools with the deterministic generator.

    Identical (config, seed, trials) always reproduces identical output.
    A trial that reaches `max_games` games is abandoned and counted in
    `truncated_trials`; nobody collects its pot. The trial loop,
    `montecarlo._pool_trials`, is the pool's transition law in plain
    integers on the stream, with the waiting seats in a ring; the test suite
    pins it against the oracle `advance` in `tests/oracles.py`. A
    denominator of p above 2**64 is refused as `next_below` refuses it.
    """
    from .montecarlo import _pool_trials  # only here, so an exact solve never loads it

    require_integer("trials", trials, 1)
    require_integer("max_games", max_games, 1)
    _require_absorbing(config)
    wins, total_games, truncated = _pool_trials(
        config.players,
        config.streak_required,
        config.champion_win_prob.numerator,
        config.champion_win_prob.denominator,
        seed,
        trials,
        max_games,
    )
    return PoolSimulation(
        trials=trials,
        win_prob=tuple(Fraction(w, trials) for w in wins),
        expected_games=Fraction(total_games, trials),
        truncated_trials=truncated,
    )
