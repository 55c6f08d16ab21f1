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
its loser to the back of the queue, so one solve counts each role's
challenges, and its win chance and fee losses are that count read two ways.
Games-weighted wins are a second right-hand side, and game one is one more
step of the same law from streak 0. The upper levels are never formed and
the duration has a closed form. The test suite cross-checks against the
unlumped state-space solve, truncated enumeration of game sequences and,
under the default streak, the historical pool's closed-form ratio.

Everything is exact: the solve's answers are Fractions, and the Monte Carlo
cross-check returns its counts and their Fraction frequencies; the command
that prints a run computes its standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .montecarlo import _pool_trials
from .rational import require_integer, require_rational
from .solver import solve_linear_system

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
            f" = {size} exceeds {MAX_EXACT_POOL_SIZE}"
        )


def _moves(players: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each role's next role after a champion win (won) and a loss (lost)."""
    waiting = tuple(range(1, players - 1))
    return (0, players - 1, *waiting), (players - 1, 0, *waiting)


def _solve(system: list[list[Fraction]], constants: list[Fraction]) -> list[Fraction]:
    solution = solve_linear_system(system, constants)
    if solution is None:
        raise PoolDivergenceError("the pool's linear system is singular; no certain finish")
    return solution


def _level_one(config: PoolConfig) -> tuple[
    list[list[Fraction]], list[list[tuple[int, Fraction]]], list[Fraction], list[Fraction]
]:
    """The level-1 system I - M, each role's win path, and its win chance and losses.

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
    that. With R = 1 every path is empty and C = 0.
    """
    _require_within_reach(config)
    n, p = config.players, config.champion_win_prob
    won, lost = _moves(n)
    system = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    paths, challenges = [], []
    for r in range(n):
        path, role, weight = [], r, Fraction(1)
        for _ in range(config.streak_required - 1):
            path.append((role, weight))
            system[r][lost[role]] -= weight * (1 - p)
            role, weight = won[role], weight * p
        paths.append(path)
        challenges.append(sum((w for role, w in path if role == 1), Fraction(0)))
    counts, reign = _solve(system, challenges), p ** (config.streak_required - 1)
    win = [((1 - p) * count + int(r == 0)) * reign for r, count in enumerate(counts)]
    losses = [count + int(r == 0) - w for r, (count, w) in enumerate(zip(counts, win))]
    return system, paths, win, losses


def _game_one(
    config: PoolConfig, level_one: list[Fraction], reward: list[Fraction]
) -> list[Fraction]:
    """Each seat's value: game one is one more step of the level law.

    Seat s holds role s at streak 0, collects reward[s] in game one and
    lands on level 1 as won[s] or lost[s].
    """
    p = config.champion_win_prob
    won, lost = _moves(config.players)
    return [
        gain + p * level_one[won[s]] + (1 - p) * level_one[lost[s]]
        for s, gain in enumerate(reward)
    ]


def pool_win_probabilities(config: PoolConfig) -> tuple[Fraction, ...]:
    """Exact probability that each seat eventually takes the pot."""
    return tuple(_game_one(config, _level_one(config)[2], [Fraction(0)] * config.players))


def pool_expected_games(config: PoolConfig) -> Fraction:
    """Exact expected number of games played, the final one included.

    After game one every loss restarts a champion at streak 1, so the rest
    of the pool is the wait for R - 1 champion wins in a row, whose mean is
    the sum of p^-j for j = 1..R-1.
    """
    _require_within_reach(config)
    p = config.champion_win_prob
    return 1 + sum((1 / p**j for j in range(1, config.streak_required)), Fraction(0))


@dataclass(frozen=True)
class PoolSolution:
    """Per-seat exact results: chances, stakes paid, and net expectation."""

    win_prob: tuple[Fraction, ...]
    expected_games: Fraction
    expected_payment: tuple[Fraction, ...]
    expected_net: tuple[Fraction, ...]


def pool_solve(config: PoolConfig) -> PoolSolution:
    """Complete exact solution: win chances, duration, payments and nets.

    A seat's payment is its ante plus the fee times its expected losses. Its
    pot share is E[(n * ante + fee * G) 1{seat wins}]. One solve of the
    level-1 system counts challenges, which give the win chances and the
    losses; the coupled term E[G 1{seat wins}] is a second right-hand side,
    and game one is one more step of the same law.
    """
    system, paths, level_win, level_losses = _level_one(config)
    n, p, streak = config.players, config.champion_win_prob, config.streak_required
    _, lost = _moves(n)
    win = _game_one(config, level_win, [Fraction(0)] * n)
    # The champion pays when beaten; the challenger pays whenever the
    # champion wins, the final game included.
    losses = _game_one(config, level_losses, [1 - p, p] + [Fraction(0)] * (n - 2))
    # E[(games from level 1 on) 1{wins}]: a path cut by a loss at step j has
    # played j + 1 games and restarts on level 1; role 0's path takes the
    # pot after R - 1 games. Game one adds a game to every winning history.
    coupled_constants = [
        sum((j + 1) * w * (1 - p) * level_win[lost[role]] for j, (role, w) in enumerate(path))
        for path in paths
    ]
    coupled_constants[0] += (streak - 1) * p ** (streak - 1)
    games_won = _game_one(config, _solve(system, coupled_constants), win)

    ante, fee = config.ante, config.fee
    payments = [ante + fee * seat_losses for seat_losses in losses]
    receipts = [config.pot * w + fee * g for w, g in zip(win, games_won)]
    nets = [receipt - payment for receipt, payment in zip(receipts, payments)]
    return PoolSolution(tuple(win), pool_expected_games(config), tuple(payments), tuple(nets))


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
