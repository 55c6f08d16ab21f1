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
level up and every loss lands on level 1, so each quantity is one exact
n x n system over the level-1 roles (the absorbing-chain argument of Kemeny
and Snell): a level-1 role's row is read off its win path, the roles it
holds on the levels above through consecutive champion wins, each of whose
games either pays that level's reward or sends it back to level 1. The
upper levels are never formed, and the expected duration has a closed
form. The test suite cross-checks against the unlumped state-space solve,
against truncated enumeration of game sequences and, under the default
streak, against the historical pool's closed-form ratio.

Everything exact is a Fraction; the Monte Carlo cross-check reports exact
empirical frequencies with floating-point standard errors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .montecarlo import RandomStream, require_count
from .rational import as_rational
from .solver import solve_linear_system

DEFAULT_TRIAL_GAME_CAP = 1_000_000

# A role's reward per game on level j + 1, as a function of (j, role).
Reward = Callable[[int, int], Fraction]


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
        # A bool is an int, but both bools already fall below 2.
        if not isinstance(self.players, int) or self.players < 2:
            raise ValueError(f"players must be an integer >= 2, got {self.players!r}")
        object.__setattr__(self, "champion_win_prob", as_rational(self.champion_win_prob))
        object.__setattr__(self, "ante", as_rational(self.ante))
        object.__setattr__(self, "fee", as_rational(self.fee))
        if not 0 <= self.champion_win_prob <= 1:
            raise ValueError("champion_win_prob must lie in [0, 1]")
        if self.ante < 0 or self.fee < 0:
            raise ValueError("ante and fee must be nonnegative")
        if self.streak_required is None:
            object.__setattr__(self, "streak_required", self.players - 1)
        required = self.streak_required
        if not isinstance(required, int) or isinstance(required, bool) or required < 1:
            raise ValueError("streak_required must be an integer >= 1")

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


def _level_one(
    config: PoolConfig, reward: Reward, win_chances: list[Fraction] | None = None
) -> list[Fraction]:
    """Each level-1 role's value, its row read off the role's win path.

    Level s (streak 1..R-1) has n roles: role 0 is the champion on streak s
    and role i is queue position i. A champion win moves role r up a level
    as won[r] (0 -> 0, 1 -> n - 1, i -> i - 1; the pool ends from the top
    level) and a loss sends it to level 1 as lost[r] (0 -> n - 1, 1 -> 0,
    i -> i - 1). After j wins in a row (j = 0..R-2) level-1 role r is role
    won^j(r) on level j + 1, with weight p^j; each game there pays
    reward(j, role) and with probability q = 1 - p sends it to level 1, so
    x1[r] = sum_j p^j (reward + q x1[lost[won^j r]]). Given the level-1 win
    chances w1 it solves E[G 1{win}], whose reward is each level's win
    chance: unrolled along the same path, its constant is
    sum_j (j + 1) p^j (reward + q w1[lost[won^j r]]).
    """
    n, p = config.players, config.champion_win_prob
    q = 1 - p
    won = (0, n - 1, *range(1, n - 1))
    lost = (n - 1, 0, *range(1, n - 1))
    system = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    constants = [Fraction(0)] * n
    for r in range(n):
        role, weight = r, Fraction(1)
        for j in range(config.streak_required - 1):
            system[r][lost[role]] -= weight * q
            gain = reward(j, role)
            if win_chances is not None:
                gain = (j + 1) * (gain + q * win_chances[lost[role]])
            constants[r] += weight * gain
            role, weight = won[role], weight * p
    solution = solve_linear_system(system, constants)
    if solution is None:
        raise PoolDivergenceError("the pool's linear system is singular; no certain finish")
    return solution


def _seat_values(
    config: PoolConfig, level_one: list[Fraction], opener_extra: Fraction = Fraction(0)
) -> list[Fraction]:
    """Combine the level-1 role values from `_level_one` over game one's outcomes.

    Seat 0 becomes the streak-1 champion with probability p and otherwise
    lands at the back of the queue; seat 1 mirrors it; seat k >= 2 starts at
    queue position k - 1 either way. `opener_extra` adds a reward the losing
    opener collects immediately (used for fee losses).
    """
    p = config.champion_win_prob
    champion = level_one[0]
    back = level_one[-1] + opener_extra
    return [p * champion + (1 - p) * back, p * back + (1 - p) * champion, *level_one[1:-1]]


def _pot_reward(config: PoolConfig) -> Reward:
    """Only the top-level champion can take the pot, by winning once more."""
    top, p = config.streak_required - 2, config.champion_win_prob
    return lambda j, role: p if j == top and role == 0 else Fraction(0)


def _win_chances(config: PoolConfig) -> tuple[list[Fraction], list[Fraction]]:
    """Each seat's chance of taking the pot, and each level-1 role's."""
    _require_absorbing(config)
    n, p = config.players, config.champion_win_prob
    if config.streak_required == 1:
        # Game one decides the pool; there are no levels.
        return [p, 1 - p] + [Fraction(0)] * (n - 2), []
    level_one = _level_one(config, _pot_reward(config))
    return _seat_values(config, level_one), level_one


def pool_win_probabilities(config: PoolConfig) -> tuple[Fraction, ...]:
    """Exact probability that each seat eventually takes the pot."""
    return tuple(_win_chances(config)[0])


def pool_expected_games(config: PoolConfig) -> Fraction:
    """Exact expected number of games played, the final one included.

    After game one every loss restarts a champion at streak 1, so the rest
    of the pool is the wait for R - 1 champion wins in a row, whose mean is
    the sum of p^-j for j = 1..R-1.
    """
    _require_absorbing(config)
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
    pot share is E[(n * ante + fee * G) 1{seat wins}]. Win chances, losses
    and the coupled term E[G 1{seat wins}] are each one n x n system over
    the level-1 roles, its rows read off the roles' win paths.
    """
    win, win_level_one = _win_chances(config)
    n, p = config.players, config.champion_win_prob
    ante, fee = config.ante, config.fee
    expected_games = pool_expected_games(config)
    loss = [1 - p, p] + [Fraction(0)] * (n - 2)

    if config.streak_required == 1:
        # Game one decides the pool: its loser pays once, nobody else does.
        losses = loss
        games_won = list(win)
    else:
        # The champion pays when beaten; the challenger pays whenever the
        # champion wins, the final game included.
        losses = _seat_values(config, _level_one(config, lambda j, role: loss[role]), Fraction(1))
        # E[(games after game one) 1{wins}] per role, then add the win
        # probability itself so game one is counted.
        coupled = _seat_values(config, _level_one(config, _pot_reward(config), win_level_one))
        games_won = [seat_win + seat_coupled for seat_win, seat_coupled in zip(win, coupled)]

    pot_base = n * ante
    payments = [ante + fee * seat_losses for seat_losses in losses]
    receipts = [pot_base * w + fee * g for w, g in zip(win, games_won)]
    nets = [receipt - payment for receipt, payment in zip(receipts, payments)]
    return PoolSolution(tuple(win), expected_games, tuple(payments), tuple(nets))


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolSimulation:
    """Empirical pool results; frequencies are exact, standard errors float."""

    trials: int
    win_prob: tuple[Fraction, ...]
    win_prob_se: tuple[float, ...]
    expected_games: Fraction
    expected_games_se: float
    expected_payment: tuple[Fraction, ...]
    expected_net: tuple[Fraction, ...]
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
    `truncated_trials`: its fees are kept in the books but nobody collects
    the pot. The trial loop is the pool's transition law in plain integers;
    the test suite pins it against the oracle `advance` in `tests/oracles.py`.
    """
    require_count("trials", trials)
    require_count("max_games", max_games)
    _require_absorbing(config)
    n = config.players
    required = config.streak_required
    num = config.champion_win_prob.numerator
    den = config.champion_win_prob.denominator
    stream = RandomStream(seed)
    next_below = stream.next_below

    wins = [0] * n
    losses = [0] * n
    games_when_won = [0] * n
    total_games = 0
    total_games_sq = 0
    truncated = 0

    for _ in range(trials):
        champion = 0
        streak = 0
        queue = list(range(1, n))
        games = 0
        while games < max_games:
            games += 1
            challenger = queue.pop(0)
            if next_below(den) < num:
                streak += 1
                losses[challenger] += 1
                queue.append(challenger)
            else:
                losses[champion] += 1
                queue.append(champion)
                champion = challenger
                streak = 1
            if streak >= required:
                break
        if streak >= required:
            wins[champion] += 1
            games_when_won[champion] += games
        else:
            truncated += 1
        total_games += games
        total_games_sq += games * games

    win_prob = tuple(Fraction(w, trials) for w in wins)
    win_se = tuple(sqrt(float(f) * float(1 - f) / trials) for f in win_prob)
    mean_games = Fraction(total_games, trials)
    games_variance = Fraction(total_games_sq, trials) - mean_games * mean_games
    games_se = sqrt(float(games_variance) / trials)

    ante, fee = config.ante, config.fee
    pot_base = n * ante
    payments = tuple(ante + fee * Fraction(s, trials) for s in losses)
    receipts = [
        pot_base * Fraction(w, trials) + fee * Fraction(g, trials)
        for w, g in zip(wins, games_when_won)
    ]
    nets = tuple(receipt - payment for receipt, payment in zip(receipts, payments))
    return PoolSimulation(
        trials=trials,
        win_prob=win_prob,
        win_prob_se=win_se,
        expected_games=mean_games,
        expected_games_se=games_se,
        expected_payment=payments,
        expected_net=nets,
        truncated_trials=truncated,
    )
