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
level up and every loss lands on level 1, so the levels reduce from the top
down to one exact n x n system per quantity (the absorbing-chain argument
of Kemeny and Snell, applied one streak level at a time), and the expected
duration has a closed form. The test suite cross-checks against the
unlumped state-space solve and against truncated enumeration of game
sequences.

Everything exact is a Fraction; the Monte Carlo cross-check reports exact
empirical frequencies with floating-point standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .montecarlo import RandomStream, require_count
from .rational import as_rational
from .solver import solve_linear_system

DEFAULT_TRIAL_GAME_CAP = 1_000_000


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


@dataclass(frozen=True)
class PoolState:
    """Position between games: who is on a streak and who waits in line."""

    champion: int
    streak: int
    queue: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.streak < 1:
            raise ValueError("streak must be at least 1")
        seats = (self.champion, *self.queue)
        if len(set(seats)) != len(seats):
            raise ValueError("champion and queue must name distinct seats")


def advance(state: PoolState, champion_wins: bool) -> PoolState:
    """Play one game: the loser goes to the back, the winner is champion."""
    challenger = state.queue[0]
    rest = state.queue[1:]
    if champion_wins:
        return PoolState(state.champion, state.streak + 1, rest + (challenger,))
    return PoolState(challenger, 1, rest + (state.champion,))


def opening_state(config: PoolConfig, incumbent_won: bool) -> PoolState:
    """The state after game one, which seats 0 and 1 play (seat 0 incumbent)."""
    waiting = tuple(range(2, config.players))
    if incumbent_won:
        return PoolState(0, 1, waiting + (1,))
    return PoolState(1, 1, waiting + (0,))


# ---------------------------------------------------------------------------
# Level-by-level role solve
# ---------------------------------------------------------------------------


def _require_absorbing(config: PoolConfig) -> None:
    if config.champion_win_prob == 0 and config.streak_required > 1:
        raise PoolDivergenceError(
            "champion_win_prob = 0 with streak_required > 1 never finishes a pool"
        )


def _solve_levels(config: PoolConfig, rewards: list[list[Fraction]]) -> list[list[Fraction]]:
    """Each role's value, level by level, for one reward vector per level.

    Level s (streak 1..R-1) has n roles: role 0 is the champion on streak s
    and role i is queue position i. A role's value is its reward plus, with
    probability p, the value of its champion-wins successor on level s + 1
    (roles 0 -> 0, 1 -> n - 1, i -> i - 1; nothing once the top level wins,
    as the pool ends) plus, with probability 1 - p, the value of its
    champion-loses successor on level 1 (roles 0 -> n - 1, 1 -> 0, i -> i - 1).
    Working down from the top, each level is affine in level 1,
    x_s = a_s + M_s x_1, so the only system solved is (I - M_1) x_1 = a_1,
    n x n. The levels above follow from the same equations read forwards:
    the win map is a permutation, and p > 0 whenever there are two levels
    or more, since with p = 0 that system is singular.
    """
    n = config.players
    p = config.champion_win_prob
    q = 1 - p
    won = (0, n - 1, *range(1, n - 1))
    lost = (n - 1, 0, *range(1, n - 1))
    a = [Fraction(0)] * n
    m = [[Fraction(0)] * n for _ in range(n)]
    for reward in reversed(rewards):
        a = [reward[r] + p * a[won[r]] for r in range(n)]
        m = [[p * x for x in m[won[r]]] for r in range(n)]
        for r in range(n):
            m[r][lost[r]] += q
    system = [[int(r == c) - m[r][c] for c in range(n)] for r in range(n)]
    first = solve_linear_system(system, a)
    if first is None:
        raise PoolDivergenceError("the pool's linear system is singular; no certain finish")
    levels = [first]
    for reward in rewards[:-1]:
        below, above = levels[-1], [Fraction(0)] * n
        for r in range(n):
            above[won[r]] = (below[r] - reward[r] - q * first[lost[r]]) / p
        levels.append(above)
    return levels


def _seat_values(
    config: PoolConfig, level_one: list[Fraction], opener_extra: Fraction = Fraction(0)
) -> list[Fraction]:
    """Combine level-1 role values over the two outcomes of game one.

    Seat 0 becomes the streak-1 champion with probability p and otherwise
    lands at the back of the queue; seat 1 mirrors it; seat k >= 2 starts at
    queue position k - 1 either way. `opener_extra` adds a reward the losing
    opener collects immediately (used for fee losses).
    """
    p = config.champion_win_prob
    champion = level_one[0]
    back = level_one[-1] + opener_extra
    return [p * champion + (1 - p) * back, p * back + (1 - p) * champion, *level_one[1:-1]]


def _win_chances(config: PoolConfig) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Each seat's chance of taking the pot, and each role's, level by level."""
    _require_absorbing(config)
    n, p = config.players, config.champion_win_prob
    if config.streak_required == 1:
        # Game one decides the pool; there are no levels.
        return [p, 1 - p] + [Fraction(0)] * (n - 2), []
    # Only the top-level champion can take the pot, by winning once more.
    zeros = [Fraction(0)] * n
    rewards = [zeros] * (config.streak_required - 2) + [[p] + zeros[1:]]
    levels = _solve_levels(config, rewards)
    return _seat_values(config, levels[0]), levels


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
    pot share is E[(n * ante + fee * G) 1{seat wins}], with the coupled term
    E[G 1{seat wins}] solved over the same streak levels using the win
    probabilities as rewards.
    """
    win, win_levels = _win_chances(config)
    n = config.players
    p = config.champion_win_prob
    ante, fee = config.ante, config.fee
    expected_games = pool_expected_games(config)

    if config.streak_required == 1:
        # Game one decides the pool: its loser pays once, nobody else does.
        losses = [1 - p, p] + [Fraction(0)] * (n - 2)
        games_won = list(win)
    else:
        # The champion pays when beaten; the challenger pays whenever the
        # champion wins, the final game included.
        loss_rewards = [[1 - p, p] + [Fraction(0)] * (n - 2)] * len(win_levels)
        losses = _seat_values(config, _solve_levels(config, loss_rewards)[0], Fraction(1))
        # E[(games after game one) 1{wins}] per role, then add the win
        # probability itself so game one is counted.
        coupled = _seat_values(config, _solve_levels(config, win_levels)[0])
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
    the pot. The trial loop mirrors `advance` with plain integers; the test
    suite pins the two code paths against each other.
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
