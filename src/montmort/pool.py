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
through the player's role, (streak, queue position), and each quantity
solves one exact linear system over that (streak_required - 1) * n role
space. The test suite cross-checks against the unlumped state-space solve
and against truncated enumeration of game sequences.

Everything exact is a Fraction; the Monte Carlo cross-check reports exact
empirical frequencies with floating-point standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .montecarlo import RandomStream
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
# Role-space linear systems
# ---------------------------------------------------------------------------


class _RoleSpace:
    """Index bookkeeping for the lumped (streak, queue position) roles.

    Variables are C(s) for champion streaks s in 1..R-1 and Q(s, i) for queue
    positions i in 1..n-1 under a champion at streak s. For each quantity we
    solve (I - transitions) x = rewards, where transitions carry probability
    p to the champion-wins successor (absent when the win ends the pool) and
    1 - p to the champion-loses successor.
    """

    def __init__(self, config: PoolConfig):
        self.n = config.players
        self.required = config.streak_required
        self.p = config.champion_win_prob
        self.size = (self.required - 1) * self.n

    def champion(self, streak: int) -> int:
        return streak - 1

    def queue(self, streak: int, position: int) -> int:
        return (self.required - 1) + (streak - 1) * (self.n - 1) + (position - 1)

    def _successors(self, index: int) -> tuple[int | None, int]:
        """(champion-wins successor or None if the pool ends, champion-loses successor)."""
        n, top = self.n, self.required - 1
        if index < top:
            streak = index + 1
            win = None if streak == top else self.champion(streak + 1)
            return win, self.queue(1, n - 1)
        offset = index - top
        streak = offset // (n - 1) + 1
        position = offset % (n - 1) + 1
        if streak == top:
            win = None
        else:
            win = self.queue(streak + 1, n - 1 if position == 1 else position - 1)
        lose = self.champion(1) if position == 1 else self.queue(1, position - 1)
        return win, lose

    def solve(self, rewards: list[Fraction]) -> list[Fraction]:
        p = self.p
        rows = []
        for index in range(self.size):
            row = [Fraction(0)] * self.size
            row[index] = Fraction(1)
            win, lose = self._successors(index)
            if win is not None:
                row[win] -= p
            row[lose] -= 1 - p
            rows.append(row)
        solution = solve_linear_system(rows, rewards)
        if solution is None:
            raise PoolDivergenceError("the pool's linear system is singular; no certain finish")
        return solution


def _require_absorbing(config: PoolConfig) -> None:
    if config.champion_win_prob == 0 and config.streak_required > 1:
        raise PoolDivergenceError(
            "champion_win_prob = 0 with streak_required > 1 never finishes a pool"
        )


def _win_rewards(roles: _RoleSpace) -> list[Fraction]:
    rewards = [Fraction(0)] * roles.size
    rewards[roles.champion(roles.required - 1)] = roles.p
    return rewards


def _loss_rewards(roles: _RoleSpace) -> list[Fraction]:
    # The champion pays when beaten; the challenger pays whenever the
    # champion wins, the final game included.
    rewards = [Fraction(0)] * roles.size
    for streak in range(1, roles.required):
        rewards[roles.champion(streak)] = 1 - roles.p
        rewards[roles.queue(streak, 1)] = roles.p
    return rewards


def _seat_values(
    roles: _RoleSpace, values: list[Fraction], opener_extra: Fraction = Fraction(0)
) -> list[Fraction]:
    """Combine role values over the two outcomes of game one.

    Seat 0 becomes the streak-1 champion with probability p and otherwise
    lands at the back of the queue; seat 1 mirrors it; seat k >= 2 starts at
    queue position k - 1 either way. `opener_extra` adds a reward the losing
    opener collects immediately (used for fee losses).
    """
    p = roles.p
    champion_value = values[roles.champion(1)]
    back_value = values[roles.queue(1, roles.n - 1)]
    seats = [
        p * champion_value + (1 - p) * (back_value + opener_extra),
        p * (back_value + opener_extra) + (1 - p) * champion_value,
    ]
    for seat in range(2, roles.n):
        seats.append(values[roles.queue(1, seat - 1)])
    return seats


def pool_win_probabilities(config: PoolConfig) -> tuple[Fraction, ...]:
    """Exact probability that each seat eventually takes the pot."""
    _require_absorbing(config)
    n, p = config.players, config.champion_win_prob
    if config.streak_required == 1:
        return (p, 1 - p) + (Fraction(0),) * (n - 2)
    roles = _RoleSpace(config)
    wins = roles.solve(_win_rewards(roles))
    return tuple(_seat_values(roles, wins))


def pool_expected_games(config: PoolConfig) -> Fraction:
    """Exact expected number of games played, the final one included."""
    _require_absorbing(config)
    if config.streak_required == 1:
        return Fraction(1)
    # Duration depends only on the champion's streak: one game now, then
    # either the streak grows or a fresh champion starts over.
    p = config.champion_win_prob
    top = config.streak_required - 1
    rows = []
    for streak in range(1, top + 1):
        row = [Fraction(0)] * top
        row[streak - 1] = Fraction(1)
        if streak < top:
            row[streak] -= p
        row[0] -= 1 - p
        rows.append(row)
    remaining = solve_linear_system(rows, [Fraction(1)] * top)
    if remaining is None:
        raise PoolDivergenceError("the pool's duration system is singular; no certain finish")
    return 1 + remaining[0]


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
    E[G 1{seat wins}] solved over the same role space using the win
    probabilities as rewards.
    """
    _require_absorbing(config)
    n = config.players
    p = config.champion_win_prob
    ante, fee = config.ante, config.fee

    if config.streak_required == 1:
        win = [p, 1 - p] + [Fraction(0)] * (n - 2)
        expected_games = Fraction(1)
        losses = [1 - p, p] + [Fraction(0)] * (n - 2)
        games_won = list(win)
    else:
        roles = _RoleSpace(config)
        wins = roles.solve(_win_rewards(roles))
        win = _seat_values(roles, wins)
        expected_games = pool_expected_games(config)
        losses = _seat_values(roles, roles.solve(_loss_rewards(roles)), opener_extra=Fraction(1))
        # E[(games after game one) 1{wins}] per role, then add the win
        # probability itself so game one is counted.
        coupled = roles.solve(list(wins))
        games_won = [
            seat_win + seat_coupled
            for seat_win, seat_coupled in zip(win, _seat_values(roles, coupled))
        ]

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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if max_games < 1:
        raise ValueError("max_games must be at least 1")
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
