"""Independent oracles the tests check the exact engines against.

These deliberately avoid the production solvers' code paths. The pool's
reference transition law lives here (`PoolState`, `advance`,
`opening_state`); the engine keeps only the simulator's integer loop. The
truncated pool enumeration walks game sequences breadth-first using only
that law and exact Fractions; the unlumped solver builds the raw
(champion, streak, queue) state space and solves it seat by seat,
validating the role-symmetry reduction used in production. The reference
pool simulator replays `pool_simulate`'s stream usage through `advance`;
the reference Le Her simulator draws tokens with the exact coin flip
`bernoulli`, walks rank counts for every card and settles every deal
through `settle_deal`, the oracles' own Le Her deal law written from the
rules alone and checked against the engine's `resolve_deal` on every deal.
The Le Her deal tally walks the 52 * 51 * 50 ordered deals of physical cards
one by one through `settle_deal`, with none of the rank-multiplicity weights
the exact enumeration uses. The weight-table reference settles every rank
triple of every deal class through `settle_deal` too, under constant-flag
strategies, walking all 13 third cards whether the class is settled or not.
Two Le Her references keep engine code on purpose, as the engine's former
builds: the rank-subset enumerator, the former lot computation, walks the
rank triples of one strategy pair through the engine's `_before_draw`,
restricted to chosen first and second ranks, and shares none of the
production weight table's indexing; the threshold-matrix reference makes
the 14 x 14 threshold game from 196 separate full lots. Support enumeration
solves a matrix game by trying every pair of square supports with exact
equalisation solves, sharing nothing with the production simplex tableau.
The strict-elimination reference is the engine's former one-at-a-time
dominance loop, against which the whole-pass elimination is checked. The
certificate reference sums every entry against both whole mixes, zero
probabilities included.
The pool's duration moments come from first-step analysis over the run of
champion wins, sharing nothing with the engine's closed-form mean.
The linear-system reference is the engine's former Gaussian elimination
over Fractions; the unlumped pool solve, the support-equalising solves and
the reference pool solve run on it, so the engine's fraction-free kernel is
never checked against itself. The reference pool solve is the engine's
former one, the dense level-1 system built and solved as Fractions. The
decimal-rendering reference is the engine's former digit-by-digit long
division. `seed_with_output` runs the stream backwards from a chosen raw
output, so a test can force the rare rejected draw. `read_rational` reads a
"p/q" of any length back in short chunks, so no int-string limit applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from montmort.leher import (
    COPIES_PER_RANK,
    DECK_SIZE,
    KING,
    RANK_COUNT,
    PaulStrategy,
    PierreStrategy,
    _before_draw,
    _token_weights,
    paul_win_probability,
)
from montmort.montecarlo import MASK64, XORSHIFT_MULTIPLIER, RandomStream
from montmort.pool import PoolConfig, PoolDivergenceError, PoolSolution
from montmort.solver import GameMatrix


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


@dataclass(frozen=True)
class TruncatedPoolEnumeration:
    """Exact mass accounting for all game sequences of at most `depth` games."""

    depth: int
    win_mass: tuple[Fraction, ...]  # per seat, paths absorbed within depth
    tail_mass: Fraction  # paths still running after depth games
    expected_losses: tuple[Fraction, ...]  # fees incurred within depth
    expected_games: Fraction  # games played within depth (caps at depth on tail)
    expected_net: tuple[Fraction, ...]  # nets settled within depth
    residual_net_bound: Fraction  # rigorous bound on |true net - expected_net|
    residual_games_bound: Fraction


def enumerate_pool(config: PoolConfig, depth: int) -> TruncatedPoolEnumeration:
    """Breadth-first exact enumeration of pool trajectories up to `depth` games.

    Frontier entries carry, per reachable state, the path mass P, the
    mass-weighted per-seat loss counts L, and the mass-weighted games count
    G, all exact. Absorbed mass settles the pot immediately. The residual
    bounds use E[extra games from any state] <= streak / p**streak, from the
    fact that every block of `streak` games ends the pool with probability
    at least p**streak.
    """
    n = config.players
    p = config.champion_win_prob
    required = config.streak_required
    if p == 0 and required > 1:
        raise ValueError("enumeration oracle needs an absorbing pool")
    fee, ante = config.fee, config.ante
    pot_base = n * ante

    win_mass = [Fraction(0)] * n
    receipts = [Fraction(0)] * n
    losses = [Fraction(0)] * n
    games_total = Fraction(0)

    # entry: state -> [mass, per-seat weighted losses, weighted games]
    frontier: dict[PoolState, list] = {}

    def settle(seat: int, mass: Fraction, games_weighted: Fraction) -> None:
        win_mass[seat] += mass
        receipts[seat] += pot_base * mass + fee * games_weighted

    def push(state: PoolState, mass: Fraction, loss_vec: list[Fraction], games: Fraction) -> None:
        entry = frontier.get(state)
        if entry is None:
            frontier[state] = [mass, loss_vec, games]
        else:
            entry[0] += mass
            entry[1] = [x + y for x, y in zip(entry[1], loss_vec)]
            entry[2] += games

    # Game one: seats 0 and 1 play, seat 0 the incumbent.
    for incumbent_won, mass in ((True, p), (False, 1 - p)):
        if mass == 0:
            continue
        loser = 1 if incumbent_won else 0
        loss_vec = [Fraction(0)] * n
        loss_vec[loser] = mass
        losses[loser] += mass
        games_total += mass
        state = opening_state(config, incumbent_won)
        if state.streak >= required:
            settle(state.champion, mass, mass)  # one game, weighted by mass
        else:
            push(state, mass, loss_vec, mass)

    for _ in range(1, depth):
        if not frontier:
            break
        previous, frontier = frontier, {}
        for state, (mass, loss_vec, games) in previous.items():
            challenger = state.queue[0]
            for champion_wins, q in ((True, p), (False, 1 - p)):
                if q == 0:
                    continue
                child_mass = mass * q
                loser = challenger if champion_wins else state.champion
                child_losses = [x * q for x in loss_vec]
                child_losses[loser] += child_mass
                child_games = games * q + child_mass
                losses[loser] += child_mass
                games_total += child_mass
                child = advance(state, champion_wins)
                if child.streak >= required:
                    settle(child.champion, child_mass, child_games)
                else:
                    push(child, child_mass, child_losses, child_games)

    tail = sum(entry[0] for entry in frontier.values())
    nets = [
        receipts[s] - ante - fee * losses[s] for s in range(n)
    ]
    # Beyond the horizon: at most R / p**R more games in expectation from any
    # state, each costing one fee, and an eventual pot of n*ante plus fee per
    # game played.
    extra_games = Fraction(required, 1) / (p**required)
    residual_games = tail * extra_games
    residual_net = tail * (pot_base + fee * (depth + extra_games)) + fee * residual_games
    return TruncatedPoolEnumeration(
        depth=depth,
        win_mass=tuple(win_mass),
        tail_mass=tail,
        expected_losses=tuple(losses),
        expected_games=games_total,
        expected_net=tuple(nets),
        residual_net_bound=residual_net,
        residual_games_bound=residual_games,
    )


def solve_linear_system_reference(
    coefficients: list[list[Fraction]], constants: list[Fraction]
) -> list[Fraction] | None:
    """Solve a square system exactly; None when the matrix is singular.

    Gaussian elimination over Fractions with partial pivoting on exact
    magnitude. Exact arithmetic means pivoting is about determinism, not
    numerical stability.
    """
    size = len(coefficients)
    if any(len(row) != size for row in coefficients) or len(constants) != size:
        raise ValueError("system must be square with a matching constant vector")
    a = [list(row) for row in coefficients]
    b = list(constants)
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            return None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inverse = 1 / a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] * inverse
            if factor == 0:
                continue
            for k in range(col, size):
                a[r][k] -= factor * a[col][k]
            b[r] -= factor * b[col]
    solution = [Fraction(0)] * size
    for row in range(size - 1, -1, -1):
        acc = b[row]
        for k in range(row + 1, size):
            acc -= a[row][k] * solution[k]
        solution[row] = acc / a[row][row]
    return solution


def level_one_reference(
    config: PoolConfig,
) -> tuple[list[list[Fraction]], list[list[tuple[int, Fraction]]]]:
    """The level-1 system I - M as Fractions, and each level-1 role's win path.

    The engine's former build. Role 0 is the champion on streak s and role
    i is queue position i; a champion win moves role r to won[r] one level
    up and a loss sends it to lost[r] on level 1. After j wins in a row
    (j = 0..R-2) level-1 role r is role won^j(r) with weight p^j, and a
    loss there, with probability q = 1 - p, lands on level 1.
    """
    n, p = config.players, config.champion_win_prob
    won, lost = _role_moves(n)
    system = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    paths = []
    for r in range(n):
        path, role, weight = [], r, Fraction(1)
        for _ in range(config.streak_required - 1):
            path.append((role, weight))
            system[r][lost[role]] -= weight * (1 - p)
            role, weight = won[role], weight * p
        paths.append(path)
    return system, paths


def _role_moves(players: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each role's next role after a champion win (won) and a loss (lost)."""
    waiting = tuple(range(1, players - 1))
    return (0, players - 1, *waiting), (players - 1, 0, *waiting)


def pool_solve_reference(config: PoolConfig) -> PoolSolution:
    """The engine's former pool solve: every step a Fraction, every solve dense.

    Two solves of `level_one_reference` by the Fraction elimination: the
    first counts each role's challenges (games as queue position 1), which
    give the level-1 win chances (q C + [r = 0]) p^(R-1) and losses
    C + [r = 0] less those; the second, with a right-hand side read off the
    win paths, gives the games-weighted wins. Game one is one more step
    from streak 0, and the duration is 1 plus the sum of p^-j, j = 1..R-1.
    A singular system, which p = 0 gives with R > 1, raises
    `PoolDivergenceError`, which the engine raises for it before any solve.
    """
    n, p, streak = config.players, config.champion_win_prob, config.streak_required
    q, reign = 1 - p, p ** (streak - 1)
    won, lost = _role_moves(n)
    system, paths = level_one_reference(config)

    def solve(constants):
        solution = solve_linear_system_reference(system, constants)
        if solution is None:
            raise PoolDivergenceError("the pool's linear system is singular; no certain finish")
        return solution

    def game_one(level_one, reward):
        return [
            gain + p * level_one[won[s]] + q * level_one[lost[s]] for s, gain in enumerate(reward)
        ]

    challenges = [sum((w for role, w in path if role == 1), Fraction(0)) for path in paths]
    counts = solve(challenges)
    level_win = [(q * count + int(r == 0)) * reign for r, count in enumerate(counts)]
    level_losses = [count + int(r == 0) - w for r, (count, w) in enumerate(zip(counts, level_win))]
    win = game_one(level_win, [Fraction(0)] * n)
    losses = game_one(level_losses, [q, p] + [Fraction(0)] * (n - 2))
    coupled = [
        sum((j + 1) * w * q * level_win[lost[role]] for j, (role, w) in enumerate(path))
        for path in paths
    ]
    coupled[0] += (streak - 1) * reign
    games_won = game_one(solve(coupled), win)
    games = 1 + sum((1 / p**j for j in range(1, streak)), Fraction(0))
    payments = [config.ante + config.fee * seat_losses for seat_losses in losses]
    nets = [
        config.pot * w + config.fee * g - paid for w, g, paid in zip(win, games_won, payments)
    ]
    return PoolSolution(tuple(win), games, tuple(payments), tuple(nets))


def unlumped_win_probabilities(config: PoolConfig) -> tuple[Fraction, ...]:
    """Win probabilities from the raw (champion, streak, queue) state space.

    Builds every state reachable after game one and solves one exact linear
    system with a right-hand side per seat. Exists to validate the
    production solver's role-symmetry lumping.
    """
    n = config.players
    p = config.champion_win_prob
    required = config.streak_required
    if required == 1:
        return (p, 1 - p) + (Fraction(0),) * (n - 2)
    if p == 0:
        raise ValueError("unlumped oracle needs an absorbing pool")

    start_win = opening_state(config, True)
    start_loss = opening_state(config, False)
    states: list[PoolState] = []
    index: dict[PoolState, int] = {}
    stack = [start_win, start_loss]
    while stack:
        state = stack.pop()
        if state in index:
            continue
        index[state] = len(states)
        states.append(state)
        for champion_wins in (True, False):
            child = advance(state, champion_wins)
            if child.streak < required and child not in index:
                stack.append(child)

    size = len(states)
    rows = []
    absorb = []  # absorb[i][s]: mass seat s collects in one step from state i
    for state in states:
        row = [Fraction(0)] * size
        row[index[state]] += 1
        collected = [Fraction(0)] * n
        for champion_wins, q in ((True, p), (False, 1 - p)):
            child = advance(state, champion_wins)
            if child.streak >= required:
                collected[child.champion] += q
            else:
                row[index[child]] -= q
        rows.append(row)
        absorb.append(collected)

    per_state_win: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(size)]
    for seat in range(n):
        solution = solve_linear_system_reference(rows, [absorb[i][seat] for i in range(size)])
        assert solution is not None
        for i in range(size):
            per_state_win[i][seat] = solution[i]

    result = []
    for seat in range(n):
        value = p * per_state_win[index[start_win]][seat]
        value += (1 - p) * per_state_win[index[start_loss]][seat]
        result.append(value)
    return tuple(result)


def simulate_pool_reference(config: PoolConfig, seed: int, trials: int, max_games: int):
    """Replay pool_simulate's stream consumption through PoolState/advance.

    Returns (wins, total_games, truncated) so the production simulator's
    inlined loop can be pinned against the law.
    """
    n = config.players
    required = config.streak_required
    num = config.champion_win_prob.numerator
    den = config.champion_win_prob.denominator
    stream = RandomStream(seed)
    wins = [0] * n
    total_games = 0
    truncated = 0
    for _ in range(trials):
        state = opening_state(config, stream.next_below(den) < num)
        games = 1
        while state.streak < required and games < max_games:
            state = advance(state, stream.next_below(den) < num)
            games += 1
        if state.streak >= required:
            wins[state.champion] += 1
        else:
            truncated += 1
        total_games += games
    return wins, total_games, truncated


def duration_moments(p: Fraction, streak: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of a pool's duration T, by first-step analysis.

    Game one always leaves a champion on streak 1, so T = 1 + W, where W is
    the wait for k = streak - 1 champion wins in a row. From a run of j < k
    wins one game moves to j + 1 with probability p or back to 0 with
    q = 1 - p, so each moment x_j of the wait left solves
    x_j = c_j + p x_(j+1) + q x_0 with x_k = 0: c_j = 1 for the mean m, and
    c_j = 1 + 2 (p m_(j+1) + q m_0) for the second moment, since
    (1 + W')^2 = 1 + 2 W' + W'^2. Every x_j is affine in x_0, so one backward
    pass and one division solve each. Var[T] = Var[W].
    """
    k, q = streak - 1, 1 - p

    def solve(constants: list[Fraction]) -> list[Fraction]:
        # x_j = a_j + b_j x_0, from x_k = 0 down to j = 0.
        a, b = [Fraction(0)] * (k + 1), [Fraction(0)] * (k + 1)
        for j in reversed(range(k)):
            a[j] = constants[j] + p * a[j + 1]
            b[j] = q + p * b[j + 1]
        start = a[0] / (1 - b[0])
        return [a_j + b_j * start for a_j, b_j in zip(a, b)]

    mean = solve([Fraction(1)] * k)
    second = solve([1 + 2 * (p * mean[j + 1] + q * mean[0]) for j in range(k)])
    return 1 + mean[0], second[0] - mean[0] ** 2


def _undo_xorshift(y: int, shift: int) -> int:
    """Invert y = x ^ (x >> shift), or x ^ (x << shift) masked for a negative shift."""
    x = y
    for _ in range(64 // abs(shift)):
        x = y ^ ((x >> shift) if shift > 0 else ((x << -shift) & MASK64))
    return x


def seed_with_output(output: int, k: int = 1) -> int:
    """A seed whose k-th raw 64-bit output (k = 1 the first) is `output`.

    The output is state * multiplier mod 2**64, so the k-th state is the
    output times the multiplier's inverse; undoing the shift register's step
    k times walks it back to the seed. A nonzero output gives a nonzero
    seed, which the stream takes as it is.
    """
    if not 0 < output <= MASK64 or k < 1:
        raise ValueError("output must lie in 1..2**64 - 1 and k must be >= 1")
    x = output * pow(XORSHIFT_MULTIPLIER, -1, 1 << 64) & MASK64
    for _ in range(k):
        x = _undo_xorshift(_undo_xorshift(_undo_xorshift(x, 27), -25), 12)
    return x


def _draw_three_ranks(stream: RandomStream) -> tuple[int, int, int]:
    """Deal three cards without replacement, respecting rank multiplicities."""
    counts = [COPIES_PER_RANK] * RANK_COUNT
    remaining = DECK_SIZE
    dealt = []
    for _ in range(3):
        pick = stream.next_below(remaining)
        for rank0, count in enumerate(counts):
            pick -= count
            if pick < 0:
                dealt.append(rank0 + 1)
                counts[rank0] -= 1
                remaining -= 1
                break
    return dealt[0], dealt[1], dealt[2]


def bernoulli(stream: RandomStream, probability: Fraction) -> bool:
    """Exact-probability coin flip: no floating point in the threshold."""
    if not 0 <= probability <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    return stream.next_below(probability.denominator) < probability.numerator


def settle_deal(
    paul_card: int, pierre_card: int, replacement: int, paul: PaulStrategy, pierre: PierreStrategy
) -> tuple[int, int]:
    """Final (Paul's card, Pierre's card) of one three-card deal, from the rules alone.

    Paul may force a swap unless Pierre holds a king, which Pierre then keeps.
    After a completed swap Pierre draws exactly when he is behind (he takes
    ties); otherwise his own flag at his card decides. A drawn king is thrown
    back, leaving Pierre's card as it was.
    """
    if paul.switch[paul_card - 1]:
        if pierre_card == KING:
            return paul_card, pierre_card
        paul_card, pierre_card = pierre_card, paul_card
        draws = pierre_card < paul_card
    else:
        draws = pierre.draw[pierre_card - 1]
    if draws and replacement != KING:
        pierre_card = replacement
    return paul_card, pierre_card


def simulate_leher_reference(a, b, c, d, seed: int, trials: int) -> int:
    """Paul's wins over `trials` token-bag deals, one game-law call per deal.

    Consumes the stream as `leher_simulate` does: Paul's token, Pierre's
    token, then the three cards, so the production loop's tabulated law and
    indexed deck can be pinned against the plain one.
    """
    a, b, c, d = _token_weights(a, b, c, d)
    paul_switch = a / (a + b)
    pierre_switch = c / (c + d)
    paul_choices = (PaulStrategy.threshold(6), PaulStrategy.threshold(7))
    pierre_choices = (PierreStrategy.threshold(7), PierreStrategy.threshold(8))

    stream = RandomStream(seed)
    wins = 0
    for _ in range(trials):
        paul = paul_choices[bernoulli(stream, paul_switch)]
        pierre = pierre_choices[bernoulli(stream, pierre_switch)]
        paul_card, pierre_card, replacement = _draw_three_ranks(stream)
        paul_final, pierre_final = settle_deal(paul_card, pierre_card, replacement, paul, pierre)
        wins += paul_final > pierre_final
    return wins


def physical_deal_tallies(
    paul: PaulStrategy, pierre: PierreStrategy
) -> dict[tuple[int, int], tuple[int, int, int]]:
    """(deals, Paul's wins, Pierre's wins) per (Paul's rank, Pierre's rank).

    Every ordered deal of three distinct cards from the 52 is played out
    card by card; the dealer takes every deal Paul does not win.
    """
    rank_of = [card // COPIES_PER_RANK + 1 for card in range(DECK_SIZE)]
    tallies = {}
    for first in range(DECK_SIZE):
        a = rank_of[first]
        for second in range(DECK_SIZE):
            if second == first:
                continue
            b = rank_of[second]
            deals = paul_won = 0
            for third in range(DECK_SIZE):
                if third == first or third == second:
                    continue
                deals += 1
                paul_final, pierre_final = settle_deal(a, b, rank_of[third], paul, pierre)
                paul_won += paul_final > pierre_final
            before = tallies.get((a, b), (0, 0, 0))
            tallies[a, b] = (before[0] + deals, before[1] + paul_won, before[2] + deals - paul_won)
    return tallies


_ALL_RANKS = tuple(range(1, RANK_COUNT + 1))


def rank_subset_win_weights(
    paul: PaulStrategy,
    pierre: PierreStrategy,
    _paul_ranks: tuple[int, ...] = _ALL_RANKS,
    _pierre_ranks: tuple[int, ...] = _ALL_RANKS,
) -> tuple[int, int, int]:
    """Integer win weights (Paul's, Pierre's, total) over ordered deals.

    Only deals whose first card has a rank in `_paul_ranks` and whose second
    has a rank in `_pierre_ranks` are counted, so `total` is the number of
    such ordered three-card deals: 132,600 for the full deck, and the
    denominator of a lot conditioned on the dealt cards otherwise.

    Each player's weight is accumulated by its own predicate (strictly higher
    for Paul, at-least for Pierre) rather than as each other's complement, so
    the complementarity law checked in the tests is a real property of the
    enumeration, not an accounting identity.
    """
    paul_weight = 0
    pierre_weight = 0
    total = 0
    for a in _paul_ranks:
        for b in _pierre_ranks:
            weight_ab = COPIES_PER_RANK * (COPIES_PER_RANK - (b == a))
            total += weight_ab * (DECK_SIZE - 2)
            paul_final, pierre_current, draws = _before_draw(
                a, b, paul.switch[a - 1], pierre.draw[b - 1]
            )
            if not draws:
                # The unseen third card cannot matter: 50 equal outcomes.
                if paul_final > pierre_current:
                    paul_weight += weight_ab * (DECK_SIZE - 2)
                if pierre_current >= paul_final:
                    pierre_weight += weight_ab * (DECK_SIZE - 2)
                continue
            for c in _ALL_RANKS:
                weight_c = COPIES_PER_RANK - (c == a) - (c == b)
                pierre_final = pierre_current if c == KING else c
                if paul_final > pierre_final:
                    paul_weight += weight_ab * weight_c
                if pierre_final >= paul_final:
                    pierre_weight += weight_ab * weight_c
    return paul_weight, pierre_weight, total


def _cell(a: int, b: int, switch: bool, draw: bool) -> int:
    """Index of the deal class (a, b, switch, draw) in `weight_table_reference()`."""
    return (((a - 1) * RANK_COUNT + b - 1) * 2 + switch) * 2 + draw


def weight_table_reference() -> tuple[tuple[int, int], ...]:
    """(Paul's, Pierre's) win weights of the 676 deal classes, indexed by `_cell`, from `settle_deal`.

    The engine's `_weight_table()` stores the same cells row-wise: for each
    Paul rank, flag and side, the 13 cells where Pierre holds his rank and
    the 13 increments of drawing on it. Here every deal class walks all 13
    third-card ranks, settled or not, and plays each (a, b, c) out through
    `settle_deal` under constant-flag strategies, testing each player's
    predicate separately.
    """
    table = []
    for a in _ALL_RANKS:
        for b in _ALL_RANKS:
            weight_ab = COPIES_PER_RANK * (COPIES_PER_RANK - (b == a))
            for switch, draw in ((False, False), (False, True), (True, False), (True, True)):
                paul = PaulStrategy((switch,) * RANK_COUNT)
                pierre = PierreStrategy((draw,) * RANK_COUNT)
                paul_weight = pierre_weight = 0
                for c in _ALL_RANKS:
                    weight_c = COPIES_PER_RANK - (c == a) - (c == b)
                    paul_final, pierre_final = settle_deal(a, b, c, paul, pierre)
                    if paul_final > pierre_final:
                        paul_weight += weight_c
                    if pierre_final >= paul_final:
                        pierre_weight += weight_c
                table.append((weight_ab * paul_weight, weight_ab * pierre_weight))
    return tuple(table)


def threshold_matrix_reference() -> GameMatrix:
    """The engine's former `threshold_matrix()`: 196 full lots, one per threshold pair."""
    paul_strategies = [PaulStrategy.threshold(t) for t in range(RANK_COUNT + 1)]
    pierre_strategies = [PierreStrategy.threshold(t) for t in range(RANK_COUNT + 1)]
    rows = [
        [paul_win_probability(paul, pierre) for pierre in pierre_strategies]
        for paul in paul_strategies
    ]
    labels = tuple(f"threshold:{t}" for t in range(RANK_COUNT + 1))
    return GameMatrix.from_rows(rows, labels, labels)


def decimal_string_reference(value: Fraction, digits: int) -> str:
    """The engine's former `decimal_string`: truncating long division, one digit at a time."""
    sign = "-" if value < 0 else ""
    magnitude = abs(value)
    whole, remainder = divmod(magnitude.numerator, magnitude.denominator)
    if digits == 0:
        return f"{sign}{whole}"
    places = []
    for _ in range(digits):
        remainder *= 10
        digit, remainder = divmod(remainder, magnitude.denominator)
        places.append(str(digit))
    return f"{sign}{whole}." + "".join(places)


def _read_integer(text: str) -> int:
    body = text.lstrip("-")
    value = 0
    for start in range(0, len(body), 500):
        chunk = body[start:start + 500]
        value = value * 10**len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def read_rational(text: str) -> Fraction:
    """The Fraction a "p/q" or bare "p" names, read 500 digits at a time."""
    numerator, _, denominator = text.partition("/")
    return Fraction(_read_integer(numerator), _read_integer(denominator or "1"))


def _equalisation_mix(
    payoffs: list[list[Fraction]], supports: tuple[int, ...], size: int
) -> tuple[list[Fraction], Fraction] | None:
    """Weights making every strategy in `supports` yield the same value.

    `payoffs[k][s]` is what the opponent's pure strategy s in the candidate
    support earns against our k-th supported strategy. Unknowns are our
    weights plus the common value; singular systems mean the candidate
    support cannot equalise and are skipped by the caller.
    """
    k = len(supports)
    coefficients: list[list[Fraction]] = []
    constants: list[Fraction] = []
    for s in range(k):
        coefficients.append([payoffs[t][s] for t in range(k)] + [Fraction(-1)])
        constants.append(Fraction(0))
    coefficients.append([Fraction(1)] * k + [Fraction(0)])
    constants.append(Fraction(1))
    solution = solve_linear_system_reference(coefficients, constants)
    if solution is None:
        return None
    weights = solution[:k]
    if any(w < 0 for w in weights):
        return None
    full = [Fraction(0)] * size
    for index, weight in zip(supports, weights):
        full[index] = weight
    return full, solution[k]


def support_enumeration_solve(
    matrix: GameMatrix,
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact value and optimal mixes by square-support enumeration.

    Works on a shifted copy with all entries positive, which guarantees an
    equalising square support exists and its system is nonsingular; the
    shift is removed from the value afterwards. Supports are scanned in
    lexicographic order by size, so the first globally optimal candidate has
    the lexicographically smallest supports.
    """
    m, n = matrix.n_rows, matrix.n_cols
    low = min(min(row) for row in matrix.entries)
    shift = Fraction(1) - low if low <= 0 else Fraction(0)
    a = [[x + shift for x in row] for row in matrix.entries]

    for k in range(1, min(m, n) + 1):
        for row_support in combinations(range(m), k):
            for col_support in combinations(range(n), k):
                rows_result = _equalisation_mix(
                    [[a[i][j] for j in col_support] for i in row_support],
                    row_support,
                    m,
                )
                if rows_result is None:
                    continue
                x, value = rows_result
                cols_result = _equalisation_mix(
                    [[a[i][j] for i in row_support] for j in col_support],
                    col_support,
                    n,
                )
                if cols_result is None:
                    continue
                y, col_value = cols_result
                if col_value != value:
                    continue
                # Global optimality: no pure strategy beats the candidate.
                if any(
                    sum(x[i] * a[i][j] for i in row_support) < value for j in range(n)
                ):
                    continue
                if any(
                    sum(a[i][j] * y[j] for j in col_support) > value for i in range(m)
                ):
                    continue
                return value - shift, tuple(x), tuple(y)
    raise RuntimeError("support enumeration found no equilibrium; this cannot happen")


def simplex_reference(matrix: GameMatrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact optimal (row, column) mixes from one rational simplex tableau.

    The engine's former tableau, on a game without a pure saddle point. The
    entries are mapped affinely onto [1, 2], so the game value is positive
    and the column player's LP, maximise sum(t) subject to B t <= 1 and
    t >= 0, starts feasible from the slack basis and is bounded. Bland's
    rule (enter the lowest column with a negative reduced cost; among tied
    ratios, leave by the lowest basic index) guarantees termination. At the
    optimum sum(t) = 1 / value of the mapped game, the column mix is
    t / sum(t), and the slack reduced costs divided by sum(t) are the row
    mix, both normalised.
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


def strict_elimination_reference(
    matrix: GameMatrix,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Surviving (row, column) indices of iterated strict elimination.

    The engine's former loop: remove one strictly dominated strategy at a
    time, the lowest-index dominated row first, then (when no row is
    dominated) the lowest-index dominated column, and rescan from the start
    after every removal. Strict dominance is transitive, so any elimination
    order reaches the same reduced game (Gilboa, Kalai & Zemel 1990).
    """
    entries = matrix.entries
    rows = list(range(matrix.n_rows))
    cols = list(range(matrix.n_cols))

    def row_dominated(i: int) -> bool:
        return any(all(entries[h][j] > entries[i][j] for j in cols) for h in rows if h != i)

    def col_dominated(j: int) -> bool:
        # The column player pays out the entries, so smaller dominates.
        return any(all(entries[i][g] < entries[i][j] for i in rows) for g in cols if g != j)

    while True:
        victim = next((i for i in rows if row_dominated(i)), None)
        if victim is not None:
            rows.remove(victim)
            continue
        victim = next((j for j in cols if col_dominated(j)), None)
        if victim is None:
            return tuple(rows), tuple(cols)
        cols.remove(victim)


def certificate_reference(
    matrix: GameMatrix, row_weights, col_weights
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction]:
    """(row payoffs, column payoffs, value) of a mix profile: the full double sum.

    Both token bags are normalised here, and every entry is weighted by every
    probability of the opposing mix, zeros included; the value is the
    bilinear form summed over all m * n entries, not read off the payoffs.
    """
    x = [Fraction(w) / sum(row_weights) for w in row_weights]
    y = [Fraction(w) / sum(col_weights) for w in col_weights]
    entries = matrix.entries
    row_payoffs = tuple(
        sum((entry * q for entry, q in zip(row, y)), Fraction(0)) for row in entries
    )
    col_payoffs = tuple(
        sum((p * row[j] for p, row in zip(x, entries)), Fraction(0))
        for j in range(matrix.n_cols)
    )
    value = sum(
        (p * entry * q for p, row in zip(x, entries) for entry, q in zip(row, y)), Fraction(0)
    )
    return row_payoffs, col_payoffs, value


def negated_transpose(matrix: GameMatrix) -> GameMatrix:
    """The same game seen from the column player's side: -A transposed.

    Its value is minus the original's (the duality property tests).
    """
    return GameMatrix(
        [[-x for x in column] for column in zip(*matrix.entries)],
        matrix.col_labels,
        matrix.row_labels,
    )
