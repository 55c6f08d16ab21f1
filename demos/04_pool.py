"""The problem of the pool: winner stays on, loser pays and queues.

Everyone antes; the first two seats play; each loser drops a fee in the pot
and goes to the back of the line; the first to beat everyone in a row takes
everything. Solved exactly here for any table size: the streak levels of
the (streak, queue position) roles reduce to one n x n system, solved once
for the expected challenges, which give the win chances and the fee losses,
and once more for the games-weighted wins. The classic three-player fair
case gives the openers 5/14 each and the waiter 2/7, three games on
average, and, with unit ante and fee, a tiny transfer from the waiting seat
to the openers.
"""

from fractions import Fraction

from montmort import PoolConfig, pool_solve
from montmort.rational import decimal_string, format_rational


def show(config: PoolConfig) -> None:
    solution = pool_solve(config)
    print(
        f"players={config.players}  p={format_rational(config.champion_win_prob)}  "
        f"ante={format_rational(config.ante)}  fee={format_rational(config.fee)}  "
        f"streak={config.streak_required}"
    )
    print(f"  expected games: {format_rational(solution.expected_games)}"
          f" = {decimal_string(solution.expected_games, 4)}")
    for seat in range(config.players):
        print(
            f"  seat {seat + 1}: wins {format_rational(solution.win_prob[seat]).rjust(12)}"
            f"  pays {format_rational(solution.expected_payment[seat]).rjust(10)}"
            f"  net {format_rational(solution.expected_net[seat]).rjust(10)}"
            f"  ({decimal_string(solution.expected_net[seat], 5)})"
        )
    print(f"  checks: wins sum to {sum(solution.win_prob)},"
          f" nets sum to {sum(solution.expected_net)}")
    print()


print("The classic three-player pool, fair games:\n")
show(PoolConfig(3))

print("Adding chairs dilutes the waiters fastest:\n")
for players in (4, 5, 6):
    show(PoolConfig(players))

print("A skilled incumbent (p = 3/5) tilts the opening seat:\n")
show(PoolConfig(3, Fraction(3, 5)))

print("Short pools: two straight wins among five players:\n")
show(PoolConfig(5, streak_required=2))
