"""Drawing actual tokens: Monte Carlo against the exact engine.

The exact results claim what an endless run of evenings at the card table
would average to. Here we play the evenings: a deterministic 64-bit shift
register deals cards and draws tokens, the game-law code settles each hand,
and the frequencies are compared with the exact lots. The simulator never
looks at the exact numbers, so the agreement is evidence, not bookkeeping.
Same seed, same outcome, every time.
"""

from math import sqrt

from montmort import PoolConfig, leher_simulate, mixed_value, pool_simulate, pool_solve
from montmort.rational import decimal_string, format_rational

TRIALS = 200_000

print(f"Le Her with the solved 3:5 and 5:3 bags, {TRIALS} deals, seed 1713:")
result = leher_simulate(3, 5, 5, 3, seed=1713, trials=TRIALS)
target = mixed_value(3, 5, 5, 3)
frequency = float(result.frequency)
sigma = sqrt(frequency * (1 - frequency) / result.trials)
deviation = abs(frequency - float(target)) / sigma
print(f"  Paul won {result.wins} times: frequency {decimal_string(result.frequency)}")
print(f"  exact value {format_rational(target)} = {decimal_string(target)}")
print(f"  deviation {deviation:.2f} sigma (band: 4 sigma)\n")

print("and with pure strategies (switch the 7 vs switch the 8):")
pure = leher_simulate(1, 0, 1, 0, seed=1713, trials=TRIALS)
print(f"  frequency {decimal_string(pure.frequency)} vs exact "
      f"{decimal_string(mixed_value(1, 0, 1, 0))}\n")

config = PoolConfig(3)
print(f"The three-player pool, {TRIALS} pools, seed 1714:")
simulated = pool_simulate(config, seed=1714, trials=TRIALS)
exact = pool_solve(config)
for seat in range(3):
    print(f"  seat {seat + 1}: frequency {decimal_string(simulated.win_prob[seat])}"
          f" vs exact {format_rational(exact.win_prob[seat])}"
          f" ({decimal_string(exact.win_prob[seat])})")
print(f"  mean games {decimal_string(simulated.expected_games, 4)} vs exact "
      f"{format_rational(exact.expected_games)}")
print(f"  truncated trials: {simulated.truncated_trials}")

print("\nreplaying seed 1714 reproduces the run bit for bit:",
      pool_simulate(config, seed=1714, trials=TRIALS) == simulated)
