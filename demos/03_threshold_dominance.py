"""Why "switch the 7, switch the 8" is where the fight happens at all.

Neither player's threshold was assumed: sweep Paul's switch-up-to-t against
Pierre's draw-up-to-t for every pair (t_paul, t_pierre) in 0..13 squared,
then let iterated strict dominance chew on the 14 x 14 matrix. Everything
collapses onto Paul's thresholds {6, 7} and Pierre's {7, 8}: exactly the two
disputed cards. Strict elimination never changes the value, so the reduced
2 x 2 game is the whole fight. Solving the full game head-on lands on the same 3:5 / 5:3 equilibrium
as the reduced table.
"""

from montmort import (
    MixedStrategy,
    eliminate_dominated,
    solve_zero_sum,
    threshold_matrix,
    verify_equilibrium,
)
from montmort.rational import approx_string, decimal_string

game = threshold_matrix()
print(f"threshold game: {game.n_rows} x {game.n_cols} matrix of exact lots")
print("a corner of it, as decimals:")
for t_paul in (5, 6, 7, 8):
    row = "  ".join(decimal_string(game.entries[t_paul][t], 4) for t in (6, 7, 8, 9))
    print(f"  paul t={t_paul}:  {row}")

result = eliminate_dominated(game)
rows = [game.row_labels[i] for i in result.row_indices]
cols = [game.col_labels[j] for j in result.col_indices]
print(f"\nstrict dominance leaves Paul {rows} vs Pierre {cols}")

solution = solve_zero_sum(game)
print(f"\nfull-game solve: value {approx_string(solution.value)}")
print("row support:", [game.row_labels[i] for i in solution.row_mix.support()],
      "with weights", [str(solution.row_mix.weights[i]) for i in solution.row_mix.support()])
print("col support:", [game.col_labels[j] for j in solution.col_mix.support()],
      "with weights", [str(solution.col_mix.weights[j]) for j in solution.col_mix.support()])

# The certificate in action: no pure threshold beats the mix on either side.
ok, value, certificate = verify_equilibrium(game, solution.row_mix, solution.col_mix)
print(f"\ncertified equilibrium: {ok} at value {approx_string(value)}")
print("best any pure Paul threshold earns against Pierre's bag:",
      decimal_string(max(certificate.row_payoffs), 6))
print("worst any pure Pierre threshold concedes against Paul's bag:",
      decimal_string(min(certificate.col_payoffs), 6))
