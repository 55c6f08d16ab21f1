/* The simulation stream of README "Randomness", written from its text alone.
 * xorshift-star: shifts 12, 25, 27, multiplier 2685821657736338717, seed 0
 * replaced by 0x9E3779B97F4A7C15. A draw below `bound` rejects raw outputs
 * at or above 2^64 - 2^64 mod bound; a chance num/den (lowest terms) is a
 * draw below den that falls under num. Prints first draws, then the counts
 * behind simulation goldens; tests/test_reference_stream.py compares them.
 *   cc -std=c11 -O2 -Wall -Werror -o reference_stream tests/reference_stream.c */
#include <inttypes.h>
#include <stdio.h>
typedef unsigned __int128 u128;
static const u128 TWO64 = (u128)1 << 64;
static uint64_t state;

static void start(uint64_t seed) { state = seed ? seed : 0x9E3779B97F4A7C15u; }
static uint64_t below(u128 bound) {
    for (;;) {
        state ^= state >> 12, state ^= state << 25, state ^= state >> 27;
        uint64_t raw = state * 2685821657736338717u;
        if (raw < TWO64 - TWO64 % bound) return (uint64_t)(raw % bound);
    }
}
static int chance(uint64_t num, uint64_t den) {
    uint64_t a = num, b = den;
    while (b) { uint64_t r = a % b; a = b, b = r; }
    return below(den / a) < num / a;
}

static void draws(uint64_t seed, u128 bound) {
    start(seed);
    if (bound == TWO64) printf("draws seed %" PRIu64 " bound 2**64:", seed);
    else printf("draws seed %" PRIu64 " bound %" PRIu64 ":", seed, (uint64_t)bound);
    for (int k = 0; k < 3; k++) printf(" %" PRIu64, below(bound));
    printf("\n");
}

/* Le Her: Paul's token (switch the 7 with chance a/(a+b)), Pierre's (switch
 * the 8 with chance c/(c+d)), then three cards, each by its index among the
 * cards left in rank order (ace 1 .. king 13, four of each). */
static void leher(int a, int b, int c, int d, uint64_t seed, int trials) {
    int wins = 0;
    start(seed);
    for (int t = 0; t < trials; t++) {
        int paul_top = chance(a, a + b) ? 7 : 6, pierre_top = chance(c, c + d) ? 8 : 7;
        int left[14] = {0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, card[3];
        for (int k = 0; k < 3; k++) {
            uint64_t pick = below(52 - k);
            for (card[k] = 1; pick >= (uint64_t)left[card[k]]; card[k]++) pick -= left[card[k]];
            left[card[k]]--;
        }
        int paul = card[0], pierre = card[1], redraw = pierre <= pierre_top;
        if (paul <= paul_top) { /* Paul switches; a king refuses, else Pierre draws when behind */
            redraw = 0;
            if (pierre != 13) paul = card[1], pierre = card[0], redraw = pierre < paul;
        }
        if (redraw && card[2] != 13) pierre = card[2]; /* a drawn king is thrown back */
        wins += paul > pierre;
    }
    printf("leher %d %d %d %d seed %" PRIu64 " trials %d: wins %d\n", a, b, c, d, seed, trials,
           wins);
}

/* The pool: seat 0 is champion, seats 1..n-1 queue; the champion wins a game
 * with chance num/den, the loser goes to the back, and a streak of `streak`
 * wins takes the pot; a trial that reaches max_games games is truncated. */
static void pool(int n, uint64_t num, uint64_t den, int streak, uint64_t seed, int trials,
                 long max_games) {
    long wins[16] = {0}, games_total = 0, truncated = 0;
    start(seed);
    for (int t = 0; t < trials; t++) {
        int champion = 0, run = 0, queue[16];
        long games = 0;
        for (int i = 1; i < n; i++) queue[i - 1] = i;
        while (run < streak && games < max_games) {
            int challenger = queue[0], loser = challenger;
            for (int i = 1; i < n - 1; i++) queue[i - 1] = queue[i];
            if (chance(num, den)) run++;
            else loser = champion, champion = challenger, run = 1;
            queue[n - 2] = loser;
            games++;
        }
        if (run >= streak) wins[champion]++;
        else truncated++;
        games_total += games;
    }
    printf("pool %d p %" PRIu64 "/%" PRIu64 " streak %d seed %" PRIu64 " trials %d max_games %ld:"
           " wins", n, num, den, streak, seed, trials, max_games);
    for (int i = 0; i < n; i++) printf(" %ld", wins[i]);
    printf(" games %ld truncated %ld\n", games_total, truncated);
}

int main(void) {
    draws(42, 52);
    draws(0, TWO64);
    draws(12165231662994148584u, 3); /* first raw output 2^64 - 1 */
    draws(12165231662994148584u, 51);
    draws(12165231662994148584u, TWO64);
    draws(12510806886520960570u, 52); /* first raw output 2^64 - 16 */
    draws(12510806886520960570u, 50);
    leher(3, 5, 5, 3, 17, 2000);
    leher(3, 5, 5, 3, 17, 1);
    leher(3, 5, 5, 3, 17, 20000);
    leher(1, 0, 1, 0, 8, 5000);
    leher(0, 1, 0, 1, 5, 5000);
    pool(3, 1, 2, 2, 42, 2000, 1000000);
    pool(3, 1, 2, 2, 42, 1, 1000000);
    pool(3, 1, 2, 2, 42, 50, 2);
    pool(3, 1, 2, 2, 17, 20000, 1000000);
    pool(5, 2, 5, 4, 4, 3000, 1000000);
    pool(4, 3, 4, 3, 99, 5000, 1000000);
    pool(3, 1, 2, 2, 3, 500, 2);
    return 0;
}
