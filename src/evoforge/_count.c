/* The count kernel of evoforge._kernels, compiled.
 *
 * Point i (0-based) is mix64(seed + (i+1)*GAMMA) masked to the low n bits,
 * the counter stream of rng.sample_blocks.  Predicate a is the conjunction
 * mask_a; predicate b is the conjunction mask_b or, when parity is nonzero,
 * the even parity of the bits of mask_b.  out receives (a and b true,
 * a true, b true).  Each predicate gets a branch-free loop of its own,
 * which the compiler vectorizes.
 */
#include <stdint.h>

#define GAMMA 0x9E3779B97F4A7C15ULL
#define C1 0xBF58476D1CE4E5B9ULL
#define C2 0x94D049BB133111EBULL
#define NIBBLES 0x1111111111111111ULL

static inline uint64_t point(uint64_t seed, int64_t i, uint64_t dim)
{
    uint64_t z = seed + (uint64_t)(i + 1) * GAMMA;
    z = (z ^ (z >> 30)) * C1;
    z = (z ^ (z >> 27)) * C2;
    return (z ^ (z >> 31)) & dim;
}

/* 1 when y has an even number of set bits.  __builtin_popcountll does not
 * vectorize here; this does: fold each nibble's parity into its low bit,
 * then sum the 16 nibble bits into the top nibble with one multiply. */
static inline int64_t even(uint64_t y)
{
    y ^= y >> 1;
    y ^= y >> 2;
    return (((y & NIBBLES) * NIBBLES) >> 60 & 1) ^ 1;
}

/* Inlined twice below with parity a constant: one loop per predicate. */
static inline void count_loop(uint64_t seed, int64_t s, uint64_t mask_a,
                              uint64_t mask_b, uint64_t dim, int parity,
                              int64_t out[3])
{
    int64_t both = 0, ca = 0, cb = 0;
    for (int64_t i = 0; i < s; i++) {
        uint64_t x = point(seed, i, dim);
        int64_t ta = (x & mask_a) == mask_a;
        int64_t tb = parity ? even(x & mask_b) : (x & mask_b) == mask_b;
        both += ta & tb;
        ca += ta;
        cb += tb;
    }
    out[0] = both;
    out[1] = ca;
    out[2] = cb;
}

void count(uint64_t seed, int64_t s, uint64_t mask_a, uint64_t mask_b,
           int n, int parity, int64_t out[3])
{
    uint64_t dim = (1ULL << n) - 1;  /* 1 <= n <= 63, checked by the caller */
    if (parity)
        count_loop(seed, s, mask_a, mask_b, dim, 1, out);
    else
        count_loop(seed, s, mask_a, mask_b, dim, 0, out);
}
