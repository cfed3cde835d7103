/* The count kernel of evoforge._kernels, compiled.
 *
 * Point i (0-based) is mix64(seed + (i+1)*GAMMA) masked to the low n bits,
 * the counter stream of rng.sample_blocks.  Each of the two predicates is
 * a side: a list of k clause masks, true where x holds every bit of some
 * clause (the OR of the clauses), or, with its parity flag set, one mask,
 * true where x has an even number of those bits.  out receives (a and b
 * true, a true, b true).
 *
 * count takes its arguments as one frame of 64-bit words in native byte
 * order, not necessarily aligned: seed, s, n, ka, pa, kb, pb, then side
 * a's ka masks and side b's kb, pa and pb being the parity flags.  ctypes
 * converts each argument of a call at some cost, and a frame is one.
 *
 * Three pairs have a branch-free loop of their own, which the compiler
 * vectorizes: two conjunctions, a conjunction and a parity, and two lists
 * of up to 4 clauses.  For the last, both lists are padded to 4 by
 * repeating their first clause, which leaves the OR unchanged, so a
 * conjunction against a DNF runs there too.  Any other pair (a wider
 * list, a DNF against a parity, a parity on side a) takes the loop over a
 * runtime clause count, which gives the same counts, slower.
 *
 * With glibc on x86-64 ELF, count is built three times, for x86-64-v4
 * (AVX-512), AVX2 and the x86-64 baseline, and the dynamic loader picks
 * the widest one the CPU runs, so one build serves every x86-64 CPU.  The
 * loops are forced inline so that each clone holds its own copy.  Other
 * targets, musl among them (it has no ifunc), build the plain loop.
 */
#include <stdint.h>
#include <string.h>

/* <stdint.h> defines __GLIBC__ on glibc. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) \
    && defined(__ELF__) && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", \
                                            "default")))
#else
#define CLONES
#endif
#if defined(__GNUC__) || defined(__clang__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

#define GAMMA 0x9E3779B97F4A7C15ULL
#define C1 0xBF58476D1CE4E5B9ULL
#define C2 0x94D049BB133111EBULL
#define NIBBLES 0x1111111111111111ULL

INLINE uint64_t point(uint64_t seed, int64_t i, uint64_t dim)
{
    uint64_t z = seed + (uint64_t)(i + 1) * GAMMA;
    z = (z ^ (z >> 30)) * C1;
    z = (z ^ (z >> 27)) * C2;
    return (z ^ (z >> 31)) & dim;
}

/* 1 when y has an even number of set bits.  __builtin_popcountll does not
 * vectorize here; this does: fold each nibble's parity into its low bit,
 * then sum the 16 nibble bits into the top nibble with one multiply. */
INLINE int64_t even(uint64_t y)
{
    y ^= y >> 1;
    y ^= y >> 2;
    return (((y & NIBBLES) * NIBBLES) >> 60 & 1) ^ 1;
}

/* Word j of w. */
INLINE uint64_t word(const unsigned char *w, int j)
{
    uint64_t m;
    memcpy(&m, w + 8 * (int64_t)j, 8);
    return m;
}

/* 1 when x satisfies the side of k words w, or its parity. */
INLINE int64_t holds(uint64_t x, const unsigned char *w, int k,
                            int parity)
{
    if (parity)
        return even(x & word(w, 0));
    int64_t t = 0;
    for (int j = 0; j < k; j++) {
        uint64_t m = word(w, j);
        t |= (x & m) == m;
    }
    return t;
}

/* Inlined with constant widths and flags: one loop per pair of sides. */
INLINE void count_loop(uint64_t seed, int64_t s, uint64_t dim,
                              const unsigned char *a, int ka, int pa,
                              const unsigned char *b, int kb, int pb,
                              int64_t out[3])
{
    int64_t both = 0, ca = 0, cb = 0;
    for (int64_t i = 0; i < s; i++) {
        uint64_t x = point(seed, i, dim);
        int64_t ta = holds(x, a, ka, pa);
        int64_t tb = holds(x, b, kb, pb);
        both += ta & tb;
        ca += ta;
        cb += tb;
    }
    out[0] = both;
    out[1] = ca;
    out[2] = cb;
}

/* The k words of w padded to 4 by repeating the first. */
INLINE void pad4(const unsigned char *w, int k, uint64_t m[4])
{
    for (int j = 0; j < 4; j++)
        m[j] = word(w, j < k ? j : 0);
}

CLONES
void count(const unsigned char *frame, int64_t out[3])
{
    uint64_t seed = word(frame, 0);
    int64_t s = (int64_t)word(frame, 1);
    int n = (int)word(frame, 2), ka = (int)word(frame, 3);
    int pa = (int)word(frame, 4), kb = (int)word(frame, 5);
    int pb = (int)word(frame, 6);
    uint64_t dim = (1ULL << n) - 1;  /* 1 <= n <= 63, checked by the caller */
    const unsigned char *wa = frame + 8 * 7, *wb = wa + 8 * (int64_t)ka;
    uint64_t a[4], b[4];
    const unsigned char *a4 = (const unsigned char *)a;
    const unsigned char *b4 = (const unsigned char *)b;

    if (pa || ka > 4 || kb > 4 || (pb && ka > 1)) {
        count_loop(seed, s, dim, wa, ka, pa, wb, kb, pb, out);
        return;
    }
    pad4(wa, ka, a);
    pad4(wb, kb, b);
    if (pb)
        count_loop(seed, s, dim, a4, 1, 0, b4, 1, 1, out);
    else if (ka == 1 && kb == 1)
        count_loop(seed, s, dim, a4, 1, 0, b4, 1, 0, out);
    else
        count_loop(seed, s, dim, a4, 4, 0, b4, 4, 0, out);
}
