/* The count kernel of evoforge._kernels, compiled.
 *
 * Point i (0-based) is mix64(seed + (i+1)*GAMMA) masked to the low n bits,
 * the counter stream of rng.sample_blocks.  The loop reaches that counter
 * by adding GAMMA once per point, which wraps modulo 2^64 as the product
 * does, so each point costs one 64-bit multiply fewer.
 *
 * Each of the two predicates is a side: a list of k clause masks, true
 * where x holds every bit of some clause (the OR of the clauses), or, with
 * its parity flag set, one mask, true where x has an even number of those
 * bits.  out receives (a and b true, a true, b true).
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
 *
 * count_avx512 is the same function written by hand in AVX-512 intrinsics
 * for the three fixed pairs, 8 points per step on the same stream.  It
 * counts failures, not hits: one ternlog turns the last xor and the mask
 * of the low n bits into ~x, and a clause fails where ~x & m is nonzero.
 * A list fails where each of its clauses fails, which one test and three
 * masked tests chained through a mask register give, with no mask-register
 * logic; two conjunctions are not both true where ~x & (a | b) is nonzero,
 * one test more.  A parity fails where the vpopcntq of x & p is odd.  Each
 * of the three failure counts is one masked add, taken from s at the end.
 * Bit j of a point, j < n, is y_j ^ y_{j+31} of the second product y, so
 * for n <= 21 only bits 0..51 of y are read, and that multiply is one
 * vpmadd52luq (IFMA), where vpmullq takes 3 uops.  The last step counts
 * the s mod 8 points left under a lane mask; every other pair runs count.
 * It is built with gcc or clang on any x86-64 target, and avx512() says
 * whether this CPU and its OS run it, with AVX-512 F, DQ, VPOPCNTDQ and
 * IFMA: Ice Lake, Sapphire Rapids, Zen 4 and later (0 where it is not
 * built); the loader binds it where avx512() is 1, count elsewhere.  gcc
 * emits no vpopcntq for __builtin_popcountll, so even() pays a multiply
 * in count that count_avx512 does not.
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
/* The hand-vectorized loop: gcc and clang on x86-64. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAND
#include <immintrin.h>
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

/* The point of counter z: point i is point(seed + (i+1)*GAMMA, dim). */
INLINE uint64_t point(uint64_t z, uint64_t dim)
{
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

/* Inlined with constant widths and flags, one loop per pair of sides:
 * with runtime ones, the loops of the fixed pairs do not vectorize. */
INLINE void count_loop(uint64_t seed, int64_t s, uint64_t dim,
                              const unsigned char *a, int ka, int pa,
                              const unsigned char *b, int kb, int pb,
                              int64_t out[3])
{
    int64_t both = 0, ca = 0, cb = 0;
    uint64_t z = seed;
    for (int64_t i = 0; i < s; i++) {
        z += GAMMA;  /* seed + (i+1)*GAMMA */
        uint64_t x = point(z, dim);
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

/* The pairs with a loop of their own; GENERIC is any other. */
enum shape { GENERIC, CONJ_CONJ, CONJ_PARITY, CLAUSES4 };

/* The shape of the pair of a frame, and for a fixed one its two sides
 * padded to 4 words in a and b. */
INLINE enum shape shape_of(const unsigned char *frame, uint64_t a[4],
                           uint64_t b[4])
{
    int ka = (int)word(frame, 3), pa = (int)word(frame, 4);
    int kb = (int)word(frame, 5), pb = (int)word(frame, 6);
    const unsigned char *wa = frame + 8 * 7, *wb = wa + 8 * (int64_t)ka;

    if (pa || ka > 4 || kb > 4 || (pb && ka > 1))
        return GENERIC;
    pad4(wa, ka, a);
    pad4(wb, kb, b);
    if (pb)
        return CONJ_PARITY;
    return ka == 1 && kb == 1 ? CONJ_CONJ : CLAUSES4;
}

/* The mask of the low n bits, 1 <= n <= 63 being checked by the caller. */
INLINE uint64_t dim_of(const unsigned char *frame)
{
    return (1ULL << (int)word(frame, 2)) - 1;
}

CLONES
void count(const unsigned char *frame, int64_t out[3])
{
    uint64_t seed = word(frame, 0), dim = dim_of(frame);
    int64_t s = (int64_t)word(frame, 1);
    uint64_t a[4], b[4];
    const unsigned char *a4 = (const unsigned char *)a;
    const unsigned char *b4 = (const unsigned char *)b;
    enum shape shape = shape_of(frame, a, b);

    if (shape == CONJ_PARITY) {
        count_loop(seed, s, dim, a4, 1, 0, b4, 1, 1, out);
    } else if (shape == CONJ_CONJ) {
        count_loop(seed, s, dim, a4, 1, 0, b4, 1, 0, out);
    } else if (shape == CLAUSES4) {
        count_loop(seed, s, dim, a4, 4, 0, b4, 4, 0, out);
    } else {
        int ka = (int)word(frame, 3), pa = (int)word(frame, 4);
        int kb = (int)word(frame, 5), pb = (int)word(frame, 6);
        const unsigned char *wa = frame + 8 * 7, *wb = wa + 8 * (int64_t)ka;
        count_loop(seed, s, dim, wa, ka, pa, wb, kb, pb, out);
    }
}

#ifdef HAND
#define AVX512 __attribute__((target("avx512f,avx512dq,avx512vpopcntdq," \
                                     "avx512ifma")))

/* The largest n whose points read only bits 0..51 of the second product:
 * bit n - 1 of a point reads bit n + 30. */
#define IFMA_N 21
#define MASK52 ((1ULL << 52) - 1)

/* count_loop for a fixed shape, with the second multiply done by IFMA
 * (ifma, n <= IFMA_N) or in full: point i + j in lane j, counting where
 * each side fails, and the last step's s mod 8 points under a lane mask.
 * Its speed rests on gcc -O3 unswitching the loop on shape and ifma, both
 * invariant, so that each copy holds one shape's tests and one multiply,
 * and splitting it at full, so that only the last step takes the mask;
 * scripts/count_loops.py times each fixed pair, which is how to check. */
AVX512 INLINE void hand_loop(enum shape shape, int ifma, uint64_t seed,
                             int64_t s, uint64_t dim, const uint64_t a[4],
                             const uint64_t b[4], int64_t out[3])
{
    const int64_t full = s - s % 8;
    const __m512i step = _mm512_set1_epi64((int64_t)(8 * GAMMA));
    const __m512i c1 = _mm512_set1_epi64((int64_t)C1);
    const __m512i c2 = _mm512_set1_epi64((int64_t)(ifma ? C2 & MASK52 : C2));
    const __m512i dimv = _mm512_set1_epi64((int64_t)dim);
    /* the parity's mask within dim, so that one ternlog gives x & p */
    const __m512i pdim = _mm512_set1_epi64((int64_t)(b[0] & dim));
    /* two conjunctions are not both true where ~x & (a | b) is nonzero */
    const __m512i vab = _mm512_set1_epi64((int64_t)(a[0] | b[0]));
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i zero = _mm512_setzero_si512();
    __m512i va[4], vb[4];
    __m512i z = _mm512_set_epi64(
        (int64_t)(seed + 8 * GAMMA), (int64_t)(seed + 7 * GAMMA),
        (int64_t)(seed + 6 * GAMMA), (int64_t)(seed + 5 * GAMMA),
        (int64_t)(seed + 4 * GAMMA), (int64_t)(seed + 3 * GAMMA),
        (int64_t)(seed + 2 * GAMMA), (int64_t)(seed + GAMMA));
    __m512i fboth = zero, fa = zero, fb = zero;

    for (int j = 0; j < 4; j++) {
        va[j] = _mm512_set1_epi64((int64_t)a[j]);
        vb[j] = _mm512_set1_epi64((int64_t)b[j]);
    }
    for (int64_t i = 0; i < s; i += 8) {
        __mmask8 live = i < full ? 0xFF : (__mmask8)((1u << (s - i)) - 1);
        __m512i y = _mm512_xor_si512(z, _mm512_srli_epi64(z, 30));
        y = _mm512_mullo_epi64(y, c1);
        y = _mm512_xor_si512(y, _mm512_srli_epi64(y, 27));
        y = ifma ? _mm512_madd52lo_epu64(zero, y, c2)
                 : _mm512_mullo_epi64(y, c2);
        __m512i y31 = _mm512_srli_epi64(y, 31);
        /* 0xD7 is ~((y ^ y31) & dim): ~x */
        __m512i nx = _mm512_ternarylogic_epi64(y, y31, dimv, 0xD7);
        __mmask8 ka = _mm512_test_epi64_mask(nx, va[0]), kb, kboth;

        if (shape == CONJ_PARITY) {
            /* 0x28 is (y ^ y31) & pdim: x & p */
            __m512i xp = _mm512_ternarylogic_epi64(y, y31, pdim, 0x28);
            kb = _mm512_test_epi64_mask(_mm512_popcnt_epi64(xp), one);
        } else {
            kb = _mm512_test_epi64_mask(nx, vb[0]);
        }
        if (shape == CLAUSES4)
            for (int j = 1; j < 4; j++) {
                ka = _mm512_mask_test_epi64_mask(ka, nx, va[j]);
                kb = _mm512_mask_test_epi64_mask(kb, nx, vb[j]);
            }
        kboth = shape == CONJ_CONJ ? _mm512_test_epi64_mask(nx, vab)
                                   : ka | kb;
        fboth = _mm512_mask_add_epi64(fboth, kboth & live, fboth, one);
        fa = _mm512_mask_add_epi64(fa, ka & live, fa, one);
        fb = _mm512_mask_add_epi64(fb, kb & live, fb, one);
        z = _mm512_add_epi64(z, step);
    }
    out[0] = s - _mm512_reduce_add_epi64(fboth);
    out[1] = s - _mm512_reduce_add_epi64(fa);
    out[2] = s - _mm512_reduce_add_epi64(fb);
}

/* count, by hand_loop for a fixed shape; any other shape runs count. */
AVX512 void count_avx512(const unsigned char *frame, int64_t out[3])
{
    uint64_t a[4], b[4];
    enum shape shape = shape_of(frame, a, b);

    if (shape == GENERIC)
        count(frame, out);
    else
        hand_loop(shape, (int)word(frame, 2) <= IFMA_N, word(frame, 0),
                  (int64_t)word(frame, 1), dim_of(frame), a, b, out);
}
#endif

/* 1 when count_avx512 is built and this CPU and its OS run it, else 0. */
int avx512(void)
{
#ifdef HAND
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512vpopcntdq")
        && __builtin_cpu_supports("avx512ifma");
#else
    return 0;
#endif
}
