/* The compiled set-up of the fast path, for w = 16, 32 and 64: ``_native.py`` builds,
 * loads and checks it, and ``fastpath`` and ``_kernels`` fall back to their numpy code
 * without it.  Every word is a T; a 4w-bit value is 4 words, least significant first.
 *
 *   nsabc_expandW(mn, key)   the affine schedule: m[k] = 2(K[k] - L[k]) + 1 into mn[k] and
 *                            n[k] = (2L[k] - 1)(K[k] - L[k]) into mn[64 + k], from key, the
 *                            5 key words and the unit key U packed as 6 words, with
 *                            K[k] = Z[(k + 3) mod 5] and L[k] = U + k(2U + 1).
 *   nsabc_invertW(out, m, n) the inverse schedule: entry k inverts entry 63 - k, m' = m^-1 by
 *                            the Newton step of ``words.mod_inverse`` from (3m) ^ 2, exact
 *                            to 5 bits, each step doubling the exact bits until they reach
 *                            w, and n' = -n m'.
 *   nsabc_tweaksW(t, stride, count, first, step)
 *                            the tweak words of count blocks, block i having the tweak
 *                            first + i step mod 2^(4w), into 4 columns of t stride words
 *                            apart.  A row of the first ROW blocks is made by serial adds;
 *                            each later row is that row plus its offset, in one add per
 *                            block that the compiler vectorises.
 *
 * Products are computed in A: unsigned, at least as wide as T, and of int's rank or
 * above, so that no operand is promoted to signed int.  uint16_t would be, and
 * 0xFFFF * 0xFFFF overflows a 32-bit int; the tests build this source with
 * -fsanitize=undefined and run the check on it.  A wraps at a multiple of w bits, and
 * each result is cut to T, so every reduction mod 2^w is exact.  Input buffers of packed
 * words are copied with memcpy: they need not be aligned. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define ROW 1024

#define SETUP(W, T, A)                                                                           \
    void nsabc_expand##W(T *mn, const unsigned char *key)                                        \
    {                                                                                            \
        T z[6];                                                                                  \
        memcpy(z, key, sizeof z);                                                                \
        A u = z[5], step = 2 * u + 1;                                                            \
        for (int k = 0; k < 64; k++) {                                                           \
            A e = (T)(u + (A)k * step), d = (T)(z[(k + 3) % 5] - e);                             \
            mn[k] = (T)(2 * d + 1);                                                              \
            mn[64 + k] = (T)((2 * e - 1) * d);                                                   \
        }                                                                                        \
    }                                                                                            \
                                                                                                 \
    void nsabc_invert##W(T *out, const unsigned char *m_words, const unsigned char *n_words)     \
    {                                                                                            \
        T m[64], n[64];                                                                          \
        memcpy(m, m_words, sizeof m);                                                            \
        memcpy(n, n_words, sizeof n);                                                            \
        for (int k = 0; k < 64; k++) {                                                           \
            A x = m[63 - k], y = (3 * x) ^ 2;                                                    \
            for (int bits = 5; bits < W; bits *= 2)                                              \
                y *= 2 - x * y;                                                                  \
            out[k] = (T)y;                                                                       \
            out[64 + k] = (T)(0 - n[63 - k] * y);                                                \
        }                                                                                        \
    }                                                                                            \
                                                                                                 \
    /* word x + d plus the carry *c, which takes the carry out */                                \
    static inline T adc##W(T x, T d, T *c)                                                       \
    {                                                                                            \
        T s = (T)(x + d), over = s < d;                                                          \
        s = (T)(s + *c);                                                                         \
        *c = (T)((s < *c) | over);                                                               \
        return s;                                                                                \
    }                                                                                            \
                                                                                                 \
    static void add##W(T v[4], const T d[4])                                                     \
    {                                                                                            \
        T c = 0;                                                                                 \
        v[0] = adc##W(v[0], d[0], &c);                                                           \
        v[1] = adc##W(v[1], d[1], &c);                                                           \
        v[2] = adc##W(v[2], d[2], &c);                                                           \
        v[3] = (T)(v[3] + d[3] + c);                                                             \
    }                                                                                            \
                                                                                                 \
    /* s = a + d for n blocks, a and s each 4 columns, which do not overlap */                   \
    static void add_row##W(const T *restrict a0, const T *restrict a1, const T *restrict a2,     \
                           const T *restrict a3, T *restrict s0, T *restrict s1,                 \
                           T *restrict s2, T *restrict s3, size_t n, const T d[4])               \
    {                                                                                            \
        T d0 = d[0], d1 = d[1], d2 = d[2], d3 = d[3];                                            \
        for (size_t i = 0; i < n; i++) {                                                         \
            T c = 0;                                                                             \
            s0[i] = adc##W(a0[i], d0, &c);                                                       \
            s1[i] = adc##W(a1[i], d1, &c);                                                       \
            s2[i] = adc##W(a2[i], d2, &c);                                                       \
            s3[i] = (T)(a3[i] + d3 + c);                                                         \
        }                                                                                        \
    }                                                                                            \
                                                                                                 \
    void nsabc_tweaks##W(T *t, size_t stride, size_t count, const unsigned char *first,          \
                         const unsigned char *step)                                              \
    {                                                                                            \
        T *c0 = t, *c1 = t + stride, *c2 = t + 2 * stride, *c3 = t + 3 * stride;                 \
        T v[4], s[4], offset[4] = {0, 0, 0, 0};                                                  \
        memcpy(v, first, sizeof v);                                                              \
        memcpy(s, step, sizeof s);                                                               \
        size_t row = count < ROW ? count : ROW;                                                  \
        for (size_t i = 0; i < row; i++) {                                                       \
            c0[i] = v[0], c1[i] = v[1], c2[i] = v[2], c3[i] = v[3];                              \
            add##W(v, s);                                                                        \
            add##W(offset, s);                                                                   \
        }                                                                                        \
        T row_step[4] = {offset[0], offset[1], offset[2], offset[3]};                            \
        for (size_t start = row; start < count; start += row) {                                  \
            size_t n = count - start < row ? count - start : row;                                \
            add_row##W(c0, c1, c2, c3, c0 + start, c1 + start, c2 + start, c3 + start, n, offset); \
            add##W(offset, row_step);                                                            \
        }                                                                                        \
    }

SETUP(16, uint16_t, unsigned int)
SETUP(32, uint32_t, unsigned long)
SETUP(64, uint64_t, unsigned long long)
