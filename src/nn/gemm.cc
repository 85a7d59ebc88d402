#include "nn/gemm.h"

#include <algorithm>
#include <thread>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sp::nn {

namespace {

// gemmAcc reduces in slabs of kRedBlock elements: each output adds
// one dot product per slab, in slab order.
constexpr int64_t kRedBlock = 256;

// Minimum madds before the row-parallel path is worth a thread spawn.
constexpr int64_t kParallelWork = int64_t{1} << 21;
constexpr unsigned kMaxThreads = 4;

// Contiguous dot product with four independent accumulators so the
// compiler can keep the reduction in SIMD registers without needing
// -ffast-math reassociation.
inline float
dot(const float *x, const float *y, int64_t len)
{
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    int64_t i = 0;
    for (; i + 4 <= len; i += 4) {
        a0 += x[i] * y[i];
        a1 += x[i + 1] * y[i + 1];
        a2 += x[i + 2] * y[i + 2];
        a3 += x[i + 3] * y[i + 3];
    }
    float acc = (a0 + a2) + (a1 + a3);
    for (; i < len; ++i)
        acc += x[i] * y[i];
    return acc;
}

/**
 * Four dot products against one shared left operand. Each x chunk is
 * loaded once and multiplied into four accumulators, quartering the
 * load traffic of four independent dot() calls — the bottleneck of the
 * single-column kernel on this workload. Lane partitioning and the
 * final reduction tree match dot() exactly, so the result is
 * bit-identical to four dot() calls.
 */
inline void
dot4(const float *x, const float *y0, const float *y1, const float *y2,
     const float *y3, int64_t len, float *out)
{
    int64_t i = 0;
#if defined(__SSE2__)
    __m128 v0 = _mm_setzero_ps(), v1 = _mm_setzero_ps();
    __m128 v2 = _mm_setzero_ps(), v3 = _mm_setzero_ps();
    for (; i + 4 <= len; i += 4) {
        const __m128 xv = _mm_loadu_ps(x + i);
        v0 = _mm_add_ps(v0, _mm_mul_ps(xv, _mm_loadu_ps(y0 + i)));
        v1 = _mm_add_ps(v1, _mm_mul_ps(xv, _mm_loadu_ps(y1 + i)));
        v2 = _mm_add_ps(v2, _mm_mul_ps(xv, _mm_loadu_ps(y2 + i)));
        v3 = _mm_add_ps(v3, _mm_mul_ps(xv, _mm_loadu_ps(y3 + i)));
    }
    alignas(16) float t[4];
    _mm_store_ps(t, v0);
    float r0 = (t[0] + t[2]) + (t[1] + t[3]);
    _mm_store_ps(t, v1);
    float r1 = (t[0] + t[2]) + (t[1] + t[3]);
    _mm_store_ps(t, v2);
    float r2 = (t[0] + t[2]) + (t[1] + t[3]);
    _mm_store_ps(t, v3);
    float r3 = (t[0] + t[2]) + (t[1] + t[3]);
#else
    float a00 = 0.0f, a01 = 0.0f, a02 = 0.0f, a03 = 0.0f;
    float a10 = 0.0f, a11 = 0.0f, a12 = 0.0f, a13 = 0.0f;
    float a20 = 0.0f, a21 = 0.0f, a22 = 0.0f, a23 = 0.0f;
    float a30 = 0.0f, a31 = 0.0f, a32 = 0.0f, a33 = 0.0f;
    for (; i + 4 <= len; i += 4) {
        const float x0 = x[i], x1 = x[i + 1], x2 = x[i + 2],
                    x3 = x[i + 3];
        a00 += x0 * y0[i]; a01 += x1 * y0[i + 1];
        a02 += x2 * y0[i + 2]; a03 += x3 * y0[i + 3];
        a10 += x0 * y1[i]; a11 += x1 * y1[i + 1];
        a12 += x2 * y1[i + 2]; a13 += x3 * y1[i + 3];
        a20 += x0 * y2[i]; a21 += x1 * y2[i + 1];
        a22 += x2 * y2[i + 2]; a23 += x3 * y2[i + 3];
        a30 += x0 * y3[i]; a31 += x1 * y3[i + 1];
        a32 += x2 * y3[i + 2]; a33 += x3 * y3[i + 3];
    }
    float r0 = (a00 + a02) + (a01 + a03);
    float r1 = (a10 + a12) + (a11 + a13);
    float r2 = (a20 + a22) + (a21 + a23);
    float r3 = (a30 + a32) + (a31 + a33);
#endif
    for (; i < len; ++i) {
        const float xv = x[i];
        r0 += xv * y0[i];
        r1 += xv * y1[i];
        r2 += xv * y2[i];
        r3 += xv * y3[i];
    }
    out[0] = r0;
    out[1] = r1;
    out[2] = r2;
    out[3] = r3;
}

/** True when the row chunk is entirely zero (its C += A·B term is 0). */
inline bool
rowIsZero(const float *row, int64_t len)
{
    for (int64_t i = 0; i < len; ++i)
        if (row[i] != 0.0f)
            return false;
    return true;
}

/**
 * dot() of x against the strided column y[0], y[stride], ...: the
 * same lanes, reduction tree and serial tail, so the result equals
 * dot() on a contiguous copy of the column bit for bit.
 */
inline float
dotStrided(const float *x, const float *y, int64_t stride, int64_t len)
{
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    int64_t i = 0;
    for (; i + 4 <= len; i += 4) {
        a0 += x[i] * y[i * stride];
        a1 += x[i + 1] * y[(i + 1) * stride];
        a2 += x[i + 2] * y[(i + 2) * stride];
        a3 += x[i + 3] * y[(i + 3) * stride];
    }
    float acc = (a0 + a2) + (a1 + a3);
    for (; i < len; ++i)
        acc += x[i] * y[i * stride];
    return acc;
}

#if defined(__SSE2__)
/**
 * crow[0, 8) += x · B[:, 0, 8) for one slab, B row-major with row
 * stride `m`, read in place. Each output column keeps dot()'s four
 * lane partials (lane l sums i = l mod 4 in increasing i): lane l of
 * columns 0-3 lives in vector lo_l and of columns 4-7 in hi_l. The
 * reduction (l0 + l2) + (l1 + l3) and the serial tail are dot()'s
 * too, so each output gets the same float operations as dot() on a
 * contiguous copy of its column, with no horizontal sum.
 */
inline void
accColumns8(const float *x, const float *b, int64_t m, int64_t len,
            float *crow)
{
    __m128 lo0 = _mm_setzero_ps(), lo1 = _mm_setzero_ps();
    __m128 lo2 = _mm_setzero_ps(), lo3 = _mm_setzero_ps();
    __m128 hi0 = _mm_setzero_ps(), hi1 = _mm_setzero_ps();
    __m128 hi2 = _mm_setzero_ps(), hi3 = _mm_setzero_ps();
    int64_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const float *b0 = b + i * m;
        const float *b1 = b0 + m;
        const float *b2 = b1 + m;
        const float *b3 = b2 + m;
        const __m128 x0 = _mm_set1_ps(x[i]);
        const __m128 x1 = _mm_set1_ps(x[i + 1]);
        const __m128 x2 = _mm_set1_ps(x[i + 2]);
        const __m128 x3 = _mm_set1_ps(x[i + 3]);
        lo0 = _mm_add_ps(lo0, _mm_mul_ps(x0, _mm_loadu_ps(b0)));
        hi0 = _mm_add_ps(hi0, _mm_mul_ps(x0, _mm_loadu_ps(b0 + 4)));
        lo1 = _mm_add_ps(lo1, _mm_mul_ps(x1, _mm_loadu_ps(b1)));
        hi1 = _mm_add_ps(hi1, _mm_mul_ps(x1, _mm_loadu_ps(b1 + 4)));
        lo2 = _mm_add_ps(lo2, _mm_mul_ps(x2, _mm_loadu_ps(b2)));
        hi2 = _mm_add_ps(hi2, _mm_mul_ps(x2, _mm_loadu_ps(b2 + 4)));
        lo3 = _mm_add_ps(lo3, _mm_mul_ps(x3, _mm_loadu_ps(b3)));
        hi3 = _mm_add_ps(hi3, _mm_mul_ps(x3, _mm_loadu_ps(b3 + 4)));
    }
    __m128 lo = _mm_add_ps(_mm_add_ps(lo0, lo2), _mm_add_ps(lo1, lo3));
    __m128 hi = _mm_add_ps(_mm_add_ps(hi0, hi2), _mm_add_ps(hi1, hi3));
    for (; i < len; ++i) {
        const __m128 xi = _mm_set1_ps(x[i]);
        lo = _mm_add_ps(lo, _mm_mul_ps(xi, _mm_loadu_ps(b + i * m)));
        hi = _mm_add_ps(hi, _mm_mul_ps(xi, _mm_loadu_ps(b + i * m + 4)));
    }
    _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), lo));
    _mm_storeu_ps(crow + 4, _mm_add_ps(_mm_loadu_ps(crow + 4), hi));
}

/** accColumns8 for four columns. */
inline void
accColumns4(const float *x, const float *b, int64_t m, int64_t len,
            float *crow)
{
    __m128 l0 = _mm_setzero_ps(), l1 = _mm_setzero_ps();
    __m128 l2 = _mm_setzero_ps(), l3 = _mm_setzero_ps();
    int64_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const float *b0 = b + i * m;
        l0 = _mm_add_ps(l0, _mm_mul_ps(_mm_set1_ps(x[i]),
                                       _mm_loadu_ps(b0)));
        l1 = _mm_add_ps(l1, _mm_mul_ps(_mm_set1_ps(x[i + 1]),
                                       _mm_loadu_ps(b0 + m)));
        l2 = _mm_add_ps(l2, _mm_mul_ps(_mm_set1_ps(x[i + 2]),
                                       _mm_loadu_ps(b0 + 2 * m)));
        l3 = _mm_add_ps(l3, _mm_mul_ps(_mm_set1_ps(x[i + 3]),
                                       _mm_loadu_ps(b0 + 3 * m)));
    }
    __m128 acc = _mm_add_ps(_mm_add_ps(l0, l2), _mm_add_ps(l1, l3));
    for (; i < len; ++i)
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(x[i]),
                                         _mm_loadu_ps(b + i * m)));
    _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), acc));
}
#endif

void
gemmAccRows(const float *a, const float *b, float *c, int64_t n,
            int64_t k, int64_t m)
{
    for (int64_t i = 0; i < n; ++i) {
        float *crow = c + i * m;
        for (int64_t k0 = 0; k0 < k; k0 += kRedBlock) {
            const int64_t kb = std::min(kRedBlock, k - k0);
            const float *arow = a + i * k + k0;
            // Skip all-zero rows: their contribution is exactly 0.0,
            // so C is unchanged either way. GNN relation aggregation
            // produces pooled rows with no mass off edge destinations.
            if (rowIsZero(arow, kb))
                continue;
            const float *bslab = b + k0 * m;
            int64_t j = 0;
#if defined(__SSE2__)
            for (; j + 8 <= m; j += 8)
                accColumns8(arow, bslab + j, m, kb, crow + j);
            for (; j + 4 <= m; j += 4)
                accColumns4(arow, bslab + j, m, kb, crow + j);
#endif
            for (; j < m; ++j)
                crow[j] += dotStrided(arow, bslab + j, m, kb);
        }
    }
}

void
gemmAccTransBRows(const float *g, const float *b, float *c, int64_t n,
                  int64_t m, int64_t k)
{
    // C[i][j] = sum_l G[i][l] * B[j][l]: both rows contiguous.
    for (int64_t i = 0; i < n; ++i) {
        const float *grow = g + i * m;
        if (rowIsZero(grow, m))
            continue;
        float *crow = c + i * k;
        int64_t j = 0;
        for (; j + 4 <= k; j += 4) {
            const float *bj = b + j * m;
            float r[4];
            dot4(grow, bj, bj + m, bj + 2 * m, bj + 3 * m, m, r);
            crow[j] += r[0];
            crow[j + 1] += r[1];
            crow[j + 2] += r[2];
            crow[j + 3] += r[3];
        }
        for (; j < k; ++j)
            crow[j] += dot(grow, b + j * m, m);
    }
}

/** Threads a large multiply splits across (read once: the query is slow). */
unsigned
gemmThreads()
{
    static const unsigned threads =
        std::min(std::thread::hardware_concurrency(), kMaxThreads);
    return threads;
}

/**
 * Run fn(row_begin, row_end) over [0, n), split across threads when
 * `work` (total madds) is large enough; serial otherwise.
 */
template <typename Fn>
void
forRowSlices(int64_t n, int64_t work, Fn fn)
{
    // The size test comes first: most calls are small.
    if (work < kParallelWork || n < 2 || gemmThreads() < 2) {
        fn(0, n);
        return;
    }
    const int64_t slices = std::min<int64_t>(gemmThreads(), n);
    const int64_t per = (n + slices - 1) / slices;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(slices - 1));
    for (int64_t s = 1; s < slices; ++s) {
        const int64_t lo = s * per;
        const int64_t hi = std::min(n, lo + per);
        if (lo >= hi)
            break;
        pool.emplace_back([&fn, lo, hi] { fn(lo, hi); });
    }
    fn(0, std::min(n, per));
    for (auto &t : pool)
        t.join();
}

}  // namespace

void
gemmAcc(const float *a, const float *b, float *c, int64_t n, int64_t k,
        int64_t m)
{
    forRowSlices(n, n * k * m, [=](int64_t lo, int64_t hi) {
        gemmAccRows(a + lo * k, b, c + lo * m, hi - lo, k, m);
    });
}

void
gemmAccTransB(const float *g, const float *b, float *c, int64_t n,
              int64_t m, int64_t k)
{
    forRowSlices(n, n * k * m, [=](int64_t lo, int64_t hi) {
        gemmAccTransBRows(g + lo * m, b, c + lo * k, hi - lo, m, k);
    });
}

void
gemmAccTransA(const float *a, const float *g, float *c, int64_t n,
              int64_t k, int64_t m)
{
    // Outer-product accumulation: every i adds a rank-1 update; the
    // inner loop over j is contiguous in both G and C. C[k,m] is small
    // for every model in this repository, so it stays cache-resident
    // while A and G stream through once. Serial: concurrent updates
    // would race on C.
    for (int64_t i = 0; i < n; ++i) {
        const float *grow = g + i * m;
        for (int64_t kk = 0; kk < k; ++kk) {
            const float av = a[i * k + kk];
            if (av == 0.0f)
                continue;
            float *crow = c + kk * m;
            for (int64_t j = 0; j < m; ++j)
                crow[j] += av * grow[j];
        }
    }
}

}  // namespace sp::nn
