/**
 * @file
 * Row kernels on raw float buffers: the per-element arithmetic of the
 * taped ops (layerNormRows, sigmoid, the adds and scales of message
 * passing), for tape-free forward passes that must match the taped
 * ops bit for bit. The vector forms do per lane exactly what the
 * scalar loop does per element: one rounded multiply, then one
 * rounded add, with no fused multiply-add and no reassociation.
 */
#ifndef SP_NN_ROWS_H
#define SP_NN_ROWS_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sp::nn {

/**
 * dst[j] = (((dst[j] + src[0][j]) + src[1][j]) + ...) for j < m: the
 * `count` rows added in order, with each 16-column block of dst held
 * in registers across all of them.
 */
inline void
addRows(float *dst, const float *const *src, size_t count, int64_t m)
{
    int64_t j = 0;
#if defined(__SSE2__)
    for (; j + 16 <= m; j += 16) {
        __m128 a = _mm_loadu_ps(dst + j), b = _mm_loadu_ps(dst + j + 4);
        __m128 c = _mm_loadu_ps(dst + j + 8);
        __m128 d = _mm_loadu_ps(dst + j + 12);
        for (size_t r = 0; r < count; ++r) {
            const float *row = src[r] + j;
            a = _mm_add_ps(a, _mm_loadu_ps(row));
            b = _mm_add_ps(b, _mm_loadu_ps(row + 4));
            c = _mm_add_ps(c, _mm_loadu_ps(row + 8));
            d = _mm_add_ps(d, _mm_loadu_ps(row + 12));
        }
        _mm_storeu_ps(dst + j, a);
        _mm_storeu_ps(dst + j + 4, b);
        _mm_storeu_ps(dst + j + 8, c);
        _mm_storeu_ps(dst + j + 12, d);
    }
    for (; j + 4 <= m; j += 4) {
        __m128 a = _mm_loadu_ps(dst + j);
        for (size_t r = 0; r < count; ++r)
            a = _mm_add_ps(a, _mm_loadu_ps(src[r] + j));
        _mm_storeu_ps(dst + j, a);
    }
#endif
    for (; j < m; ++j) {
        float v = dst[j];
        for (size_t r = 0; r < count; ++r)
            v = v + src[r][j];
        dst[j] = v;
    }
}

/** dst[j] = dst[j] + src[j] for j < m. */
inline void
addRow(float *dst, const float *src, int64_t m)
{
    addRows(dst, &src, 1, m);
}

/** row[j] = row[j] * s for j < m. */
inline void
scaleRow(float *row, float s, int64_t m)
{
    int64_t j = 0;
#if defined(__SSE2__)
    const __m128 sv = _mm_set1_ps(s);
    for (; j + 4 <= m; j += 4)
        _mm_storeu_ps(row + j, _mm_mul_ps(_mm_loadu_ps(row + j), sv));
#endif
    for (; j < m; ++j)
        row[j] = row[j] * s;
}

/** dst[j] = dst[j] + src[j] * s for j < m. */
inline void
addScaledRow(float *dst, const float *src, float s, int64_t m)
{
    int64_t j = 0;
#if defined(__SSE2__)
    const __m128 sv = _mm_set1_ps(s);
    for (; j + 4 <= m; j += 4)
        _mm_storeu_ps(dst + j,
                      _mm_add_ps(_mm_loadu_ps(dst + j),
                                 _mm_mul_ps(_mm_loadu_ps(src + j), sv)));
#endif
    for (; j < m; ++j) {
        const float product = src[j] * s;
        dst[j] = dst[j] + product;
    }
}

/** dst[j] = dst[j] + relu(src[j]) for j < m (relu(x) = x > 0 ? x : 0). */
inline void
addReluRow(float *dst, const float *src, int64_t m)
{
    int64_t j = 0;
#if defined(__SSE2__)
    // maxps(x, 0) returns its second operand unless x > 0: x > 0 ? x : 0.
    const __m128 zero = _mm_setzero_ps();
    for (; j + 4 <= m; j += 4)
        _mm_storeu_ps(dst + j,
                      _mm_add_ps(_mm_loadu_ps(dst + j),
                                 _mm_max_ps(_mm_loadu_ps(src + j), zero)));
#endif
    for (; j < m; ++j)
        dst[j] = dst[j] + (src[j] > 0.0f ? src[j] : 0.0f);
}

/**
 * Layer-normalize one row of m values into out (which may alias in),
 * as layerNormRows does per row; returns the row's 1/std.
 */
inline float
layerNormRow(const float *in, float *out, int64_t m, float eps = 1e-5f)
{
    float mean = 0.0f;
    for (int64_t j = 0; j < m; ++j)
        mean += in[j];
    mean /= static_cast<float>(m);
    float var = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
        const float d = in[j] - mean;
        var += d * d;
    }
    var /= static_cast<float>(m);
    const float is = 1.0f / std::sqrt(var + eps);
    for (int64_t j = 0; j < m; ++j)
        out[j] = (in[j] - mean) * is;
    return is;
}

/** Logistic sigmoid of one value, as sigmoid() computes per element. */
inline float
sigmoidOf(float x)
{
    return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                     : std::exp(x) / (1.0f + std::exp(x));
}

}  // namespace sp::nn

#endif  // SP_NN_ROWS_H
