// Unit and property tests for the autograd engine: forward values on
// known inputs and finite-difference gradient checks for every
// differentiable op.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "nn/gemm.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace sp::nn {
namespace {

// Numerically check d(loss)/d(input) against autograd for a scalar-valued
// function of one tensor built by `make_loss`. The input tensor is rebuilt
// per evaluation so that each forward pass is independent.
void
checkGradient(const std::vector<float> &input_values, int64_t rows,
              int64_t cols,
              const std::function<Tensor(const Tensor &)> &make_loss,
              float tol = 2e-2f, float h = 1e-3f)
{
    auto build = [&](const std::vector<float> &values) {
        if (cols == 0)
            return Tensor::fromVector(values, /*requires_grad=*/true);
        return Tensor::fromMatrix(values, rows, cols,
                                  /*requires_grad=*/true);
    };

    Tensor x = build(input_values);
    Tensor loss = make_loss(x);
    loss.backward();
    const std::vector<float> analytic = x.grad();

    for (size_t i = 0; i < input_values.size(); ++i) {
        auto plus = input_values;
        auto minus = input_values;
        plus[i] += h;
        minus[i] -= h;
        const float f_plus = make_loss(build(plus)).item();
        const float f_minus = make_loss(build(minus)).item();
        const float numeric = (f_plus - f_minus) / (2.0f * h);
        EXPECT_NEAR(analytic[i], numeric,
                    tol * std::max(1.0f, std::fabs(numeric)))
            << "element " << i;
    }
}

TEST(Tensor, ConstructionAndAccess)
{
    Tensor v = Tensor::fromVector({1.0f, 2.0f, 3.0f});
    EXPECT_EQ(v.rows(), 3);
    EXPECT_FALSE(v.isMatrix());
    EXPECT_FLOAT_EQ(v.at(1), 2.0f);

    Tensor m = Tensor::fromMatrix({1, 2, 3, 4, 5, 6}, 2, 3);
    EXPECT_EQ(m.rows(), 2);
    EXPECT_EQ(m.cols(), 3);
    EXPECT_FLOAT_EQ(m.at(1, 2), 6.0f);
    m.set(1, 2, 9.0f);
    EXPECT_FLOAT_EQ(m.at(1, 2), 9.0f);
}

TEST(Tensor, MatmulKnownValues)
{
    Tensor a = Tensor::fromMatrix({1, 2, 3, 4}, 2, 2);
    Tensor b = Tensor::fromMatrix({5, 6, 7, 8}, 2, 2);
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Tensor, MatmulGradient)
{
    Tensor b = Tensor::fromMatrix({0.5f, -1.0f, 2.0f, 0.25f, 1.5f, -0.5f},
                                  3, 2);
    checkGradient({1, 2, 3, 4, 5, 6}, 2, 3, [&](const Tensor &x) {
        return sumAll(matmul(x, b));
    });
}

TEST(Tensor, MatmulGradientRightOperand)
{
    Tensor a = Tensor::fromMatrix({1, -2, 0.5f, 3}, 2, 2);
    checkGradient({0.1f, 0.2f, 0.3f, 0.4f}, 2, 2, [&](const Tensor &x) {
        return sumAll(matmul(a, x));
    });
}

TEST(Tensor, AddSubMulGradients)
{
    Tensor other = Tensor::fromMatrix({2, -1, 0.5f, 3}, 2, 2);
    checkGradient({1, 2, 3, 4}, 2, 2, [&](const Tensor &x) {
        return sumAll(mul(add(x, other), sub(x, other)));
    });
}

TEST(Tensor, AddRowVecBroadcast)
{
    Tensor m = Tensor::fromMatrix({1, 2, 3, 4}, 2, 2);
    Tensor b = Tensor::fromVector({10, 20});
    Tensor out = addRowVec(m, b);
    EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 24.0f);
}

TEST(Tensor, AddRowVecGradientThroughBias)
{
    Tensor m = Tensor::fromMatrix({1, 2, 3, 4, 5, 6}, 3, 2);
    checkGradient({0.5f, -0.5f}, 2, 0, [&](const Tensor &bias) {
        return sumAll(relu(addRowVec(m, bias)));
    });
}

TEST(Tensor, MulRowVecGradient)
{
    Tensor b = Tensor::fromVector({2.0f, -3.0f});
    checkGradient({1, 2, 3, 4}, 2, 2, [&](const Tensor &x) {
        return sumAll(mulRowVec(x, b));
    });
}

TEST(Tensor, ActivationsForward)
{
    Tensor x = Tensor::fromVector({-1.0f, 0.0f, 2.0f});
    EXPECT_FLOAT_EQ(relu(x).at(0), 0.0f);
    EXPECT_FLOAT_EQ(relu(x).at(2), 2.0f);
    EXPECT_NEAR(sigmoid(x).at(1), 0.5f, 1e-6f);
    EXPECT_NEAR(tanhT(x).at(2), std::tanh(2.0f), 1e-6f);
}

TEST(Tensor, ActivationGradients)
{
    // Avoid the ReLU kink at 0 for finite differences.
    checkGradient({-1.5f, 0.7f, 2.0f, -0.3f}, 4, 0, [](const Tensor &x) {
        return sumAll(relu(x));
    });
    checkGradient({-1.5f, 0.7f, 2.0f, -0.3f}, 4, 0, [](const Tensor &x) {
        return sumAll(tanhT(x));
    });
    checkGradient({-1.5f, 0.7f, 2.0f, -0.3f}, 4, 0, [](const Tensor &x) {
        return sumAll(sigmoid(x));
    });
}

TEST(Tensor, GatherRowsForward)
{
    Tensor m = Tensor::fromMatrix({1, 2, 3, 4, 5, 6}, 3, 2);
    Tensor out = gatherRows(m, {2, 0, 2});
    EXPECT_EQ(out.rows(), 3);
    EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 2.0f);
    EXPECT_FLOAT_EQ(out.at(2, 1), 6.0f);
}

TEST(Tensor, GatherRowsGradientAccumulatesRepeats)
{
    checkGradient({1, 2, 3, 4, 5, 6}, 3, 2, [](const Tensor &x) {
        return sumAll(gatherRows(x, {1, 1, 0}));
    });
}

TEST(Tensor, ScatterAddRowsForward)
{
    Tensor m = Tensor::fromMatrix({1, 2, 3, 4, 5, 6}, 3, 2);
    Tensor out = scatterAddRows(m, {0, 0, 1}, 2);
    EXPECT_EQ(out.rows(), 2);
    EXPECT_FLOAT_EQ(out.at(0, 0), 4.0f);  // 1 + 3
    EXPECT_FLOAT_EQ(out.at(0, 1), 6.0f);  // 2 + 4
    EXPECT_FLOAT_EQ(out.at(1, 0), 5.0f);
}

TEST(Tensor, ScatterAddRowsGradient)
{
    checkGradient({1, 2, 3, 4, 5, 6}, 3, 2, [](const Tensor &x) {
        Tensor pooled = scatterAddRows(x, {1, 0, 1}, 2);
        return sumAll(mul(pooled, pooled));
    });
}

TEST(Tensor, RowScaleGradient)
{
    checkGradient({1, 2, 3, 4}, 2, 2, [](const Tensor &x) {
        return sumAll(rowScale(x, {0.5f, 2.0f}));
    });
}

TEST(Tensor, ConcatColsForwardAndGradient)
{
    Tensor right = Tensor::fromMatrix({10, 20}, 2, 1);
    Tensor left = Tensor::fromMatrix({1, 2, 3, 4}, 2, 2);
    Tensor out = concatCols({left, right});
    EXPECT_EQ(out.cols(), 3);
    EXPECT_FLOAT_EQ(out.at(0, 2), 10.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 3.0f);

    checkGradient({1, 2, 3, 4}, 2, 2, [&](const Tensor &x) {
        Tensor cat = concatCols({x, right});
        return sumAll(mul(cat, cat));
    });
}

TEST(Tensor, ConcatRowsForward)
{
    Tensor top = Tensor::fromMatrix({1, 2}, 1, 2);
    Tensor bottom = Tensor::fromMatrix({3, 4, 5, 6}, 2, 2);
    Tensor out = concatRows({top, bottom});
    EXPECT_EQ(out.rows(), 3);
    EXPECT_FLOAT_EQ(out.at(2, 1), 6.0f);
}

TEST(Tensor, LayerNormRowsForward)
{
    Tensor x = Tensor::fromMatrix({1, 2, 3, 4, 4, 4}, 2, 3);
    Tensor out = layerNormRows(x);
    // First row mean 2, var 2/3.
    EXPECT_NEAR(out.at(0, 0) + out.at(0, 2), 0.0f, 1e-5f);
    EXPECT_NEAR(out.at(0, 1), 0.0f, 1e-5f);
    // Constant row normalizes to ~0.
    EXPECT_NEAR(out.at(1, 0), 0.0f, 1e-2f);
}

TEST(Tensor, LayerNormRowsGradient)
{
    Tensor w = Tensor::fromMatrix({0.3f, -0.7f, 1.1f, 0.9f, -1.3f, 0.2f},
                                  2, 3);
    checkGradient({1.0f, -2.0f, 0.5f, 3.0f, 1.5f, -0.5f}, 2, 3,
                  [&](const Tensor &x) {
                      return sumAll(mul(layerNormRows(x), w));
                  });
}

TEST(Tensor, SoftmaxRowsForward)
{
    Tensor x = Tensor::fromMatrix({0, 0, 0, 1000, 0, 0}, 2, 3);
    Tensor out = softmaxRows(x);
    EXPECT_NEAR(out.at(0, 0), 1.0f / 3.0f, 1e-5f);
    EXPECT_NEAR(out.at(1, 0), 1.0f, 1e-5f);  // stable under large logits
    float row_sum = out.at(1, 0) + out.at(1, 1) + out.at(1, 2);
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
}

TEST(Tensor, SoftmaxRowsGradient)
{
    Tensor pick = Tensor::fromMatrix({1, 0, 0, 0, 2, 0}, 2, 3);
    checkGradient({0.1f, -0.4f, 0.7f, 1.2f, -0.2f, 0.3f}, 2, 3,
                  [&](const Tensor &x) {
                      return sumAll(mul(softmaxRows(x), pick));
                  });
}

TEST(Tensor, MeanAndSum)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 4});
    EXPECT_FLOAT_EQ(meanAll(x).item(), 2.5f);
    EXPECT_FLOAT_EQ(sumAll(x).item(), 10.0f);
}

TEST(Tensor, BceWithLogitsKnownValue)
{
    // logit 0 => loss log(2) regardless of target.
    Tensor logits = Tensor::fromVector({0.0f, 0.0f});
    Tensor loss = bceWithLogits(logits, {1.0f, 0.0f}, {1.0f, 1.0f});
    EXPECT_NEAR(loss.item(), std::log(2.0f), 1e-5f);
}

TEST(Tensor, BceWithLogitsGradient)
{
    checkGradient({0.5f, -1.5f, 2.0f}, 3, 0, [](const Tensor &x) {
        return bceWithLogits(x, {1.0f, 0.0f, 1.0f}, {1.0f, 2.0f, 0.5f});
    });
}

TEST(Tensor, BceWithLogitsWeightsShiftLoss)
{
    Tensor logits = Tensor::fromVector({3.0f, 3.0f});
    // Weighting the wrong prediction more should increase the loss.
    float balanced =
        bceWithLogits(logits, {1.0f, 0.0f}, {1.0f, 1.0f}).item();
    float skewed =
        bceWithLogits(logits, {1.0f, 0.0f}, {1.0f, 3.0f}).item();
    EXPECT_GT(skewed, balanced);
}

TEST(Tensor, DropoutTrainingAndEval)
{
    Rng rng(5);
    Tensor x = Tensor::fromMatrix(std::vector<float>(1000, 1.0f), 100, 10);
    Tensor eval_out = dropout(x, 0.5f, rng, /*training=*/false);
    EXPECT_FLOAT_EQ(eval_out.at(0, 0), 1.0f);

    Tensor train_out = dropout(x, 0.5f, rng, /*training=*/true);
    int zeros = 0;
    double sum = 0.0;
    for (float v : train_out.data()) {
        zeros += (v == 0.0f);
        sum += v;
    }
    EXPECT_GT(zeros, 300);
    EXPECT_LT(zeros, 700);
    // Inverted scaling keeps the expectation.
    EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);
}


TEST(Tensor, RowScaleTForwardAndGradient)
{
    Tensor v = Tensor::fromVector({2.0f, -1.0f});
    checkGradient({1, 2, 3, 4}, 2, 2, [&](const Tensor &x) {
        return sumAll(rowScaleT(x, v));
    });
    // Gradient through the scale vector too.
    Tensor m = Tensor::fromMatrix({1, 2, 3, 4}, 2, 2);
    checkGradient({0.5f, 1.5f}, 2, 0, [&](const Tensor &scale) {
        return sumAll(mul(rowScaleT(m, scale), rowScaleT(m, scale)));
    });
}

TEST(Tensor, LeakyReluForwardAndGradient)
{
    Tensor x = Tensor::fromVector({-2.0f, 3.0f});
    Tensor y = leakyRelu(x, 0.1f);
    EXPECT_FLOAT_EQ(y.at(0), -0.2f);
    EXPECT_FLOAT_EQ(y.at(1), 3.0f);
    checkGradient({-1.5f, 0.7f, 2.0f}, 3, 0, [](const Tensor &t) {
        return sumAll(leakyRelu(t, 0.2f));
    });
}

TEST(Tensor, SegmentSoftmaxNormalizesPerSegment)
{
    Tensor scores = Tensor::fromVector({0.0f, 0.0f, 1.0f, 2.0f, 3.0f});
    Tensor out = segmentSoftmax(scores, {0, 0, 1, 1, 1}, 2);
    EXPECT_NEAR(out.at(0) + out.at(1), 1.0f, 1e-5f);
    EXPECT_NEAR(out.at(2) + out.at(3) + out.at(4), 1.0f, 1e-5f);
    EXPECT_FLOAT_EQ(out.at(0), out.at(1));
    EXPECT_GT(out.at(4), out.at(3));
}

TEST(Tensor, SegmentSoftmaxGradient)
{
    Tensor pick = Tensor::fromVector({1.0f, 0.0f, 0.0f, 2.0f, 0.0f});
    checkGradient({0.3f, -0.8f, 1.2f, 0.1f, -0.4f}, 5, 0,
                  [&](const Tensor &x) {
                      Tensor alpha =
                          segmentSoftmax(x, {0, 0, 1, 1, 1}, 2);
                      return sumAll(mul(alpha, pick));
                  });
}

TEST(Tensor, BackwardThroughSharedSubexpression)
{
    // y = x used twice: gradient must accumulate from both paths.
    Tensor x = Tensor::fromVector({2.0f}, /*requires_grad=*/true);
    Tensor y = mul(x, x);  // x^2, dy/dx = 2x = 4
    Tensor loss = sumAll(y);
    loss.backward();
    EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5f);
}

TEST(Tensor, ChainedGraphGradient)
{
    // Composite expression exercising several ops end to end.
    Tensor w = Tensor::fromMatrix({0.2f, -0.4f, 0.6f, 0.8f, -0.1f, 0.3f},
                                  3, 2);
    checkGradient({1.0f, -1.0f, 0.5f, 2.0f, 0.3f, -0.7f}, 2, 3,
                  [&](const Tensor &x) {
                      Tensor h = tanhT(matmul(x, w));
                      Tensor pooled = scatterAddRows(h, {0, 0}, 1);
                      return meanAll(mul(pooled, pooled));
                  });
}

// ---------------------------------------------------------------------
// Blocked-GEMM regression: the GEMM kernels must agree with a
// naive triple loop on every shape class, including shapes that do not
// divide the block sizes and degenerate single-row/column cases.
// ---------------------------------------------------------------------

namespace {

std::vector<float>
randomValues(Rng &rng, size_t n, bool with_zero_rows, int64_t cols)
{
    std::vector<float> values(n);
    for (auto &v : values)
        v = static_cast<float>(rng.gaussian());
    if (with_zero_rows && cols > 0) {
        // Zero out every third row to exercise the zero-row skip.
        const size_t rows = n / static_cast<size_t>(cols);
        for (size_t r = 0; r < rows; r += 3)
            for (int64_t j = 0; j < cols; ++j)
                values[r * static_cast<size_t>(cols) +
                       static_cast<size_t>(j)] = 0.0f;
    }
    return values;
}

void
naiveMatmul(const std::vector<float> &a, const std::vector<float> &b,
            std::vector<float> &c, int64_t n, int64_t k, int64_t m)
{
    c.assign(static_cast<size_t>(n * m), 0.0f);
    for (int64_t i = 0; i < n; ++i)
        for (int64_t kk = 0; kk < k; ++kk)
            for (int64_t j = 0; j < m; ++j)
                c[i * m + j] += a[i * k + kk] * b[kk * m + j];
}

}  // namespace

TEST(Tensor, BlockedMatmulMatchesNaiveReference)
{
    Rng rng(1234);
    // {n, k, m}: block multiples, odd primes, degenerate rows/cols,
    // wide outputs and a two-slab reduction.
    const int64_t shapes[][3] = {
        {1, 1, 1},  {1, 7, 1},   {7, 1, 3},    {1, 40, 40},
        {5, 3, 2},  {33, 17, 9}, {131, 40, 40}, {64, 64, 64},
        {3, 257, 5}, {70, 13, 67},
    };
    for (const auto &shape : shapes) {
        const int64_t n = shape[0], k = shape[1], m = shape[2];
        const auto av = randomValues(
            rng, static_cast<size_t>(n * k), /*with_zero_rows=*/true, k);
        const auto bv = randomValues(
            rng, static_cast<size_t>(k * m), /*with_zero_rows=*/false, 0);
        std::vector<float> expected;
        naiveMatmul(av, bv, expected, n, k, m);

        Tensor a = Tensor::fromMatrix(av, n, k);
        Tensor b = Tensor::fromMatrix(bv, k, m);
        Tensor c = matmul(a, b);
        for (int64_t i = 0; i < n * m; ++i) {
            EXPECT_NEAR(c.data()[static_cast<size_t>(i)],
                        expected[static_cast<size_t>(i)], 1e-4f)
                << "shape [" << n << "," << k << "," << m
                << "] element " << i;
        }
    }
}

TEST(Tensor, BlockedMatmulGradientsMatchNaiveReference)
{
    Rng rng(99);
    const int64_t shapes[][3] = {
        {1, 5, 1}, {5, 1, 3}, {9, 67, 4}, {33, 8, 70}, {131, 40, 40},
    };
    for (const auto &shape : shapes) {
        const int64_t n = shape[0], k = shape[1], m = shape[2];
        const auto av = randomValues(
            rng, static_cast<size_t>(n * k), /*with_zero_rows=*/true, k);
        const auto bv = randomValues(
            rng, static_cast<size_t>(k * m), /*with_zero_rows=*/false, 0);
        // Weighting matrix makes dOut non-uniform, so both backward
        // GEMM variants see a general gradient.
        const auto wv = randomValues(
            rng, static_cast<size_t>(n * m), /*with_zero_rows=*/false, 0);

        Tensor a = Tensor::fromMatrix(av, n, k, /*requires_grad=*/true);
        Tensor b = Tensor::fromMatrix(bv, k, m, /*requires_grad=*/true);
        Tensor w = Tensor::fromMatrix(wv, n, m);
        sumAll(mul(matmul(a, b), w)).backward();

        // dA = (W ∘ dOut=W) * B^T, dB = A^T * W — naive loops.
        for (int64_t i = 0; i < n; ++i) {
            for (int64_t kk = 0; kk < k; ++kk) {
                float expected = 0.0f;
                for (int64_t j = 0; j < m; ++j)
                    expected += wv[static_cast<size_t>(i * m + j)] *
                                bv[static_cast<size_t>(kk * m + j)];
                EXPECT_NEAR(a.grad()[static_cast<size_t>(i * k + kk)],
                            expected, 1e-3f)
                    << "dA[" << i << "," << kk << "] shape [" << n
                    << "," << k << "," << m << "]";
            }
        }
        for (int64_t kk = 0; kk < k; ++kk) {
            for (int64_t j = 0; j < m; ++j) {
                float expected = 0.0f;
                for (int64_t i = 0; i < n; ++i)
                    expected += av[static_cast<size_t>(i * k + kk)] *
                                wv[static_cast<size_t>(i * m + j)];
                EXPECT_NEAR(b.grad()[static_cast<size_t>(kk * m + j)],
                            expected, 1e-3f)
                    << "dB[" << kk << "," << j << "] shape [" << n
                    << "," << k << "," << m << "]";
            }
        }
    }
}

namespace {

uint32_t
bitsOf(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

// gemmAcc's contract per output, written out scalar: per 256-element
// slab of the reduction (skipped when that slab of the A row is all
// zero), a dot product split into four lanes (lane l sums the products
// with index l mod 4 in increasing order), reduced as
// (l0 + l2) + (l1 + l3), then the remainder added serially.
void
laneOrderGemmAcc(const std::vector<float> &a, const std::vector<float> &b,
                 std::vector<float> &c, int64_t n, int64_t k, int64_t m)
{
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t k0 = 0; k0 < k; k0 += 256) {
            const int64_t kb = std::min<int64_t>(256, k - k0);
            const float *x = a.data() + i * k + k0;
            bool zero = true;
            for (int64_t t = 0; t < kb; ++t)
                zero &= x[t] == 0.0f;
            if (zero)
                continue;
            for (int64_t j = 0; j < m; ++j) {
                const float *y = b.data() + k0 * m + j;
                float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
                int64_t t = 0;
                for (; t + 4 <= kb; t += 4)
                    for (int64_t l = 0; l < 4; ++l)
                        lane[l] += x[t + l] * y[(t + l) * m];
                float acc = (lane[0] + lane[2]) + (lane[1] + lane[3]);
                for (; t < kb; ++t)
                    acc += x[t] * y[t * m];
                c[static_cast<size_t>(i * m + j)] += acc;
            }
        }
    }
}

}  // namespace

TEST(Gemm, AccMatchesLaneOrderReferenceBitwise)
{
    Rng rng(2024);
    const int64_t n = 9;
    for (int64_t m : {1, 4, 12, 13, 40}) {
        for (int64_t k : {3, 40, 120, 300}) {
            auto av = randomValues(rng, static_cast<size_t>(n * k),
                                   /*with_zero_rows=*/true, k);
            // Row 1 of the two-slab shape: zero second slab only.
            if (k > 256)
                std::fill(av.begin() + k + 256, av.begin() + 2 * k, 0.0f);
            const auto bv = randomValues(rng, static_cast<size_t>(k * m),
                                         /*with_zero_rows=*/false, 0);
            // A seeded C with negative zeros: a skipped zero slab must
            // leave them, an added one would turn them into +0.
            auto cv = randomValues(rng, static_cast<size_t>(n * m),
                                   /*with_zero_rows=*/false, 0);
            for (size_t e = 0; e < cv.size(); e += 3)
                cv[e] = -0.0f;
            std::vector<float> expected = cv;
            laneOrderGemmAcc(av, bv, expected, n, k, m);
            gemmAcc(av.data(), bv.data(), cv.data(), n, k, m);
            for (size_t e = 0; e < cv.size(); ++e) {
                ASSERT_EQ(bitsOf(cv[e]), bitsOf(expected[e]))
                    << "m " << m << " k " << k << " element " << e;
            }
        }
    }
}

TEST(Tensor, AffineMatchesMatmulPlusBias)
{
    Rng rng(7);
    const auto av = randomValues(rng, 6 * 5, false, 0);
    const auto wv = randomValues(rng, 5 * 3, false, 0);
    const auto bv = randomValues(rng, 3, false, 0);
    Tensor a = Tensor::fromMatrix(av, 6, 5);
    Tensor w = Tensor::fromMatrix(wv, 5, 3);
    Tensor b = Tensor::fromVector(bv);
    Tensor fused = affine(a, w, b);
    Tensor unfused = addRowVec(matmul(a, w), b);
    for (size_t i = 0; i < fused.data().size(); ++i)
        EXPECT_FLOAT_EQ(fused.data()[i], unfused.data()[i]) << i;
}

TEST(Tensor, AffineGradients)
{
    Tensor w = Tensor::fromMatrix({0.5f, -1.0f, 2.0f, 0.25f, 1.5f, -0.5f},
                                  3, 2);
    Tensor b = Tensor::fromVector({0.3f, -0.2f});
    checkGradient({1, 2, 3, 4, 5, 6}, 2, 3, [&](const Tensor &x) {
        return sumAll(affine(x, w, b));
    });
    Tensor a = Tensor::fromMatrix({1, -2, 0.5f, 3, 0.1f, 1.1f}, 2, 3);
    checkGradient({0.1f, 0.2f, 0.3f, 0.4f, -0.5f, 0.6f}, 3, 2,
                  [&](const Tensor &x) {
                      return sumAll(mul(affine(a, x, b),
                                        Tensor::fromMatrix(
                                            {1, 2, 3, 4}, 2, 2)));
                  });
    checkGradient({0.3f, -0.2f}, 2, 0, [&](const Tensor &x) {
        return sumAll(affine(a, w, x));
    });
}

TEST(Tensor, SegmentMeanRowsMatchesUnfusedChain)
{
    Rng rng(21);
    const auto hv = randomValues(rng, 5 * 3, false, 0);
    Tensor h = Tensor::fromMatrix(hv, 5, 3);
    const std::vector<int32_t> src = {0, 1, 2, 4, 4};
    const std::vector<int32_t> dst = {1, 1, 3, 3, 3};
    Tensor fused = segmentMeanRows(h, src, dst, 5);

    std::vector<float> inv_degree(5, 0.0f);
    for (int32_t d : dst)
        inv_degree[static_cast<size_t>(d)] += 1.0f;
    for (auto &d : inv_degree)
        d = d > 0.0f ? 1.0f / d : 0.0f;
    Tensor unfused = rowScale(
        scatterAddRows(gatherRows(h, src), dst, 5), inv_degree);
    for (size_t i = 0; i < fused.data().size(); ++i)
        EXPECT_FLOAT_EQ(fused.data()[i], unfused.data()[i]) << i;
    // Rows without incoming edges stay exactly zero (the zero-row
    // GEMM skip depends on this).
    for (int64_t j = 0; j < 3; ++j) {
        EXPECT_EQ(fused.at(0, j), 0.0f);
        EXPECT_EQ(fused.at(2, j), 0.0f);
        EXPECT_EQ(fused.at(4, j), 0.0f);
    }
}

TEST(Tensor, DeepChainBackwardDoesNotRecurse)
{
    // 20k-node chain: a recursive topological sort would overflow the
    // stack; the iterative traversal must handle it.
    Tensor x = Tensor::fromVector({1.0f}, /*requires_grad=*/true);
    Tensor h = x;
    for (int i = 0; i < 20000; ++i)
        h = add(h, x);
    sumAll(h).backward();
    EXPECT_FLOAT_EQ(x.grad()[0], 20001.0f);
}

TEST(TensorDeathTest, BackwardOnNonScalarLossPanics)
{
    Tensor x = Tensor::fromMatrix({1, 2, 3, 4}, 2, 2,
                                  /*requires_grad=*/true);
    Tensor y = relu(x);
    EXPECT_DEATH(y.backward(), "scalar loss");
}

TEST(Tensor, SegmentMeanRowsGradient)
{
    Tensor pick = Tensor::fromMatrix(
        {1, -1, 2, 0.5f, 3, -2, 1, 1, 0.25f, -0.5f, 2, 1, 0, 1, -1},
        5, 3);
    checkGradient({0.3f, -0.8f, 1.2f, 0.1f, -0.4f, 2.0f, 0.7f, -1.1f,
                   0.9f, 0.2f, -0.6f, 1.4f, 0.8f, -0.3f, 0.5f},
                  5, 3, [&](const Tensor &x) {
                      Tensor pooled = segmentMeanRows(
                          x, {0, 1, 2, 4, 4}, {1, 1, 3, 3, 3}, 5);
                      return sumAll(mul(pooled, pick));
                  });
}

}  // namespace
}  // namespace sp::nn
