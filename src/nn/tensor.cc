#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "nn/gemm.h"
#include "nn/rows.h"
#include "obs/timer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sp::nn {

namespace {

std::shared_ptr<TensorNode>
makeNode(int64_t rows, int64_t cols, bool requires_grad)
{
    auto node = std::make_shared<TensorNode>();
    node->rows = rows;
    node->cols = cols;
    node->requires_grad = requires_grad;
    node->data.assign(static_cast<size_t>(node->numel()), 0.0f);
    if (requires_grad)
        node->grad.assign(node->data.size(), 0.0f);
    return node;
}

// Result node whose requires_grad is the OR of its parents'.
std::shared_ptr<TensorNode>
makeResult(int64_t rows, int64_t cols,
           std::vector<std::shared_ptr<TensorNode>> parents)
{
    bool needs = false;
    for (const auto &p : parents)
        needs |= p->requires_grad;
    auto node = makeNode(rows, cols, needs);
    node->parents = std::move(parents);
    return node;
}

void
checkSameShape(const Tensor &a, const Tensor &b)
{
    SP_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
              "shape mismatch");
}

}  // namespace

Tensor
Tensor::zerosVec(int64_t n, bool requires_grad)
{
    return Tensor(makeNode(n, 0, requires_grad));
}

Tensor
Tensor::zeros(int64_t rows, int64_t cols, bool requires_grad)
{
    SP_ASSERT(cols > 0);
    return Tensor(makeNode(rows, cols, requires_grad));
}

Tensor
Tensor::fromVector(std::vector<float> values, bool requires_grad)
{
    auto node = makeNode(static_cast<int64_t>(values.size()), 0,
                         requires_grad);
    node->data = std::move(values);
    return Tensor(node);
}

Tensor
Tensor::fromMatrix(std::vector<float> values, int64_t rows, int64_t cols,
                   bool requires_grad)
{
    SP_ASSERT(static_cast<int64_t>(values.size()) == rows * cols);
    auto node = makeNode(rows, cols, requires_grad);
    node->data = std::move(values);
    return Tensor(node);
}

Tensor
Tensor::randn(Rng &rng, int64_t rows, int64_t cols, float scale,
              bool requires_grad)
{
    auto node = makeNode(rows, cols, requires_grad);
    for (auto &v : node->data)
        v = static_cast<float>(rng.gaussian()) * scale;
    return Tensor(node);
}

Tensor
Tensor::scalar(float value, bool requires_grad)
{
    auto node = makeNode(1, 0, requires_grad);
    node->data[0] = value;
    return Tensor(node);
}

float
Tensor::item() const
{
    SP_ASSERT(numel() == 1);
    return node_->data[0];
}

float
Tensor::at(int64_t i) const
{
    SP_ASSERT(!isMatrix() && i >= 0 && i < rows());
    return node_->data[static_cast<size_t>(i)];
}

float
Tensor::at(int64_t r, int64_t c) const
{
    SP_ASSERT(isMatrix() && r >= 0 && r < rows() && c >= 0 && c < cols());
    return node_->data[static_cast<size_t>(r * cols() + c)];
}

void
Tensor::set(int64_t i, float v)
{
    SP_ASSERT(!isMatrix() && i >= 0 && i < rows());
    node_->data[static_cast<size_t>(i)] = v;
}

void
Tensor::set(int64_t r, int64_t c, float v)
{
    SP_ASSERT(isMatrix() && r >= 0 && r < rows() && c >= 0 && c < cols());
    node_->data[static_cast<size_t>(r * cols() + c)] = v;
}

void
Tensor::backward()
{
    SP_ASSERT(valid(), "backward() on a null tensor");
    if (numel() != 1) {
        SP_PANIC("backward() needs a scalar loss, got shape [%lld, %lld]"
                 " — reduce with sumAll/meanAll first",
                 static_cast<long long>(node_->rows),
                 static_cast<long long>(node_->cols));
    }
    if (!node_->requires_grad) {
        SP_PANIC("backward() on a tensor that does not require grad");
    }

    // Reverse-topological order by iterative DFS.
    std::vector<TensorNode *> order;
    std::unordered_set<TensorNode *> visited;
    std::vector<std::pair<TensorNode *, size_t>> stack;
    stack.emplace_back(node_.get(), 0);
    visited.insert(node_.get());
    while (!stack.empty()) {
        auto &[node, next_child] = stack.back();
        if (next_child < node->parents.size()) {
            TensorNode *parent = node->parents[next_child++].get();
            if (parent->requires_grad && visited.insert(parent).second)
                stack.emplace_back(parent, 0);
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }

    node_->grad.assign(node_->data.size(), 0.0f);
    node_->grad[0] = 1.0f;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if ((*it)->backward_fn)
            (*it)->backward_fn();
    }
}

void
Tensor::zeroGrad()
{
    if (node_->requires_grad)
        std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    SP_ASSERT(a.isMatrix() && b.isMatrix() && a.cols() == b.rows(),
              "matmul shape mismatch");
    const int64_t n = a.rows(), k = a.cols(), m = b.cols();
    auto out = makeResult(n, m, {a.node(), b.node()});

    {
        SP_TIMED("nn.gemm_us");
        gemmAcc(a.data().data(), b.data().data(), out->data.data(), n,
                k, m);
    }

    if (out->requires_grad) {
        auto an = a.node(), bn = b.node();
        auto on = out.get();
        out->backward_fn = [an, bn, on, n, k, m] {
            const float *gd = on->grad.data();
            if (an->requires_grad) {
                // dA = dOut * B^T
                gemmAccTransB(gd, bn->data.data(), an->grad.data(), n,
                              m, k);
            }
            if (bn->requires_grad) {
                // dB = A^T * dOut
                gemmAccTransA(an->data.data(), gd, bn->grad.data(), n,
                              k, m);
            }
        };
    }
    return Tensor(out);
}

Tensor
affine(const Tensor &a, const Tensor &w, const Tensor &b)
{
    SP_ASSERT(a.isMatrix() && w.isMatrix() && a.cols() == w.rows(),
              "affine shape mismatch");
    SP_ASSERT(!b.isMatrix() && b.rows() == w.cols(),
              "affine bias shape mismatch");
    const int64_t n = a.rows(), k = a.cols(), m = w.cols();
    auto out = makeResult(n, m, {a.node(), w.node(), b.node()});
    // Seed every output row with the bias, then accumulate the
    // product on top: bias + dot == dot + bias exactly.
    for (int64_t i = 0; i < n; ++i)
        std::copy_n(b.data().data(), m, out->data.data() + i * m);
    {
        SP_TIMED("nn.gemm_us");
        gemmAcc(a.data().data(), w.data().data(), out->data.data(), n,
                k, m);
    }

    if (out->requires_grad) {
        auto an = a.node(), wn = w.node(), bn = b.node();
        auto on = out.get();
        out->backward_fn = [an, wn, bn, on, n, k, m] {
            const float *gd = on->grad.data();
            if (an->requires_grad) {
                // dA = dOut * W^T
                gemmAccTransB(gd, wn->data.data(), an->grad.data(), n,
                              m, k);
            }
            if (wn->requires_grad) {
                // dW = A^T * dOut
                gemmAccTransA(an->data.data(), gd, wn->grad.data(), n,
                              k, m);
            }
            if (bn->requires_grad) {
                // db = column sums of dOut
                for (int64_t i = 0; i < n; ++i)
                    for (int64_t j = 0; j < m; ++j)
                        bn->grad[j] += gd[i * m + j];
            }
        };
    }
    return Tensor(out);
}

Tensor
segmentMeanRows(const Tensor &a, const std::vector<int32_t> &src,
                const std::vector<int32_t> &dst, int64_t out_rows)
{
    SP_ASSERT(a.isMatrix());
    SP_ASSERT(src.size() == dst.size(),
              "segmentMeanRows needs one (src, dst) pair per edge");
    const int64_t m = a.cols();
    const auto edges = static_cast<int64_t>(src.size());
    auto out = makeResult(out_rows, m, {a.node()});

    // In-degree reciprocals.
    std::vector<float> inv_degree(static_cast<size_t>(out_rows), 0.0f);
    for (int32_t d : dst) {
        SP_ASSERT(d >= 0 && d < out_rows,
                  "segmentMeanRows dst out of range");
        inv_degree[static_cast<size_t>(d)] += 1.0f;
    }
    for (auto &d : inv_degree)
        d = d > 0.0f ? 1.0f / d : 0.0f;

    for (int64_t e = 0; e < edges; ++e) {
        SP_ASSERT(src[e] >= 0 && src[e] < a.rows(),
                  "segmentMeanRows src out of range");
        float *out_row = out->data.data() + dst[e] * m;
        const float *in_row = a.data().data() + src[e] * m;
        for (int64_t j = 0; j < m; ++j)
            out_row[j] += in_row[j];
    }
    for (int64_t i = 0; i < out_rows; ++i) {
        const float scale = inv_degree[static_cast<size_t>(i)];
        if (scale == 0.0f)
            continue;  // row untouched: stays exactly zero
        float *out_row = out->data.data() + i * m;
        for (int64_t j = 0; j < m; ++j)
            out_row[j] *= scale;
    }

    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        auto src_idx = src;
        auto dst_idx = dst;
        out->backward_fn = [an, on, src_idx, dst_idx,
                            inv = std::move(inv_degree), edges, m] {
            for (int64_t e = 0; e < edges; ++e) {
                const float scale =
                    inv[static_cast<size_t>(dst_idx[e])];
                const float *g = on->grad.data() + dst_idx[e] * m;
                float *dst_row = an->grad.data() + src_idx[e] * m;
                for (int64_t j = 0; j < m; ++j)
                    dst_row[j] += g[j] * scale;
            }
        };
    }
    return Tensor(out);
}

namespace {

// Shared helper for elementwise binary ops with per-element gradients.
template <typename Fwd, typename BwdA, typename BwdB>
Tensor
elementwiseBinary(const Tensor &a, const Tensor &b, Fwd fwd, BwdA bwd_a,
                  BwdB bwd_b)
{
    checkSameShape(a, b);
    auto out = makeResult(a.rows(), a.cols(), {a.node(), b.node()});
    const size_t n = out->data.size();
    for (size_t i = 0; i < n; ++i)
        out->data[i] = fwd(a.data()[i], b.data()[i]);
    if (out->requires_grad) {
        auto an = a.node(), bn = b.node();
        auto on = out.get();
        out->backward_fn = [an, bn, on, n, bwd_a, bwd_b] {
            for (size_t i = 0; i < n; ++i) {
                const float g = on->grad[i];
                if (an->requires_grad)
                    an->grad[i] += g * bwd_a(an->data[i], bn->data[i]);
                if (bn->requires_grad)
                    bn->grad[i] += g * bwd_b(an->data[i], bn->data[i]);
            }
        };
    }
    return Tensor(out);
}

// Shared helper for elementwise unary ops where the local derivative is a
// function of the *output* value (covers relu/tanh/sigmoid).
template <typename Fwd, typename BwdFromOut>
Tensor
elementwiseUnary(const Tensor &a, Fwd fwd, BwdFromOut bwd)
{
    auto out = makeResult(a.rows(), a.cols(), {a.node()});
    const size_t n = out->data.size();
    for (size_t i = 0; i < n; ++i)
        out->data[i] = fwd(a.data()[i]);
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        out->backward_fn = [an, on, n, bwd] {
            for (size_t i = 0; i < n; ++i)
                an->grad[i] += on->grad[i] * bwd(on->data[i]);
        };
    }
    return Tensor(out);
}

}  // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    return elementwiseBinary(
        a, b, [](float x, float y) { return x + y; },
        [](float, float) { return 1.0f; },
        [](float, float) { return 1.0f; });
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return elementwiseBinary(
        a, b, [](float x, float y) { return x - y; },
        [](float, float) { return 1.0f; },
        [](float, float) { return -1.0f; });
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return elementwiseBinary(
        a, b, [](float x, float y) { return x * y; },
        [](float, float y) { return y; },
        [](float x, float) { return x; });
}

Tensor
addRowVec(const Tensor &a, const Tensor &b)
{
    SP_ASSERT(a.isMatrix() && !b.isMatrix() && b.rows() == a.cols(),
              "addRowVec shape mismatch");
    const int64_t n = a.rows(), m = a.cols();
    auto out = makeResult(n, m, {a.node(), b.node()});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
            out->data[i * m + j] = a.data()[i * m + j] + b.data()[j];
    if (out->requires_grad) {
        auto an = a.node(), bn = b.node();
        auto on = out.get();
        out->backward_fn = [an, bn, on, n, m] {
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < m; ++j) {
                    const float g = on->grad[i * m + j];
                    if (an->requires_grad)
                        an->grad[i * m + j] += g;
                    if (bn->requires_grad)
                        bn->grad[j] += g;
                }
        };
    }
    return Tensor(out);
}

Tensor
mulRowVec(const Tensor &a, const Tensor &b)
{
    SP_ASSERT(a.isMatrix() && !b.isMatrix() && b.rows() == a.cols(),
              "mulRowVec shape mismatch");
    const int64_t n = a.rows(), m = a.cols();
    auto out = makeResult(n, m, {a.node(), b.node()});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
            out->data[i * m + j] = a.data()[i * m + j] * b.data()[j];
    if (out->requires_grad) {
        auto an = a.node(), bn = b.node();
        auto on = out.get();
        out->backward_fn = [an, bn, on, n, m] {
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < m; ++j) {
                    const float g = on->grad[i * m + j];
                    if (an->requires_grad)
                        an->grad[i * m + j] += g * bn->data[j];
                    if (bn->requires_grad)
                        bn->grad[j] += g * an->data[i * m + j];
                }
        };
    }
    return Tensor(out);
}

Tensor
scale(const Tensor &a, float factor)
{
    return elementwiseUnary(
        a, [factor](float x) { return x * factor; },
        [factor](float) { return factor; });
}

Tensor
relu(const Tensor &a)
{
    return elementwiseUnary(
        a, [](float x) { return x > 0.0f ? x : 0.0f; },
        [](float y) { return y > 0.0f ? 1.0f : 0.0f; });
}

Tensor
tanhT(const Tensor &a)
{
    return elementwiseUnary(
        a, [](float x) { return std::tanh(x); },
        [](float y) { return 1.0f - y * y; });
}

Tensor
sigmoid(const Tensor &a)
{
    return elementwiseUnary(
        a, sigmoidOf, [](float y) { return y * (1.0f - y); });
}

Tensor
gatherRows(const Tensor &a, const std::vector<int32_t> &index)
{
    SP_ASSERT(a.isMatrix());
    const int64_t m = a.cols();
    const int64_t n = static_cast<int64_t>(index.size());
    auto out = makeResult(n, m, {a.node()});
    for (int64_t i = 0; i < n; ++i) {
        SP_ASSERT(index[i] >= 0 && index[i] < a.rows(),
                  "gatherRows index out of range");
        std::copy_n(a.data().data() + index[i] * m, m,
                    out->data.data() + i * m);
    }
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        auto idx = index;
        out->backward_fn = [an, on, idx, n, m] {
            for (int64_t i = 0; i < n; ++i) {
                float *dst = an->grad.data() + idx[i] * m;
                const float *src = on->grad.data() + i * m;
                for (int64_t j = 0; j < m; ++j)
                    dst[j] += src[j];
            }
        };
    }
    return Tensor(out);
}

Tensor
scatterAddRows(const Tensor &a, const std::vector<int32_t> &index,
               int64_t out_rows)
{
    SP_ASSERT(a.isMatrix());
    SP_ASSERT(static_cast<int64_t>(index.size()) == a.rows(),
              "scatterAddRows needs one index per input row");
    const int64_t m = a.cols();
    const int64_t n = a.rows();
    auto out = makeResult(out_rows, m, {a.node()});
    for (int64_t i = 0; i < n; ++i) {
        SP_ASSERT(index[i] >= 0 && index[i] < out_rows,
                  "scatterAddRows index out of range");
        float *dst = out->data.data() + index[i] * m;
        const float *src = a.data().data() + i * m;
        for (int64_t j = 0; j < m; ++j)
            dst[j] += src[j];
    }
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        auto idx = index;
        out->backward_fn = [an, on, idx, n, m] {
            for (int64_t i = 0; i < n; ++i) {
                const float *src = on->grad.data() + idx[i] * m;
                float *dst = an->grad.data() + i * m;
                for (int64_t j = 0; j < m; ++j)
                    dst[j] += src[j];
            }
        };
    }
    return Tensor(out);
}

Tensor
rowScale(const Tensor &a, const std::vector<float> &scales)
{
    SP_ASSERT(a.isMatrix());
    SP_ASSERT(static_cast<int64_t>(scales.size()) == a.rows());
    const int64_t n = a.rows(), m = a.cols();
    auto out = makeResult(n, m, {a.node()});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
            out->data[i * m + j] = a.data()[i * m + j] * scales[i];
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        auto sc = scales;
        out->backward_fn = [an, on, sc, n, m] {
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = 0; j < m; ++j)
                    an->grad[i * m + j] += on->grad[i * m + j] * sc[i];
        };
    }
    return Tensor(out);
}

Tensor
rowScaleT(const Tensor &a, const Tensor &v)
{
    SP_ASSERT(a.isMatrix() && !v.isMatrix() && v.rows() == a.rows(),
              "rowScaleT shape mismatch");
    const int64_t n = a.rows(), m = a.cols();
    auto out = makeResult(n, m, {a.node(), v.node()});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
            out->data[i * m + j] = a.data()[i * m + j] * v.data()[i];
    if (out->requires_grad) {
        auto an = a.node(), vn = v.node();
        auto on = out.get();
        out->backward_fn = [an, vn, on, n, m] {
            for (int64_t i = 0; i < n; ++i) {
                for (int64_t j = 0; j < m; ++j) {
                    const float g = on->grad[i * m + j];
                    if (an->requires_grad)
                        an->grad[i * m + j] += g * vn->data[i];
                    if (vn->requires_grad)
                        vn->grad[i] += g * an->data[i * m + j];
                }
            }
        };
    }
    return Tensor(out);
}

Tensor
leakyRelu(const Tensor &a, float slope)
{
    return elementwiseUnary(
        a, [slope](float x) { return x > 0.0f ? x : slope * x; },
        [slope](float y) { return y > 0.0f ? 1.0f : slope; });
}

Tensor
segmentSoftmax(const Tensor &scores, const std::vector<int32_t> &segment,
               int32_t num_segments)
{
    SP_ASSERT(!scores.isMatrix());
    const auto n = static_cast<size_t>(scores.rows());
    SP_ASSERT(segment.size() == n);
    auto out = makeResult(static_cast<int64_t>(n), 0, {scores.node()});

    // Per-segment max for stability, then exp and per-segment sum.
    std::vector<float> seg_max(static_cast<size_t>(num_segments),
                               -3.4e38f);
    std::vector<float> seg_sum;
    for (size_t i = 0; i < n; ++i) {
        SP_ASSERT(segment[i] >= 0 && segment[i] < num_segments);
        seg_max[static_cast<size_t>(segment[i])] =
            std::max(seg_max[static_cast<size_t>(segment[i])],
                     scores.data()[i]);
    }
    seg_sum.assign(static_cast<size_t>(num_segments), 0.0f);
    for (size_t i = 0; i < n; ++i) {
        const float e = std::exp(
            scores.data()[i] - seg_max[static_cast<size_t>(segment[i])]);
        out->data[i] = e;
        seg_sum[static_cast<size_t>(segment[i])] += e;
    }
    for (size_t i = 0; i < n; ++i)
        out->data[i] /= seg_sum[static_cast<size_t>(segment[i])];

    if (out->requires_grad) {
        auto sn = scores.node();
        auto on = out.get();
        auto seg = segment;
        out->backward_fn = [sn, on, seg, n, num_segments] {
            // Per segment: dx_i = y_i * (g_i - sum_j g_j y_j).
            std::vector<float> dot(static_cast<size_t>(num_segments),
                                   0.0f);
            for (size_t i = 0; i < n; ++i) {
                dot[static_cast<size_t>(seg[i])] +=
                    on->grad[i] * on->data[i];
            }
            for (size_t i = 0; i < n; ++i) {
                sn->grad[i] += on->data[i] *
                               (on->grad[i] -
                                dot[static_cast<size_t>(seg[i])]);
            }
        };
    }
    return Tensor(out);
}

Tensor
concatCols(const std::vector<Tensor> &parts)
{
    SP_ASSERT(!parts.empty());
    const int64_t n = parts[0].rows();
    int64_t total_cols = 0;
    std::vector<std::shared_ptr<TensorNode>> parents;
    for (const auto &p : parts) {
        SP_ASSERT(p.isMatrix() && p.rows() == n,
                  "concatCols row count mismatch");
        total_cols += p.cols();
        parents.push_back(p.node());
    }
    auto out = makeResult(n, total_cols, parents);
    int64_t offset = 0;
    for (const auto &p : parts) {
        const int64_t m = p.cols();
        for (int64_t i = 0; i < n; ++i)
            std::copy_n(p.data().data() + i * m, m,
                        out->data.data() + i * total_cols + offset);
        offset += m;
    }
    if (out->requires_grad) {
        auto on = out.get();
        auto parent_nodes = parents;
        out->backward_fn = [on, parent_nodes, n, total_cols] {
            int64_t off = 0;
            for (const auto &pn : parent_nodes) {
                const int64_t m = pn->cols;
                if (pn->requires_grad) {
                    for (int64_t i = 0; i < n; ++i) {
                        const float *src =
                            on->grad.data() + i * total_cols + off;
                        float *dst = pn->grad.data() + i * m;
                        for (int64_t j = 0; j < m; ++j)
                            dst[j] += src[j];
                    }
                }
                off += m;
            }
        };
    }
    return Tensor(out);
}

Tensor
concatRows(const std::vector<Tensor> &parts)
{
    SP_ASSERT(!parts.empty());
    const int64_t m = parts[0].cols();
    int64_t total_rows = 0;
    std::vector<std::shared_ptr<TensorNode>> parents;
    for (const auto &p : parts) {
        SP_ASSERT(p.isMatrix() && p.cols() == m,
                  "concatRows column count mismatch");
        total_rows += p.rows();
        parents.push_back(p.node());
    }
    auto out = makeResult(total_rows, m, parents);
    int64_t row = 0;
    for (const auto &p : parts) {
        std::copy(p.data().begin(), p.data().end(),
                  out->data.begin() + row * m);
        row += p.rows();
    }
    if (out->requires_grad) {
        auto on = out.get();
        auto parent_nodes = parents;
        out->backward_fn = [on, parent_nodes, m] {
            int64_t row_off = 0;
            for (const auto &pn : parent_nodes) {
                if (pn->requires_grad) {
                    const float *src = on->grad.data() + row_off * m;
                    for (size_t j = 0; j < pn->grad.size(); ++j)
                        pn->grad[j] += src[j];
                }
                row_off += pn->rows;
            }
        };
    }
    return Tensor(out);
}

Tensor
layerNormRows(const Tensor &a, float eps)
{
    SP_ASSERT(a.isMatrix());
    const int64_t n = a.rows(), m = a.cols();
    auto out = makeResult(n, m, {a.node()});
    // inv_std is only kept for the backward pass.
    std::vector<float> inv_std;
    if (out->requires_grad)
        inv_std.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        const float is = layerNormRow(a.data().data() + i * m,
                                      out->data.data() + i * m, m, eps);
        if (!inv_std.empty())
            inv_std[static_cast<size_t>(i)] = is;
    }
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        out->backward_fn = [an, on, inv_std, n, m] {
            // d x_j = is * (g_j - mean(g) - y_j * mean(g * y))
            for (int64_t i = 0; i < n; ++i) {
                const float *g = on->grad.data() + i * m;
                const float *y = on->data.data() + i * m;
                float g_mean = 0.0f, gy_mean = 0.0f;
                for (int64_t j = 0; j < m; ++j) {
                    g_mean += g[j];
                    gy_mean += g[j] * y[j];
                }
                g_mean /= static_cast<float>(m);
                gy_mean /= static_cast<float>(m);
                const float is = inv_std[static_cast<size_t>(i)];
                float *dst = an->grad.data() + i * m;
                for (int64_t j = 0; j < m; ++j)
                    dst[j] += is * (g[j] - g_mean - y[j] * gy_mean);
            }
        };
    }
    return Tensor(out);
}

Tensor
softmaxRows(const Tensor &a)
{
    SP_ASSERT(a.isMatrix());
    const int64_t n = a.rows(), m = a.cols();
    auto out = makeResult(n, m, {a.node()});
    for (int64_t i = 0; i < n; ++i) {
        const float *row = a.data().data() + i * m;
        float mx = row[0];
        for (int64_t j = 1; j < m; ++j)
            mx = std::max(mx, row[j]);
        float total = 0.0f;
        for (int64_t j = 0; j < m; ++j) {
            float e = std::exp(row[j] - mx);
            out->data[i * m + j] = e;
            total += e;
        }
        for (int64_t j = 0; j < m; ++j)
            out->data[i * m + j] /= total;
    }
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        out->backward_fn = [an, on, n, m] {
            for (int64_t i = 0; i < n; ++i) {
                const float *g = on->grad.data() + i * m;
                const float *y = on->data.data() + i * m;
                float dot = 0.0f;
                for (int64_t j = 0; j < m; ++j)
                    dot += g[j] * y[j];
                float *dst = an->grad.data() + i * m;
                for (int64_t j = 0; j < m; ++j)
                    dst[j] += y[j] * (g[j] - dot);
            }
        };
    }
    return Tensor(out);
}

Tensor
flatten(const Tensor &a)
{
    auto out = makeResult(a.numel(), 0, {a.node()});
    out->data = a.data();
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        out->backward_fn = [an, on] {
            for (size_t i = 0; i < an->grad.size(); ++i)
                an->grad[i] += on->grad[i];
        };
    }
    return Tensor(out);
}

Tensor
meanAll(const Tensor &a)
{
    auto out = makeResult(1, 0, {a.node()});
    const size_t n = a.node()->data.size();
    double total = 0.0;
    for (float v : a.data())
        total += v;
    out->data[0] = static_cast<float>(total / static_cast<double>(n));
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        out->backward_fn = [an, on, n] {
            const float g = on->grad[0] / static_cast<float>(n);
            for (auto &gv : an->grad)
                gv += g;
        };
    }
    return Tensor(out);
}

Tensor
sumAll(const Tensor &a)
{
    auto out = makeResult(1, 0, {a.node()});
    double total = 0.0;
    for (float v : a.data())
        total += v;
    out->data[0] = static_cast<float>(total);
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        out->backward_fn = [an, on] {
            const float g = on->grad[0];
            for (auto &gv : an->grad)
                gv += g;
        };
    }
    return Tensor(out);
}

Tensor
bceWithLogits(const Tensor &logits, const std::vector<float> &targets,
              const std::vector<float> &weights)
{
    SP_ASSERT(!logits.isMatrix());
    const size_t n = logits.data().size();
    SP_ASSERT(targets.size() == n && weights.size() == n);
    auto out = makeResult(1, 0, {logits.node()});
    double total = 0.0;
    double weight_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const float x = logits.data()[i];
        // log(1 + exp(x)) - y*x, computed stably.
        const float softplus =
            x > 0.0f ? x + std::log1p(std::exp(-x))
                     : std::log1p(std::exp(x));
        total += weights[i] * (softplus - targets[i] * x);
        weight_sum += weights[i];
    }
    if (weight_sum <= 0.0)
        weight_sum = 1.0;
    out->data[0] = static_cast<float>(total / weight_sum);
    if (out->requires_grad) {
        auto ln = logits.node();
        auto on = out.get();
        auto t = targets;
        auto w = weights;
        const float inv_w = static_cast<float>(1.0 / weight_sum);
        out->backward_fn = [ln, on, t, w, n, inv_w] {
            const float g = on->grad[0] * inv_w;
            for (size_t i = 0; i < n; ++i) {
                const float x = ln->data[i];
                const float s =
                    x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                              : std::exp(x) / (1.0f + std::exp(x));
                ln->grad[i] += g * w[i] * (s - t[i]);
            }
        };
    }
    return Tensor(out);
}

Tensor
crossEntropyRows(const Tensor &logits,
                 const std::vector<int32_t> &targets)
{
    SP_ASSERT(logits.isMatrix());
    const int64_t n = logits.rows(), c = logits.cols();
    SP_ASSERT(static_cast<int64_t>(targets.size()) == n);
    auto out = makeResult(1, 0, {logits.node()});

    // Cache the softmax for the backward pass.
    std::vector<float> softmax(static_cast<size_t>(n * c));
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        SP_ASSERT(targets[i] >= 0 && targets[i] < c,
                  "crossEntropyRows target out of range");
        const float *row = logits.data().data() + i * c;
        float mx = row[0];
        for (int64_t j = 1; j < c; ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (int64_t j = 0; j < c; ++j)
            denom += std::exp(static_cast<double>(row[j] - mx));
        for (int64_t j = 0; j < c; ++j) {
            softmax[static_cast<size_t>(i * c + j)] = static_cast<float>(
                std::exp(static_cast<double>(row[j] - mx)) / denom);
        }
        total += -(static_cast<double>(row[targets[i]] - mx) -
                   std::log(denom));
    }
    out->data[0] = static_cast<float>(total / static_cast<double>(n));

    if (out->requires_grad) {
        auto ln = logits.node();
        auto on = out.get();
        auto t = targets;
        out->backward_fn = [ln, on, t, softmax = std::move(softmax), n,
                            c] {
            const float g = on->grad[0] / static_cast<float>(n);
            for (int64_t i = 0; i < n; ++i) {
                for (int64_t j = 0; j < c; ++j) {
                    const float indicator = (j == t[i]) ? 1.0f : 0.0f;
                    ln->grad[i * c + j] +=
                        g * (softmax[static_cast<size_t>(i * c + j)] -
                             indicator);
                }
            }
        };
    }
    return Tensor(out);
}

Tensor
dropout(const Tensor &a, float p, Rng &rng, bool training)
{
    if (!training || p <= 0.0f)
        return a;
    SP_ASSERT(p < 1.0f, "dropout probability must be < 1");
    auto out = makeResult(a.rows(), a.cols(), {a.node()});
    const size_t n = out->data.size();
    std::vector<float> mask(n);
    const float keep_scale = 1.0f / (1.0f - p);
    for (size_t i = 0; i < n; ++i)
        mask[i] = rng.chance(p) ? 0.0f : keep_scale;
    for (size_t i = 0; i < n; ++i)
        out->data[i] = a.data()[i] * mask[i];
    if (out->requires_grad) {
        auto an = a.node();
        auto on = out.get();
        out->backward_fn = [an, on, mask = std::move(mask), n] {
            for (size_t i = 0; i < n; ++i)
                an->grad[i] += on->grad[i] * mask[i];
        };
    }
    return Tensor(out);
}

}  // namespace sp::nn
