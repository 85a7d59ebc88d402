/**
 * @file
 * Dense single-precision GEMM kernels for the autograd engine.
 *
 * Three accumulate variants cover the forward pass and both gradients
 * of `matmul` (all matrices row-major):
 *
 *   gemmAcc        C[n,m] += A[n,k]  * B[k,m]
 *   gemmAccTransB  C[n,k] += G[n,m]  * B[k,m]^T
 *   gemmAccTransA  C[k,m] += A[n,k]^T * G[n,m]
 *
 * gemmAcc reads B row-major in place and vectorizes over output
 * columns: eight (then four) columns of one output row accumulate
 * side by side, with each column's dot product split into the same
 * four lanes, reduction tree and serial tail as a scalar dot(), so
 * every output is the same float arithmetic whichever path computes
 * it. The reduction runs in slabs of 256 elements, and an all-zero
 * slab of an A row is skipped (it would add exactly 0).
 * gemmAccTransB runs plain dot products: with B row-major, both
 * operands of its dot product are already contiguous. gemmAccTransA is
 * an outer-product accumulation whose inner loop streams rows of G.
 *
 * gemmAcc and gemmAccTransB additionally split their output rows
 * across a few threads when the multiply is large enough to amortize
 * thread spawn (the big training-time GEMMs over all graph nodes);
 * small inference-sized multiplies stay strictly single-threaded.
 */
#ifndef SP_NN_GEMM_H
#define SP_NN_GEMM_H

#include <cstdint>

namespace sp::nn {

/** C[n,m] += A[n,k] * B[k,m]. */
void gemmAcc(const float *a, const float *b, float *c, int64_t n,
             int64_t k, int64_t m);

/** C[n,k] += G[n,m] * B[k,m]^T (the dA of matmul's backward). */
void gemmAccTransB(const float *g, const float *b, float *c, int64_t n,
                   int64_t m, int64_t k);

/** C[k,m] += A[n,k]^T * G[n,m] (the dB of matmul's backward). */
void gemmAccTransA(const float *a, const float *g, float *c, int64_t n,
                   int64_t k, int64_t m);

}  // namespace sp::nn

#endif  // SP_NN_GEMM_H
