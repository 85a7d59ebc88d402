/**
 * @file
 * Neural-network building blocks composed from the autograd tensor ops:
 * parameter registry, fully-connected layers, embedding tables, and a
 * small multi-layer perceptron. These are the pieces PMM is built from.
 */
#ifndef SP_NN_MODULE_H
#define SP_NN_MODULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace sp::nn {

/** A named trainable parameter (for optimizers and checkpointing). */
struct Parameter
{
    std::string name;
    Tensor tensor;
};

/**
 * Base class for anything with trainable parameters. Derived modules
 * register parameters at construction; optimizers and checkpoint I/O
 * operate on the flat parameter list.
 */
class Module
{
  public:
    virtual ~Module() = default;

    /** All trainable parameters of this module (registration order). */
    const std::vector<Parameter> &parameters() const { return params_; }

    /** Zero every parameter's gradient buffer. */
    void zeroGrad();

    /** Total number of trainable scalars. */
    int64_t parameterCount() const;

  protected:
    /** Register a parameter; returns the stored tensor handle. */
    Tensor registerParameter(std::string name, Tensor tensor);

    /** Absorb a child module's parameters under a name prefix. */
    void absorb(const std::string &prefix, const Module &child);

  private:
    std::vector<Parameter> params_;
};

/** Affine layer y = x W + b with Kaiming-style init. */
class Linear : public Module
{
  public:
    /**
     * @param rng    init randomness
     * @param in     input feature count
     * @param out    output feature count
     * @param name   parameter name prefix
     */
    Linear(Rng &rng, int64_t in, int64_t out, const std::string &name);

    /** Apply to a [n, in] matrix, producing [n, out]. */
    Tensor forward(const Tensor &x) const;

    int64_t inFeatures() const { return in_; }
    int64_t outFeatures() const { return out_; }
    const Tensor &weight() const { return weight_; }  ///< [in, out]
    const Tensor &bias() const { return bias_; }      ///< [out]

  private:
    int64_t in_;
    int64_t out_;
    Tensor weight_;
    Tensor bias_;
};

/** Learned embedding table: id -> dense row. */
class Embedding : public Module
{
  public:
    /**
     * @param rng        init randomness
     * @param vocab      number of ids
     * @param dim        embedding width
     * @param name       parameter name prefix
     */
    Embedding(Rng &rng, int64_t vocab, int64_t dim, const std::string &name);

    /** Look up a batch of ids, producing [ids.size(), dim]. */
    Tensor forward(const std::vector<int32_t> &ids) const;

    int64_t vocab() const { return vocab_; }
    int64_t dim() const { return dim_; }
    const Tensor &table() const { return table_; }  ///< [vocab, dim]

  private:
    int64_t vocab_;
    int64_t dim_;
    Tensor table_;
};

/**
 * Multi-layer perceptron with ReLU between layers (none after the last).
 */
class Mlp : public Module
{
  public:
    /**
     * @param rng    init randomness
     * @param dims   layer widths, e.g. {in, hidden, out}
     * @param name   parameter name prefix
     */
    Mlp(Rng &rng, const std::vector<int64_t> &dims, const std::string &name);

    /** Apply to a [n, dims.front()] matrix. */
    Tensor forward(const Tensor &x) const;

    const std::vector<Linear> &layers() const { return layers_; }

  private:
    std::vector<Linear> layers_;
};

}  // namespace sp::nn

#endif  // SP_NN_MODULE_H
