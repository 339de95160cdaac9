/**
 * @file
 * Dense row-major float matrix.
 *
 * The whole library computes on 2-D tensors: batches are rows, features
 * are columns; vectors are 1xC or Bx1 matrices. This is a deliberate
 * restriction — every operation a TGNN needs (Eq. 2-4 of the paper) is
 * expressible over matrices, and the simple layout keeps the from-
 * scratch autograd engine auditable.
 */

#ifndef CASCADE_TENSOR_TENSOR_HH
#define CASCADE_TENSOR_TENSOR_HH

#include <cstddef>
#include <vector>

#include "util/rng.hh"

namespace cascade {

/** Dense row-major matrix of floats. */
class Tensor
{
  public:
    /** Empty 0x0 tensor. */
    Tensor() : rows_(0), cols_(0) {}

    /** Zero-initialized rows x cols tensor. */
    Tensor(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {}

    /** Tensor from explicit data (row-major, size must match). */
    Tensor(size_t rows, size_t cols, std::vector<float> data);

    /** @name Factories */
    /** @{ */
    static Tensor zeros(size_t rows, size_t cols);
    static Tensor ones(size_t rows, size_t cols);
    static Tensor full(size_t rows, size_t cols, float value);
    /** Gaussian-initialized entries with the given stddev. */
    static Tensor randn(size_t rows, size_t cols, Rng &rng,
                        float stddev = 1.0f);
    /** Xavier/Glorot uniform initialization for weight matrices. */
    static Tensor xavier(size_t rows, size_t cols, Rng &rng);
    /** @} */

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &at(size_t r, size_t c) { return data_[r * cols_ + c]; }
    float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float *row(size_t r) { return data_.data() + r * cols_; }
    const float *row(size_t r) const { return data_.data() + r * cols_; }

    /** Set every entry to value. */
    void fill(float value);

    /** True if shapes match exactly. */
    bool sameShape(const Tensor &other) const;

    /** @name In-place arithmetic (used by backward passes / optimizers) */
    /** @{ */
    Tensor &operator+=(const Tensor &other);
    Tensor &operator-=(const Tensor &other);
    Tensor &operator*=(float s);
    /** @} */

    /** Frobenius-style sum of all entries. */
    double sum() const;

    /** Max |entry| (used by gradient diagnostics). */
    float maxAbs() const;

    /** Copy row r of src into row r of *this. */
    void copyRowFrom(size_t dst_row, const Tensor &src, size_t src_row);

    /**
     * Steal the backing storage, leaving a 0x0 tensor. Used by
     * kernels::recycle to park buffers in the kernel buffer pool.
     */
    std::vector<float>
    takeData() &&
    {
        rows_ = cols_ = 0;
        return std::move(data_);
    }

  private:
    size_t rows_;
    size_t cols_;
    std::vector<float> data_;
};

// Matrix products live in tensor/kernels.hh (kernels::gemm).

/**
 * Cosine similarity between row ra of a and row rb of b.
 * Returns 1.0 when both rows are (near-)zero — an unwritten memory that
 * stays unwritten counts as unchanged for the SG-Filter.
 */
double cosineSimilarityRows(const Tensor &a, size_t ra,
                            const Tensor &b, size_t rb);

} // namespace cascade

#endif // CASCADE_TENSOR_TENSOR_HH
