/**
 * @file
 * Differentiable operations over Variables.
 *
 * Each op builds a graph Node whose backward closure accumulates into
 * its parents. The set is exactly what the five TGNN models of Table 1
 * need: affine maps, RNN/GRU gates, GAT attention (grouped softmax over
 * fixed-fanout neighbor blocks), time encodings and the BCE link-
 * prediction loss.
 *
 * Shape conventions: batch rows x feature cols. Neighbor blocks are
 * laid out as (B*K) x D with node i's K neighbors contiguous in rows
 * [i*K, (i+1)*K).
 */

#ifndef CASCADE_TENSOR_OPS_HH
#define CASCADE_TENSOR_OPS_HH

#include <cstdint>
#include <vector>

#include "tensor/variable.hh"

namespace cascade {
namespace ops {

/** C = A x B. */
Variable matmul(const Variable &a, const Variable &b);

/**
 * Elementwise A + B. B may be 1xC (broadcast across rows) or Bx1
 * (broadcast across columns); otherwise shapes must match.
 */
Variable add(const Variable &a, const Variable &b);

/** Elementwise A - B (same shapes only). */
Variable sub(const Variable &a, const Variable &b);

/** Elementwise (Hadamard) product; B may be Bx1 (column broadcast). */
Variable mul(const Variable &a, const Variable &b);

/** a * s for scalar s. */
Variable scale(const Variable &a, float s);

/** @name Elementwise nonlinearities */
/** @{ */
Variable sigmoid(const Variable &a);
Variable tanhOp(const Variable &a);
Variable relu(const Variable &a);
Variable leakyRelu(const Variable &a, float slope = 0.2f);
Variable cosOp(const Variable &a);
Variable square(const Variable &a);
/** @} */

/** Horizontal concatenation [A | B]. */
Variable concatCols(const Variable &a, const Variable &b);

/** Rows selected by index (duplicates allowed; grad scatter-adds). */
Variable gatherRows(const Variable &a, std::vector<int64_t> rows);

/** Sum of all entries -> 1x1. */
Variable sumAll(const Variable &a);

/**
 * Per-row sum: RxC -> Rx1 (the attention row-dot reduction).
 * Replaces the old ones-matrix-matmul idiom with a dedicated kernel
 * and a broadcast backward.
 */
Variable rowSum(const Variable &a);

/**
 * Softmax within groups of K consecutive rows of a (B*K)x1 score
 * column. Row block [i*K, (i+1)*K) is normalized independently —
 * the attention normalization of a GAT layer with fanout K.
 */
Variable groupedSoftmax(const Variable &scores, size_t k);

/**
 * Weighted sum of neighbor features: weights (B*K)x1 applied to
 * feats (B*K)xD, reduced per group -> BxD.
 */
Variable groupedWeightedSum(const Variable &weights, const Variable &feats,
                            size_t k);

/**
 * Mean binary-cross-entropy with logits.
 * @param logits Bx1 raw scores
 * @param targets Bx1 tensor of {0,1} labels (not differentiated)
 * @return 1x1 loss
 */
Variable bceWithLogits(const Variable &logits, const Tensor &targets);

/** Numerically-stable elementwise sigmoid of a raw tensor. */
Tensor sigmoidRaw(const Tensor &a);

} // namespace ops
} // namespace cascade

#endif // CASCADE_TENSOR_OPS_HH
