/**
 * @file
 * The generic event-batched TGNN (§2.2-2.3).
 *
 * One parameterized pipeline covers all five Table 1 models:
 *
 *   1. consume pending mailbox messages: x = AGGR(msgs),
 *      fresh = UPDT(x, s)                         (Eq. 3)
 *   2. embed batch nodes with the GNN module over sampled temporal
 *      neighbors                                   (Eq. 4)
 *   3. score positive batch edges against sampled negatives with an
 *      MLP decoder, train with binary cross entropy
 *   4. write updated memories back (recording pre/post cosine
 *      similarity for the SG-Filter) and generate this batch's
 *      messages into the mailbox                   (Eq. 2)
 *
 * Memories cross batch boundaries as raw values (detached), which is
 * the deferred-update training scheme of TGL that the paper builds on.
 */

#ifndef CASCADE_TGNN_MODEL_HH
#define CASCADE_TGNN_MODEL_HH

#include <initializer_list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/adjacency.hh"
#include "graph/event.hh"
#include "graph/event_source.hh"
#include "nn/attention.hh"
#include "nn/linear.hh"
#include "nn/recurrent.hh"
#include "nn/time_encoding.hh"
#include "util/determinism.hh"
#include "tensor/optim.hh"
#include "tgnn/config.hh"
#include "tgnn/mailbox.hh"
#include "tgnn/memory.hh"

namespace cascade {

/** Outcome of one batch step. */
struct StepResult
{
    double loss = 0.0;
    size_t numEvents = 0;
    /** Nodes whose memory was rewritten this batch. */
    std::vector<NodeId> updatedNodes;
    /** cos(s_before, s_after) per updated node (SG-Filter input). */
    std::vector<double> memCosine;
    /**
     * Effective dense compute rows pushed through the model, the
     * device-model work unit. Neighbor-block rows are down-weighted
     * by the device lane width (8): a fanout-k aggregation over B
     * nodes costs B*(1 + k/8) effective rows, mirroring how a GPU
     * parallelizes the neighbor dimension across a warp rather than
     * across rows. This keeps per-model cost ratios in the 2-4x
     * range real TGNN systems report instead of the 30x a naive
     * row count would give.
     */
    size_t workRows = 0;
    /** Neighbor samples drawn (sampling-cost accounting). */
    size_t sampledNeighbors = 0;
    /** Fraction of events whose true edge outscored its negative. */
    double rankAccuracy = 0.0;
    /**
     * L2 norm of the parameter gradients after backward (training
     * steps only; 0 in eval). The NumericGuard's explosion signal.
     */
    double gradNorm = 0.0;
};

class ByteWriter;
class ByteReader;

/** A Table 1 TGNN instance bound to a node universe. */
class TgnnModel
{
  public:
    /**
     * @param config       model selection (Table 1)
     * @param num_nodes    node universe size
     * @param edge_feat_dim edge feature width of the dataset
     * @param seed         weight/negative-sampling seed
     */
    TgnnModel(const ModelConfig &config, size_t num_nodes,
              size_t edge_feat_dim, uint64_t seed);

    /**
     * Process events [st, ed) of `data`.
     *
     * @param data  full event stream (train and validation ranges);
     *              any EventSource — resident vector or mmap'd log
     * @param adj   adjacency over `data`
     * @param train when true, backprop + optimizer step
     */
    StepResult step(const EventSource &data, const TemporalAdjacency &adj,
                    size_t st, size_t ed, bool train);

    /** step() over a resident sequence. */
    StepResult
    step(const EventSequence &data, const TemporalAdjacency &adj,
         size_t st, size_t ed, bool train)
    {
        return step(VectorEventSource(data), adj, st, ed, train);
    }

    /**
     * Deferred state mutation produced by a forward pass: the memory
     * rows to overwrite plus the message-generation range (Eq. 2).
     * Applying it is independent of backward/optimizer — the values
     * are detached copies — so the sharded collective can carry it
     * across workers and apply it after the merged update.
     */
    struct PendingWriteback
    {
        bool active = false;       ///< model has a memory writeback
        std::vector<NodeId> nodes; ///< rows to overwrite (may be empty)
        Tensor values;             ///< |nodes| x memoryDim new rows
        double writeTs = 0.0;      ///< batch-end timestamp
        size_t st = 0;             ///< message-generation range start
        size_t ed = 0;             ///< message-generation range end
    };

    /**
     * Forward-pass output: the loss graph root (stepBackward input),
     * the partially filled StepResult (gradNorm / memCosine /
     * updatedNodes pending), and the deferred writeback.
     */
    struct Forward
    {
        Variable loss;
        StepResult result;
        PendingWriteback writeback;
    };

    /**
     * The decomposed step() — forward only: stepForwardWithRng drawing
     * from the model's own sampling RNG. Must not run concurrently
     * with applyWriteback.
     */
    Forward
    stepForward(const EventSource &data, const TemporalAdjacency &adj,
                size_t st, size_t ed)
    {
        return stepForwardWithRng(data, adj, st, ed, rng_);
    }

    /** stepForward() over a resident sequence. */
    Forward
    stepForward(const EventSequence &data, const TemporalAdjacency &adj,
                size_t st, size_t ed)
    {
        return stepForward(VectorEventSource(data), adj, st, ed);
    }

    /**
     * The forward pass over [st, ed): reads the model's memory and
     * mailbox and draws negatives and neighbor samples from `rng`
     * alone. The sharded trainer (train/shard.hh) seeds one RNG per
     * (batch, shard), which makes a shard's forward a pure function
     * of the replica state and the shard id — the property that lets
     * any worker (or the master, after a worker death) recompute it
     * bit-identically.
     */
    CASCADE_TRAJECTORY
    Forward stepForwardWithRng(const EventSource &data,
                               const TemporalAdjacency &adj, size_t st,
                               size_t ed, Rng &rng) const;

    /** stepForwardWithRng() over a resident sequence. */
    Forward
    stepForwardWithRng(const EventSequence &data,
                       const TemporalAdjacency &adj, size_t st,
                       size_t ed, Rng &rng) const
    {
        return stepForwardWithRng(VectorEventSource(data), adj, st, ed,
                                  rng);
    }

    /**
     * Gradients of f.loss, flattened in parameters() order: zero,
     * backward, concatenate. No optimizer step — the sharded trainer
     * merges flats across shards first (train/collective.hh) and
     * applies the merged update with applyMergedGradients.
     */
    std::vector<float> collectGradients(Forward &f);

    /**
     * Scatter a flat gradient vector (parameters() order, as produced
     * by collectGradients / the shard collective) into the parameter
     * gradients and take one optimizer step. Applied to bit-identical
     * replicas with bit-identical flats, the replicas stay
     * bit-identical — the sharded determinism contract.
     */
    void applyMergedGradients(const std::vector<float> &flat);

    /** Scalars a flat gradient vector carries (== Adam's count). */
    size_t gradScalarCount() const;

    /** Backward + optimizer step; fills f.result.gradNorm. Touches
     *  parameters and gradients only — never memory/mailbox. */
    void stepBackward(Forward &f);

    /**
     * Apply a deferred writeback: overwrite memory rows and generate
     * the batch's messages. Must run in batch order; returns the
     * SG-Filter cosines. wb.nodes is left intact for the caller's
     * feedback.
     */
    std::vector<double> applyWriteback(const EventSource &data,
                                       PendingWriteback &wb);

    /** applyWriteback() over a resident sequence. */
    std::vector<double>
    applyWriteback(const EventSequence &data, PendingWriteback &wb)
    {
        return applyWriteback(VectorEventSource(data), wb);
    }

    /**
     * Advance memory and mailbox over events [st, ed) without scoring,
     * negatives, backward, or any RNG draw — the serve engine's
     * single-writer replay path. Because negatives and embeddings
     * never touch memory/mailbox, the state after advanceState is
     * bit-identical to the state after the equivalent step() calls
     * with the same batch boundaries.
     */
    CASCADE_TRAJECTORY
    void advanceState(const EventSource &data, size_t st, size_t ed);

    /**
     * Mean BCE loss over [st, ed) processed in eval batches of
     * batch_size; memories advance (values only) so the stream stays
     * temporally coherent.
     */
    double evalLoss(const EventSource &data,
                    const TemporalAdjacency &adj, size_t st, size_t ed,
                    size_t batch_size);

    /** evalLoss() over a resident sequence. */
    double
    evalLoss(const EventSequence &data, const TemporalAdjacency &adj,
             size_t st, size_t ed, size_t batch_size)
    {
        return evalLoss(VectorEventSource(data), adj, st, ed,
                        batch_size);
    }

    /** Loss plus link-ranking accuracy over an evaluation range. */
    struct EvalMetrics
    {
        double loss = 0.0;
        /** P(score(true edge) > score(random negative)). */
        double rankAccuracy = 0.0;
    };
    EvalMetrics evalMetrics(const EventSource &data,
                            const TemporalAdjacency &adj, size_t st,
                            size_t ed, size_t batch_size);

    /** evalMetrics() over a resident sequence. */
    EvalMetrics
    evalMetrics(const EventSequence &data, const TemporalAdjacency &adj,
                size_t st, size_t ed, size_t batch_size)
    {
        return evalMetrics(VectorEventSource(data), adj, st, ed,
                           batch_size);
    }

    /** Node memory and mailbox: the temporal state a forward reads. */
    struct State
    {
        MemoryStore mem;
        Mailbox mail;
    };

    /**
     * Inference-time node embeddings (Eq. 4) on `state` for downstream
     * tasks (e.g. node classification probes, serve readers):
     * consumes `state`'s pending mailbox messages into fresh
     * memories, embeds with the model's GNN module, and returns
     * detached values. Reads parameters and `state` only, so any
     * number of threads may query one model while its own state
     * advances.
     *
     * Uniform neighbor samples come from an RNG seeded from `before`
     * alone, never the training RNG, so the answer depends only on
     * parameters, state and query: repeated calls are bit-identical.
     *
     * @param nodes   nodes to embed
     * @param at_time embedding timestamp (drives Δt terms)
     * @param before  only events with index < before are visible
     * @return |nodes| x memoryDim embedding matrix
     */
    Tensor embedNodes(const State &state, const std::vector<NodeId> &nodes,
                      double at_time, const EventSource &data,
                      const TemporalAdjacency &adj, EventIdx before) const;

    /** embedNodes() on the model's own state. */
    Tensor
    embedNodes(const std::vector<NodeId> &nodes, double at_time,
               const EventSource &data, const TemporalAdjacency &adj,
               EventIdx before) const
    {
        return embedNodes(state_, nodes, at_time, data, adj, before);
    }

    /** embedNodes() over a resident sequence. */
    Tensor
    embedNodes(const std::vector<NodeId> &nodes, double at_time,
               const EventSequence &data, const TemporalAdjacency &adj,
               EventIdx before) const
    {
        return embedNodes(nodes, at_time, VectorEventSource(data), adj,
                          before);
    }

    /**
     * Link-prediction logits for the aligned pairs (srcs[i],
     * dsts[i]) at `at_time` on `state`: the embedNodes embedding path
     * for both endpoints followed by the trained decoder — the serve
     * reader's query readout. Like embedNodes it reads parameters and
     * `state` only and samples from an RNG seeded from `before` alone,
     * so repeated calls over one snapshot are bit-identical.
     * @return |srcs| x 1 logit column
     */
    Tensor scoreLinks(const State &state, const std::vector<NodeId> &srcs,
                      const std::vector<NodeId> &dsts, double at_time,
                      const EventSource &data,
                      const TemporalAdjacency &adj, EventIdx before) const;

    /** scoreLinks() on the model's own state. */
    Tensor
    scoreLinks(const std::vector<NodeId> &srcs,
               const std::vector<NodeId> &dsts, double at_time,
               const EventSource &data, const TemporalAdjacency &adj,
               EventIdx before) const
    {
        return scoreLinks(state_, srcs, dsts, at_time, data, adj, before);
    }

    /** Re-zero memory/mailbox (fresh epoch). */
    void resetState();

    /** Copy of the model's state (validation runs, serve snapshots). */
    State saveState() const { return state_; }

    /**
     * Copy a snapshot into this model's memory and mailbox. The
     * arrays are copy-assigned in place, so a snapshot of this
     * model's shape allocates nothing.
     */
    void restoreState(const State &s) { state_ = s; }

    const MemoryStore &memory() const { return state_.mem; }
    const ModelConfig &config() const { return config_; }

    /** Node universe size (replica construction; train/shard.hh). */
    size_t numNodes() const { return numNodes_; }

    /** Edge feature width (replica construction; train/shard.hh). */
    size_t edgeFeatDim() const { return edgeFeatDim_; }

    /** Construction seed (feeds the sharded trainer's shardSeed). */
    uint64_t seed() const { return seed_; }

    /** All trainable parameters. */
    std::vector<Variable> parameters() const;

    /**
     * Serialize everything a bit-identical mid-run resume needs: the
     * stateArrays() list (parameters, Adam's clock and moments, node
     * memory and the mailbox) as a count, the byte lengths and the
     * bytes, then the sampling RNG field by field.
     */
    void saveTrainingState(ByteWriter &w) const;

    /**
     * Restore state written by saveTrainingState. The count, every
     * length and the remaining size are checked before the first byte
     * is copied straight into the live arrays.
     * @return false on mismatch/corruption (model untouched)
     */
    bool loadTrainingState(ByteReader &r);

    /**
     * The checks of loadTrainingState alone, on a copy of the reader:
     * true exactly when loading `r` would succeed. Copies nothing.
     */
    bool fitsTrainingState(ByteReader r) const;

    /** Approximate model parameter bytes (Figure 13c). */
    size_t parameterBytes() const;

    /** Approximate state bytes: memory + mailbox (Figure 13c). */
    size_t stateBytes() const;

  private:
    /** One array of the checkpoint section, in place. */
    struct StateArray
    {
        void *data;
        size_t bytes;
    };

    /**
     * The checkpoint section's arrays in file order: each parameter,
     * Adam's clock, its first and second moments per parameter, node
     * memory and update times, and the mailbox's payloads, timestamps
     * and push counts. The spans point into the arrays the components
     * own; the list is the one place that knows the section's layout.
     * Any restored push count is safe: slots are taken modulo the
     * slot count and valid ones capped at it.
     */
    std::vector<StateArray> stateArrays();

    /** Read a section's count and byte lengths; true when they and
     *  the remaining size match `arrays`. */
    static bool readStateHeader(ByteReader &r,
                                const std::vector<StateArray> &arrays);

    /** Fresh (message-consumed) memories for a node list. */
    struct FreshMemory
    {
        Variable values;               ///< |U| x D
        std::vector<NodeId> nodes;     ///< U
        std::vector<char> consumed;    ///< had pending messages
        std::unordered_map<NodeId, int64_t> index;
    };
    FreshMemory computeFreshMemory(const State &state,
                                   const std::vector<NodeId> &nodes,
                                   double now) const;

    /**
     * Embed rows of nodes at per-row times (Eq. 4) on `state`,
     * sampling neighbors from `rng`.
     * @param row_weight divisor applied to this level's work-row
     *                   accounting (inner GAT levels run lane-
     *                   parallel on the device, so recursion widens
     *                   the divisor by the lane width)
     */
    Variable embedRows(const State &state, const FreshMemory &fresh,
                       const std::vector<NodeId> &row_nodes,
                       const std::vector<double> &row_times,
                       const EventSource &data,
                       const TemporalAdjacency &adj, EventIdx before,
                       int depth, Rng &rng, StepResult &stats,
                       size_t row_weight = 1) const;

    /** Sample fanout neighbor events for one node. */
    std::vector<EventIdx> sampleNeighbors(const TemporalAdjacency &adj,
                                          NodeId node, EventIdx before,
                                          Rng &rng) const;

    /**
     * The deferred writeback of a batch over [st, ed): the fresh rows
     * among the first `endpoints` (the batch's sources and
     * destinations, which computeFreshMemory's node list starts with)
     * that consumed messages.
     */
    PendingWriteback stageWriteback(const FreshMemory &fresh,
                                    size_t endpoints, size_t st,
                                    size_t ed, double write_ts) const;

    /**
     * The one query readout behind embedNodes and scoreLinks:
     * embeddings of each node list on `state` at `at_time`, drawing
     * uniform neighbor samples, list after list, from one RNG seeded
     * from `before` alone.
     */
    CASCADE_TRAJECTORY
    std::vector<Variable>
    queryEmbeddings(const State &state,
                    std::initializer_list<const std::vector<NodeId> *> lists,
                    double at_time, const EventSource &data,
                    const TemporalAdjacency &adj, EventIdx before) const;

    ModelConfig config_;
    size_t numNodes_;
    size_t edgeFeatDim_;
    size_t msgDim_;     ///< mailbox payload width
    size_t updInDim_;   ///< UPDT input width
    Rng rng_;
    uint64_t seed_;

    State state_;

    // Modules (constructed per config; unused ones stay null).
    std::unique_ptr<TimeEncoding> timeEnc_;
    std::unique_ptr<RnnCell> rnn_;
    std::unique_ptr<GruCell> gru_;
    std::unique_ptr<DotAttention> mailAttn_;
    std::unique_ptr<Linear> transformerCombine_;
    std::unique_ptr<GatLayer> gat1_;
    std::unique_ptr<GatLayer> gat2_;
    Variable jodieDecay_; ///< 1 x D time-projection weights
    std::unique_ptr<Mlp> decoder_;
    std::unique_ptr<Adam> optimizer_;
};

} // namespace cascade

#endif // CASCADE_TGNN_MODEL_HH
