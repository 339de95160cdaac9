#include "tgnn/model.hh"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hh"
#include "util/binio.hh"
#include "util/logging.hh"

namespace cascade {

namespace {

/** Unique nodes in insertion order. */
std::vector<NodeId>
uniqueNodes(std::initializer_list<const std::vector<NodeId> *> lists)
{
    std::vector<NodeId> out;
    std::unordered_map<NodeId, char> seen;
    for (const auto *lst : lists) {
        for (NodeId n : *lst) {
            if (seen.emplace(n, 1).second)
                out.push_back(n);
        }
    }
    return out;
}

} // namespace

TgnnModel::TgnnModel(const ModelConfig &config, size_t num_nodes,
                     size_t edge_feat_dim, uint64_t seed)
    : config_(config), numNodes_(num_nodes), edgeFeatDim_(edge_feat_dim),
      msgDim_(config.memoryDim + edge_feat_dim),
      updInDim_(msgDim_ + config.timeDim), rng_(seed), seed_(seed),
      state_{MemoryStore(num_nodes, config.memoryDim),
             // TGAT's static memory never pushes, so its mailbox holds
             // no node.
             Mailbox(config.memory == MemoryKind::Identity ? 0 : num_nodes,
                     config.mailboxSlots, msgDim_)}
{
    Rng init(seed ^ 0xabcdef1234567890ULL);
    const size_t d = config_.memoryDim;

    timeEnc_ = std::make_unique<TimeEncoding>(config_.timeDim, init);

    switch (config_.memory) {
      case MemoryKind::Rnn:
        rnn_ = std::make_unique<RnnCell>(updInDim_, d, init);
        break;
      case MemoryKind::Gru:
        gru_ = std::make_unique<GruCell>(updInDim_, d, init);
        break;
      case MemoryKind::Transformer:
        mailAttn_ = std::make_unique<DotAttention>(d, updInDim_, d, init);
        transformerCombine_ = std::make_unique<Linear>(2 * d, d, init);
        break;
      case MemoryKind::Identity:
        break;
    }

    const size_t nbr_dim = d + edgeFeatDim_ + config_.timeDim;
    switch (config_.embed) {
      case EmbedKind::Gat:
        gat1_ = std::make_unique<GatLayer>(d, nbr_dim, d, init);
        break;
      case EmbedKind::Gat2:
        gat1_ = std::make_unique<GatLayer>(d, nbr_dim, d, init);
        gat2_ = std::make_unique<GatLayer>(d, nbr_dim, d, init);
        break;
      case EmbedKind::TimeProjection:
        jodieDecay_ = Variable(Tensor::randn(1, d, init, 0.01f), true);
        break;
      case EmbedKind::Identity:
        break;
    }

    decoder_ = std::make_unique<Mlp>(std::vector<size_t>{2 * d, d, 1},
                                     init);

    if (config_.memory == MemoryKind::Identity) {
        Rng feat(seed_ + 1);
        state_.mem.initRandom(feat, 0.1f);
    }

    optimizer_ = std::make_unique<Adam>(parameters(), 1e-3f);
}

std::vector<Variable>
TgnnModel::parameters() const
{
    std::vector<Variable> params;
    auto append = [&params](const std::vector<Variable> &more) {
        params.insert(params.end(), more.begin(), more.end());
    };
    append(timeEnc_->parameters());
    if (rnn_)
        append(rnn_->parameters());
    if (gru_)
        append(gru_->parameters());
    if (mailAttn_)
        append(mailAttn_->parameters());
    if (transformerCombine_)
        append(transformerCombine_->parameters());
    if (gat1_)
        append(gat1_->parameters());
    if (gat2_)
        append(gat2_->parameters());
    if (jodieDecay_.defined())
        params.push_back(jodieDecay_);
    append(decoder_->parameters());
    return params;
}

std::vector<TgnnModel::StateArray>
TgnnModel::stateArrays()
{
    std::vector<StateArray> out;
    const auto add = [&out](auto &array) {
        out.push_back({array.data(), array.size() * sizeof(*array.data())});
    };
    for (Variable &p : parameters())
        add(p.valueMutable());
    out.push_back({&optimizer_->stepCount(), sizeof(int64_t)});
    for (Tensor &m : optimizer_->firstMoments())
        add(m);
    for (Tensor &v : optimizer_->secondMoments())
        add(v);
    add(state_.mem.mem_);
    add(state_.mem.lastUpdate_);
    add(state_.mail.payload_);
    add(state_.mail.ts_);
    add(state_.mail.count_);
    return out;
}

void
TgnnModel::saveTrainingState(ByteWriter &w) const
{
    // Saving only reads through the spans.
    const std::vector<StateArray> arrays =
        const_cast<TgnnModel *>(this)->stateArrays();
    w.u64(arrays.size());
    for (const StateArray &a : arrays)
        w.u64(a.bytes);
    for (const StateArray &a : arrays) {
        if (a.bytes > 0)
            w.bytes(a.data, a.bytes);
    }
    // Field by field, so struct padding never reaches the payload.
    const Rng::State rs = rng_.state();
    for (uint64_t word : rs.s)
        w.u64(word);
    w.f64(rs.cachedGaussian);
    w.u8(rs.hasCachedGaussian ? 1 : 0);
}

bool
TgnnModel::readStateHeader(ByteReader &r,
                           const std::vector<StateArray> &arrays)
{
    uint64_t count = 0;
    if (!r.u64(count) || count != arrays.size())
        return false;
    size_t total = 0;
    for (const StateArray &a : arrays) {
        uint64_t bytes = 0;
        if (!r.u64(bytes) || bytes != a.bytes)
            return false;
        total += a.bytes;
    }
    constexpr size_t kRngBytes =
        4 * sizeof(uint64_t) + sizeof(double) + sizeof(uint8_t);
    return r.remaining() == total + kRngBytes;
}

bool
TgnnModel::fitsTrainingState(ByteReader r) const
{
    // The spans are only compared, never written through.
    return readStateHeader(r, const_cast<TgnnModel *>(this)->stateArrays());
}

bool
TgnnModel::loadTrainingState(ByteReader &r)
{
    // Check the count, every length and the size before the first
    // copy: a section written by a differently configured model
    // differs in the count or in some length, and a failed load must
    // leave this model untouched.
    const std::vector<StateArray> arrays = stateArrays();
    if (!readStateHeader(r, arrays))
        return false;

    // Every read below is in bounds.
    for (const StateArray &a : arrays) {
        if (a.bytes > 0)
            r.bytes(a.data, a.bytes);
    }
    Rng::State rs;
    uint8_t has_cached = 0;
    for (uint64_t &word : rs.s)
        r.u64(word);
    r.f64(rs.cachedGaussian);
    r.u8(has_cached);
    rs.hasCachedGaussian = has_cached != 0;
    rng_.setState(rs);
    return true;
}

size_t
TgnnModel::parameterBytes() const
{
    size_t n = 0;
    for (const auto &p : parameters())
        n += p.value().size() * sizeof(float);
    return n;
}

size_t
TgnnModel::stateBytes() const
{
    return state_.mem.bytes() + state_.mail.bytes();
}

void
TgnnModel::resetState()
{
    state_.mem.reset();
    state_.mail.reset();
    if (config_.memory == MemoryKind::Identity) {
        Rng feat(seed_ + 1);
        state_.mem.initRandom(feat, 0.1f);
    }
}

TgnnModel::FreshMemory
TgnnModel::computeFreshMemory(const State &state,
                              const std::vector<NodeId> &nodes,
                              double now) const
{
    using namespace ops;
    FreshMemory out;
    out.nodes = nodes;
    out.consumed.assign(nodes.size(), 0);
    for (size_t i = 0; i < nodes.size(); ++i)
        out.index.emplace(nodes[i], static_cast<int64_t>(i));

    Variable stored(state.mem.gather(nodes));
    if (config_.memory == MemoryKind::Identity) {
        out.values = stored;
        return out;
    }

    bool any = false;
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (state.mail.hasMessages(nodes[i])) {
            out.consumed[i] = 1;
            any = true;
        }
    }
    if (!any) {
        out.values = stored;
        return out;
    }

    const size_t slots = config_.mailboxSlots;
    Mailbox::Gathered g = state.mail.gather(nodes, now);
    Variable payload(std::move(g.payloads));
    Variable x_all = concatCols(payload,
                                timeEnc_->forward(Variable(g.dt)));

    Variable upd;
    if (config_.memory == MemoryKind::Transformer) {
        // APAN: attention over the mailbox, masked to valid slots.
        Tensor mask(nodes.size() * slots, 1);
        for (size_t r = 0; r < g.valid.size(); ++r)
            mask.at(r, 0) = g.valid[r] > 0.5f ? 0.0f : -1e9f;
        Variable pooled =
            mailAttn_->forward(stored, x_all, slots, &mask);
        upd = tanhOp(transformerCombine_->forward(
            concatCols(stored, pooled)));
    } else {
        // AGGR (Eq. 3) then the recurrent UPDT.
        Variable x;
        if (config_.aggregator == AggregatorKind::MostRecent ||
            slots == 1) {
            if (slots == 1) {
                x = x_all;
            } else {
                std::vector<int64_t> first;
                first.reserve(nodes.size());
                for (size_t i = 0; i < nodes.size(); ++i)
                    first.push_back(static_cast<int64_t>(i * slots));
                x = gatherRows(x_all, std::move(first));
            }
        } else {
            // Masked mean over valid slots.
            Tensor w(nodes.size() * slots, 1);
            for (size_t i = 0; i < nodes.size(); ++i) {
                float cnt = 0.0f;
                for (size_t j = 0; j < slots; ++j)
                    cnt += g.valid[i * slots + j];
                const float inv = cnt > 0.0f ? 1.0f / cnt : 0.0f;
                for (size_t j = 0; j < slots; ++j)
                    w.at(i * slots + j, 0) =
                        g.valid[i * slots + j] * inv;
            }
            x = groupedWeightedSum(Variable(std::move(w)), x_all,
                                   slots);
        }
        upd = rnn_ ? rnn_->forward(x, stored)
                   : gru_->forward(x, stored);
    }

    // Blend: consumed nodes take the updated row, others keep stored.
    Tensor mask_col(nodes.size(), 1);
    Tensor inv_mask(nodes.size(), 1);
    for (size_t i = 0; i < nodes.size(); ++i) {
        mask_col.at(i, 0) = out.consumed[i] ? 1.0f : 0.0f;
        inv_mask.at(i, 0) = out.consumed[i] ? 0.0f : 1.0f;
    }
    out.values = add(mul(upd, Variable(std::move(mask_col))),
                     mul(stored, Variable(std::move(inv_mask))));
    return out;
}

std::vector<EventIdx>
TgnnModel::sampleNeighbors(const TemporalAdjacency &adj, NodeId node,
                           EventIdx before, Rng &rng) const
{
    if (config_.sampler == SamplerKind::MostRecent)
        return adj.lastKBefore(node, before, config_.fanout);
    return adj.uniformKBefore(node, before, config_.fanout, rng);
}

Variable
TgnnModel::embedRows(const State &state, const FreshMemory &fresh,
                     const std::vector<NodeId> &row_nodes,
                     const std::vector<double> &row_times,
                     const EventSource &data,
                     const TemporalAdjacency &adj, EventIdx before,
                     int depth, Rng &rng, StepResult &stats,
                     size_t row_weight) const
{
    using namespace ops;
    // Device lane width for effective-row accounting (see
    // StepResult::workRows).
    constexpr size_t kLaneWidth = 8;
    const size_t b = row_nodes.size();
    stats.workRows += std::max<size_t>(1, b / row_weight);

    // Base features: fresh memory when available, stored otherwise.
    std::vector<int64_t> fresh_idx(b, 0);
    Tensor stored_rows(b, config_.memoryDim);
    Tensor in_fresh(b, 1), not_fresh(b, 1);
    bool any_missing = false;
    for (size_t i = 0; i < b; ++i) {
        auto it = fresh.index.find(row_nodes[i]);
        if (it != fresh.index.end()) {
            fresh_idx[i] = it->second;
            in_fresh.at(i, 0) = 1.0f;
        } else {
            not_fresh.at(i, 0) = 1.0f;
            stored_rows.copyRowFrom(i, state.mem.raw(),
                                    static_cast<size_t>(row_nodes[i]));
            any_missing = true;
        }
    }
    Variable base = gatherRows(fresh.values, fresh_idx);
    if (any_missing) {
        base = add(mul(base, Variable(std::move(in_fresh))),
                   mul(Variable(std::move(stored_rows)),
                       Variable(std::move(not_fresh))));
    }

    switch (config_.embed) {
      case EmbedKind::Identity:
        return base;
      case EmbedKind::TimeProjection: {
        // JODIE: h = s * (1 + dt * w), dt since the last memory write.
        Tensor dt(b, 1);
        for (size_t i = 0; i < b; ++i) {
            dt.at(i, 0) = static_cast<float>(
                row_times[i] - state.mem.lastUpdate(row_nodes[i]));
        }
        Variable factor =
            add(Variable(Tensor::ones(b, config_.memoryDim)),
                matmul(Variable(std::move(dt)), jodieDecay_));
        return mul(base, factor);
      }
      case EmbedKind::Gat:
      case EmbedKind::Gat2:
        break;
    }

    // GAT embedding over sampled temporal neighbors.
    const size_t k = config_.fanout;
    std::vector<NodeId> nbr_nodes(b * k);
    std::vector<double> nbr_times(b * k, 0.0);
    Tensor dt(b * k, 1);
    Tensor feats(b * k, edgeFeatDim_);
    for (size_t i = 0; i < b; ++i) {
        auto evs = sampleNeighbors(adj, row_nodes[i], before, rng);
        stats.sampledNeighbors += evs.size();
        for (size_t j = 0; j < k; ++j) {
            const size_t row = i * k + j;
            if (j < evs.size()) {
                const Event e = data.event(evs[j]);
                nbr_nodes[row] =
                    e.src == row_nodes[i] ? e.dst : e.src;
                nbr_times[row] = e.ts;
                dt.at(row, 0) =
                    static_cast<float>(row_times[i] - e.ts);
                if (edgeFeatDim_ > 0) {
                    const float *fr = data.featureRow(evs[j]);
                    std::copy(fr, fr + edgeFeatDim_, feats.row(row));
                }
            } else {
                // Self-loop padding; attention learns to discount it.
                nbr_nodes[row] = row_nodes[i];
                nbr_times[row] = row_times[i];
            }
        }
    }

    Variable nbr_base;
    const bool two_layer = config_.embed == EmbedKind::Gat2 && depth > 1;
    if (two_layer) {
        // Recursively embed neighbors with the level-1 GAT; the
        // inner level runs lane-parallel, so its rows count at a
        // wider divisor.
        nbr_base = embedRows(state, fresh, nbr_nodes, nbr_times, data,
                             adj, before, depth - 1, rng, stats,
                             row_weight * kLaneWidth);
    } else {
        std::vector<int64_t> idx(b * k, 0);
        Tensor stored(b * k, config_.memoryDim);
        Tensor in_f(b * k, 1), not_f(b * k, 1);
        bool missing = false;
        for (size_t r = 0; r < b * k; ++r) {
            auto it = fresh.index.find(nbr_nodes[r]);
            if (it != fresh.index.end()) {
                idx[r] = it->second;
                in_f.at(r, 0) = 1.0f;
            } else {
                not_f.at(r, 0) = 1.0f;
                stored.copyRowFrom(r, state.mem.raw(),
                                   static_cast<size_t>(nbr_nodes[r]));
                missing = true;
            }
        }
        nbr_base = gatherRows(fresh.values, idx);
        if (missing) {
            nbr_base = add(mul(nbr_base, Variable(std::move(in_f))),
                           mul(Variable(std::move(stored)),
                               Variable(std::move(not_f))));
        }
    }

    Variable nbr_feat = nbr_base;
    if (edgeFeatDim_ > 0)
        nbr_feat = concatCols(nbr_feat, Variable(std::move(feats)));
    nbr_feat = concatCols(nbr_feat,
                          timeEnc_->forward(Variable(std::move(dt))));

    const GatLayer &layer =
        (two_layer && gat2_) ? *gat2_ : *gat1_;
    stats.workRows +=
        std::max<size_t>(1, b * k / (kLaneWidth * row_weight));
    return layer.forward(base, nbr_feat, k);
}

StepResult
TgnnModel::step(const EventSource &data, const TemporalAdjacency &adj,
                size_t st, size_t ed, bool train)
{
    // The composition of the decomposed stages; the ordering
    // (forward, backward+opt, writeback+messages) is the
    // bit-determinism reference the sharded collective reproduces.
    Forward f = stepForward(data, adj, st, ed);
    if (train)
        stepBackward(f);
    StepResult result = std::move(f.result);
    if (f.writeback.active) {
        result.memCosine = applyWriteback(data, f.writeback);
        result.updatedNodes = std::move(f.writeback.nodes);
    }
    return result;
}

TgnnModel::Forward
TgnnModel::stepForwardWithRng(const EventSource &data,
                              const TemporalAdjacency &adj, size_t st,
                              size_t ed, Rng &rng) const
{
    using namespace ops;
    CASCADE_CHECK(st < ed && ed <= data.size(), "step: bad batch range");
    Forward fwd;
    StepResult &result = fwd.result;
    const size_t b = ed - st;
    result.numEvents = b;

    std::vector<NodeId> srcs(b), dsts(b), negs(b);
    std::vector<double> times(b);
    for (size_t i = 0; i < b; ++i) {
        const Event e = data.event(static_cast<EventIdx>(st + i));
        srcs[i] = e.src;
        dsts[i] = e.dst;
        times[i] = e.ts;
        negs[i] = static_cast<NodeId>(rng.uniformInt(numNodes_));
    }

    const double t_now = times[0];
    // Sources and destinations first, so the writeback is a prefix.
    const auto endpoints = uniqueNodes({&srcs, &dsts});
    const auto batch_nodes = uniqueNodes({&endpoints, &negs});
    FreshMemory fresh = computeFreshMemory(state_, batch_nodes, t_now);

    const int depth = config_.embed == EmbedKind::Gat2 ? 2 : 1;
    const EventIdx before = static_cast<EventIdx>(st);
    Variable hs, hd, hn;
    if (config_.dedupEmbed) {
        // TGLite-style: one embedding per distinct node, gathered to
        // event rows (nodes repeated within a batch compute once).
        std::vector<double> utimes(batch_nodes.size(), t_now);
        Variable all = embedRows(state_, fresh, batch_nodes, utimes, data,
                                 adj, before, depth, rng, result);
        auto rows_of = [&](const std::vector<NodeId> &v) {
            std::vector<int64_t> idx;
            idx.reserve(v.size());
            for (NodeId n : v)
                idx.push_back(fresh.index.at(n));
            return idx;
        };
        hs = gatherRows(all, rows_of(srcs));
        hd = gatherRows(all, rows_of(dsts));
        hn = gatherRows(all, rows_of(negs));
    } else {
        hs = embedRows(state_, fresh, srcs, times, data, adj, before,
                       depth, rng, result);
        hd = embedRows(state_, fresh, dsts, times, data, adj, before,
                       depth, rng, result);
        hn = embedRows(state_, fresh, negs, times, data, adj, before,
                       depth, rng, result);
    }

    Variable pos = decoder_->forward(concatCols(hs, hd));
    Variable neg = decoder_->forward(concatCols(hs, hn));
    Variable loss = scale(
        add(bceWithLogits(pos, Tensor::ones(b, 1)),
            bceWithLogits(neg, Tensor::zeros(b, 1))),
        0.5f);
    result.loss = loss.value().at(0, 0);
    size_t ranked = 0;
    for (size_t i = 0; i < b; ++i)
        ranked += pos.value().at(i, 0) > neg.value().at(i, 0);
    result.rankAccuracy = static_cast<double>(ranked) / b;

    // Stage the deferred writeback: detached value copies, so the
    // update worker can apply it while backward/optimizer run. The
    // values are forward outputs — extracting them here (before
    // backward) is bit-identical to the seed's post-optimizer
    // extraction because backward only ever touches gradients.
    if (config_.memory != MemoryKind::Identity) {
        fwd.writeback = stageWriteback(fresh, endpoints.size(), st, ed,
                                       times[b - 1]);
    }

    fwd.loss = std::move(loss);
    return fwd;
}

TgnnModel::PendingWriteback
TgnnModel::stageWriteback(const FreshMemory &fresh, size_t endpoints,
                          size_t st, size_t ed, double write_ts) const
{
    PendingWriteback wb;
    wb.active = true;
    wb.st = st;
    wb.ed = ed;
    wb.writeTs = write_ts;
    std::vector<size_t> upd_rows;
    for (size_t i = 0; i < endpoints; ++i) {
        if (fresh.consumed[i]) {
            wb.nodes.push_back(fresh.nodes[i]);
            upd_rows.push_back(i);
        }
    }
    if (!wb.nodes.empty()) {
        wb.values = Tensor(wb.nodes.size(), config_.memoryDim);
        for (size_t i = 0; i < upd_rows.size(); ++i)
            wb.values.copyRowFrom(i, fresh.values.value(), upd_rows[i]);
    }
    return wb;
}

std::vector<float>
TgnnModel::collectGradients(Forward &f)
{
    optimizer_->zeroGrad();
    f.loss.backward();
    std::vector<float> flat;
    flat.reserve(gradScalarCount());
    for (const auto &p : parameters()) {
        const Tensor &g = p.grad();
        flat.insert(flat.end(), g.data(), g.data() + g.size());
    }
    return flat;
}

void
TgnnModel::applyMergedGradients(const std::vector<float> &flat)
{
    size_t off = 0;
    for (auto &p : parameters()) {
        Tensor &g = p.node()->ensureGrad();
        CASCADE_CHECK(off + g.size() <= flat.size(),
                      "applyMergedGradients: flat gradient too short");
        std::copy(flat.begin() + static_cast<long>(off),
                  flat.begin() + static_cast<long>(off + g.size()),
                  g.data());
        off += g.size();
    }
    CASCADE_CHECK(off == flat.size(),
                  "applyMergedGradients: flat gradient size mismatch");
    optimizer_->step();
}

size_t
TgnnModel::gradScalarCount() const
{
    return optimizer_->numScalars();
}

void
TgnnModel::stepBackward(Forward &f)
{
    optimizer_->zeroGrad();
    f.loss.backward();
    double grad_sq = 0.0;
    for (const auto &p : parameters()) {
        const Tensor &g = p.grad();
        for (size_t i = 0; i < g.size(); ++i)
            grad_sq += static_cast<double>(g.data()[i]) * g.data()[i];
    }
    f.result.gradNorm = std::sqrt(grad_sq);
    optimizer_->step();
}

std::vector<double>
TgnnModel::applyWriteback(const EventSource &data, PendingWriteback &wb)
{
    std::vector<double> cosines;
    if (!wb.active)
        return cosines;

    // Write back consumed memories (recording SG-Filter cosines).
    if (!wb.nodes.empty())
        cosines = state_.mem.write(wb.nodes, wb.values, wb.writeTs);

    // Generate this batch's messages (Eq. 2): payload is the other
    // endpoint's current memory (post-writeback) plus edge features.
    Tensor payload(1, msgDim_);
    for (size_t i = wb.st; i < wb.ed; ++i) {
        const Event e = data.event(static_cast<EventIdx>(i));
        const float *feat = edgeFeatDim_ > 0
            ? data.featureRow(static_cast<EventIdx>(i))
            : nullptr;
        auto fill = [&](NodeId to, NodeId other) {
            const float *om =
                state_.mem.raw().row(static_cast<size_t>(other));
            std::copy(om, om + config_.memoryDim, payload.row(0));
            if (feat) {
                std::copy(feat, feat + edgeFeatDim_,
                          payload.row(0) + config_.memoryDim);
            }
            state_.mail.push(to, payload.row(0), e.ts);
        };
        fill(e.src, e.dst);
        fill(e.dst, e.src);
    }
    return cosines;
}

void
TgnnModel::advanceState(const EventSource &data, size_t st, size_t ed)
{
    CASCADE_CHECK(st < ed && ed <= data.size(),
                  "advanceState: bad batch range");
    if (config_.memory == MemoryKind::Identity)
        return; // static memory: nothing to advance, no messages

    const size_t b = ed - st;
    std::vector<NodeId> srcs(b), dsts(b);
    std::vector<double> times(b);
    for (size_t i = 0; i < b; ++i) {
        const Event e = data.event(static_cast<EventIdx>(st + i));
        srcs[i] = e.src;
        dsts[i] = e.dst;
        times[i] = e.ts;
    }

    // Identical per-node math to stepForward's writeback staging: the
    // negatives it adds to the fresh set never enter the writeback,
    // and per-node fresh values are independent of set membership.
    const auto endpoints = uniqueNodes({&srcs, &dsts});
    FreshMemory fresh = computeFreshMemory(state_, endpoints, times[0]);
    PendingWriteback wb =
        stageWriteback(fresh, endpoints.size(), st, ed, times[b - 1]);
    applyWriteback(data, wb);
}

double
TgnnModel::evalLoss(const EventSource &data, const TemporalAdjacency &adj,
                    size_t st, size_t ed, size_t batch_size)
{
    return evalMetrics(data, adj, st, ed, batch_size).loss;
}

std::vector<Variable>
TgnnModel::queryEmbeddings(
    const State &state,
    std::initializer_list<const std::vector<NodeId> *> lists,
    double at_time, const EventSource &data, const TemporalAdjacency &adj,
    EventIdx before) const
{
    Rng query_rng(static_cast<uint64_t>(before));
    StepResult scratch;
    const int depth = config_.embed == EmbedKind::Gat2 ? 2 : 1;
    std::vector<Variable> out;
    for (const auto *nodes : lists) {
        FreshMemory fresh = computeFreshMemory(state, *nodes, at_time);
        const std::vector<double> times(nodes->size(), at_time);
        out.push_back(embedRows(state, fresh, *nodes, times, data, adj,
                                before, depth, query_rng, scratch));
    }
    return out;
}

Tensor
TgnnModel::embedNodes(const State &state, const std::vector<NodeId> &nodes,
                      double at_time, const EventSource &data,
                      const TemporalAdjacency &adj, EventIdx before) const
{
    CASCADE_CHECK(!nodes.empty(), "embedNodes: empty node list");
    return queryEmbeddings(state, {&nodes}, at_time, data, adj, before)[0]
        .value();
}

Tensor
TgnnModel::scoreLinks(const State &state, const std::vector<NodeId> &srcs,
                      const std::vector<NodeId> &dsts, double at_time,
                      const EventSource &data,
                      const TemporalAdjacency &adj, EventIdx before) const
{
    CASCADE_CHECK(!srcs.empty() && srcs.size() == dsts.size(),
                  "scoreLinks: need equal, non-empty endpoint lists");
    const std::vector<Variable> h =
        queryEmbeddings(state, {&srcs, &dsts}, at_time, data, adj, before);
    return decoder_->forward(ops::concatCols(h[0], h[1])).value();
}

TgnnModel::EvalMetrics
TgnnModel::evalMetrics(const EventSource &data,
                       const TemporalAdjacency &adj, size_t st,
                       size_t ed, size_t batch_size)
{
    CASCADE_CHECK(batch_size > 0, "evalMetrics: batch_size must be > 0");
    EvalMetrics out;
    double loss = 0.0, acc = 0.0;
    size_t events = 0;
    for (size_t lo = st; lo < ed; lo += batch_size) {
        const size_t hi = std::min(ed, lo + batch_size);
        StepResult r = step(data, adj, lo, hi, false);
        loss += r.loss * r.numEvents;
        acc += r.rankAccuracy * r.numEvents;
        events += r.numEvents;
    }
    if (events) {
        out.loss = loss / events;
        out.rankAccuracy = acc / events;
    }
    return out;
}

} // namespace cascade
