#include "core/cascade_batcher.hh"

#include "util/binio.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace cascade {

CascadeBatcher::CascadeBatcher(const EventSource &src,
                               const TemporalAdjacency &adj,
                               size_t train_end, Options opts)
    : opts_(opts)
{
    TgDiffuser::Options dopts;
    dopts.chunkSize = opts.chunkSize;
    diffuser_ =
        std::make_unique<TgDiffuser>(src, adj, train_end, dopts);

    sgFilter_ =
        std::make_unique<SgFilter>(src.numNodes(), opts.simThreshold);

    AdaptiveBatchSensor::Options aopts;
    aopts.baseBatch = opts.baseBatch;
    aopts.schedule = opts.decaySchedule;
    aopts.initFactor = opts.maxrInitFactor;
    aopts.seed = opts.seed;
    abs_ = std::make_unique<AdaptiveBatchSensor>(aopts);

    // Endurance profiling reuses the diffuser's first table; with
    // chunking the first chunk is the statistical sample the rest of
    // the stream follows.
    Timer t;
    const DependencyTable *profile_table = diffuser_->table(0);
    CASCADE_CHECK(profile_table != nullptr,
                  "diffuser must have built its first table");
    abs_->profile(src, *profile_table);
    profileSeconds_ = t.seconds();
    diffuser_->setMaxRevisit(abs_->currentMaxRevisit());
}

std::string
CascadeBatcher::name() const
{
    if (opts_.chunkSize > 0)
        return "Cascade_EX";
    return opts_.enableSgFilter ? "Cascade" : "Cascade-TB";
}

void
CascadeBatcher::reset()
{
    sgFilter_->reset();
    diffuser_->resetEpoch();
    abs_->resetEpoch();
    diffuser_->setMaxRevisit(abs_->currentMaxRevisit());
}

size_t
CascadeBatcher::next(size_t st)
{
    const std::vector<uint8_t> &stable = opts_.enableSgFilter
        ? sgFilter_->stableFlags() : noStable_;
    return diffuser_->lastTolerableEnd(st, stable);
}

void
CascadeBatcher::onBatchDone(const BatchFeedback &fb)
{
    if (opts_.enableSgFilter && fb.updatedNodes && fb.memCosine)
        sgFilter_->update(*fb.updatedNodes, *fb.memCosine);
    abs_->observeLoss(fb.loss);
    diffuser_->setMaxRevisit(abs_->currentMaxRevisit());
}

double
CascadeBatcher::preprocessSeconds() const
{
    return diffuser_->preprocessSeconds() + profileSeconds_;
}

size_t
CascadeBatcher::stateBytes() const
{
    return diffuser_->tableBytes() + sgFilter_->bytes();
}

bool
CascadeBatcher::saveState(ByteWriter &w) const
{
    abs_->saveState(w);
    sgFilter_->saveState(w);
    return true;
}

bool
CascadeBatcher::loadState(ByteReader &r)
{
    // ABS is staged until SG-Filter's part (which checks its node
    // count and applies nothing on failure) has been read, so a
    // failed load leaves both untouched.
    AdaptiveBatchSensor abs = *abs_;
    if (!abs.loadState(r) || !sgFilter_->loadState(r))
        return false;
    *abs_ = std::move(abs);
    // The diffuser's lookup state is a function of the batch start,
    // Max_r and the chunk, so the next lookup rebuilds it from its st.
    diffuser_->resetEpoch();
    diffuser_->setMaxRevisit(abs_->currentMaxRevisit());
    return true;
}

void
CascadeBatcher::onNumericRollback()
{
    abs_->tightenCeiling();
    diffuser_->setMaxRevisit(abs_->currentMaxRevisit());
    CASCADE_LOG("ABS ceiling tightened to %.3f of profiled max "
                "(Max_r now %zu)",
                abs_->ceilingScale(), abs_->currentMaxRevisit());
}

} // namespace cascade
