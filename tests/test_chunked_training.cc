/**
 * @file
 * End-to-end chunked-training tests (§4.2 / Cascade_EX): chunking
 * must only ever cut batch boundaries, never cross them; many small
 * chunks still train; and the prefetched builds keep visible
 * preprocessing near the monolithic build's.
 */

#include <gtest/gtest.h>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "tgnn/model.hh"
#include "train/trainer.hh"

using namespace cascade;

namespace {

struct Fixture
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;
    size_t trainEnd;

    Fixture()
        : spec(wikiSpec(250.0)),
          data([&] {
              Rng rng(71);
              return generateDataset(spec, rng);
          }()),
          src(data), adj(data), trainEnd(data.size() * 4 / 5)
    {}
};

TrainReport
runChunked(Fixture &f, size_t chunk, size_t epochs)
{
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                    6);
    CascadeBatcher::Options copts;
    copts.baseBatch = f.spec.baseBatch;
    copts.chunkSize = chunk;
    CascadeBatcher batcher(f.src, f.adj, f.trainEnd, copts);
    TrainOptions options;
    options.epochs = epochs;
    options.evalBatch = f.spec.baseBatch;
    return trainModel(model, f.src, f.adj, f.trainEnd, batcher,
                      options);
}

} // namespace

TEST(ChunkedTraining, BatchesNeverCrossChunkEdges)
{
    // Chunk boundaries are hard barriers: training proceeds chunk by
    // chunk, so every chunk edge must appear as a batch boundary and
    // no batch may straddle one (§4.2: "the final event in each chunk
    // serves as a boundary").
    Fixture f;
    const size_t chunk = f.trainEnd / 4 + 1;
    CascadeBatcher::Options copts;
    copts.baseBatch = f.spec.baseBatch;
    copts.chunkSize = chunk;
    CascadeBatcher b(f.src, f.adj, f.trainEnd, copts);
    b.reset();
    size_t st = 0;
    while (st < f.trainEnd) {
        const size_t ed = b.next(st);
        // Start and end lie within the same chunk.
        ASSERT_EQ(st / chunk, (ed - 1) / chunk)
            << "batch [" << st << "," << ed << ") crosses a chunk";
        st = ed;
    }
}

TEST(ChunkedTraining, ManySmallChunksStillTrain)
{
    Fixture f;
    TrainReport r = runChunked(f, f.spec.baseBatch, 1);
    EXPECT_GT(r.totalBatches, 0u);
    EXPECT_GT(r.valLoss, 0.0);
    EXPECT_LT(r.valLoss, 2.0);
}

TEST(ChunkedTraining, PreprocessingShrinksWithPipelining)
{
    // The §5.5 claim at test scale: pipelined chunk builds charge
    // only stalls, so visible preprocessing drops versus the
    // monolithic build.
    Fixture f;
    TrainReport mono = runChunked(f, 0, 1);
    TrainReport piped = runChunked(f, f.trainEnd / 4 + 1, 1);
    EXPECT_LT(piped.preprocessSeconds, mono.preprocessSeconds * 1.5);
}
