/**
 * @file
 * Large-scale workflow (§4.2 / §5.5): on a GDELT-like event stream,
 * compare Cascade's monolithic dependency-table preprocessing with
 * the chunk-based, pipelined Cascade_EX variant — the configuration
 * the paper recommends for billion-edge graphs. Chunked tables
 * truncate dependencies at chunk boundaries and build on a worker
 * thread that overlaps with training, so only pipeline stalls are
 * charged as preprocessing; at most two chunk tables are held at
 * once. Every epoch after the first rebuilds chunk 0 before training
 * it, which is charged as preprocessing too.
 *
 * Environment knobs: CASCADE_SCALE (divisor, default 30000),
 * CASCADE_EPOCHS (default 2), CASCADE_CHUNKS (default 8).
 */

#include <cstdio>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "tgnn/model.hh"
#include "train/trainer.hh"
#include "util/env.hh"

using namespace cascade;

int
main()
{
    const double scale = envDouble("CASCADE_SCALE", 30000.0);
    const size_t epochs =
        static_cast<size_t>(envLong("CASCADE_EPOCHS", 2));
    const size_t chunks =
        static_cast<size_t>(envLong("CASCADE_CHUNKS", 8));

    DatasetSpec spec = gdeltSpec(scale);
    Rng rng(5);
    EventSequence data = generateDataset(spec, rng);
    VectorEventSource src(data);
    TemporalAdjacency adj(data);
    const size_t train_end = data.size() * 17 / 20;
    std::printf("news-event stream (GDELT-like): %zu nodes, %zu "
                "events\n\n",
                spec.numNodes, data.size());

    auto run = [&](size_t chunk_size, const char *label) {
        TgnnModel model(tgnConfig(), spec.numNodes, data.featDim(), 3);
        CascadeBatcher::Options copts;
        copts.baseBatch = spec.baseBatch;
        copts.chunkSize = chunk_size;
        CascadeBatcher batcher(src, adj, train_end, copts);

        TrainOptions options;
        options.epochs = epochs;
        options.evalBatch = spec.baseBatch;
        DeviceModel device(scaledDeviceParams(spec.baseBatch));
        TrainReport r = trainModel(model, src, adj, train_end,
                                   batcher, options, &device);
        std::printf("%-22s chunks=%zu prep=%7.4fs lookup=%7.4fs "
                    "device=%7.3fs val_loss=%.4f\n",
                    label, batcher.diffuser().numChunks(),
                    r.preprocessSeconds, r.lookupSeconds,
                    r.deviceSeconds, r.valLoss);
        std::fflush(stdout);
        return r;
    };

    TrainReport mono = run(0, "Cascade (monolithic)");
    const size_t chunk_size =
        std::max<size_t>(1, train_end / chunks);
    TrainReport ex = run(chunk_size, "Cascade_EX (pipelined)");

    std::printf("\npipelined chunking cut visible preprocessing by "
                "%.0f%% (%.4fs -> %.4fs) at matching loss "
                "(%.4f vs %.4f)\n",
                100.0 * (1.0 - ex.preprocessSeconds /
                                   std::max(mono.preprocessSeconds,
                                            1e-12)),
                mono.preprocessSeconds, ex.preprocessSeconds,
                mono.valLoss, ex.valLoss);
    return 0;
}
