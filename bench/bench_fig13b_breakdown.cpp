/**
 * @file
 * Figure 13(b): Cascade's latency breakdown — dependency-table
 * building, per-batch event lookup/pointer updating, and model
 * training — measured on real CPU wall time. Expected shape: table
 * building is negligible (<1%), lookup is the dominant overhead
 * (paper: ~16%), training dominates overall (§5.4).
 *
 * The phase times come from the training session's metrics registry:
 * the `stage.boundary.seconds` / `stage.model.seconds` histograms and
 * the `batcher.preprocess_seconds` gauge (table building plus ABS
 * profiling), i.e. the same instruments `cascade_train --metrics-out`
 * dumps. The boundary stage times the Algorithm 3 lookup call.
 */

#include <cstdio>

#include "common.hh"
#include "obs/metrics.hh"

using namespace cascade;
using namespace cascade::bench;

int
main()
{
    BenchConfig cfg = BenchConfig::fromEnv();
    printHeader("Figure 13(b): Cascade latency breakdown (CPU wall "
                "time)",
                "dataset    model  build_tbl%  lookup%  training%");

    std::vector<DatasetSpec> specs = moderateSpecs(cfg);
    const DatasetSpec chosen[] = {specs[0], specs[1], specs[3]};
    for (const DatasetSpec &spec : chosen) {
        auto ds = load(spec, cfg);
        for (const char *model : {"APAN", "JODIE", "TGN"}) {
            RunOverrides ovr;
            ovr.validate = false;
            obs::MetricsRegistry metrics;
            runPolicy(*ds, model, Policy::Cascade, cfg, ovr, &metrics);

            const obs::Histogram *lookup =
                metrics.findHistogram("stage.boundary.seconds");
            const obs::Histogram *train =
                metrics.findHistogram("stage.model.seconds");
            const obs::Gauge *prep =
                metrics.findGauge("batcher.preprocess_seconds");
            const double lookup_s = lookup ? lookup->sum() : 0.0;
            const double train_s = train ? train->sum() : 0.0;
            const double prep_s = prep ? prep->value() : 0.0;
            const double total = prep_s + lookup_s + train_s;
            std::printf("%-10s %-6s %9.2f%%  %6.2f%%  %8.2f%%\n",
                        spec.name.c_str(), model,
                        100.0 * prep_s / total,
                        100.0 * lookup_s / total,
                        100.0 * train_s / total);
            std::fflush(stdout);
        }
    }
    return 0;
}
