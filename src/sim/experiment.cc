#include "sim/experiment.hh"

#include <cmath>

#include "common/logging.hh"
#include "trace/synthetic.hh"

namespace srs
{

SystemConfig
makeSystemConfig(const ExperimentConfig &exp, MitigationKind kind,
                 std::uint32_t trh, std::uint32_t swapRate,
                 TrackerKind tracker, const SystemAxes &axes)
{
    SystemConfig cfg;
    cfg.numCores = exp.numCores;
    cfg.mitigation = kind;
    cfg.tracker = tracker;
    cfg.mit.trh = trh;
    cfg.mit.swapRate = swapRate;
    cfg.mit.seed = exp.seed ^ 0x517e5ULL;
    cfg.epochLen = exp.epochLen;
    cfg.seed = exp.seed;
    axes.apply(cfg);
    return cfg;
}

namespace
{

RunResult
collect(System &sys)
{
    RunResult r;
    r.aggregateIpc = sys.aggregateIpc();
    for (CoreId c = 0; c < sys.config().numCores; ++c)
        r.coreIpc.push_back(sys.coreIpc(c));
    const StatSet &ms = sys.mitigation().stats();
    // AQUA reports its one-way moves instead of swaps.
    r.swaps = ms.get("swaps") + ms.get("quarantine_moves");
    r.unswapSwaps = ms.get("unswap_swaps");
    r.placeBacks = ms.get("place_backs") + ms.get("lazy_restores");
    r.rowsPinned = ms.get("rows_pinned");
    r.latentActivations =
        sys.controller().stats().get("latent_activations");
    r.maxRowActivations = sys.maxEpochActivations();
    r.readLatency = sys.controller().readLatency();
    r.p50Lat = r.readLatency.quantilePermille(500);
    r.p99Lat = r.readLatency.quantilePermille(990);
    r.p999Lat = r.readLatency.quantilePermille(999);
    r.latSamples = r.readLatency.total();
    return r;
}

} // namespace

RunResult
runWorkloadMix(const SystemConfig &sysCfg,
               const std::vector<WorkloadProfile> &perCore,
               const ExperimentConfig &exp)
{
    SRS_ASSERT(perCore.size() == sysCfg.numCores,
               "need one profile per core");
    System sys(sysCfg);
    for (CoreId c = 0; c < sysCfg.numCores; ++c) {
        sys.setTrace(c, std::make_unique<SyntheticTrace>(
                            perCore[c], sys.controller().addressMap(),
                            c, exp.seed));
    }
    sys.run(exp.warmup + exp.cycles);
    return collect(sys);
}

RunResult
runWorkloadTrace(const SystemConfig &sysCfg,
                 const std::vector<SharedTraceRecords> &perCore,
                 const ExperimentConfig &exp)
{
    SRS_ASSERT(perCore.size() == 1
                   || perCore.size() == sysCfg.numCores,
               "need one trace per core, or a single shared trace");
    System sys(sysCfg);
    for (CoreId c = 0; c < sysCfg.numCores; ++c) {
        const SharedTraceRecords &records =
            perCore.size() == 1 ? perCore[0] : perCore[c];
        sys.setTrace(c, std::make_unique<FileTrace>(records,
                                                    /*loop=*/true));
    }
    sys.run(exp.warmup + exp.cycles);
    return collect(sys);
}

RunResult
runWorkloadGenerator(const SystemConfig &sysCfg,
                     const GeneratorSpec &gen,
                     const ExperimentConfig &exp)
{
    System sys(sysCfg);
    for (CoreId c = 0; c < sysCfg.numCores; ++c) {
        sys.setTrace(c, std::make_unique<GeneratorTrace>(
                            gen, sys.controller().addressMap(), c,
                            exp.seed));
    }
    sys.run(exp.warmup + exp.cycles);
    return collect(sys);
}

RunResult
runWorkload(const SystemConfig &sysCfg, const WorkloadProfile &profile,
            const ExperimentConfig &exp)
{
    // Rate mode: every core runs the same benchmark (Section VI).
    const std::vector<WorkloadProfile> perCore(sysCfg.numCores, profile);
    return runWorkloadMix(sysCfg, perCore, exp);
}

double
normalizedPerf(const ExperimentConfig &exp, MitigationKind kind,
               std::uint32_t trh, std::uint32_t swapRate,
               const WorkloadProfile &profile, TrackerKind tracker)
{
    const SystemConfig base =
        makeSystemConfig(exp, MitigationKind::None, trh, swapRate,
                         tracker);
    const SystemConfig prot =
        makeSystemConfig(exp, kind, trh, swapRate, tracker);
    const RunResult baseRes = runWorkload(base, profile, exp);
    const RunResult protRes = runWorkload(prot, profile, exp);
    if (baseRes.aggregateIpc <= 0.0)
        return 1.0;
    return protRes.aggregateIpc / baseRes.aggregateIpc;
}

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace srs
