#include "sim/system.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace srs
{

const char *
mitigationKindName(MitigationKind kind)
{
    switch (kind) {
      case MitigationKind::None:        return "baseline";
      case MitigationKind::Rrs:         return "rrs";
      case MitigationKind::RrsNoUnswap: return "rrs-no-unswap";
      case MitigationKind::Srs:         return "srs";
      case MitigationKind::ScaleSrs:    return "scale-srs";
      case MitigationKind::BlockHammer: return "blockhammer";
      case MitigationKind::Aqua:        return "aqua";
    }
    return "?";
}

Cycle
SystemConfig::effectiveEpochLen() const
{
    if (epochLen != 0)
        return epochLen;
    return nsToCycles(kRefreshIntervalSec * 1e9, timingNs.cpuFreqGHz);
}

std::uint64_t
SystemConfig::actMaxPerEpoch() const
{
    const double epochSec =
        static_cast<double>(effectiveEpochLen()) /
        (timingNs.cpuFreqGHz * 1e9);
    // Refresh steals tRFC out of every tREFI window, so the share
    // follows the cell's effective timings: a DDR5 preset (or a
    // tREFI/tRFC override) resizes the activation budget — and the
    // trackers derived from it — exactly as it resizes the real
    // controller's refresh overhead.
    const double refreshShare =
        epochSec * (timingNs.tRFC / timingNs.tREFI);
    return static_cast<std::uint64_t>(
        (epochSec - refreshShare) / (timingNs.tRC * 1e-9));
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), epochLen_(cfg.effectiveEpochLen()),
      timing_(DramTiming::fromNs(cfg.timingNs)),
      nextEpochAt_(epochLen_)
{
    cfg_.org.validate();
    ctrl_ = std::make_unique<MemoryController>(cfg_.org, timing_,
                                               cfg_.memCtrl);
    llc_ = std::make_unique<Llc>(cfg_.llc, cfg_.org.rowBytes,
                                 cfg_.pinCapacity);

    const std::uint32_t banksPerChannel =
        cfg_.org.ranksPerChannel * cfg_.org.banksPerRank;

    switch (cfg_.tracker) {
      case TrackerKind::MisraGries: {
        MisraGriesConfig t;
        t.ts = cfg_.mit.ts();
        t.actMaxPerEpoch = cfg_.actMaxPerEpoch();
        t.channels = cfg_.org.channels;
        t.banksPerChannel = banksPerChannel;
        tracker_ = std::make_unique<MisraGriesTracker>(t);
        break;
      }
      case TrackerKind::Hydra: {
        HydraConfig t;
        t.ts = cfg_.mit.ts();
        t.channels = cfg_.org.channels;
        t.banksPerChannel = banksPerChannel;
        t.rowsPerBank = cfg_.org.rowsPerBank;
        t.rctAccessCycles = timing_.tRC + timing_.tCAS + timing_.tBL;
        auto hydra = std::make_unique<HydraTracker>(t);
        hydra->setTrafficHook(
            [this](std::uint32_t ch, std::uint32_t bank,
                   MigrationJob job) {
                ctrl_->scheduleMigration(ch, bank, std::move(job));
            });
        tracker_ = std::move(hydra);
        break;
      }
      case TrackerKind::Cbt: {
        CbtConfig t;
        t.ts = cfg_.mit.ts();
        t.rowsPerBank = cfg_.org.rowsPerBank;
        t.channels = cfg_.org.channels;
        t.banksPerChannel = banksPerChannel;
        tracker_ = std::make_unique<CbtTracker>(t);
        break;
      }
      case TrackerKind::TwiCe: {
        TwiceConfig t;
        t.ts = cfg_.mit.ts();
        t.actMaxPerEpoch = cfg_.actMaxPerEpoch();
        t.channels = cfg_.org.channels;
        t.banksPerChannel = banksPerChannel;
        tracker_ = std::make_unique<TwiceTracker>(t);
        break;
      }
    }

    switch (cfg_.mitigation) {
      case MitigationKind::None:
        mitigation_ = std::make_unique<NoMitigation>(*ctrl_, *tracker_,
                                                     cfg_.mit);
        break;
      case MitigationKind::Rrs:
        mitigation_ = std::make_unique<Rrs>(*ctrl_, *tracker_, cfg_.mit,
                                            RrsConfig{true});
        break;
      case MitigationKind::RrsNoUnswap:
        mitigation_ = std::make_unique<Rrs>(*ctrl_, *tracker_, cfg_.mit,
                                            RrsConfig{false});
        break;
      case MitigationKind::Srs:
        mitigation_ = std::make_unique<Srs>(*ctrl_, *tracker_, cfg_.mit,
                                            cfg_.srsCfg);
        break;
      case MitigationKind::ScaleSrs: {
        auto scale = std::make_unique<ScaleSrs>(
            *ctrl_, *tracker_, cfg_.mit, cfg_.srsCfg, cfg_.scaleCfg);
        scale->setPinHook([this](std::uint32_t ch, std::uint32_t bank,
                                 RowId logical) {
            const std::uint32_t rank = bank / cfg_.org.banksPerRank;
            const std::uint32_t bankInRank =
                bank % cfg_.org.banksPerRank;
            const Addr base = ctrl_->addressMap().rowBaseAddr(
                ch, rank, bankInRank, logical);
            // Park displaced dirty lines; the run loop posts them
            // (the hook fires mid-queue-iteration, where enqueuing
            // directly could invalidate the controller's iterators).
            return llc_->pinRow(base, &pendingPinWritebacks_);
        });
        mitigation_ = std::move(scale);
        break;
      }
      case MitigationKind::BlockHammer:
        mitigation_ = std::make_unique<BlockHammer>(
            *ctrl_, *tracker_, cfg_.mit, cfg_.bhCfg);
        break;
      case MitigationKind::Aqua:
        mitigation_ = std::make_unique<Aqua>(*ctrl_, *tracker_,
                                             cfg_.mit, cfg_.aquaCfg);
        break;
    }

    // The baseline runs without a listener: no remap, no tracking
    // overheads — "a baseline that does not mitigate against RH".
    if (cfg_.mitigation != MitigationKind::None)
        ctrl_->setListener(mitigation_.get());

    ctrl_->setReadCallback(
        [this](const MemRequest &req) { onReadDone(req); });

    traces_.resize(cfg_.numCores);
    maxEpochActsPerBank_.assign(
        static_cast<std::size_t>(cfg_.org.channels) * banksPerChannel,
        0);
}

void
System::setTrace(CoreId core, std::unique_ptr<TraceSource> trace)
{
    SRS_ASSERT(core < cfg_.numCores, "core index out of range");
    traces_[core] = std::move(trace);
}

void
System::onReadDone(const MemRequest &req)
{
    const auto it = outstanding_.find(req.id);
    if (it == outstanding_.end())
        return; // request issued by a non-core agent
    const auto [core, token] = it->second;
    outstanding_.erase(it);
    cores_[core]->complete(token, now_);
}

CoreMemoryInterface::Outcome
System::access(Addr addr, bool isWrite, CoreId core, std::uint64_t token,
               Cycle now, Cycle &latencyOut)
{
    // The pin-buffer fronts everything (Section V-C): accesses to
    // pinned rows never reach DRAM.
    if (llc_->rowPinned(addr)) {
        stats_.inc("pinned_absorbed");
        latencyOut = cfg_.llcHitLatency;
        // Record the hit in the LLC stats for visibility.  The
        // pin-buffer short-circuits the tag store, so this access is
        // guaranteed non-mutating: it can never evict a dirty victim.
        const LlcResult res = llc_->access(addr, isWrite);
        SRS_ASSERT(res.pinnedHit && !res.writebackNeeded,
                   "pinned-row access must be absorbed by the pin-buffer");
        return Outcome::Hit;
    }

    if (cfg_.modelLlc) {
        // Make sure both the demand access and the dirty victim it
        // would evict can be posted before mutating tags.  The victim
        // can live on a different channel than the miss address, so
        // its capacity is probed at the actual writeback address.
        const Addr wb = llc_->probeWriteback(addr);
        if (!ctrl_->canAccept(addr, isWrite) ||
            (wb != kInvalidAddr && !ctrl_->canAccept(wb, true))) {
            return Outcome::Reject;
        }
        const LlcResult res = llc_->access(addr, isWrite);
        if (res.writebackNeeded) {
            SRS_ASSERT(res.writebackAddr == wb,
                       "victim probe out of sync with access");
            const std::uint64_t id =
                ctrl_->enqueue(res.writebackAddr, true, core, now);
            if (id == std::numeric_limits<std::uint64_t>::max())
                stats_.inc("writebacks_dropped");
        }
        if (res.hit) {
            latencyOut = cfg_.llcHitLatency;
            return Outcome::Hit;
        }
        if (isWrite) {
            // No-allocate store miss: post the write to memory.
            ctrl_->enqueue(addr, true, core, now);
            latencyOut = 1;
            return Outcome::Hit;
        }
        const std::uint64_t id = ctrl_->enqueue(addr, false, core, now);
        outstanding_.emplace(id, std::make_pair(core, token));
        return Outcome::Pending;
    }

    // USIMM mode: the trace is already a post-LLC miss stream.
    if (!ctrl_->canAccept(addr, isWrite))
        return Outcome::Reject;
    if (isWrite) {
        ctrl_->enqueue(addr, true, core, now);
        latencyOut = 1;
        return Outcome::Hit;
    }
    const std::uint64_t id = ctrl_->enqueue(addr, false, core, now);
    outstanding_.emplace(id, std::make_pair(core, token));
    return Outcome::Pending;
}

void
System::onEpochBoundary()
{
    ++epochs_;
    // Sample the Row Hammer ground truth before counters reset.
    const std::uint32_t banksPerChannel =
        cfg_.org.ranksPerChannel * cfg_.org.banksPerRank;
    for (std::uint32_t ch = 0; ch < cfg_.org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel; ++b) {
            const std::uint64_t acts =
                ctrl_->bankAt(ch, b).maxActivations();
            auto &cell = maxEpochActsPerBank_[
                static_cast<std::size_t>(ch) * banksPerChannel + b];
            cell = std::max(cell, acts);
            maxEpochActs_ = std::max(maxEpochActs_, acts);
        }
    }
    ctrl_->resetEpochCounters();
    mitigation_->onEpochEnd(now_, epochLen_);

    // Pinned rows are evicted at the refresh boundary; restore their
    // contents with posted writes (one per row: the full-row restore
    // is modelled at row granularity).
    for (const Addr rowBase : llc_->unpinAll()) {
        if (ctrl_->canAccept(rowBase, true))
            ctrl_->enqueue(rowBase, true, 0, now_);
        stats_.inc("pinned_rows_restored");
    }
}

void
System::drainPinWritebacks()
{
    while (!pendingPinWritebacks_.empty()) {
        const Addr wb = pendingPinWritebacks_.front();
        if (!ctrl_->canAccept(wb, true))
            break;   // write queue full: retry next cycle, never drop
        ctrl_->enqueue(wb, true, 0, now_);
        stats_.inc("pin_writebacks_posted");
        pendingPinWritebacks_.erase(pendingPinWritebacks_.begin());
    }
}

void
System::run(Cycle cycles)
{
    // Lazily build cores on first run so all traces are attached.
    if (cores_.empty()) {
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            SRS_ASSERT(traces_[c] != nullptr,
                       "core ", c, " has no trace attached");
            cores_.push_back(std::make_unique<Core>(c, cfg_.core,
                                                    *traces_[c], *this));
        }
    }

    const Cycle end = now_ + cycles;
    const Cycle busClock = timing_.busClock;
    while (now_ < end) {
        for (auto &core : cores_)
            core->tick(now_);
        if (now_ % busClock == 0) {
            ctrl_->tick(now_);
            mitigation_->tick(now_);
        }
        if (now_ >= nextEpochAt_) {
            onEpochBoundary();
            nextEpochAt_ += epochLen_;
        }
        drainPinWritebacks();
        ++now_;
    }
}

double
System::aggregateIpc() const
{
    double total = 0.0;
    for (const auto &core : cores_)
        total += core->ipc(now_);
    return total;
}

double
System::coreIpc(CoreId core) const
{
    SRS_ASSERT(core < cores_.size(), "core index out of range");
    return cores_[core]->ipc(now_);
}

std::uint64_t
System::maxEpochActivations() const
{
    std::uint64_t best = maxEpochActs_;
    const std::uint32_t banksPerChannel =
        cfg_.org.ranksPerChannel * cfg_.org.banksPerRank;
    for (std::uint32_t ch = 0; ch < cfg_.org.channels; ++ch) {
        for (std::uint32_t b = 0; b < banksPerChannel; ++b) {
            best = std::max(best,
                            ctrl_->bankAt(ch, b).maxActivations());
        }
    }
    return best;
}

std::uint64_t
System::maxEpochActivationsAt(std::uint32_t channel,
                              std::uint32_t bank) const
{
    const std::uint32_t banksPerChannel =
        cfg_.org.ranksPerChannel * cfg_.org.banksPerRank;
    // Include the in-progress epoch so short runs see live counts.
    const std::uint64_t live =
        ctrl_->bankAt(channel, bank).maxActivations();
    return std::max(live, maxEpochActsPerBank_[
        static_cast<std::size_t>(channel) * banksPerChannel + bank]);
}

} // namespace srs
