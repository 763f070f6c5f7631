/**
 * @file
 * Full-system wiring: cores + LLC/pin-buffer + memory controller +
 * tracker + mitigation, with refresh-epoch management.
 *
 * Two operating modes, selected by SystemConfig::modelLlc:
 *  - USIMM mode (default, the paper's setup): traces are post-LLC
 *    miss streams fed straight to the memory controller; only the
 *    pin-buffer intercepts accesses (for Scale-SRS row pinning);
 *  - full-LLC mode: every access goes through the shared LLC model
 *    (used by cache-focused tests and examples).
 */

#ifndef SRS_SIM_SYSTEM_HH
#define SRS_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/llc.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "memctrl/controller.hh"
#include "mitigation/mitigation.hh"
#include "mitigation/aqua.hh"
#include "mitigation/blockhammer.hh"
#include "mitigation/rrs.hh"
#include "mitigation/scale_srs.hh"
#include "mitigation/srs.hh"
#include "tracker/cbt.hh"
#include "tracker/hydra.hh"
#include "tracker/misra_gries.hh"
#include "tracker/twice.hh"

namespace srs
{

/** Which defense protects the system. */
enum class MitigationKind
{
    None,
    Rrs,
    RrsNoUnswap,
    Srs,
    ScaleSrs,
    BlockHammer,
    Aqua,
};

/** Which aggressor tracker feeds the defense. */
enum class TrackerKind
{
    MisraGries,
    Hydra,
    Cbt,
    TwiCe,
};

/** @return printable mitigation name. */
const char *mitigationKindName(MitigationKind kind);

/** Top-level configuration (defaults reproduce paper Table III). */
struct SystemConfig
{
    DramOrg org;
    DramTimingNs timingNs;
    MemCtrlConfig memCtrl;
    CoreConfig core;
    std::uint32_t numCores = 8;

    MitigationKind mitigation = MitigationKind::None;
    TrackerKind tracker = TrackerKind::MisraGries;
    MitigationConfig mit;
    RrsConfig rrsCfg;
    BlockHammerConfig bhCfg;
    AquaConfig aquaCfg;
    SrsConfig srsCfg;
    ScaleSrsConfig scaleCfg;

    /** Refresh-interval length in CPU cycles; 0 derives 64 ms. */
    Cycle epochLen = 0;

    bool modelLlc = false;
    CacheConfig llc;
    Cycle llcHitLatency = 40;
    std::uint32_t pinCapacity = 66;

    std::uint64_t seed = 0xD00DULL;

    /** Effective epoch length in cycles. */
    Cycle effectiveEpochLen() const;

    /** ACT_max for one bank in one epoch (tRC-limited). */
    std::uint64_t actMaxPerEpoch() const;
};

/** The simulated machine. */
class System : public CoreMemoryInterface
{
  public:
    explicit System(const SystemConfig &cfg);

    /** Attach a trace to core @p core (must cover all cores). */
    void setTrace(CoreId core, std::unique_ptr<TraceSource> trace);

    /**
     * Advance the machine by @p cycles CPU cycles, ticking every core
     * each cycle and the controller and mitigation on bus edges.
     */
    void run(Cycle cycles);

    /** CoreMemoryInterface */
    Outcome access(Addr addr, bool isWrite, CoreId core,
                   std::uint64_t token, Cycle now,
                   Cycle &latencyOut) override;

    Cycle now() const { return now_; }
    std::uint64_t epochsCompleted() const { return epochs_; }

    /** Retired instructions per cycle, summed over cores. */
    double aggregateIpc() const;
    double coreIpc(CoreId core) const;

    MemoryController &controller() { return *ctrl_; }
    const MemoryController &controller() const { return *ctrl_; }
    Mitigation &mitigation() { return *mitigation_; }
    AggressorTracker &tracker() { return *tracker_; }
    Llc &llc() { return *llc_; }
    const SystemConfig &config() const { return cfg_; }

    /**
     * Highest per-row activation count observed in any bank in any
     * completed epoch (the Row Hammer ground truth; compare against
     * T_RH to decide whether the defense held).
     */
    std::uint64_t maxEpochActivations() const;

    /** Same, restricted to one bank (flat index within channel). */
    std::uint64_t maxEpochActivationsAt(std::uint32_t channel,
                                        std::uint32_t bank) const;

    const StatSet &stats() const { return stats_; }

  private:
    void onEpochBoundary();
    void onReadDone(const MemRequest &req);
    void drainPinWritebacks();

    SystemConfig cfg_;
    Cycle epochLen_;
    DramTiming timing_;

    std::unique_ptr<MemoryController> ctrl_;
    std::unique_ptr<Llc> llc_;
    std::unique_ptr<AggressorTracker> tracker_;
    std::unique_ptr<Mitigation> mitigation_;
    std::vector<std::unique_ptr<TraceSource>> traces_;
    std::vector<std::unique_ptr<Core>> cores_;

    /** outstanding read id -> (core, token) */
    std::unordered_map<std::uint64_t,
                       std::pair<CoreId, std::uint64_t>> outstanding_;

    /**
     * Dirty lines displaced by Scale-SRS row pinning.  The pin hook
     * fires inside the controller's own queue iteration, where
     * enqueuing could reallocate the vector being walked; evictions
     * are parked here and posted once per simulated cycle instead.
     */
    std::vector<Addr> pendingPinWritebacks_;

    Cycle now_ = 0;
    Cycle nextEpochAt_;
    std::uint64_t epochs_ = 0;
    std::uint64_t maxEpochActs_ = 0;
    std::vector<std::uint64_t> maxEpochActsPerBank_;
    StatSet stats_;
};

} // namespace srs

#endif // SRS_SIM_SYSTEM_HH
