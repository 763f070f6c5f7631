/**
 * @file
 * Base class for row-swap Row Hammer mitigations.
 *
 * A Mitigation plugs into the memory controller as its
 * MemCtrlListener: it remaps logical rows through per-bank
 * RowIndirection state and feeds demand activations to an
 * AggressorTracker.  When the tracker flags a T_S crossing the
 * concrete mitigation (RRS / SRS / Scale-SRS) performs its swap
 * choreography by scheduling migration jobs (which occupy banks and
 * deposit the latent activations that the paper's security analysis
 * revolves around).
 */

#ifndef SRS_MITIGATION_MITIGATION_HH
#define SRS_MITIGATION_MITIGATION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "memctrl/controller.hh"
#include "rowswap/indirection.hh"
#include "tracker/tracker.hh"

namespace srs
{

/** Shared mitigation configuration. */
struct MitigationConfig
{
    std::uint32_t trh = 4800;     ///< Row Hammer threshold T_RH
    std::uint32_t swapRate = 6;   ///< T_RH / T_S
    std::uint64_t seed = 0x5125ULL;

    /** RIT capacity in mappings per bank (0 = unbounded). */
    std::uint64_t ritCapacityPerBank = 0;

    /** Physical rows [0, reservedLowRows) are never swap partners
     *  (they hold the in-DRAM counter structures). */
    std::uint32_t reservedLowRows = 64;

    std::uint32_t ts() const { return trh / swapRate; }
};

/** Abstract row-swap mitigation. */
class Mitigation : public MemCtrlListener
{
  public:
    Mitigation(MemoryController &ctrl, AggressorTracker &tracker,
               const MitigationConfig &cfg);
    ~Mitigation() override = default;

    // MemCtrlListener
    RowId remapRow(std::uint32_t channel, std::uint32_t bank,
                   RowId logical) override;
    void onActivate(std::uint32_t channel, std::uint32_t bank,
                    RowId physRow, Cycle now) override;

    /** Pace lazy background work; call every controller tick. */
    virtual void tick(Cycle now);

    /**
     * Refresh-epoch boundary: unlock RIT entries, reset the tracker,
     * arm lazy eviction for the epoch that just ended.
     */
    virtual void onEpochEnd(Cycle now, Cycle epochLen);

    /** Current epoch id (19-bit register semantics). */
    std::uint32_t epochId() const { return epochId_; }

    virtual const char *name() const = 0;

    /** SRAM bits per bank (RIT and friends) for storage reports. */
    virtual std::uint64_t storageBitsPerBank() const;

    const StatSet &stats() const { return stats_; }
    const MitigationConfig &config() const { return cfg_; }

    /** Per-bank indirection state (for tests and security probes). */
    const RowIndirection &indirection(std::uint32_t channel,
                                      std::uint32_t bank) const;

  protected:
    /** React to a T_S crossing at physical row @p physRow. */
    virtual void mitigate(std::uint32_t channel, std::uint32_t bank,
                          RowId physRow, Cycle now) = 0;

    /** One lazy-eviction step (place-back / RIT cleanup). */
    virtual void lazyStep(Cycle now);

    RowIndirection &rit(std::uint32_t channel, std::uint32_t bank);

    /** Pick a random un-displaced physical row in the bank. */
    RowId pickSwapPartner(const RowIndirection &r, RowId avoid);

    /** Queue a migration job on (channel, bank). */
    void schedule(std::uint32_t channel, std::uint32_t bank,
                  MigrationJob job);

    MemoryController &ctrl_;
    AggressorTracker &tracker_;
    MitigationConfig cfg_;
    Rng rng_;
    StatSet stats_;

    std::uint32_t epochId_ = 0;
    Cycle nextLazyAt_ = kNoCycle;
    Cycle lazyInterval_ = 0;

  private:
    std::vector<RowIndirection> rits_;  ///< channel-major per bank
    std::uint32_t banksPerChannel_;
};

/** Baseline: no protection (identity mapping, no swaps). */
class NoMitigation : public Mitigation
{
  public:
    NoMitigation(MemoryController &ctrl, AggressorTracker &tracker,
                 const MitigationConfig &cfg)
        : Mitigation(ctrl, tracker, cfg)
    {}

    const char *name() const override { return "baseline"; }
    std::uint64_t storageBitsPerBank() const override { return 0; }

  protected:
    void mitigate(std::uint32_t, std::uint32_t, RowId, Cycle) override {}
};

} // namespace srs

#endif // SRS_MITIGATION_MITIGATION_HH
