/**
 * @file
 * Rank-level DDR4 constraints: tRRD / tFAW activation pacing, the
 * shared data bus, and all-bank refresh.
 */

#ifndef SRS_DRAM_RANK_HH
#define SRS_DRAM_RANK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/params.hh"

namespace srs
{

/** A rank: a set of banks sharing ACT pacing, data bus, and refresh. */
class Rank
{
  public:
    Rank(const DramTiming &timing, const DramOrg &org);

    /** Access a bank by index within the rank (hot path: inline). */
    Bank &bank(std::uint32_t idx)
    {
        SRS_ASSERT(idx < banks_.size(), "bank index out of range");
        return banks_[idx];
    }
    const Bank &bank(std::uint32_t idx) const
    {
        SRS_ASSERT(idx < banks_.size(), "bank index out of range");
        return banks_[idx];
    }

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    /**
     * @return true when rank-level rules admit @p cmd at @p now.
     * Inline: the controller asks on every scan of every bank.
     */
    bool
    canIssue(DramCommand cmd, std::uint32_t bankIdx, RowId row,
             Cycle now) const
    {
        if (refreshing(now))
            return false;
        if (cmd == DramCommand::Activate && actCount_ > 0) {
            if (now < lastAct_ + timing_.tRRD)
                return false;
            // Four-activate window: once four ACTs have issued, the
            // fourth-last must be at least tFAW in the past.
            if (actCount_ >= actWindow_.size()) {
                const Cycle oldest = actWindow_[actWindowHead_];
                if (now < oldest + timing_.tFAW)
                    return false;
            }
        }
        if (cmd == DramCommand::Read || cmd == DramCommand::Write) {
            const Cycle dataStart = now +
                (cmd == DramCommand::Read ? timing_.tCAS : timing_.tCWL);
            if (!busFree(dataStart, timing_.tBL))
                return false;
        }
        return banks_[bankIdx].canIssue(cmd, row, now);
    }

    /**
     * Issue through the rank (applies pacing, then delegates to the
     * bank).  @return completion cycle as defined by Bank::issue().
     */
    Cycle issue(DramCommand cmd, std::uint32_t bankIdx, RowId row,
                Cycle now, bool autoPre = true);

    /** @return true when an all-bank refresh may start at @p now. */
    bool canRefresh(Cycle now) const;

    /** Start an all-bank refresh. @return completion cycle. */
    Cycle refresh(Cycle now);

    /** @return true while a refresh occupies the rank. */
    bool refreshing(Cycle now) const { return now < refreshUntil_; }

    /** Count of refreshes performed since construction. */
    std::uint64_t refreshCount() const { return refreshCount_; }

    /** @return true when the shared data bus is free for
     *  [start, start+len). */
    bool
    busFree(Cycle start, Cycle len) const
    {
        (void)len;
        // The bus is modelled as busy-until: transfers are queued in
        // issue order, so a transfer starting at or after the current
        // horizon is conflict-free.
        return start >= busBusyUntil_;
    }

    /** Reserve the shared data bus [start, start+len). */
    void reserveBus(Cycle start, Cycle len);

  private:
    const DramTiming &timing_;
    std::vector<Bank> banks_;

    /** Sliding window of the last four ACT issue cycles (tFAW). */
    std::array<Cycle, 4> actWindow_{};
    std::uint32_t actWindowHead_ = 0;
    std::uint64_t actCount_ = 0;
    Cycle lastAct_ = 0;

    Cycle busBusyUntil_ = 0;
    Cycle refreshUntil_ = 0;
    std::uint64_t refreshCount_ = 0;
};

} // namespace srs

#endif // SRS_DRAM_RANK_HH
