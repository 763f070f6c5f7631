/**
 * @file
 * Per-bank DDR4 timing state machine.
 *
 * The bank tracks the open row plus the earliest cycle at which each
 * command class may legally issue.  The controller asks canIssue()
 * before issue() — issue() panics on a timing violation, making the
 * protocol checker part of the model itself.
 *
 * The bank also owns the per-epoch activation ground truth used by the
 * Row Hammer security analyses: every ACT (demand or mitigation-
 * induced "latent" activation) increments a per-row counter that the
 * experiment harnesses inspect to decide whether T_RH was crossed.
 */

#ifndef SRS_DRAM_BANK_HH
#define SRS_DRAM_BANK_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/params.hh"

namespace srs
{

/** One DRAM bank: open-row state, timing windows, activation counts. */
class Bank
{
  public:
    Bank(const DramTiming &timing, std::uint32_t rowsPerBank);

    /**
     * @return true when @p cmd to @p row may issue at @p now.
     * Inline: the controller asks on every scan of every bank.
     */
    bool
    canIssue(DramCommand cmd, RowId row, Cycle now) const
    {
        if (now < blockedUntil_)
            return false;
        switch (cmd) {
          case DramCommand::Activate:
            return !rowOpen() && now >= actReady_ && row < rowsPerBank_;
          case DramCommand::Read:
            return rowOpen() && openRow_ == row && now >= rdReady_;
          case DramCommand::Write:
            return rowOpen() && openRow_ == row && now >= wrReady_;
          case DramCommand::Precharge:
            return now >= preReady_;
          case DramCommand::Refresh:
            // Refresh legality (all banks closed) is enforced at rank
            // level.
            return !rowOpen() && now >= actReady_;
        }
        return false;
    }

    /**
     * Issue a command, updating timing windows.
     *
     * @param cmd        command to issue
     * @param row        target row (ACT/RD/WR) or ignored (PRE)
     * @param now        current cycle
     * @param autoPre    close the row after the column access (RD/WR)
     * @return cycle at which the command's data/effect completes
     *         (RD: data returned; WR: write restored; others: done)
     */
    Cycle issue(DramCommand cmd, RowId row, Cycle now,
                bool autoPre = true);

    /** @return true when a row is open in the row buffer. */
    bool rowOpen() const { return openRow_ != kInvalidRow; }

    /** @return the open row (kInvalidRow when closed). */
    RowId openRow() const { return openRow_; }

    /**
     * Block the bank for a mitigation-driven row migration.  While
     * blocked, no demand command can issue.  @return completion cycle.
     */
    Cycle blockFor(Cycle now, Cycle duration);

    /** @return true when a migration currently occupies the bank. */
    bool blocked(Cycle now) const { return now < blockedUntil_; }

    /** @return cycle when the current migration finishes. */
    Cycle blockedUntil() const { return blockedUntil_; }

    /**
     * Charge activations to a physical row without running the FSM
     * (used for the latent activations embedded in migration jobs,
     * whose timing is folded into the migration duration).
     */
    void chargeActivation(RowId row, std::uint32_t count = 1);

    /** Per-epoch activation count of @p row (ground truth). */
    std::uint64_t activationsOf(RowId row) const;

    /** Highest per-row activation count this epoch. */
    std::uint64_t maxActivations() const { return maxActs_; }

    /** Row holding the per-epoch activation maximum. */
    RowId maxActivationRow() const { return maxActRow_; }

    /** Total ACTs this epoch (all rows). */
    std::uint64_t totalActivations() const { return totalActs_; }

    /** Reset per-epoch activation ground truth (refresh boundary). */
    void resetEpochCounters();

    /** Earliest cycle an ACT may issue (exposed for tests). */
    Cycle actReadyAt() const { return actReady_; }

    /** Earliest cycle a PRE may issue (exposed for tests). */
    Cycle preReadyAt() const { return preReady_; }

  private:
    const DramTiming &timing_;
    std::uint32_t rowsPerBank_;

    RowId openRow_ = kInvalidRow;
    Cycle actReady_ = 0;    ///< earliest ACT
    Cycle rdReady_ = 0;     ///< earliest RD to the open row
    Cycle wrReady_ = 0;     ///< earliest WR to the open row
    Cycle preReady_ = 0;    ///< earliest PRE
    Cycle blockedUntil_ = 0;

    std::unordered_map<RowId, std::uint64_t> actCounts_;
    std::uint64_t maxActs_ = 0;
    RowId maxActRow_ = kInvalidRow;
    std::uint64_t totalActs_ = 0;
};

} // namespace srs

#endif // SRS_DRAM_BANK_HH
