/**
 * @file
 * Cycle-level DDR4 memory controller (USIMM-equivalent abstraction).
 *
 * Per channel: a read queue, a posted write queue with high/low
 * watermark draining (both kept as per-bank, age-ordered request
 * lists), FCFS-with-ready-first scheduling under a
 * closed-page policy (the paper's assumption; open-page is available
 * for the Section VIII-3 study), tREFI/tRFC refresh with JEDEC
 * postponement, and a per-bank migration-job queue through which Row
 * Hammer mitigations perform swap / unswap-swap / place-back row
 * movements that occupy banks and deposit latent activations.
 *
 * tick() is one serial pass over the channels in index order: each
 * channel delivers its completed reads, then issues at most one
 * command, notifying the mitigation inline when that command is an
 * ACT.  A channel tick that would only repeat its last quiet tick
 * (no event since, no wait ended) adds that tick's skip counts
 * instead of rescanning (docs/ARCHITECTURE.md, "Quiet-tick replay").
 */

#ifndef SRS_MEMCTRL_CONTROLLER_HH
#define SRS_MEMCTRL_CONTROLLER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address.hh"
#include "dram/command.hh"
#include "dram/params.hh"
#include "dram/rank.hh"
#include "memctrl/request.hh"

namespace srs
{

/**
 * Hook through which a mitigation observes and redirects traffic.
 * remapRow() is consulted on every ACT; onActivate() fires after the
 * ACT has issued so the mitigation can count and react (schedule
 * migrations).
 */
class MemCtrlListener
{
  public:
    virtual ~MemCtrlListener() = default;

    /**
     * Translate a logical row to its current physical row.  Must be
     * free of side effects: the scheduler also calls it to peek at a
     * translation it does not commit yet.
     */
    virtual RowId
    remapRow(std::uint32_t channel, std::uint32_t bank, RowId logical)
    {
        (void)channel; (void)bank;
        return logical;
    }

    /** Observe a demand activation of a physical row. */
    virtual void
    onActivate(std::uint32_t channel, std::uint32_t bank, RowId physRow,
               Cycle now)
    {
        (void)channel; (void)bank; (void)physRow; (void)now;
    }

    /**
     * Earliest cycle at which an ACT of @p physRow may issue.
     * Throttling defenses (BlockHammer) return a future cycle for
     * blacklisted rows; the controller keeps the request queued
     * until that cycle.
     * @return 0 when unconstrained
     */
    virtual Cycle
    actAllowedAt(std::uint32_t channel, std::uint32_t bank,
                 RowId physRow, Cycle now)
    {
        (void)channel; (void)bank; (void)physRow; (void)now;
        return 0;
    }

    /**
     * Whether remapRow()/actAllowedAt() may be queried from several
     * threads at once.  Kept for listeners that override it; the
     * controller is serial and never calls it.
     */
    virtual bool concurrentChannelQueriesSafe() const { return true; }
};

/** Controller configuration knobs. */
struct MemCtrlConfig
{
    std::uint32_t readQueueDepth = 128;  ///< per channel
    std::uint32_t writeQueueDepth = 96;  ///< per channel
    std::uint32_t writeHiWatermark = 64; ///< start draining
    std::uint32_t writeLoWatermark = 24; ///< stop draining
    PagePolicy pagePolicy = PagePolicy::Closed;
    std::uint32_t maxPostponedRefreshes = 8;
};

/** The full-system memory controller (all channels). */
class MemoryController
{
  public:
    MemoryController(const DramOrg &org, const DramTiming &timing,
                     const MemCtrlConfig &cfg = {});

    /** Register the mitigation hook (nullptr = identity mapping). */
    void setListener(MemCtrlListener *listener) { listener_ = listener; }

    /** Callback fired when a read's data returns. */
    using ReadCallback = std::function<void(const MemRequest &)>;
    void setReadCallback(ReadCallback cb) { onReadDone_ = std::move(cb); }

    /** @return true when channel queues can accept @p isWrite request. */
    bool canAccept(Addr addr, bool isWrite) const;

    /**
     * Enqueue a demand access.  Writes are posted (no callback);
     * reads complete through the read callback.
     * @return assigned request id, or UINT64_MAX when rejected.
     */
    std::uint64_t enqueue(Addr addr, bool isWrite, CoreId core, Cycle now);

    /** Queue a migration job on (channel, bank). */
    void scheduleMigration(std::uint32_t channel, std::uint32_t bank,
                           MigrationJob job);

    /** @return number of queued-but-unstarted migrations on a bank. */
    std::size_t pendingMigrations(std::uint32_t channel,
                                  std::uint32_t bank) const;

    /** Advance the controller; call once per memory bus clock. */
    void tick(Cycle now);

    /** Reset per-epoch activation ground truth in every bank. */
    void resetEpochCounters();

    /** Ground-truth access for security checks and tests. */
    Bank &bankAt(std::uint32_t channel, std::uint32_t bank);
    const Bank &bankAt(std::uint32_t channel, std::uint32_t bank) const;

    const AddressMap &addressMap() const { return map_; }
    const DramOrg &org() const { return org_; }
    const DramTiming &timing() const { return timing_; }

    /**
     * Aggregate statistics (acts, reads, writes, migrations...).
     * Every counter is registered at construction, so all() lists
     * zero-valued ones too.
     */
    const StatSet &stats() const { return stats_; }

    /**
     * Read-latency histogram, one sample per completed demand read
     * (arrival to data return, in CPU cycles; write-queue-forwarded
     * reads land here too, at latency 1).
     */
    const LatencyHistogram &readLatency() const { return readLatency_; }

    /** @return true when all queues and banks are idle. */
    bool idle(Cycle now) const;

  private:
    /** (completionCycle, request) ordered soonest-first. */
    struct PendingRead
    {
        Cycle done;
        MemRequest req;
        bool operator>(const PendingRead &o) const { return done > o.done; }
    };

    /**
     * The live requests of one queue (read or write) to one bank,
     * oldest first.  Ids only grow, so appending keeps the list in
     * age order and a binary search on id splits it at any age.
     */
    struct BankQueue
    {
        std::vector<MemRequest> reqs;
        /** requests whose cached translation is current (mapVersion
         *  matches) and equals the bank's open row */
        std::uint32_t hits = 0;
        /** requests whose cached translation is out of date */
        std::uint32_t stale = 0;
    };

    /** One channel's read or write queue, split per flat bank. */
    struct RequestQueue
    {
        std::vector<BankQueue> banks;
        /** per rank: bit b set while bank b's queue is non-empty */
        std::vector<std::uint64_t> nonEmpty;
        /** live requests across all banks */
        std::uint32_t live = 0;
    };

    /** Pass-2 verdict on a bank, from its oldest request. */
    enum class Verdict : std::uint8_t
    {
        Busy,     ///< rank refreshing or bank blocked by a migration
        Forced,   ///< forced-refresh mode: no new ACT on the rank
        HitWait,  ///< open row still has a queued hit
        PreWait,  ///< conflict, but the PRE is not yet legal
        ActWait,  ///< closed, but the ACT is not yet legal
        GoPre,    ///< conflict and the PRE is legal
        GoAct,    ///< closed and the ACT is legal (row throttling aside)
    };
    /** Busy..ActWait: the verdicts whose requests are skipped */
    static constexpr std::size_t kWaitVerdicts = 5;

    /** p2_skip_* increments, indexed by wait verdict */
    using SkipCounts = std::array<std::uint64_t, kWaitVerdicts>;

    /**
     * A recorded quiet tick: one that issued nothing, saw no event,
     * asked the listener nothing and found no queued migration.  Until
     * `wake`, and while the channel's event stamp still equals
     * `events`, every tick would decide the same and only count the
     * same skips, so it adds `skips` and returns.
     */
    struct QuietTick
    {
        std::uint64_t events = 0;
        Cycle wake = 0;  ///< 0: nothing recorded
        SkipCounts skips{};
    };

    struct ChannelState
    {
        std::vector<Rank> ranks;
        RequestQueue readQ;
        RequestQueue writeQ;
        /** per (rank, bank) migration queues, flattened */
        std::vector<std::deque<MigrationJob>> migQ;
        bool draining = false;
        /** per-rank refresh bookkeeping */
        std::vector<Cycle> nextRefreshDue;
        std::vector<std::uint32_t> refreshDebt;
        /** bumped whenever the row mapping may have changed */
        std::uint64_t mapVersion = 1;
        /** round-robin cursor for idle-close precharges */
        std::uint32_t closeCursor = 0;
        /** mirror of each bank's open row (kInvalidRow when closed);
         *  every BankQueue::hits counts against it */
        std::vector<RowId> openRowArr;
        /** per rank: bit b set while bank b holds an open row */
        std::vector<std::uint64_t> openMask;
        /** queued-but-unstarted migration jobs across all banks */
        std::uint64_t migCount = 0;
        /**
         * Event stamp, bumped by whatever can change a tick's decision
         * other than time: enqueue, retire, every command, refresh
         * start, a refresh-debt increment, migration start and
         * schedule, a drain toggle, and a revalidated translation that
         * becomes a row hit.
         */
        std::uint64_t events = 0;
        QuietTick quiet;

        /** reads in flight on this channel, soonest-done first */
        std::priority_queue<PendingRead, std::vector<PendingRead>,
                            std::greater<>> pendingReads;
    };

    /** A go bank during the pass-2 age-ordered walk. */
    struct GoCursor
    {
        std::uint32_t flat;
        std::uint32_t next;  ///< index of the oldest unvisited request
    };

    void drainCompletedReads(ChannelState &c, Cycle now);
    void tickChannel(std::uint32_t ch, Cycle now);
    /** one full scheduling pass over a channel (at most one command) */
    void scanChannel(std::uint32_t ch, ChannelState &c, Cycle now);
    /** lower the current tick's wake cycle to @p at */
    void wakeBy(Cycle at) { wake_ = std::min(wake_, at); }
    void chargeSkips(const SkipCounts &skips);
    bool manageRefresh(ChannelState &c, Cycle now);
    bool startMigration(ChannelState &c, Cycle now);
    bool serviceQueue(std::uint32_t chIdx, ChannelState &c,
                      RequestQueue &q, bool isWrite, Cycle now);
    bool serveRowHit(std::uint32_t chIdx, ChannelState &c,
                     RequestQueue &q, bool isWrite, Cycle now);
    bool openOldest(std::uint32_t chIdx, ChannelState &c,
                    RequestQueue &q, Cycle now);
    bool idleClose(ChannelState &c, Cycle now);
    bool bankHasPendingHit(const ChannelState &c, std::uint32_t rank,
                           std::uint32_t bank, RowId openRow) const;
    /** translate and commit the translation to the request's cache */
    RowId physRowOf(std::uint32_t chIdx, ChannelState &c, MemRequest &req);
    /** translate without touching the request or any counter */
    RowId peekPhysRow(std::uint32_t chIdx, const ChannelState &c,
                      const MemRequest &req) const;
    void updateDrainState(ChannelState &c);
    std::uint32_t flatBank(std::uint32_t rank, std::uint32_t bank) const
    {
        return rank * org_.banksPerRank + bank;
    }
    BankQueue &bankQueueOf(ChannelState &c, const MemRequest &req);

    /** issue through the rank, keeping open-row mirrors + hit counts. */
    Cycle issueCmd(ChannelState &c, std::uint32_t rank, DramCommand cmd,
                   std::uint32_t bank, RowId row, Cycle now,
                   bool autoPre = false);
    /** rebuild one bank's hit counters after its open row changed. */
    void recountBankHits(ChannelState &c, std::uint32_t flat);
    /** remove a served request from its bank queue. */
    void retireRequest(ChannelState &c, RequestQueue &q, std::uint32_t flat,
                       std::size_t idx);
    /** counter-aware replacement for `req.mapVersion = 0`. */
    void invalidateReqCache(ChannelState &c, MemRequest &req);
    /** true when a read of @p addr (decoded to @p coord) would be
     *  served from the write queue */
    bool wouldForward(const ChannelState &c, const DramCoord &coord,
                      Addr addr) const;

    DramOrg org_;
    DramTiming timing_;
    MemCtrlConfig cfg_;
    AddressMap map_;

    std::vector<ChannelState> channels_;

    MemCtrlListener *listener_ = nullptr;
    ReadCallback onReadDone_;
    std::uint64_t nextReqId_ = 1;
    StatSet stats_;
    LatencyHistogram readLatency_;

    // Per-scan scratch, kept to avoid per-tick allocation (the
    // controller is serial, so the channels share it).
    /** pass-2 verdict per flat bank */
    std::vector<Verdict> verdict_;
    /** pass-2 go banks */
    std::vector<GoCursor> go_;
    /** banks whose stale requests the scan revalidates up to its
     *  winner: schedulable open banks in pass 1, act-wait banks in
     *  pass 2 */
    std::vector<std::uint32_t> toCommit_;
    /** earliest cycle at which a wait the current tick met can end */
    Cycle wake_ = kNoCycle;
    /** the current tick asked the listener whether an ACT may issue */
    bool askedListener_ = false;
    /** the current tick's p2_skip_* increments */
    SkipCounts tickSkips_{};

    /** Interned counter handles for the per-command hot paths. */
    struct StatHandles
    {
        StatSet::Handle writesEnqueued, readsForwarded, readsEnqueued,
            readsCompleted, readLatencyCycles, refreshes,
            forcedPrecharges, latentActivations, migrationBusyCycles,
            writesIssued, readsIssued, rowHits, rowConflicts,
            activations, idleCloses, p2SkipThrottled, replayedTicks;
        /** requests skipped in pass 2, by their bank's wait verdict */
        StatSet::Handle p2Skip[kWaitVerdicts];
        StatSet::Handle migScheduled[4], migStarted[4];
    };
    StatHandles h_;
};

} // namespace srs

#endif // SRS_MEMCTRL_CONTROLLER_HH
