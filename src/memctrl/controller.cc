#include "memctrl/controller.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>

#include "common/logging.hh"

namespace srs
{

namespace
{

/** Id above every real request: "no winner". */
constexpr std::uint64_t kNoRequest =
    std::numeric_limits<std::uint64_t>::max();

/** Index of the lowest set bit of a non-zero bank mask. */
std::uint32_t
lowestBank(std::uint64_t mask)
{
    return static_cast<std::uint32_t>(std::countr_zero(mask));
}

std::uint64_t
bankBit(std::uint32_t bank)
{
    return std::uint64_t{1} << bank;
}

} // namespace

const char *
migrationKindName(MigrationJob::Kind kind)
{
    switch (kind) {
      case MigrationJob::Kind::Swap:          return "swap";
      case MigrationJob::Kind::UnswapSwap:    return "unswap_swap";
      case MigrationJob::Kind::PlaceBack:     return "place_back";
      case MigrationJob::Kind::CounterAccess: return "counter_access";
    }
    return "?";
}

MemoryController::MemoryController(const DramOrg &org,
                                   const DramTiming &timing,
                                   const MemCtrlConfig &cfg)
    : org_(org), timing_(timing), cfg_(cfg), map_(org)
{
    if (cfg_.writeLoWatermark >= cfg_.writeHiWatermark)
        fatal("write drain watermarks inverted");
    const std::uint32_t flats = org_.ranksPerChannel * org_.banksPerRank;
    channels_.resize(org_.channels);
    for (auto &c : channels_) {
        c.ranks.reserve(org_.ranksPerChannel);
        for (std::uint32_t r = 0; r < org_.ranksPerChannel; ++r)
            c.ranks.emplace_back(timing_, org_);
        c.migQ.resize(flats);
        c.nextRefreshDue.assign(org_.ranksPerChannel, timing_.tREFI);
        c.refreshDebt.assign(org_.ranksPerChannel, 0);
        c.openRowArr.assign(flats, kInvalidRow);
        c.openMask.assign(org_.ranksPerChannel, 0);
        for (RequestQueue *q : {&c.readQ, &c.writeQ}) {
            q->banks.resize(flats);
            q->nonEmpty.assign(org_.ranksPerChannel, 0);
        }
    }
    verdict_.resize(flats);
    go_.reserve(flats);
    toCommit_.reserve(flats);

    h_.writesEnqueued = stats_.handle("writes_enqueued");
    h_.readsForwarded = stats_.handle("reads_forwarded");
    h_.readsEnqueued = stats_.handle("reads_enqueued");
    h_.readsCompleted = stats_.handle("reads_completed");
    h_.readLatencyCycles = stats_.handle("read_latency_cycles");
    h_.refreshes = stats_.handle("refreshes");
    h_.forcedPrecharges = stats_.handle("forced_precharges");
    h_.latentActivations = stats_.handle("latent_activations");
    h_.migrationBusyCycles = stats_.handle("migration_busy_cycles");
    h_.writesIssued = stats_.handle("writes_issued");
    h_.readsIssued = stats_.handle("reads_issued");
    h_.rowHits = stats_.handle("row_hits");
    h_.rowConflicts = stats_.handle("row_conflicts");
    h_.activations = stats_.handle("activations");
    h_.idleCloses = stats_.handle("idle_closes");
    h_.p2Skip[static_cast<int>(Verdict::Busy)] =
        stats_.handle("p2_skip_busy");
    h_.p2Skip[static_cast<int>(Verdict::Forced)] =
        stats_.handle("p2_skip_forced");
    h_.p2Skip[static_cast<int>(Verdict::HitWait)] =
        stats_.handle("p2_skip_hit_wait");
    h_.p2Skip[static_cast<int>(Verdict::PreWait)] =
        stats_.handle("p2_skip_pre_wait");
    h_.p2Skip[static_cast<int>(Verdict::ActWait)] =
        stats_.handle("p2_skip_act_wait");
    h_.p2SkipThrottled = stats_.handle("p2_skip_throttled");
    h_.replayedTicks = stats_.handle("replayed_ticks");
    for (int k = 0; k < 4; ++k) {
        const auto kind = static_cast<MigrationJob::Kind>(k);
        h_.migScheduled[k] = stats_.handle(
            std::string("mig_scheduled_") + migrationKindName(kind));
        h_.migStarted[k] = stats_.handle(
            std::string("mig_started_") + migrationKindName(kind));
    }
}

MemoryController::BankQueue &
MemoryController::bankQueueOf(ChannelState &c, const MemRequest &req)
{
    RequestQueue &q = req.isWrite ? c.writeQ : c.readQ;
    return q.banks[flatBank(req.coord.rank, req.coord.bank)];
}

bool
MemoryController::wouldForward(const ChannelState &c,
                               const DramCoord &coord, Addr addr) const
{
    // A line always decodes to one bank, so only that bank's posted
    // writes can hold it.
    const Addr lineMask = ~static_cast<Addr>(org_.lineBytes - 1);
    const BankQueue &bq =
        c.writeQ.banks[flatBank(coord.rank, coord.bank)];
    for (const MemRequest &w : bq.reqs) {
        if ((w.addr & lineMask) == (addr & lineMask))
            return true;
    }
    return false;
}

bool
MemoryController::canAccept(Addr addr, bool isWrite) const
{
    const DramCoord coord = map_.decode(addr);
    const ChannelState &c = channels_[coord.channel];
    if (isWrite)
        return c.writeQ.live < cfg_.writeQueueDepth;
    if (c.readQ.live < cfg_.readQueueDepth)
        return true;
    // A read served by read-around-write forwarding never occupies a
    // read-queue slot, so a full read queue must not reject it.
    return wouldForward(c, coord, addr);
}

std::uint64_t
MemoryController::enqueue(Addr addr, bool isWrite, CoreId core, Cycle now)
{
    if (!canAccept(addr, isWrite))
        return std::numeric_limits<std::uint64_t>::max();

    MemRequest req;
    req.id = nextReqId_++;
    req.addr = addr;
    req.isWrite = isWrite;
    req.core = core;
    req.arrival = now;
    req.coord = map_.decode(addr);

    ChannelState &c = channels_[req.coord.channel];
    // Read-around-write forwarding: a read that hits a posted write
    // is satisfied from the write queue without touching DRAM.  This
    // is checked before the queue-capacity path so a forwardable read
    // is accepted even when the read queue is full.
    if (!isWrite && wouldForward(c, req.coord, addr)) {
        stats_.inc(h_.readsForwarded);
        MemRequest done = req;
        done.completion = now + 1;
        c.pendingReads.push({done.completion, done});
        return req.id;
    }
    stats_.inc(isWrite ? h_.writesEnqueued : h_.readsEnqueued);
    RequestQueue &q = isWrite ? c.writeQ : c.readQ;
    BankQueue &bq = q.banks[flatBank(req.coord.rank, req.coord.bank)];
    bq.reqs.push_back(req);
    ++bq.stale; // no translation cached yet
    q.nonEmpty[req.coord.rank] |= bankBit(req.coord.bank);
    ++q.live;
    ++c.events;
    return req.id;
}

void
MemoryController::scheduleMigration(std::uint32_t channel,
                                    std::uint32_t bank, MigrationJob job)
{
    SRS_ASSERT(channel < channels_.size(), "bad channel");
    ChannelState &c = channels_[channel];
    SRS_ASSERT(bank < c.migQ.size(), "bad bank");
    stats_.inc(h_.migScheduled[static_cast<int>(job.kind)]);
    // Any mitigation activity may have changed the row mapping, so
    // cached remaps in queued requests must be recomputed.  Every
    // live request becomes stale; no cached translation can be a
    // row-buffer hit until physRowOf() revalidates it.
    ++c.mapVersion;
    for (RequestQueue *q : {&c.readQ, &c.writeQ}) {
        for (BankQueue &bq : q->banks) {
            bq.stale = static_cast<std::uint32_t>(bq.reqs.size());
            bq.hits = 0;
        }
    }
    ++c.migCount;
    ++c.events;
    c.migQ[bank].push_back(std::move(job));
}

std::size_t
MemoryController::pendingMigrations(std::uint32_t channel,
                                    std::uint32_t bank) const
{
    return channels_[channel].migQ[bank].size();
}

void
MemoryController::drainCompletedReads(ChannelState &c, Cycle now)
{
    while (!c.pendingReads.empty() && c.pendingReads.top().done <= now) {
        MemRequest req = c.pendingReads.top().req;
        c.pendingReads.pop();
        stats_.inc(h_.readsCompleted);
        stats_.inc(h_.readLatencyCycles, req.completion - req.arrival);
        readLatency_.add(req.completion - req.arrival);
        if (onReadDone_)
            onReadDone_(req);
    }
}

void
MemoryController::tick(Cycle now)
{
    for (std::uint32_t ch = 0; ch < channels_.size(); ++ch) {
        drainCompletedReads(channels_[ch], now);
        tickChannel(ch, now);
    }
}

bool
MemoryController::manageRefresh(ChannelState &c, Cycle now)
{
    for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
        auto &due = c.nextRefreshDue[ri];
        auto &debt = c.refreshDebt[ri];
        while (now >= due && debt < cfg_.maxPostponedRefreshes) {
            due += timing_.tREFI;
            ++debt;
            ++c.events;
        }
        if (debt < cfg_.maxPostponedRefreshes)
            wakeBy(due);
        if (debt == 0)
            continue;
        Rank &rank = c.ranks[ri];
        const Cycle refreshAt = rank.refreshReadyAt();
        if (now >= refreshAt) {
            // refreshReadyAt() requires every bank closed, so an
            // all-bank refresh never disturbs the open-row mirror.
            rank.refresh(now);
            --debt;
            ++c.events;
            stats_.inc(h_.refreshes);
            return true;
        }
        wakeBy(refreshAt);
        if (debt >= cfg_.maxPostponedRefreshes) {
            // Forced refresh: close an open bank to make progress.
            for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
                if (!rank.bank(b).rowOpen())
                    continue;
                if (rank.canIssue(DramCommand::Precharge, b, 0, now)) {
                    issueCmd(c, ri, DramCommand::Precharge, b, 0, now);
                    stats_.inc(h_.forcedPrecharges);
                    return true;
                }
                wakeBy(rank.bank(b).preReadyAt());
            }
        }
    }
    return false;
}

bool
MemoryController::startMigration(ChannelState &c, Cycle now)
{
    if (c.migCount == 0)
        return false;
    for (std::uint32_t flat = 0; flat < c.migQ.size(); ++flat) {
        if (c.migQ[flat].empty())
            continue;
        const std::uint32_t ri = flat / org_.banksPerRank;
        const std::uint32_t bi = flat % org_.banksPerRank;
        Rank &rank = c.ranks[ri];
        // Do not delay a forced refresh by multiple microseconds.
        if (c.refreshDebt[ri] >= cfg_.maxPostponedRefreshes ||
            rank.refreshing(now)) {
            continue;
        }
        Bank &bank = rank.bank(bi);
        if (bank.blocked(now))
            continue;
        if (bank.rowOpen()) {
            if (rank.canIssue(DramCommand::Precharge, bi, 0, now)) {
                issueCmd(c, ri, DramCommand::Precharge, bi, 0, now);
                return true;
            }
            continue;
        }
        if (now < bank.actReadyAt())
            continue;
        MigrationJob job = std::move(c.migQ[flat].front());
        c.migQ[flat].pop_front();
        --c.migCount;
        ++c.events;
        bank.blockFor(now, job.duration);
        for (const RowCharge &charge : job.charges) {
            bank.chargeActivation(charge.row, charge.count);
            stats_.inc(h_.latentActivations, charge.count);
        }
        stats_.inc(h_.migStarted[static_cast<int>(job.kind)]);
        stats_.inc(h_.migrationBusyCycles, job.duration);
        return true;
    }
    return false;
}

void
MemoryController::updateDrainState(ChannelState &c)
{
    if (!c.draining && c.writeQ.live >= cfg_.writeHiWatermark) {
        c.draining = true;
        ++c.events;
    } else if (c.draining && c.writeQ.live <= cfg_.writeLoWatermark) {
        c.draining = false;
        ++c.events;
    }
}

RowId
MemoryController::peekPhysRow(std::uint32_t chIdx, const ChannelState &c,
                              const MemRequest &req) const
{
    if (req.mapVersion == c.mapVersion && req.physRow != kInvalidRow)
        return req.physRow;
    if (listener_ == nullptr)
        return req.coord.row;
    return listener_->remapRow(
        chIdx, flatBank(req.coord.rank, req.coord.bank), req.coord.row);
}

RowId
MemoryController::physRowOf(std::uint32_t chIdx, ChannelState &c,
                            MemRequest &req)
{
    if (req.mapVersion == c.mapVersion && req.physRow != kInvalidRow)
        return req.physRow;
    const RowId phys = peekPhysRow(chIdx, c, req);
    // The request leaves the stale set; if its fresh translation hits
    // its bank's open row it joins the hit count.
    BankQueue &bq = bankQueueOf(c, req);
    --bq.stale;
    req.physRow = phys;
    req.mapVersion = c.mapVersion;
    if (c.openRowArr[flatBank(req.coord.rank, req.coord.bank)] == phys) {
        // A new hit can change a verdict this tick already took: the
        // write queue's pass 2 reads the read queue's hit count before
        // the read queue's pass 1 revalidates.
        ++bq.hits;
        ++c.events;
    }
    return phys;
}

Cycle
MemoryController::issueCmd(ChannelState &c, std::uint32_t rank,
                           DramCommand cmd, std::uint32_t bank, RowId row,
                           Cycle now, bool autoPre)
{
    Rank &r = c.ranks[rank];
    const Cycle done = r.issue(cmd, bank, row, now, autoPre);
    ++c.events;
    const std::uint32_t flat = flatBank(rank, bank);
    const Bank &b = r.bank(bank);
    const RowId open = b.rowOpen() ? b.openRow() : kInvalidRow;
    if (open != c.openRowArr[flat]) {
        if (open == kInvalidRow)
            c.openMask[rank] &= ~bankBit(bank);
        else
            c.openMask[rank] |= bankBit(bank);
        c.openRowArr[flat] = open;
        recountBankHits(c, flat);
    }
    return done;
}

void
MemoryController::recountBankHits(ChannelState &c, std::uint32_t flat)
{
    const RowId open = c.openRowArr[flat];
    for (RequestQueue *q : {&c.readQ, &c.writeQ}) {
        BankQueue &bq = q->banks[flat];
        bq.hits = 0;
        if (open == kInvalidRow)
            continue;
        for (const MemRequest &r : bq.reqs) {
            if (r.mapVersion == c.mapVersion && r.physRow == open)
                ++bq.hits;
        }
    }
}

void
MemoryController::retireRequest(ChannelState &c, RequestQueue &q,
                                std::uint32_t flat, std::size_t idx)
{
    BankQueue &bq = q.banks[flat];
    const MemRequest &req = bq.reqs[idx];
    if (req.mapVersion != c.mapVersion)
        --bq.stale;
    else if (req.physRow == c.openRowArr[flat])
        --bq.hits;
    const DramCoord coord = req.coord;
    bq.reqs.erase(bq.reqs.begin() + static_cast<std::ptrdiff_t>(idx));
    if (bq.reqs.empty())
        q.nonEmpty[coord.rank] &= ~bankBit(coord.bank);
    --q.live;
    ++c.events;
}

void
MemoryController::invalidateReqCache(ChannelState &c, MemRequest &req)
{
    if (req.mapVersion == c.mapVersion) {
        BankQueue &bq = bankQueueOf(c, req);
        if (c.openRowArr[flatBank(req.coord.rank, req.coord.bank)] ==
            req.physRow) {
            --bq.hits;
        }
        ++bq.stale;
    }
    req.mapVersion = 0;
}

// FR-FCFS over per-bank, age-ordered queues.  The decisions are those
// of one walk over the whole queue in age order; so are the side
// effects that walk has on the way to its winner, because later
// decisions read them:
//  (a) physRowOf() revalidates every request the walk passes: in
//      pass 1 those in schedulable open banks, in pass 2 those in
//      hit-wait, pre-wait and act-wait banks.  That moves the hit and
//      stale counts that bankHasPendingHit() and pass 1 read.
//  (b) actAllowedAt() is asked in age order, and only for go-ACT
//      requests no younger than the winner (BlockHammer's answer
//      erases expired entries and counts throttled ACTs).
//  (c) each p2_skip_* counter counts the requests older than the
//      winner, by their bank's verdict.
// remapRow() has no side effects, so a translation the walk would not
// have committed yet may be peeked at.
bool
MemoryController::serviceQueue(std::uint32_t chIdx, ChannelState &c,
                               RequestQueue &q, bool isWrite, Cycle now)
{
    if (q.live == 0)
        return false;
    return serveRowHit(chIdx, c, q, isWrite, now) ||
           openOldest(chIdx, c, q, now);
}

bool
MemoryController::serveRowHit(std::uint32_t chIdx, ChannelState &c,
                              RequestQueue &q, bool isWrite, Cycle now)
{
    // Pass 1 (FR of FR-FCFS): serve the oldest queued row-buffer hit
    // among the banks that can take a column command now.  Only open
    // banks with queued requests can hold one.
    const DramCommand cas =
        isWrite ? DramCommand::Write : DramCommand::Read;
    std::uint64_t winId = kNoRequest;
    std::uint32_t winFlat = 0;
    std::size_t winIdx = 0;
    toCommit_.clear();
    for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
        Rank &rank = c.ranks[ri];
        std::uint64_t candidates = c.openMask[ri] & q.nonEmpty[ri];
        // Refresh and migrations start on closed banks and admit no
        // ACT until they end, so neither skip below can hold back an
        // open bank, and neither needs a wake.
        if (candidates == 0 || rank.refreshing(now))
            continue;
        for (; candidates != 0; candidates &= candidates - 1) {
            const std::uint32_t bi = lowestBank(candidates);
            const std::uint32_t flat = flatBank(ri, bi);
            const RowId open = c.openRowArr[flat];
            const BankQueue &bq = q.banks[flat];
            const Bank &bank = rank.bank(bi);
            // Neither a current hit nor a stale translation that could
            // turn out to be one.
            if ((bq.hits == 0 && bq.stale == 0) || bank.blocked(now))
                continue;
            if (bq.stale > 0)
                toCommit_.push_back(flat);
            // Once the row equals the open row, CAS legality no longer
            // depends on the request: only the bank's column window and
            // the data bus, which must be free tCAS/tCWL after issue.
            if (!rank.canIssue(cas, bi, open, now)) {
                const Cycle lead = isWrite ? timing_.tCWL : timing_.tCAS;
                const Cycle bus = rank.busFreeAt();
                wakeBy(std::max(isWrite ? bank.wrReadyAt()
                                        : bank.rdReadyAt(),
                                bus > lead ? bus - lead : 0));
                continue;
            }
            for (std::size_t i = 0;
                 i < bq.reqs.size() && bq.reqs[i].id < winId; ++i) {
                if (peekPhysRow(chIdx, c, bq.reqs[i]) == open) {
                    winId = bq.reqs[i].id;
                    winFlat = flat;
                    winIdx = i;
                    break;
                }
            }
        }
    }
    // (a): commit what the walk passed, the winner included.
    for (const std::uint32_t flat : toCommit_) {
        BankQueue &bq = q.banks[flat];
        for (std::size_t i = 0;
             i < bq.reqs.size() && bq.reqs[i].id <= winId; ++i) {
            physRowOf(chIdx, c, bq.reqs[i]);
        }
    }
    if (winId == kNoRequest)
        return false;

    const MemRequest &req = q.banks[winFlat].reqs[winIdx];
    const Cycle done =
        issueCmd(c, req.coord.rank, cas, req.coord.bank, req.physRow, now,
                 /*autoPre=*/false);
    if (isWrite) {
        stats_.inc(h_.writesIssued);
    } else {
        stats_.inc(h_.readsIssued);
        stats_.inc(h_.rowHits);
        MemRequest finished = req;
        finished.completion = done;
        c.pendingReads.push({done, finished});
    }
    retireRequest(c, q, winFlat, winIdx);
    return true;
}

bool
MemoryController::openOldest(std::uint32_t chIdx, ChannelState &c,
                             RequestQueue &q, Cycle now)
{
    // Pass 2 (FCFS): open the row of the oldest request that can make
    // progress.  Bank and rank state cannot change before a command
    // issues, so one verdict per bank, taken from its oldest request,
    // covers all of its requests.
    // (c) counts every request of a waiting bank as skipped; once the
    // winner is known, those younger than it are taken back.
    std::uint64_t skipped[kWaitVerdicts] = {};
    go_.clear();
    toCommit_.clear();
    for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
        std::uint64_t queued = q.nonEmpty[ri];
        if (queued == 0)
            continue;
        Rank &rank = c.ranks[ri];
        const bool refreshing = rank.refreshing(now);
        // Forced-refresh mode: no new activations on this rank.
        const bool forced =
            c.refreshDebt[ri] >= cfg_.maxPostponedRefreshes;
        for (; queued != 0; queued &= queued - 1) {
            const std::uint32_t bi = lowestBank(queued);
            const std::uint32_t flat = flatBank(ri, bi);
            const BankQueue &bq = q.banks[flat];
            const Bank &bank = rank.bank(bi);
            Verdict v;
            // Each wait verdict holds until the wake it sets, unless an
            // event comes first.  The bank's own PRE and ACT windows
            // already cover refresh and migrations (Bank::issue and
            // Bank::blockFor push them past both).
            if (refreshing || bank.blocked(now)) {
                v = Verdict::Busy;
                wakeBy(std::max(rank.refreshUntil(), bank.blockedUntil()));
            } else if (forced) {
                v = Verdict::Forced;
            } else if (bank.rowOpen()) {
                // Pass 1 revalidated every request of this bank, so its
                // hit count is final; pass 1 also drained any hit it could
                // serve, so the open row is a conflict.
                SRS_ASSERT(bq.stale == 0, "stale request in an open bank");
                if (bankHasPendingHit(c, ri, bi, bank.openRow()))
                    v = Verdict::HitWait;
                else if (rank.canIssue(DramCommand::Precharge, bi, 0, now))
                    v = Verdict::GoPre;
                else {
                    v = Verdict::PreWait;
                    wakeBy(bank.preReadyAt());
                }
            } else if (!rank.canIssue(DramCommand::Activate, bi,
                                      bq.reqs.front().coord.row, now)) {
                // ACT legality does not depend on the (in-range) row:
                // tRRD/tFAW and the bank's tRC window decide it.
                v = Verdict::ActWait;
                wakeBy(std::max(rank.actPacedUntil(), bank.actReadyAt()));
                if (bq.stale > 0)
                    toCommit_.push_back(flat);
            } else {
                v = Verdict::GoAct;
            }
            verdict_[flat] = v;
            if (v == Verdict::GoPre || v == Verdict::GoAct)
                go_.push_back({flat, 0});
            else
                skipped[static_cast<std::size_t>(v)] += bq.reqs.size();
        }
    }

    // Walk the go banks' requests oldest first until one issues.  A
    // go-PRE bank's oldest request always does; a go-ACT request the
    // listener throttles (b) falls through to the next oldest.
    std::optional<GoCursor> win;
    for (;;) {
        GoCursor *next = nullptr;
        std::uint64_t nextId = kNoRequest;
        for (GoCursor &g : go_) {
            const BankQueue &bq = q.banks[g.flat];
            if (g.next < bq.reqs.size() && bq.reqs[g.next].id < nextId) {
                next = &g;
                nextId = bq.reqs[g.next].id;
            }
        }
        if (next == nullptr)
            break;
        if (verdict_[next->flat] == Verdict::GoAct) {
            MemRequest &req = q.banks[next->flat].reqs[next->next];
            const RowId phys = physRowOf(chIdx, c, req);
            askedListener_ = listener_ != nullptr;
            if (askedListener_ &&
                listener_->actAllowedAt(chIdx, next->flat, phys, now) >
                    now) {
                stats_.inc(h_.p2SkipThrottled);
                ++next->next;
                continue;
            }
        }
        win = *next;
        break;
    }

    const std::uint64_t winId =
        win ? q.banks[win->flat].reqs[win->next].id : kNoRequest;
    const auto olderThanWinner = [winId](const BankQueue &bq) {
        return std::partition_point(
            bq.reqs.begin(), bq.reqs.end(),
            [winId](const MemRequest &r) { return r.id < winId; });
    };
    if (win) {
        for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
            for (std::uint64_t queued = q.nonEmpty[ri]; queued != 0;
                 queued &= queued - 1) {
                const std::uint32_t flat = flatBank(ri, lowestBank(queued));
                const Verdict v = verdict_[flat];
                if (v == Verdict::GoPre || v == Verdict::GoAct)
                    continue;
                const BankQueue &bq = q.banks[flat];
                skipped[static_cast<std::size_t>(v)] -=
                    static_cast<std::uint64_t>(bq.reqs.end() -
                                               olderThanWinner(bq));
            }
        }
    }
    for (std::size_t v = 0; v < kWaitVerdicts; ++v)
        tickSkips_[v] += skipped[v];
    // (a): the walk revalidated the act-wait requests it passed.
    // Open waiting banks hold no stale request (asserted above).
    for (const std::uint32_t flat : toCommit_) {
        BankQueue &bq = q.banks[flat];
        const auto older = olderThanWinner(bq);
        for (auto it = bq.reqs.begin(); it != older; ++it)
            physRowOf(chIdx, c, *it);
    }
    if (!win)
        return false;

    const std::uint32_t ri = win->flat / org_.banksPerRank;
    const std::uint32_t bi = win->flat % org_.banksPerRank;
    if (verdict_[win->flat] == Verdict::GoPre) {
        issueCmd(c, ri, DramCommand::Precharge, bi, 0, now);
        stats_.inc(h_.rowConflicts);
        return true;
    }
    const RowId phys = q.banks[win->flat].reqs[win->next].physRow;
    issueCmd(c, ri, DramCommand::Activate, bi, phys, now);
    stats_.inc(h_.activations);
    if (listener_) {
        listener_->onActivate(chIdx, win->flat, phys, now);
        // The mitigation may have remapped rows; refresh the cached
        // translation of the request that opened this one.
        MemRequest &req = q.banks[win->flat].reqs[win->next];
        invalidateReqCache(c, req);
        physRowOf(chIdx, c, req);
    }
    return true;
}

bool
MemoryController::bankHasPendingHit(const ChannelState &c,
                                    std::uint32_t rank,
                                    std::uint32_t bank,
                                    RowId openRow) const
{
    // Only requests whose cached translation is current register as
    // hits, and writes count only while the channel is draining
    // (otherwise a parked write would wedge the bank open forever).
    const std::uint32_t flat = flatBank(rank, bank);
    SRS_ASSERT(c.openRowArr[flat] == openRow, "open-row mirror stale");
    return c.readQ.banks[flat].hits > 0 ||
           (c.draining && c.writeQ.banks[flat].hits > 0);
}

bool
MemoryController::idleClose(ChannelState &c, Cycle now)
{
    // Closed-page policy: proactively precharge one bank per tick
    // whose open row has no queued hit.  The open banks are visited
    // round robin in flat order from the cursor, wrapping from the
    // last rank to rank 0; the cursor's rank comes up twice, from the
    // cursor's bank up first and below it last.
    const std::uint32_t ranks = org_.ranksPerChannel;
    const std::uint32_t startRank = c.closeCursor / org_.banksPerRank;
    const std::uint64_t fromCursor =
        ~std::uint64_t{0} << (c.closeCursor % org_.banksPerRank);
    for (std::uint32_t k = 0, ri = startRank; k <= ranks;
         ++k, ri = ri + 1 == ranks ? 0 : ri + 1) {
        std::uint64_t open = c.openMask[ri];
        if (k == 0)
            open &= fromCursor;
        else if (k == ranks)
            open &= ~fromCursor;
        Rank &rank = c.ranks[ri];
        // As in pass 1, a refreshing rank has no open bank.
        if (open == 0 || rank.refreshing(now))
            continue;
        for (; open != 0; open &= open - 1) {
            const std::uint32_t bi = lowestBank(open);
            const Bank &bank = rank.bank(bi);
            if (bank.blocked(now) ||
                bankHasPendingHit(c, ri, bi, bank.openRow())) {
                continue;
            }
            if (!rank.canIssue(DramCommand::Precharge, bi, 0, now)) {
                wakeBy(bank.preReadyAt());
                continue;
            }
            issueCmd(c, ri, DramCommand::Precharge, bi, 0, now);
            stats_.inc(h_.idleCloses);
            const std::uint32_t next = flatBank(ri, bi) + 1;
            c.closeCursor = next == ranks * org_.banksPerRank ? 0 : next;
            return true;
        }
    }
    return false;
}

void
MemoryController::chargeSkips(const SkipCounts &skips)
{
    for (std::size_t v = 0; v < kWaitVerdicts; ++v) {
        if (skips[v] > 0)
            stats_.inc(h_.p2Skip[v], skips[v]);
    }
}

void
MemoryController::tickChannel(std::uint32_t ch, Cycle now)
{
    // Replay: nothing but time has changed since the recorded quiet
    // tick, and no wait it met can have ended yet.
    ChannelState &c = channels_[ch];
    if (c.events == c.quiet.events && now < c.quiet.wake) {
        chargeSkips(c.quiet.skips);
        stats_.inc(h_.replayedTicks);
        return;
    }
    const std::uint64_t events = c.events;
    wake_ = kNoCycle;
    askedListener_ = false;
    tickSkips_.fill(0);
    scanChannel(ch, c, now);
    chargeSkips(tickSkips_);
    // Every command is an event, so an unchanged stamp means the tick
    // issued nothing.  A listener query or a queued migration may
    // change its answer with time at a cycle no wake source knows.
    if (c.events == events && !askedListener_ && c.migCount == 0)
        c.quiet = {events, wake_, tickSkips_};
}

void
MemoryController::scanChannel(std::uint32_t ch, ChannelState &c, Cycle now)
{
    if (manageRefresh(c, now))
        return;
    if (startMigration(c, now))
        return;
    updateDrainState(c);
    bool issued = false;
    if (c.draining) {
        issued = serviceQueue(ch, c, c.writeQ, true, now) ||
                 serviceQueue(ch, c, c.readQ, false, now);
    } else {
        issued = serviceQueue(ch, c, c.readQ, false, now);
        if (!issued && c.writeQ.live > 0 && c.readQ.live == 0)
            issued = serviceQueue(ch, c, c.writeQ, true, now);
    }
    if (!issued && cfg_.pagePolicy == PagePolicy::Closed)
        idleClose(c, now);
}

void
MemoryController::resetEpochCounters()
{
    for (auto &c : channels_) {
        for (auto &rank : c.ranks) {
            for (std::uint32_t b = 0; b < rank.numBanks(); ++b)
                rank.bank(b).resetEpochCounters();
        }
    }
}

Bank &
MemoryController::bankAt(std::uint32_t channel, std::uint32_t bank)
{
    ChannelState &c = channels_.at(channel);
    const std::uint32_t ri = bank / org_.banksPerRank;
    const std::uint32_t bi = bank % org_.banksPerRank;
    return c.ranks.at(ri).bank(bi);
}

const Bank &
MemoryController::bankAt(std::uint32_t channel, std::uint32_t bank) const
{
    const ChannelState &c = channels_.at(channel);
    const std::uint32_t ri = bank / org_.banksPerRank;
    const std::uint32_t bi = bank % org_.banksPerRank;
    return c.ranks.at(ri).bank(bi);
}

bool
MemoryController::idle(Cycle now) const
{
    for (const auto &c : channels_) {
        if (!c.pendingReads.empty())
            return false;
        if (c.readQ.live > 0 || c.writeQ.live > 0 || c.migCount > 0)
            return false;
        for (std::uint32_t ri = 0; ri < c.ranks.size(); ++ri) {
            const Rank &rank = c.ranks[ri];
            for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
                if (rank.bank(b).blocked(now))
                    return false;
            }
        }
    }
    return true;
}

} // namespace srs
