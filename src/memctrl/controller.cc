#include "memctrl/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace srs
{

/** Tombstones tolerated in a queue before it is compacted. */
constexpr std::uint32_t kCompactThreshold = 32;

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
        c.readHit.assign(flats, 0);
        c.writeHit.assign(flats, 0);
        c.p2Verdict.assign(flats, 0);
        // Tombstones let a queue exceed its live depth briefly.
        c.readQ.reserve(cfg_.readQueueDepth + kCompactThreshold + 1);
        c.writeQ.reserve(cfg_.writeQueueDepth + kCompactThreshold + 1);
    }

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
    h_.p2SkipBusy = stats_.handle("p2_skip_busy");
    h_.p2SkipForced = stats_.handle("p2_skip_forced");
    h_.p2SkipHitWait = stats_.handle("p2_skip_hit_wait");
    h_.p2SkipPreWait = stats_.handle("p2_skip_pre_wait");
    h_.p2SkipActWait = stats_.handle("p2_skip_act_wait");
    h_.p2SkipThrottled = stats_.handle("p2_skip_throttled");
    for (int k = 0; k < 4; ++k) {
        const auto kind = static_cast<MigrationJob::Kind>(k);
        h_.migScheduled[k] = stats_.handle(
            std::string("mig_scheduled_") + migrationKindName(kind));
        h_.migStarted[k] = stats_.handle(
            std::string("mig_started_") + migrationKindName(kind));
    }
}

std::uint32_t
MemoryController::flatBank(const ChannelState &, std::uint32_t rank,
                           std::uint32_t bank) const
{
    return rank * org_.banksPerRank + bank;
}

bool
MemoryController::wouldForward(const ChannelState &c, Addr line) const
{
    for (const MemRequest &w : c.writeQ) {
        if (w.dead)
            continue;
        if ((w.addr & ~static_cast<Addr>(org_.lineBytes - 1)) == line)
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
        return liveWrites(c) < cfg_.writeQueueDepth;
    if (liveReads(c) < cfg_.readQueueDepth)
        return true;
    // A read served by read-around-write forwarding never occupies a
    // read-queue slot, so a full read queue must not reject it.
    return wouldForward(c, addr & ~static_cast<Addr>(org_.lineBytes - 1));
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
    if (isWrite) {
        stats_.inc(h_.writesEnqueued);
        c.writeQ.push_back(req);
        ++c.writeStale;
        return req.id;
    }

    // Read-around-write forwarding: a read that hits a posted write
    // is satisfied from the write queue without touching DRAM.  This
    // is checked before the queue-capacity path so a forwardable read
    // is accepted even when the read queue is full.
    const Addr line = addr & ~static_cast<Addr>(org_.lineBytes - 1);
    if (wouldForward(c, line)) {
        stats_.inc(h_.readsForwarded);
        MemRequest done = req;
        done.completion = now + 1;
        c.pendingReads.push({done.completion, done});
        return req.id;
    }
    stats_.inc(h_.readsEnqueued);
    c.readQ.push_back(req);
    ++c.readStale;
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
    c.readStale = liveReads(c);
    c.writeStale = liveWrites(c);
    std::fill(c.readHit.begin(), c.readHit.end(), 0u);
    std::fill(c.writeHit.begin(), c.writeHit.end(), 0u);
    c.readHitSum = 0;
    c.writeHitSum = 0;
    ++c.migCount;
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
        }
        if (debt == 0)
            continue;
        Rank &rank = c.ranks[ri];
        if (rank.canRefresh(now)) {
            // canRefresh() requires every bank closed, so an all-bank
            // refresh never disturbs the open-row mirror.
            rank.refresh(now);
            --debt;
            stats_.inc(h_.refreshes);
            return true;
        }
        if (debt >= cfg_.maxPostponedRefreshes) {
            // Forced refresh: close an open bank to make progress.
            for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
                if (rank.bank(b).rowOpen() &&
                    rank.canIssue(DramCommand::Precharge, b, 0, now)) {
                    issueCmd(c, ri, DramCommand::Precharge, b, 0, now);
                    stats_.inc(h_.forcedPrecharges);
                    return true;
                }
            }
        }
    }
    return false;
}

bool
MemoryController::startMigration(std::uint32_t chIdx, ChannelState &c,
                                 Cycle now)
{
    (void)chIdx;
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
    if (!c.draining && liveWrites(c) >= cfg_.writeHiWatermark)
        c.draining = true;
    else if (c.draining && liveWrites(c) <= cfg_.writeLoWatermark)
        c.draining = false;
}

RowId
MemoryController::physRowOf(std::uint32_t chIdx, ChannelState &c,
                            MemRequest &req)
{
    if (req.mapVersion == c.mapVersion && req.physRow != kInvalidRow)
        return req.physRow;
    RowId phys = req.coord.row;
    const std::uint32_t flat = flatBank(c, req.coord.rank, req.coord.bank);
    if (listener_)
        phys = listener_->remapRow(chIdx, flat, phys);
    // The request leaves the stale set; if its fresh translation hits
    // its bank's open row it joins the hit counters.
    if (req.isWrite)
        --c.writeStale;
    else
        --c.readStale;
    req.physRow = phys;
    req.mapVersion = c.mapVersion;
    if (c.openRowArr[flat] == phys) {
        if (req.isWrite) {
            ++c.writeHit[flat];
            ++c.writeHitSum;
        } else {
            ++c.readHit[flat];
            ++c.readHitSum;
        }
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
    const std::uint32_t flat = flatBank(c, rank, bank);
    const Bank &b = r.bank(bank);
    const RowId open = b.rowOpen() ? b.openRow() : kInvalidRow;
    if (open != c.openRowArr[flat]) {
        if (c.openRowArr[flat] == kInvalidRow)
            ++c.openCount;
        else if (open == kInvalidRow)
            --c.openCount;
        c.openRowArr[flat] = open;
        recountBankHits(c, flat);
    }
    return done;
}

void
MemoryController::recountBankHits(ChannelState &c, std::uint32_t flat)
{
    c.readHitSum -= c.readHit[flat];
    c.writeHitSum -= c.writeHit[flat];
    c.readHit[flat] = 0;
    c.writeHit[flat] = 0;
    const RowId open = c.openRowArr[flat];
    if (open == kInvalidRow)
        return;
    for (const MemRequest &r : c.readQ) {
        if (!r.dead && r.mapVersion == c.mapVersion && r.physRow == open &&
            flatBank(c, r.coord.rank, r.coord.bank) == flat) {
            ++c.readHit[flat];
        }
    }
    for (const MemRequest &w : c.writeQ) {
        if (!w.dead && w.mapVersion == c.mapVersion && w.physRow == open &&
            flatBank(c, w.coord.rank, w.coord.bank) == flat) {
            ++c.writeHit[flat];
        }
    }
    c.readHitSum += c.readHit[flat];
    c.writeHitSum += c.writeHit[flat];
}

void
MemoryController::killRequest(ChannelState &c, MemRequest &req)
{
    if (req.mapVersion == c.mapVersion) {
        const std::uint32_t flat =
            flatBank(c, req.coord.rank, req.coord.bank);
        if (c.openRowArr[flat] == req.physRow) {
            if (req.isWrite) {
                --c.writeHit[flat];
                --c.writeHitSum;
            } else {
                --c.readHit[flat];
                --c.readHitSum;
            }
        }
    } else {
        if (req.isWrite)
            --c.writeStale;
        else
            --c.readStale;
    }
    req.dead = true;
    if (req.isWrite)
        ++c.writeDead;
    else
        ++c.readDead;
}

void
MemoryController::compactIfNeeded(ChannelState &c,
                                  std::vector<MemRequest> &q, bool isWrite)
{
    std::uint32_t &dead = isWrite ? c.writeDead : c.readDead;
    if (dead < kCompactThreshold)
        return;
    std::erase_if(q, [](const MemRequest &r) { return r.dead; });
    dead = 0;
}

void
MemoryController::invalidateReqCache(ChannelState &c, MemRequest &req)
{
    if (req.mapVersion == c.mapVersion) {
        const std::uint32_t flat =
            flatBank(c, req.coord.rank, req.coord.bank);
        if (c.openRowArr[flat] == req.physRow) {
            if (req.isWrite) {
                --c.writeHit[flat];
                --c.writeHitSum;
            } else {
                --c.readHit[flat];
                --c.readHitSum;
            }
        }
        if (req.isWrite)
            ++c.writeStale;
        else
            ++c.readStale;
    }
    req.mapVersion = 0;
}

bool
MemoryController::serviceQueue(std::uint32_t chIdx, ChannelState &c,
                               std::vector<MemRequest> &q, bool isWrite,
                               Cycle now)
{
    const DramCommand cas =
        isWrite ? DramCommand::Write : DramCommand::Read;

    // Pass 1 (FR of FR-FCFS): serve a queued row-buffer hit.  The
    // scan is provably a no-op — and skipped — when no current cached
    // translation equals its bank's open row AND no translation is
    // stale: physRowOf() revalidates stale entries as a side effect,
    // which can surface hits mid-scan, so staleness forces the walk.
    const std::uint32_t hitSum = isWrite ? c.writeHitSum : c.readHitSum;
    const std::uint32_t staleCnt = isWrite ? c.writeStale : c.readStale;
    if (hitSum > 0 || staleCnt > 0) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            MemRequest &req = q[i];
            if (req.dead)
                continue;
            const std::uint32_t ri = req.coord.rank;
            const std::uint32_t bi = req.coord.bank;
            Rank &rank = c.ranks[ri];
            Bank &bank = rank.bank(bi);
            if (rank.refreshing(now) || bank.blocked(now) ||
                !bank.rowOpen()) {
                continue;
            }
            const RowId phys = physRowOf(chIdx, c, req);
            if (bank.openRow() != phys)
                continue;
            if (!rank.canIssue(cas, bi, phys, now))
                continue;
            const Cycle done = issueCmd(c, ri, cas, bi, phys, now,
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
            killRequest(c, req);
            compactIfNeeded(c, q, isWrite);
            return true;
        }
    }

    // Pass 2 (FCFS): open the oldest serviceable request's row.
    //
    // Bank and rank state are constant for the duration of the scan
    // (issuing any command returns immediately), so the skip verdict
    // for a bank is computed once and memoized for every later
    // request targeting it.  Verdicts reached after the physRowOf()
    // call in the original control flow still refresh the skipped
    // request's translation cache, preserving the side effect the
    // unmemoized scan had; busy/forced verdicts precede it and must
    // not.  Throttling is row-dependent and is never memoized.
    enum : std::uint8_t
    {
        kVerdictNone = 0,
        kVerdictBusy,
        kVerdictForced,
        kVerdictHitWait,
        kVerdictPreWait,
        kVerdictActWait,
    };
    std::vector<std::uint8_t> &verdict = c.p2Verdict;
    std::fill(verdict.begin(), verdict.end(), kVerdictNone);
    std::uint64_t nBusy = 0;
    std::uint64_t nForced = 0;
    std::uint64_t nHitWait = 0;
    std::uint64_t nPreWait = 0;
    std::uint64_t nActWait = 0;
    const auto flushSkips = [&]() {
        if (nBusy > 0)
            stats_.inc(h_.p2SkipBusy, nBusy);
        if (nForced > 0)
            stats_.inc(h_.p2SkipForced, nForced);
        if (nHitWait > 0)
            stats_.inc(h_.p2SkipHitWait, nHitWait);
        if (nPreWait > 0)
            stats_.inc(h_.p2SkipPreWait, nPreWait);
        if (nActWait > 0)
            stats_.inc(h_.p2SkipActWait, nActWait);
    };
    for (std::size_t i = 0; i < q.size(); ++i) {
        MemRequest &req = q[i];
        if (req.dead)
            continue;
        const std::uint32_t ri = req.coord.rank;
        const std::uint32_t bi = req.coord.bank;
        const std::uint32_t flat = flatBank(c, ri, bi);
        switch (verdict[flat]) {
          case kVerdictBusy:
            ++nBusy;
            continue;
          case kVerdictForced:
            ++nForced;
            continue;
          case kVerdictHitWait:
            physRowOf(chIdx, c, req);
            ++nHitWait;
            continue;
          case kVerdictPreWait:
            physRowOf(chIdx, c, req);
            ++nPreWait;
            continue;
          case kVerdictActWait:
            physRowOf(chIdx, c, req);
            ++nActWait;
            continue;
          default:
            break;
        }
        Rank &rank = c.ranks[ri];
        Bank &bank = rank.bank(bi);
        if (rank.refreshing(now) || bank.blocked(now)) {
            verdict[flat] = kVerdictBusy;
            ++nBusy;
            continue;
        }
        // Forced-refresh mode: no new activations on this rank.
        if (c.refreshDebt[ri] >= cfg_.maxPostponedRefreshes) {
            verdict[flat] = kVerdictForced;
            ++nForced;
            continue;
        }
        const RowId phys = physRowOf(chIdx, c, req);
        if (bank.rowOpen()) {
            // Conflict: close the row so this request can proceed
            // (pass 1 already drained any hits to the open row).
            if (bankHasPendingHit(c, ri, bi, bank.openRow())) {
                verdict[flat] = kVerdictHitWait;
                ++nHitWait;
                continue;
            }
            if (rank.canIssue(DramCommand::Precharge, bi, 0, now)) {
                issueCmd(c, ri, DramCommand::Precharge, bi, 0, now);
                stats_.inc(h_.rowConflicts);
                flushSkips();
                return true;
            }
            verdict[flat] = kVerdictPreWait;
            ++nPreWait;
            continue;
        }
        if (!rank.canIssue(DramCommand::Activate, bi, phys, now)) {
            // Activate legality is row-independent (tRRD/tFAW and the
            // bank's tRC window), so the verdict covers the bank.
            verdict[flat] = kVerdictActWait;
            ++nActWait;
            continue;
        }
        if (listener_ != nullptr &&
            listener_->actAllowedAt(chIdx, flat, phys, now) > now) {
            stats_.inc(h_.p2SkipThrottled);
            continue;
        }
        issueCmd(c, ri, DramCommand::Activate, bi, phys, now);
        stats_.inc(h_.activations);
        flushSkips();
        if (listener_) {
            listener_->onActivate(chIdx, flat, phys, now);
            // The mitigation may have remapped rows; refresh the
            // cached translation of the request that opened this one.
            invalidateReqCache(c, req);
            physRowOf(chIdx, c, req);
        }
        return true;
    }
    flushSkips();
    return false;
}

bool
MemoryController::bankHasPendingHit(const ChannelState &c,
                                    std::uint32_t rank,
                                    std::uint32_t bank,
                                    RowId openRow) const
{
    // Formerly a scan of both queues per call (the simulator's top
    // hotspot); the incremental counters answer in O(1).  Semantics
    // are unchanged: only requests whose cached translation is
    // current can register as hits, and writes count only while the
    // channel is draining (otherwise a parked write would wedge the
    // bank open forever).
    const std::uint32_t flat = flatBank(c, rank, bank);
    SRS_ASSERT(c.openRowArr[flat] == openRow, "open-row mirror stale");
    return c.readHit[flat] > 0 || (c.draining && c.writeHit[flat] > 0);
}

bool
MemoryController::idleClose(ChannelState &c, Cycle now)
{
    // Closed-page policy: proactively precharge one bank per tick
    // whose open row has no queued hit.
    if (c.openCount == 0)
        return false;
    const std::uint32_t banks =
        org_.ranksPerChannel * org_.banksPerRank;
    for (std::uint32_t step = 0; step < banks; ++step) {
        const std::uint32_t flat = (c.closeCursor + step) % banks;
        if (c.openRowArr[flat] == kInvalidRow)
            continue;
        const std::uint32_t ri = flat / org_.banksPerRank;
        const std::uint32_t bi = flat % org_.banksPerRank;
        Rank &rank = c.ranks[ri];
        Bank &bank = rank.bank(bi);
        if (rank.refreshing(now) || bank.blocked(now) || !bank.rowOpen())
            continue;
        if (bankHasPendingHit(c, ri, bi, bank.openRow()))
            continue;
        if (!rank.canIssue(DramCommand::Precharge, bi, 0, now))
            continue;
        issueCmd(c, ri, DramCommand::Precharge, bi, 0, now);
        stats_.inc(h_.idleCloses);
        c.closeCursor = (flat + 1) % banks;
        return true;
    }
    return false;
}

void
MemoryController::tickChannel(std::uint32_t ch, Cycle now)
{
    ChannelState &c = channels_[ch];
    if (manageRefresh(c, now))
        return;
    if (startMigration(ch, c, now))
        return;
    updateDrainState(c);
    bool issued = false;
    if (c.draining) {
        issued = serviceQueue(ch, c, c.writeQ, true, now) ||
                 serviceQueue(ch, c, c.readQ, false, now);
    } else {
        issued = serviceQueue(ch, c, c.readQ, false, now);
        if (!issued && liveWrites(c) > 0 && liveReads(c) == 0)
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
        if (liveReads(c) > 0 || liveWrites(c) > 0 || c.migCount > 0)
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
