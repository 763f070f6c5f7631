/**
 * @file
 * Unit tests for the memory controller: request flow, scheduling,
 * refresh, write draining, migration jobs and the mitigation hooks.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "common/rng.hh"
#include "common/logging.hh"
#include "memctrl/controller.hh"

namespace srs
{
namespace
{

struct CtrlFixture : public ::testing::Test
{
    CtrlFixture()
        : timing(DramTiming::fromNs(DramTimingNs{})),
          ctrl(org, timing), map(org)
    {
        ctrl.setReadCallback([this](const MemRequest &req) {
            completed.push_back(req);
        });
    }

    /** Tick the controller up to @p until (bus-clock granularity). */
    void
    runUntil(Cycle until)
    {
        for (; now < until; now += timing.busClock)
            ctrl.tick(now);
    }

    Addr
    addrOf(std::uint32_t ch, std::uint32_t bank, RowId row,
           std::uint32_t col = 0)
    {
        DramCoord c;
        c.channel = ch;
        c.bank = bank;
        c.row = row;
        c.column = col;
        return map.encode(c);
    }

    DramOrg org;
    DramTiming timing;
    MemoryController ctrl;
    AddressMap map;
    std::vector<MemRequest> completed;
    Cycle now = 0;
};

TEST_F(CtrlFixture, SingleReadCompletes)
{
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    runUntil(2000);
    ASSERT_EQ(completed.size(), 1u);
    // ACT + tRCD + CAS + tBL is on the order of 100 cycles.
    EXPECT_LT(completed[0].completion, 200u);
    EXPECT_EQ(ctrl.stats().get("activations"), 1u);
}

TEST_F(CtrlFixture, SameRowReadsCoalesceIntoOneActivation)
{
    for (std::uint32_t col = 0; col < 8; ++col)
        ctrl.enqueue(addrOf(0, 0, 100, col), false, 0, 0);
    runUntil(4000);
    EXPECT_EQ(completed.size(), 8u);
    EXPECT_EQ(ctrl.stats().get("activations"), 1u);
    EXPECT_EQ(ctrl.stats().get("row_hits"), 8u);
}

TEST_F(CtrlFixture, DifferentRowsConflictAndReactivate)
{
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    ctrl.enqueue(addrOf(0, 0, 200), false, 0, 0);
    runUntil(4000);
    EXPECT_EQ(completed.size(), 2u);
    EXPECT_EQ(ctrl.stats().get("activations"), 2u);
}

TEST_F(CtrlFixture, BanksOperateInParallel)
{
    for (std::uint32_t b = 0; b < 8; ++b)
        ctrl.enqueue(addrOf(0, b, 100), false, 0, 0);
    runUntil(4000);
    EXPECT_EQ(completed.size(), 8u);
    // All eight finish well before eight serialized tRC windows.
    Cycle last = 0;
    for (const auto &req : completed)
        last = std::max(last, req.completion);
    EXPECT_LT(last, 8 * timing.tRC);
}

TEST_F(CtrlFixture, ReadForwardsFromWriteQueue)
{
    const Addr a = addrOf(1, 3, 50, 7);
    ctrl.enqueue(a, true, 0, 0);
    ctrl.enqueue(a, false, 0, 0);
    runUntil(200);
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(ctrl.stats().get("reads_forwarded"), 1u);
}

TEST_F(CtrlFixture, WritesDrainEventually)
{
    for (std::uint32_t i = 0; i < 20; ++i)
        ctrl.enqueue(addrOf(0, i % 16, 10 + i), true, 0, 0);
    runUntil(20000);
    EXPECT_EQ(ctrl.stats().get("writes_issued"), 20u);
    EXPECT_TRUE(ctrl.idle(now));
}

TEST_F(CtrlFixture, RefreshHappensEveryTrefi)
{
    runUntil(timing.tREFI * 10);
    // Two channels x one rank, ~9-10 refreshes each.
    const std::uint64_t refreshes = ctrl.stats().get("refreshes");
    EXPECT_GE(refreshes, 16u);
    EXPECT_LE(refreshes, 20u);
}

TEST_F(CtrlFixture, QueueCapacityIsEnforced)
{
    const MemCtrlConfig cfg;
    std::uint32_t accepted = 0;
    for (std::uint32_t i = 0; i < cfg.readQueueDepth + 10; ++i) {
        if (ctrl.canAccept(addrOf(0, 0, i), false)) {
            ctrl.enqueue(addrOf(0, 0, i), false, 0, 0);
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, cfg.readQueueDepth);
}

TEST_F(CtrlFixture, MigrationBlocksBankAndChargesRows)
{
    MigrationJob job;
    job.kind = MigrationJob::Kind::Swap;
    job.duration = 5000;
    job.charges.push_back(RowCharge{42, 1});
    job.charges.push_back(RowCharge{77, 2});
    ctrl.scheduleMigration(0, 0, job);
    ctrl.enqueue(addrOf(0, 0, 42), false, 0, 0);
    runUntil(1000);
    // The demand read waits behind the migration.
    EXPECT_TRUE(completed.empty());
    EXPECT_TRUE(ctrl.bankAt(0, 0).blocked(now));
    runUntil(8000);
    EXPECT_EQ(completed.size(), 1u);
    // Charges: 1 + 2 latent plus the demand activation of row 42.
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(42), 2u);
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(77), 2u);
    EXPECT_EQ(ctrl.stats().get("latent_activations"), 3u);
    EXPECT_EQ(ctrl.stats().get("mig_started_swap"), 1u);
}

TEST_F(CtrlFixture, MigrationDoesNotBlockOtherBanks)
{
    MigrationJob job;
    job.kind = MigrationJob::Kind::Swap;
    job.duration = 20000;
    ctrl.scheduleMigration(0, 0, job);
    ctrl.enqueue(addrOf(0, 1, 42), false, 0, 0);
    runUntil(2000);
    EXPECT_EQ(completed.size(), 1u);
}

TEST_F(CtrlFixture, PendingMigrationsAreCounted)
{
    MigrationJob job;
    job.duration = 100000;
    ctrl.scheduleMigration(0, 5, job);
    ctrl.scheduleMigration(0, 5, job);
    EXPECT_EQ(ctrl.pendingMigrations(0, 5), 2u);
    runUntil(10);
    EXPECT_EQ(ctrl.pendingMigrations(0, 5), 1u); // one started
}

/** Listener that remaps one logical row and records activations. */
struct TestListener : public MemCtrlListener
{
    RowId
    remapRow(std::uint32_t, std::uint32_t, RowId logical) override
    {
        return logical == 100 ? 5000 : logical;
    }

    void
    onActivate(std::uint32_t, std::uint32_t, RowId physRow,
               Cycle) override
    {
        activations.push_back(physRow);
    }

    std::vector<RowId> activations;
};

TEST_F(CtrlFixture, ListenerRemapAndObserve)
{
    TestListener listener;
    ctrl.setListener(&listener);
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    ctrl.enqueue(addrOf(0, 0, 200), false, 0, 0);
    runUntil(2000);
    ASSERT_EQ(completed.size(), 2u);
    ASSERT_EQ(listener.activations.size(), 2u);
    // Logical 100 activated at physical 5000.
    EXPECT_TRUE((listener.activations[0] == 5000 &&
                 listener.activations[1] == 200) ||
                (listener.activations[0] == 200 &&
                 listener.activations[1] == 5000));
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(5000), 1u);
    EXPECT_EQ(ctrl.bankAt(0, 0).activationsOf(100), 0u);
}

TEST_F(CtrlFixture, EpochResetClearsBankCounters)
{
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    runUntil(1000);
    EXPECT_GT(ctrl.bankAt(0, 0).totalActivations(), 0u);
    ctrl.resetEpochCounters();
    EXPECT_EQ(ctrl.bankAt(0, 0).totalActivations(), 0u);
}

TEST_F(CtrlFixture, IdleReportsCorrectly)
{
    EXPECT_TRUE(ctrl.idle(0));
    ctrl.enqueue(addrOf(0, 0, 100), false, 0, 0);
    EXPECT_FALSE(ctrl.idle(0));
    runUntil(2000);
    EXPECT_TRUE(ctrl.idle(now));
}

TEST_F(CtrlFixture, RandomTrafficSustainsThroughput)
{
    // Regression guard for the write-hit scheduling deadlock: random
    // mixed traffic must sustain healthy throughput.
    Rng rng(7);
    std::uint64_t enqueued = 0;
    for (Cycle c = 0; c < 200000; c += timing.busClock) {
        while (enqueued - completed.size() < 12) {
            const Addr a = addrOf(rng.nextBelow(2) & 1,
                                  static_cast<std::uint32_t>(
                                      rng.nextBelow(16)),
                                  static_cast<RowId>(
                                      rng.nextBelow(512)),
                                  static_cast<std::uint32_t>(
                                      rng.nextBelow(128)));
            const bool isWrite = rng.nextBool(0.3);
            if (!ctrl.canAccept(a, isWrite))
                break;
            ctrl.enqueue(a, isWrite, 0, c);
            if (!isWrite)
                ++enqueued;
        }
        ctrl.tick(c);
    }
    // ~200K cycles at worst-case tRC-bound service of ~12 banks in
    // flight must complete thousands of reads, not hundreds.
    EXPECT_GT(completed.size(), 5000u);
}

TEST(MemCtrlConfig, WatermarksValidated)
{
    DramOrg org;
    const DramTiming t = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.writeHiWatermark = 8;
    cfg.writeLoWatermark = 8;
    EXPECT_THROW(MemoryController(org, t, cfg), FatalError);
}

TEST(MigrationKind, Names)
{
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::Swap), "swap");
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::UnswapSwap),
                 "unswap_swap");
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::PlaceBack),
                 "place_back");
    EXPECT_STREQ(migrationKindName(MigrationJob::Kind::CounterAccess),
                 "counter_access");
}


// ---------------------------------------------------------------------
// Throttle hook (BlockHammer's controller interface).
// ---------------------------------------------------------------------

/** Listener that forbids ACTs of one row until a given cycle. */
struct ThrottleListener : public MemCtrlListener
{
    RowId row = kInvalidRow;
    Cycle until = 0;
    std::uint64_t queries = 0;

    Cycle
    actAllowedAt(std::uint32_t, std::uint32_t, RowId physRow,
                 Cycle) override
    {
        ++queries;
        return physRow == row ? until : 0;
    }
};

TEST(ControllerThrottle, ThrottledRowWaitsOthersProceed)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    ThrottleListener listener;
    const AddressMap &map = ctrl.addressMap();

    // Two reads to different rows of the same bank; row 50 throttled.
    const Addr throttled = map.rowBaseAddr(0, 0, 0, 50);
    const Addr free = map.rowBaseAddr(0, 0, 0, 60);
    listener.row = 50;
    listener.until = 1'000'000;
    ctrl.setListener(&listener);

    std::vector<Addr> done;
    ctrl.setReadCallback([&done](const MemRequest &req) {
        done.push_back(req.addr);
    });
    ctrl.enqueue(throttled, false, 0, 0);
    ctrl.enqueue(free, false, 0, 0);

    Cycle now = 0;
    while (done.size() < 1 && now < 100'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], free);
    EXPECT_GT(listener.queries, 0u);
    EXPECT_GT(ctrl.stats().get("p2_skip_throttled"), 0u);

    // Release the throttle: the stalled request now completes.
    listener.until = 0;
    while (done.size() < 2 && now < 300'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1], throttled);
}

TEST(ControllerThrottle, RowHitsBypassThrottle)
{
    // Throttling gates ACTs only; an already-open row's hits flow
    // (matches BlockHammer: the damage vector is the activation).
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    MemoryController ctrl(org, timing, cfg);
    ThrottleListener listener;
    const AddressMap &map = ctrl.addressMap();
    const Addr rowBase = map.rowBaseAddr(0, 0, 0, 50);

    std::uint32_t done = 0;
    ctrl.setReadCallback([&done](const MemRequest &) { ++done; });

    // First access opens the row (no throttle yet).
    ctrl.enqueue(rowBase, false, 0, 0);
    Cycle now = 0;
    while (done < 1 && now < 100'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_EQ(done, 1u);

    // Throttle the row, then issue a second access to another
    // column: it is a row hit and must complete anyway.
    listener.row = 50;
    listener.until = 10'000'000;
    ctrl.setListener(&listener);
    ctrl.enqueue(rowBase + 64, false, 0, now);
    const Cycle limit = now + 100'000;
    while (done < 2 && now < limit) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    EXPECT_EQ(done, 2u);
}

TEST(ForwardingReject, ForwardEligibleReadAcceptedWhenReadQueueFull)
{
    // Regression: canAccept() used to check read-queue capacity
    // before forwarding eligibility, so a read that would have been
    // served straight from a queued write was rejected — and the
    // issuing core stalled — whenever the read queue was full.
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.readQueueDepth = 2;
    MemoryController ctrl(org, timing, cfg);
    const AddressMap &map = ctrl.addressMap();

    std::vector<Addr> done;
    ctrl.setReadCallback([&done](const MemRequest &req) {
        done.push_back(req.addr);
    });

    const Addr written = map.rowBaseAddr(0, 0, 0, 50);
    ctrl.enqueue(written, true, 0, 0);
    for (RowId row = 60; row < 62; ++row)
        ctrl.enqueue(map.rowBaseAddr(0, 0, 0, row), false, 0, 0);

    // The queue is full: an unrelated read is rejected...
    EXPECT_FALSE(ctrl.canAccept(map.rowBaseAddr(0, 0, 0, 70), false));
    // ...but a read of the queued write's line is forward-eligible
    // and must be accepted regardless of capacity.
    EXPECT_TRUE(ctrl.canAccept(written, false));
    const std::uint64_t id = ctrl.enqueue(written, false, 0, 0);
    EXPECT_NE(id, std::numeric_limits<std::uint64_t>::max());

    Cycle now = 0;
    while (done.empty() && now < 10'000) {
        ctrl.tick(now);
        now += timing.busClock;
    }
    ASSERT_FALSE(done.empty());
    EXPECT_EQ(done[0], written);
    EXPECT_EQ(ctrl.stats().get("reads_forwarded"), 1u);
}

// ---------------------------------------------------------------------
// Scheduling order across banks: FR-FCFS picks by request age, never
// by bank index.
// ---------------------------------------------------------------------

TEST(SchedulingOrder, OldestHitAcrossOpenBanksIsServedFirst)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemCtrlConfig cfg;
    cfg.pagePolicy = PagePolicy::Open;
    MemoryController ctrl(org, timing, cfg);
    const AddressMap &map = ctrl.addressMap();
    std::vector<Addr> done;
    ctrl.setReadCallback([&done](const MemRequest &req) {
        done.push_back(req.addr);
    });

    // Open row 10 in bank 0 and row 20 in bank 5.
    ctrl.enqueue(map.rowBaseAddr(0, 0, 0, 10), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 5, 20), false, 0, 0);
    Cycle now = 0;
    for (; done.size() < 2 && now < 10'000; now += timing.busClock)
        ctrl.tick(now);
    ASSERT_EQ(done.size(), 2u);
    ASSERT_EQ(ctrl.bankAt(0, 0).openRow(), 10u);
    ASSERT_EQ(ctrl.bankAt(0, 5).openRow(), 20u);

    // Two hits, the older one in the higher-numbered bank.
    done.clear();
    const Addr older = map.rowBaseAddr(0, 0, 5, 20) + 64;
    const Addr younger = map.rowBaseAddr(0, 0, 0, 10) + 64;
    ctrl.enqueue(older, false, 0, now);
    ctrl.enqueue(younger, false, 0, now);
    const std::uint64_t hitsBefore = ctrl.stats().get("row_hits");
    ctrl.tick(now);
    EXPECT_EQ(ctrl.stats().get("row_hits"), hitsBefore + 1);
    for (; done.size() < 2 && now < 20'000; now += timing.busClock)
        ctrl.tick(now);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], older);
    EXPECT_EQ(done[1], younger);
    EXPECT_EQ(ctrl.stats().get("activations"), 2u);
}

/** Identity-mapping listener that counts translations per row. */
struct RemapCounter : public MemCtrlListener
{
    std::map<RowId, std::uint32_t> calls;

    RowId
    remapRow(std::uint32_t, std::uint32_t, RowId logical) override
    {
        ++calls[logical];
        return logical;
    }
};

TEST(SchedulingOrder, YoungerRequestActivatesWhileOldestBankWaitsOnTrc)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    RemapCounter listener;
    ctrl.setListener(&listener);
    const AddressMap &map = ctrl.addressMap();
    const Bank &bank0 = ctrl.bankAt(0, 0);
    const Bank &bank3 = ctrl.bankAt(0, 3);

    // Open and (closed-page) idle-close bank 0: right after the
    // precharge its tRC window still forbids a new ACT.
    ctrl.enqueue(map.rowBaseAddr(0, 0, 0, 10), false, 0, 0);
    Cycle now = 0;
    bool opened = false;
    for (; now < 10'000; now += timing.busClock) {
        ctrl.tick(now);
        opened = opened || bank0.rowOpen();
        if (opened && !bank0.rowOpen())
            break;
    }
    now += timing.busClock;
    ASSERT_TRUE(opened);
    ASSERT_FALSE(bank0.rowOpen());
    ASSERT_LT(now, bank0.actReadyAt());

    // The oldest request waits on bank 0's tRC; the younger one in
    // bank 3 activates in the same tick.
    ctrl.enqueue(map.rowBaseAddr(0, 0, 0, 11), false, 0, now);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 3, 7), false, 0, now);
    const std::uint64_t waitsBefore = ctrl.stats().get("p2_skip_act_wait");
    ctrl.tick(now);
    EXPECT_FALSE(bank0.rowOpen());
    ASSERT_TRUE(bank3.rowOpen());
    EXPECT_EQ(bank3.openRow(), 7u);
    EXPECT_EQ(ctrl.stats().get("p2_skip_act_wait"), waitsBefore + 1);
    EXPECT_EQ(ctrl.stats().get("activations"), 2u);
    // The scan translated the waiting request on its way to the
    // winner, as an age-ordered walk over the whole queue does.
    EXPECT_EQ(listener.calls[11], 1u);
}

TEST(SchedulingOrder, ThrottledOldestFallsThroughToNextOldestInSameBank)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    ThrottleListener listener;
    listener.row = 50;
    listener.until = 1'000'000;
    ctrl.setListener(&listener);
    const AddressMap &map = ctrl.addressMap();

    // Bank 0: throttled row 50, then row 60.  Bank 2: an even
    // younger request, which must not jump ahead of row 60.
    ctrl.enqueue(map.rowBaseAddr(0, 0, 0, 50), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 0, 60), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 2, 70), false, 0, 0);
    ctrl.tick(0);
    ASSERT_TRUE(ctrl.bankAt(0, 0).rowOpen());
    EXPECT_EQ(ctrl.bankAt(0, 0).openRow(), 60u);
    EXPECT_FALSE(ctrl.bankAt(0, 2).rowOpen());
    EXPECT_EQ(ctrl.stats().get("p2_skip_throttled"), 1u);
    EXPECT_EQ(listener.queries, 2u);
    EXPECT_EQ(ctrl.stats().get("activations"), 1u);
}

TEST(SchedulingOrder, ReadForwardsFromItsBankAmongOtherBanksWrites)
{
    const DramOrg org;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    const AddressMap &map = ctrl.addressMap();
    std::vector<Addr> done;
    ctrl.setReadCallback([&done](const MemRequest &req) {
        done.push_back(req.addr);
    });

    // Posted writes to banks 1, 2 and 3 around the one to bank 0.
    const Addr target = map.rowBaseAddr(0, 0, 0, 50) + 128;
    ctrl.enqueue(map.rowBaseAddr(0, 0, 1, 50) + 128, true, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 2, 9), true, 0, 0);
    ctrl.enqueue(target, true, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 3, 50) + 128, true, 0, 0);

    // Same line (another byte of it) forwards; the neighbouring line
    // of the same row does not.
    EXPECT_TRUE(ctrl.canAccept(target + 8, false));
    ctrl.enqueue(target + 8, false, 0, 0);
    EXPECT_EQ(ctrl.stats().get("reads_forwarded"), 1u);
    ctrl.enqueue(target + 64, false, 0, 0);
    EXPECT_EQ(ctrl.stats().get("reads_forwarded"), 1u);
    EXPECT_EQ(ctrl.stats().get("reads_enqueued"), 1u);

    ctrl.tick(0);
    ctrl.tick(timing.busClock);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], target + 8);
}


TEST(SchedulingOrder, IdleCloseWrapsAcrossRanks)
{
    // Closed page, one channel, two ranks of eight banks: flat banks
    // 0-7 are rank 0, 8-15 rank 1.
    DramOrg org;
    org.channels = 1;
    org.ranksPerChannel = 2;
    org.banksPerRank = 8;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    const AddressMap &map = ctrl.addressMap();
    const Bank &r0b3 = ctrl.bankAt(0, 3);
    const Bank &r1b2 = ctrl.bankAt(0, 8 + 2);

    // Open and idle-close rank 1 bank 5: the close cursor moves past
    // it (flat 13), into the last rank.
    ctrl.enqueue(map.rowBaseAddr(0, 1, 5, 40), false, 0, 0);
    Cycle now = 0;
    for (; ctrl.stats().get("idle_closes") < 1 && now < 10'000;
         now += timing.busClock) {
        ctrl.tick(now);
    }
    ASSERT_EQ(ctrl.stats().get("idle_closes"), 1u);

    // Open rank 1 bank 2 (flat 10, behind the cursor in the same
    // rank) first and rank 0 bank 3 (flat 3) second, and serve both
    // reads.
    ctrl.enqueue(map.rowBaseAddr(0, 1, 2, 20), false, 0, now);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 3, 30), false, 0, now);
    for (; ctrl.stats().get("reads_issued") < 3 && now < 20'000;
         now += timing.busClock) {
        ctrl.tick(now);
    }
    ASSERT_EQ(ctrl.stats().get("reads_issued"), 3u);
    ASSERT_EQ(ctrl.stats().get("idle_closes"), 1u);
    ASSERT_TRUE(r1b2.rowOpen());
    ASSERT_TRUE(r0b3.rowOpen());

    // Once both precharges are legal, one idle tick closes one bank:
    // the round robin runs past the end of rank 1 and wraps to rank
    // 0, so it reaches flat 3 before flat 10.
    now += 1'000;
    ASSERT_GE(now, r1b2.preReadyAt());
    ASSERT_GE(now, r0b3.preReadyAt());
    ctrl.tick(now);
    EXPECT_EQ(ctrl.stats().get("idle_closes"), 2u);
    EXPECT_FALSE(r0b3.rowOpen());
    EXPECT_TRUE(r1b2.rowOpen());
    ctrl.tick(now + timing.busClock);
    EXPECT_EQ(ctrl.stats().get("idle_closes"), 3u);
    EXPECT_FALSE(r1b2.rowOpen());
}


TEST(SchedulingOrder, SkipCountsStopAtTheWinnerInEveryRank)
{
    // One channel, two ranks of eight banks; bank 0 of rank 1 (flat
    // 8) is busy with a migration.
    DramOrg org;
    org.channels = 1;
    org.ranksPerChannel = 2;
    org.banksPerRank = 8;
    const DramTiming timing = DramTiming::fromNs(DramTimingNs{});
    MemoryController ctrl(org, timing);
    const AddressMap &map = ctrl.addressMap();
    MigrationJob job;
    job.duration = 20'000;
    ctrl.scheduleMigration(0, 8, job);
    ctrl.tick(0);
    ASSERT_TRUE(ctrl.bankAt(0, 8).blocked(timing.busClock));

    // The busy bank holds one request older than the winner (rank 0
    // bank 1) and one younger: only the older one counts as skipped.
    ctrl.enqueue(map.rowBaseAddr(0, 1, 0, 10), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 0, 1, 20), false, 0, 0);
    ctrl.enqueue(map.rowBaseAddr(0, 1, 0, 30), false, 0, 0);
    ctrl.tick(timing.busClock);
    ASSERT_TRUE(ctrl.bankAt(0, 1).rowOpen());
    EXPECT_EQ(ctrl.stats().get("activations"), 1u);
    EXPECT_EQ(ctrl.stats().get("p2_skip_busy"), 1u);
}


// ---------------------------------------------------------------------
// Quiet-tick replay.  A channel tick that issued nothing and saw no
// event is repeated, counters only, until the earliest cycle at which
// one of its waits can end.  In each scenario below only time changes
// between the last full tick and the command, so a wake cycle one bus
// tick late would move the command, and a wrong replay would change
// the skip totals.
// ---------------------------------------------------------------------

/** One channel of two ranks x eight banks (flat banks 8-15 are rank 1). */
struct ReplayRig
{
    explicit ReplayRig(PagePolicy policy, const DramTimingNs &ns = {},
                       MemCtrlConfig cfg = {})
        : timing(DramTiming::fromNs(ns)),
          ctrl(org(), timing, withPolicy(cfg, policy))
    {
    }

    static DramOrg
    org()
    {
        DramOrg o;
        o.channels = 1;
        o.ranksPerChannel = 2;
        o.banksPerRank = 8;
        return o;
    }

    static MemCtrlConfig
    withPolicy(MemCtrlConfig cfg, PagePolicy policy)
    {
        cfg.pagePolicy = policy;
        return cfg;
    }

    void
    read(std::uint32_t rank, std::uint32_t bank, RowId row,
         std::uint32_t column = 0)
    {
        const Addr base = ctrl.addressMap().rowBaseAddr(0, rank, bank, row);
        ctrl.enqueue(base + column * org().lineBytes, false, 0, now);
    }

    /** Start a migration on flat bank @p flat (takes one tick). */
    void
    block(std::uint32_t flat, Cycle duration)
    {
        MigrationJob job;
        job.duration = duration;
        ctrl.scheduleMigration(0, flat, job);
        step();
        ASSERT_TRUE(ctrl.bankAt(0, flat).blocked(now));
    }

    void
    step()
    {
        ctrl.tick(now);
        now += timing.busClock;
    }

    /** Tick until counter @p name grows; @return that tick's cycle. */
    Cycle
    until(const std::string &name)
    {
        const std::uint64_t before = stat(name);
        for (const Cycle limit = now + 100'000; now < limit;) {
            const Cycle at = now;
            step();
            if (stat(name) > before)
                return at;
        }
        ADD_FAILURE() << name << " never grew";
        return kNoCycle;
    }

    std::uint64_t
    stat(const std::string &name) const
    {
        return ctrl.stats().get(name);
    }

    /** First controller tick at or after @p at. */
    Cycle
    busTickAt(Cycle at) const
    {
        const Cycle bc = timing.busClock;
        return (at + bc - 1) / bc * bc;
    }

    /** Controller ticks strictly between cycles @p from and @p to. */
    std::uint64_t
    ticksBetween(Cycle from, Cycle to) const
    {
        return (to - from) / timing.busClock - 1;
    }

    DramTiming timing;
    MemoryController ctrl;
    Cycle now = 0;
};

TEST(QuietReplay, OwedRefreshWaitsForTheLastBanksActWindow)
{
    ReplayRig r(PagePolicy::Closed);
    const Cycle tREFI = r.timing.tREFI;
    // A read parked behind a long migration in rank 1 is skipped as
    // busy on every tick; its wake lies beyond this test.
    r.block(8, 3 * tREFI);
    r.read(1, 0, 3);

    // Open and idle-close a bank of rank 0 just before its first
    // refresh falls due: the refresh then waits on that bank's ACT
    // window, which nothing else in the channel waits on.
    while (r.now < tREFI - 120)
        r.step();
    r.read(0, 2, 10);
    const Cycle preAt = r.until("idle_closes");
    const Cycle ready = r.ctrl.bankAt(0, 2).actReadyAt();
    ASSERT_LT(preAt, tREFI);
    ASSERT_GT(ready, tREFI + 2 * r.timing.busClock);
    std::uint64_t busy = r.stat("p2_skip_busy");
    const std::uint64_t replayed = r.stat("replayed_ticks");
    const Cycle refreshAt = r.until("refreshes");
    EXPECT_EQ(refreshAt, r.busTickAt(ready));
    // The refresh tick runs no pass 2.
    EXPECT_EQ(r.stat("p2_skip_busy") - busy,
              r.ticksBetween(preAt, refreshAt));
    EXPECT_GT(r.stat("replayed_ticks"), replayed);

    // With every bank of rank 0 idle, its next refresh starts on the
    // tick it falls due.
    busy = r.stat("p2_skip_busy");
    const Cycle nextAt = r.until("refreshes");
    EXPECT_EQ(nextAt, r.busTickAt(2 * tREFI));
    EXPECT_EQ(r.stat("p2_skip_busy") - busy,
              r.ticksBetween(refreshAt, nextAt));
}

TEST(QuietReplay, RowHitWaitsForTheDataBus)
{
    ReplayRig r(PagePolicy::Open);
    r.read(0, 0, 10);
    r.read(0, 1, 20);
    r.until("reads_issued");
    r.until("reads_issued");
    while (r.now < 1'000)
        r.step();

    // Two hits, one per open bank: the older one's burst holds the
    // rank's data bus, so the younger one issues tBL later.
    r.read(0, 0, 10, 1);
    r.read(0, 1, 20, 1);
    const Cycle firstAt = r.until("reads_issued");
    ASSERT_EQ(firstAt, 1'000u);
    ASSERT_LT(r.ctrl.bankAt(0, 1).rdReadyAt(), firstAt + r.timing.tBL);
    const std::uint64_t hitWait = r.stat("p2_skip_hit_wait");
    const Cycle secondAt = r.until("reads_issued");
    EXPECT_EQ(secondAt, r.busTickAt(firstAt + r.timing.tBL));
    EXPECT_EQ(r.stat("p2_skip_hit_wait") - hitWait,
              r.ticksBetween(firstAt, secondAt));
}

TEST(QuietReplay, IdleCloseWaitsForTras)
{
    ReplayRig r(PagePolicy::Closed);
    r.block(8, 10'000);
    r.read(1, 0, 3);
    r.read(0, 0, 10);
    const Cycle actAt = r.until("activations");
    const Cycle readAt = r.until("reads_issued");
    ASSERT_LT(readAt + r.timing.tRTP, actAt + r.timing.tRAS);
    const std::uint64_t busy = r.stat("p2_skip_busy");
    const Cycle preAt = r.until("idle_closes");
    EXPECT_EQ(preAt, r.busTickAt(actAt + r.timing.tRAS));
    // Pass 2 also runs on the idle-close tick, before the close.
    EXPECT_EQ(r.stat("p2_skip_busy") - busy,
              r.ticksBetween(readAt, preAt) + 1);
}

TEST(QuietReplay, ConflictPrechargeWaitsForTras)
{
    ReplayRig r(PagePolicy::Open);
    r.read(0, 0, 10);
    const Cycle actAt = r.until("activations");
    r.until("reads_issued");
    const Cycle enqueuedAt = r.now;
    r.read(0, 0, 11);
    const std::uint64_t preWait = r.stat("p2_skip_pre_wait");
    const Cycle preAt = r.until("row_conflicts");
    EXPECT_EQ(preAt, r.busTickAt(actAt + r.timing.tRAS));
    EXPECT_EQ(r.stat("p2_skip_pre_wait") - preWait,
              (preAt - enqueuedAt) / r.timing.busClock);
}

TEST(QuietReplay, ActHeldByTrrd)
{
    ReplayRig r(PagePolicy::Open);
    r.read(0, 0, 10);
    r.read(0, 1, 20);
    const Cycle firstAt = r.until("activations");
    const std::uint64_t actWait = r.stat("p2_skip_act_wait");
    const std::uint64_t hitWait = r.stat("p2_skip_hit_wait");
    const Cycle secondAt = r.until("activations");
    EXPECT_EQ(secondAt, r.busTickAt(firstAt + r.timing.tRRD));
    // Bank 1's read waits on tRRD; bank 0's waits on its column
    // window, and as the older request it counts on the ACT tick too.
    const std::uint64_t between = r.ticksBetween(firstAt, secondAt);
    EXPECT_EQ(r.stat("p2_skip_act_wait") - actWait, between);
    EXPECT_EQ(r.stat("p2_skip_hit_wait") - hitWait, between + 1);
}

TEST(QuietReplay, FifthActHeldByTfaw)
{
    // A long tRCD keeps every read behind the fifth ACT, so only the
    // four-activate window decides when it issues.
    DramTimingNs ns;
    ns.tRCD = 40.0;
    ns.tRAS = 50.0;
    ns.tRC = 64.0;
    ReplayRig r(PagePolicy::Open, ns);
    for (std::uint32_t b = 0; b < 5; ++b)
        r.read(0, b, 10 + b);
    const Cycle firstAt = r.until("activations");
    Cycle fourthAt = firstAt;
    for (int i = 1; i < 4; ++i)
        fourthAt = r.until("activations");
    ASSERT_GT(firstAt + r.timing.tFAW, fourthAt + r.timing.tRRD);
    const std::uint64_t actWait = r.stat("p2_skip_act_wait");
    const std::uint64_t hitWait = r.stat("p2_skip_hit_wait");
    const Cycle fifthAt = r.until("activations");
    EXPECT_EQ(fifthAt, r.busTickAt(firstAt + r.timing.tFAW));
    EXPECT_EQ(r.stat("reads_issued"), 0u);
    const std::uint64_t between = r.ticksBetween(fourthAt, fifthAt);
    EXPECT_EQ(r.stat("p2_skip_act_wait") - actWait, between);
    EXPECT_EQ(r.stat("p2_skip_hit_wait") - hitWait, 4 * (between + 1));
}

TEST(QuietReplay, ForcedRefreshPrechargeWaitsForTheColumnWindow)
{
    // Open page: bank 0 stays open, so refresh debt piles up to the
    // forced limit.  A row hit just before the last increment pushes
    // the bank's PRE window past it.
    ReplayRig r(PagePolicy::Open);
    const Cycle tREFI = r.timing.tREFI;
    r.read(0, 0, 10);
    r.until("reads_issued");
    const Cycle dueAt = MemCtrlConfig{}.maxPostponedRefreshes * tREFI;
    while (r.now < dueAt - 10)
        r.step();
    r.read(0, 0, 10, 1);
    const Cycle hitAt = r.until("reads_issued");
    // On the due tick rank 0 enters forced mode (and the idle rank 1
    // takes its own refresh).
    while (r.now <= dueAt)
        r.step();
    ASSERT_TRUE(r.ctrl.bankAt(0, 0).rowOpen());
    const Cycle enqueuedAt = r.now;
    ASSERT_GT(r.ctrl.bankAt(0, 0).preReadyAt(),
              enqueuedAt + 2 * r.timing.busClock);
    // Forced mode admits no ACT: a read to a closed bank waits.
    r.read(0, 1, 20);
    const Cycle preAt = r.until("forced_precharges");
    EXPECT_EQ(preAt, r.busTickAt(hitAt + r.timing.tRTP));
    // The forced PRE tick runs no pass 2.
    EXPECT_EQ(r.stat("p2_skip_forced"),
              (preAt - enqueuedAt) / r.timing.busClock);
}

TEST(QuietReplay, WriteVerdictSeesAReadHitRevalidatedLaterInTheTick)
{
    // Drain whenever a write is queued.  Draining serves the write
    // queue first, so its pass 2 reads the read queue's hit count
    // before the read queue's pass 1 revalidates that tick's stale
    // reads.  The tick that turns a stale read into a hit must not be
    // replayed, or the write would keep its pre-wait verdict.
    MemCtrlConfig cfg;
    cfg.writeHiWatermark = 1;
    cfg.writeLoWatermark = 0;
    ReplayRig r(PagePolicy::Open, {}, cfg);
    r.read(0, 0, 10);
    r.until("reads_issued");
    const Cycle rdReady = r.ctrl.bankAt(0, 0).rdReadyAt();
    ASSERT_GT(rdReady, r.now + 4 * r.timing.busClock);
    // A conflicting write and a hit behind the open row.
    r.ctrl.enqueue(r.ctrl.addressMap().rowBaseAddr(0, 0, 0, 11), true, 0,
                   r.now);
    r.read(0, 0, 10, 1);
    r.step();
    // A migration elsewhere in the channel makes every queued
    // translation stale; starting it takes a tick.
    MigrationJob job;
    job.duration = 50;
    r.ctrl.scheduleMigration(0, 5, job);
    r.step();
    const Cycle firstScan = r.now;
    const std::uint64_t preWait = r.stat("p2_skip_pre_wait");
    const std::uint64_t hitWait = r.stat("p2_skip_hit_wait");
    const Cycle readAt = r.until("reads_issued");
    EXPECT_EQ(readAt, r.busTickAt(rdReady));
    // Only the first scan saw the write as a pre-wait; it counted the
    // read as a hit-wait.  Every tick between counts both, and the
    // read's own tick counts the write.
    EXPECT_EQ(r.stat("p2_skip_pre_wait") - preWait, 1u);
    EXPECT_EQ(r.stat("p2_skip_hit_wait") - hitWait,
              2 * r.ticksBetween(firstScan, readAt) + 2);
}

TEST(QuietReplay, BankLeavingAMigrationActivatesAtOnce)
{
    ReplayRig r(PagePolicy::Closed);
    r.block(3, 200);
    const Cycle blockedUntil = r.ctrl.bankAt(0, 3).blockedUntil();
    const Cycle enqueuedAt = r.now;
    r.read(0, 3, 10);
    const Cycle actAt = r.until("activations");
    EXPECT_EQ(actAt, r.busTickAt(blockedUntil));
    EXPECT_EQ(r.stat("p2_skip_busy"),
              (actAt - enqueuedAt) / r.timing.busClock);
    EXPECT_GT(r.stat("replayed_ticks"), 0u);
}

} // namespace
} // namespace srs
