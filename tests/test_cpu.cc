/**
 * @file
 * Unit tests for the trace-driven core model: ROB limits, fetch and
 * retire widths, memory stalls, completion handling, and the wake
 * rule that lets the system skip a sleeping core's ticks.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cpu/core.hh"

namespace srs
{
namespace
{

/** Scripted trace: fixed gap, fixed address pattern. */
struct ScriptedTrace : public TraceSource
{
    explicit ScriptedTrace(std::uint32_t gap, bool writes = false)
        : gap(gap), writes(writes)
    {}

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.nonMemGap = gap;
        rec.addr = 0x1000 + (counter++ % 64) * 64;
        rec.isWrite = writes;
        return rec;
    }

    std::uint32_t gap;
    bool writes;
    std::uint64_t counter = 0;
};

/** Configurable memory: fixed latency hits, or pending, or reject. */
struct FakeMemory : public CoreMemoryInterface
{
    Outcome
    access(Addr, bool, CoreId, std::uint64_t token, Cycle,
           Cycle &latencyOut) override
    {
        ++accesses;
        if (mode == Outcome::Hit) {
            latencyOut = hitLatency;
            return Outcome::Hit;
        }
        if (mode == Outcome::Pending) {
            pendingTokens.push_back(token);
            return Outcome::Pending;
        }
        return Outcome::Reject;
    }

    Outcome mode = Outcome::Hit;
    Cycle hitLatency = 10;
    std::uint64_t accesses = 0;
    std::vector<std::uint64_t> pendingTokens;
};

TEST(Core, RetiresAtFetchWidthWhenUnblocked)
{
    ScriptedTrace trace(100); // almost no memory ops
    FakeMemory mem;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle c = 0; c < 1000; ++c)
        core.tick(c);
    // Steady state: 4-wide core, ~1 instruction per cycle per lane.
    EXPECT_GT(core.ipc(1000), 3.0);
}

TEST(Core, MemoryLatencyThrottlesIpc)
{
    ScriptedTrace trace(0); // every instruction is a memory read
    FakeMemory mem;
    mem.hitLatency = 50;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle c = 0; c < 2000; ++c)
        core.tick(c);
    // 192-entry ROB / 50-cycle latency bounds throughput.
    EXPECT_LT(core.ipc(2000), 4.0);
    EXPECT_GT(core.retiredInstrs(), 0u);
}

TEST(Core, PendingReadsBlockRetirement)
{
    ScriptedTrace trace(0);
    FakeMemory mem;
    mem.mode = CoreMemoryInterface::Outcome::Pending;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle c = 0; c < 500; ++c)
        core.tick(c);
    // Nothing completes, so nothing retires; ROB fills to its limit.
    EXPECT_EQ(core.retiredInstrs(), 0u);
    EXPECT_EQ(mem.pendingTokens.size(), cfg.robSize);
}

TEST(Core, CompletionUnblocksRetirement)
{
    ScriptedTrace trace(0);
    FakeMemory mem;
    mem.mode = CoreMemoryInterface::Outcome::Pending;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle c = 0; c < 100; ++c)
        core.tick(c);
    ASSERT_FALSE(mem.pendingTokens.empty());
    for (std::uint64_t token : mem.pendingTokens)
        core.complete(token, 100);
    for (Cycle c = 100; c < 200; ++c)
        core.tick(c);
    EXPECT_GT(core.retiredInstrs(), 0u);
}

TEST(Core, RejectStallsFetchWithoutLoss)
{
    ScriptedTrace trace(0);
    FakeMemory mem;
    mem.mode = CoreMemoryInterface::Outcome::Reject;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle c = 0; c < 100; ++c)
        core.tick(c);
    EXPECT_EQ(core.memReads(), 0u);
    // Switch to hits: the stalled op issues, nothing was dropped.
    mem.mode = CoreMemoryInterface::Outcome::Hit;
    for (Cycle c = 100; c < 200; ++c)
        core.tick(c);
    EXPECT_GT(core.memReads(), 0u);
}

TEST(Core, WritesArePostedAndCounted)
{
    ScriptedTrace trace(3, /*writes=*/true);
    FakeMemory mem;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle c = 0; c < 500; ++c)
        core.tick(c);
    EXPECT_GT(core.memWrites(), 0u);
    EXPECT_EQ(core.memReads(), 0u);
}

TEST(Core, RobSizeBoundsInFlightWork)
{
    ScriptedTrace trace(0);
    FakeMemory mem;
    mem.mode = CoreMemoryInterface::Outcome::Pending;
    CoreConfig cfg;
    cfg.robSize = 16;
    Core core(0, cfg, trace, mem);
    for (Cycle c = 0; c < 100; ++c)
        core.tick(c);
    EXPECT_EQ(mem.pendingTokens.size(), 16u);
}

TEST(Core, IpcZeroBeforeRunning)
{
    ScriptedTrace trace(1);
    FakeMemory mem;
    Core core(0, CoreConfig{}, trace, mem);
    EXPECT_DOUBLE_EQ(core.ipc(0), 0.0);
}

TEST(Core, DegenerateConfigRejected)
{
    ScriptedTrace trace(1);
    FakeMemory mem;
    CoreConfig cfg;
    cfg.fetchWidth = 0;
    EXPECT_DEATH(Core(0, cfg, trace, mem), "degenerate");
}


TEST(Core, PureComputeRecordsSkipMemory)
{
    // addr == kInvalidAddr marks a pure-compute record (exhausted
    // finite traces emit these): no memory access is issued and the
    // core keeps retiring.
    struct IdleTrace : public TraceSource
    {
        TraceRecord
        next() override
        {
            TraceRecord rec;
            rec.nonMemGap = 3;
            rec.addr = kInvalidAddr;
            return rec;
        }
    };
    IdleTrace trace;
    FakeMemory mem;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle now = 0; now < 200; ++now)
        core.tick(now);
    EXPECT_GT(core.retiredInstrs(), 0u);
    EXPECT_EQ(core.memReads(), 0u);
    EXPECT_EQ(core.memWrites(), 0u);
    EXPECT_EQ(mem.accesses, 0u);
}

TEST(Core, MixedComputeAndMemoryRecords)
{
    // Alternate real accesses with pure-compute records; counters
    // only reflect the real ones.
    struct MixTrace : public TraceSource
    {
        TraceRecord
        next() override
        {
            TraceRecord rec;
            rec.nonMemGap = 1;
            rec.addr = (n++ % 2 == 0) ? 0x1000 : kInvalidAddr;
            return rec;
        }
        std::uint64_t n = 0;
    };
    MixTrace trace;
    FakeMemory mem;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    for (Cycle now = 0; now < 400; ++now)
        core.tick(now);
    EXPECT_GT(core.memReads(), 0u);
    EXPECT_EQ(core.memReads(), mem.accesses);
}

/** Replays a fixed list of records forever. */
struct CyclicTrace : public TraceSource
{
    explicit CyclicTrace(std::vector<TraceRecord> script)
        : script(std::move(script))
    {}

    TraceRecord
    next() override
    {
        return script[n++ % script.size()];
    }

    std::vector<TraceRecord> script;
    std::size_t n = 0;
};

/**
 * Memory for the wake-rule tests.  It logs every access attempt,
 * answers reads by a per-cycle schedule (hit, pending or reject),
 * posts writes, and completes each pending read after a latency
 * drawn from its token, so reads often finish out of order.
 */
struct ScheduledMemory : public CoreMemoryInterface
{
    using Schedule = std::function<Outcome(Cycle)>;

    Outcome
    access(Addr addr, bool isWrite, CoreId, std::uint64_t token,
           Cycle now, Cycle &latencyOut) override
    {
        log.emplace_back(now, addr);
        const Outcome mode = schedule(now);
        if (mode == Outcome::Reject)
            return mode;
        if (isWrite || mode == Outcome::Hit) {
            latencyOut = isWrite ? 1 : hitLatency;
            return Outcome::Hit;
        }
        // 40..295 cycles, scrambled by token.
        due.emplace(now + 40 + ((token * 0x9E3779B97F4A7C15ULL) >> 56),
                    token);
        return Outcome::Pending;
    }

    /** Complete the reads due by @p now (after the core's tick). */
    void
    completeDue(Core &core, Cycle now)
    {
        while (!due.empty() && due.begin()->first <= now) {
            core.complete(due.begin()->second, now);
            due.erase(due.begin());
        }
    }

    Schedule schedule;
    Cycle hitLatency = 400;
    std::vector<std::pair<Cycle, Addr>> log;
    std::multimap<Cycle, std::uint64_t> due;
};

/** One core with its own trace and memory. */
struct WakeRig
{
    WakeRig(const std::vector<TraceRecord> &script,
            const ScheduledMemory::Schedule &schedule)
        : trace(script), core(0, CoreConfig{}, trace, mem)
    {
        mem.schedule = schedule;
    }

    /** One cycle; a @p sleepy rig skips ticks before wakeAt(). */
    void
    step(Cycle now, bool sleepy)
    {
        if (!sleepy || now >= core.wakeAt()) {
            core.tick(now);
            ++ticks;
        }
        mem.completeDue(core, now);
    }

    CyclicTrace trace;
    ScheduledMemory mem;
    Core core;
    std::uint64_t ticks = 0;
};

/**
 * Run one rig ticked every cycle and one ticked only when awake, and
 * require the same observable behaviour with fewer ticks.
 */
void
expectWakeRuleExact(const std::vector<TraceRecord> &script,
                    const ScheduledMemory::Schedule &schedule,
                    Cycle cycles)
{
    WakeRig every(script, schedule);
    WakeRig sleepy(script, schedule);
    for (Cycle now = 0; now < cycles; ++now) {
        every.step(now, false);
        sleepy.step(now, true);
    }
    EXPECT_GT(every.core.retiredInstrs(), 0u);
    EXPECT_EQ(sleepy.core.retiredInstrs(), every.core.retiredInstrs());
    EXPECT_EQ(sleepy.core.memReads(), every.core.memReads());
    EXPECT_EQ(sleepy.core.memWrites(), every.core.memWrites());
    EXPECT_EQ(sleepy.mem.log, every.mem.log);
    EXPECT_LT(sleepy.ticks, cycles / 2);
}

TraceRecord
rec(std::uint32_t gap, Addr addr, bool isWrite = false)
{
    TraceRecord r;
    r.nonMemGap = gap;
    r.addr = addr;
    r.isWrite = isWrite;
    return r;
}

const std::vector<TraceRecord> kMemScript = {
    rec(0, 0x1000), rec(1, 0x2040, true), rec(3, 0x3080),
    rec(0, 0x40c0), rec(2, 0x5100),
};

TEST(CoreWake, MatchesTickingEveryCycleOnHitLatencies)
{
    // A full ROB sleeps until its head's known hit latency runs out.
    expectWakeRuleExact(
        kMemScript,
        [](Cycle) { return CoreMemoryInterface::Outcome::Hit; }, 5000);
}

TEST(CoreWake, MatchesTickingEveryCycleOnOutOfOrderReads)
{
    expectWakeRuleExact(
        kMemScript,
        [](Cycle) { return CoreMemoryInterface::Outcome::Pending; },
        5000);
}

TEST(CoreWake, MatchesTickingEveryCycleThroughARejectPhase)
{
    // A rejected core retries every cycle; its ROB drains meanwhile.
    expectWakeRuleExact(
        kMemScript,
        [](Cycle now) {
            return now >= 1000 && now < 1400
                ? CoreMemoryInterface::Outcome::Reject
                : CoreMemoryInterface::Outcome::Pending;
        },
        5000);
}

TEST(CoreWake, MatchesTickingEveryCycleWithPureComputeRecords)
{
    expectWakeRuleExact(
        {rec(2, kInvalidAddr), rec(0, 0x1000), rec(5, kInvalidAddr),
         rec(1, 0x2040, true), rec(0, 0x3080)},
        [](Cycle now) {
            return now % 700 < 350 ? CoreMemoryInterface::Outcome::Hit
                                   : CoreMemoryInterface::Outcome::Pending;
        },
        5000);
}

TEST(CoreWake, OnlyTheHeadsCompletionWakesAFullRob)
{
    ScriptedTrace trace(0);
    FakeMemory mem;
    mem.mode = CoreMemoryInterface::Outcome::Pending;
    CoreConfig cfg;
    Core core(0, cfg, trace, mem);
    EXPECT_EQ(core.wakeAt(), 0u);
    Cycle now = 0;
    for (; mem.pendingTokens.size() < cfg.robSize; ++now) {
        core.tick(now);
        // Not full yet: awake on the next cycle.
        if (mem.pendingTokens.size() < cfg.robSize) {
            EXPECT_EQ(core.wakeAt(), now + 1);
        }
    }
    // Full, and the head waits on DRAM: asleep until a completion.
    EXPECT_EQ(core.wakeAt(), kNoCycle);

    // Completions arrive after the cores' tick, as in System::run.
    // One behind the head cannot retire anything.
    const Cycle last = now - 1;
    core.complete(mem.pendingTokens.back(), last);
    EXPECT_EQ(core.wakeAt(), kNoCycle);

    // The head's completion wakes the core on the next cycle, which
    // retires the head and refills the ROB behind a pending read.
    core.complete(mem.pendingTokens.front(), last);
    EXPECT_EQ(core.wakeAt(), last);
    core.tick(now);
    EXPECT_EQ(core.retiredInstrs(), 1u);
    EXPECT_EQ(core.wakeAt(), kNoCycle);
}

} // namespace
} // namespace srs
