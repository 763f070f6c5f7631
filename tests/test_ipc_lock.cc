/**
 * @file
 * Exact-IPC and controller-counter locks on five figure-12/figure-14
 * cells, one BlockHammer cell, and two cells off the default 2x1x16
 * DRAM organization (two ranks per channel; four channels).
 *
 * Each cell is 8 cores at swap rate 6 for 1M cycles with a 490k-cycle
 * epoch, built through makeSystemConfig and driven the way
 * runWorkload drives it.  The simulator is deterministic across
 * machines, so the aggregate IPC printed with %.6f must match the
 * committed value exactly, and so must the controller's scheduling
 * counters (row hits and conflicts, idle closes, issued writes and
 * every pass-2 skip reason), none of which the sweep CSV carries.  Any
 * refactor of the cycle loop, the controller or a mitigation that
 * shifts a single scheduling decision on these cells shows up here by
 * name.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/workload_spec.hh"
#include "trace/generators.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"

namespace srs
{
namespace
{

using Counters = std::map<std::string, std::uint64_t>;

struct LockedCell
{
    std::string ipc;
    Counters ctrl;
};

/** Controller counters locked next to the IPC. */
constexpr const char *kLockedCounters[] = {
    "row_hits",         "row_conflicts",     "idle_closes",
    "writes_issued",    "p2_skip_busy",      "p2_skip_forced",
    "p2_skip_hit_wait", "p2_skip_pre_wait",  "p2_skip_act_wait",
    "p2_skip_throttled",
};

/**
 * Run one cell: @p workload is a synthetic profile name or a
 * generator spelling, replayed on every core, on the system @p axes
 * describe.
 */
LockedCell
runCell(const std::string &workload, MitigationKind kind,
        std::uint32_t trh, const SystemAxes &axes = {})
{
    ExperimentConfig exp;
    exp.cycles = 1'000'000;
    exp.epochLen = 490'000;
    exp.numCores = 8;
    const SystemConfig cfg = makeSystemConfig(
        exp, kind, trh, 6, TrackerKind::MisraGries, axes);
    System sys(cfg);
    const AddressMap &map = sys.controller().addressMap();
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        if (GeneratorSpec::matchesPrefix(workload)) {
            sys.setTrace(c, std::make_unique<GeneratorTrace>(
                                GeneratorSpec::parse(workload), map, c,
                                exp.seed));
        } else {
            sys.setTrace(c, std::make_unique<SyntheticTrace>(
                                profileByName(workload), map, c,
                                exp.seed));
        }
    }
    sys.run(exp.warmup + exp.cycles);

    LockedCell out;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", sys.aggregateIpc());
    out.ipc = buf;
    for (const char *name : kLockedCounters)
        out.ctrl[name] = sys.controller().stats().get(name);
    return out;
}

TEST(IpcLock, GupsSrs1200)
{
    const LockedCell cell = runCell("gups", MitigationKind::Srs, 1200);
    EXPECT_EQ(cell.ipc, "0.277250");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 88186},
        {"row_conflicts", 38536},
        {"idle_closes", 11795},
        {"writes_issued", 88072},
        {"p2_skip_busy", 3886523},
        {"p2_skip_forced", 0},
        {"p2_skip_hit_wait", 64299423},
        {"p2_skip_pre_wait", 6369579},
        {"p2_skip_act_wait", 6973875},
        {"p2_skip_throttled", 0},
    }));
}

TEST(IpcLock, McfRrs2400)
{
    const LockedCell cell = runCell("mcf", MitigationKind::Rrs, 2400);
    EXPECT_EQ(cell.ipc, "0.650047");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 74960},
        {"row_conflicts", 84812},
        {"idle_closes", 9128},
        {"writes_issued", 25144},
        {"p2_skip_busy", 3285783},
        {"p2_skip_forced", 5533},
        {"p2_skip_hit_wait", 11073244},
        {"p2_skip_pre_wait", 10781372},
        {"p2_skip_act_wait", 28281909},
        {"p2_skip_throttled", 0},
    }));
}

TEST(IpcLock, GccBaseline4800)
{
    const LockedCell cell = runCell("gcc", MitigationKind::None, 4800);
    EXPECT_EQ(cell.ipc, "1.209718");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 99206},
        {"row_conflicts", 55467},
        {"idle_closes", 26445},
        {"writes_issued", 42803},
        {"p2_skip_busy", 2642596},
        {"p2_skip_forced", 0},
        {"p2_skip_hit_wait", 16654173},
        {"p2_skip_pre_wait", 6091307},
        {"p2_skip_act_wait", 10141645},
        {"p2_skip_throttled", 0},
    }));
}

TEST(IpcLock, GupsScaleSrs1200)
{
    const LockedCell cell =
        runCell("gups", MitigationKind::ScaleSrs, 1200);
    EXPECT_EQ(cell.ipc, "0.277250");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 88186},
        {"row_conflicts", 38536},
        {"idle_closes", 11795},
        {"writes_issued", 88072},
        {"p2_skip_busy", 3886523},
        {"p2_skip_forced", 0},
        {"p2_skip_hit_wait", 64299423},
        {"p2_skip_pre_wait", 6369579},
        {"p2_skip_act_wait", 6973875},
        {"p2_skip_throttled", 0},
    }));
}

TEST(IpcLock, Comm1Srs4800)
{
    const LockedCell cell = runCell("comm1", MitigationKind::Srs, 4800);
    EXPECT_EQ(cell.ipc, "1.857115");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 58868},
        {"row_conflicts", 51530},
        {"idle_closes", 30063},
        {"writes_issued", 31614},
        {"p2_skip_busy", 1129343},
        {"p2_skip_forced", 0},
        {"p2_skip_hit_wait", 6481152},
        {"p2_skip_pre_wait", 5376991},
        {"p2_skip_act_wait", 9143519},
        {"p2_skip_throttled", 0},
    }));
}

TEST(IpcLock, BlendAttackBlockHammer1200)
{
    // The throttle path: BlockHammer's actAllowedAt() holds ACTs of
    // blacklisted rows, so p2_skip_throttled must be non-zero here.
    const LockedCell cell =
        runCell("blend:zipf:4096@s=1.1+attack@0.05",
                MitigationKind::BlockHammer, 1200);
    EXPECT_EQ(cell.ipc, "1.087497");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 105118},
        {"row_conflicts", 51999},
        {"idle_closes", 18301},
        {"writes_issued", 25339},
        {"p2_skip_busy", 2242393},
        {"p2_skip_forced", 0},
        {"p2_skip_hit_wait", 16332231},
        {"p2_skip_pre_wait", 4157093},
        {"p2_skip_act_wait", 8222477},
        {"p2_skip_throttled", 1990781},
    }));
}

/** The default axes on DRAM organization @p org ("CxRxB"). */
SystemAxes
orgAxes(const std::string &org)
{
    SystemAxes axes;
    dramOrgFromName(org, axes);
    return axes;
}

TEST(IpcLock, McfRrs2400Org1x2x8)
{
    // Two ranks per channel: pass 2's verdict walk and its skip
    // take-back cross a rank boundary, which 2x1x16 never does.
    const LockedCell cell =
        runCell("mcf", MitigationKind::Rrs, 2400, orgAxes("1x2x8"));
    EXPECT_EQ(cell.ipc, "0.478259");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 55258},
        {"row_conflicts", 54180},
        {"idle_closes", 14781},
        {"writes_issued", 18505},
        {"p2_skip_busy", 1004816},
        {"p2_skip_forced", 0},
        {"p2_skip_hit_wait", 7944009},
        {"p2_skip_pre_wait", 7559373},
        {"p2_skip_act_wait", 6793705},
        {"p2_skip_throttled", 0},
    }));
}

TEST(IpcLock, GupsSrs1200Org4x1x16)
{
    // Four channels: the controller visits each channel's queues in
    // index order every bus tick.
    const LockedCell cell =
        runCell("gups", MitigationKind::Srs, 1200, orgAxes("4x1x16"));
    EXPECT_EQ(cell.ipc, "0.471602");
    EXPECT_EQ(cell.ctrl, (Counters{
        {"row_hits", 149114},
        {"row_conflicts", 47342},
        {"idle_closes", 38125},
        {"writes_issued", 149712},
        {"p2_skip_busy", 10946486},
        {"p2_skip_forced", 0},
        {"p2_skip_hit_wait", 85267537},
        {"p2_skip_pre_wait", 8734850},
        {"p2_skip_act_wait", 7846057},
        {"p2_skip_throttled", 0},
    }));
}

} // namespace
} // namespace srs
