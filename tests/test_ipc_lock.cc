/**
 * @file
 * Exact-IPC locks on five figure-12/figure-14 cells.
 *
 * Each cell is 8 cores at swap rate 6 for 1M cycles with a 490k-cycle
 * epoch, built through makeSystemConfig + runWorkload.  The simulator
 * is deterministic across machines, so the aggregate IPC printed with
 * %.6f must match the committed value exactly; any refactor of the
 * cycle loop, the controller or a mitigation that shifts a single
 * scheduling decision on these cells shows up here by name.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "trace/profiles.hh"

namespace srs
{
namespace
{

std::string
aggregateIpcOf(const char *workload, MitigationKind kind,
               std::uint32_t trh)
{
    ExperimentConfig exp;
    exp.cycles = 1'000'000;
    exp.epochLen = 490'000;
    exp.numCores = 8;
    const SystemConfig cfg = makeSystemConfig(exp, kind, trh, 6);
    const RunResult r = runWorkload(cfg, profileByName(workload), exp);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", r.aggregateIpc);
    return buf;
}

TEST(IpcLock, GupsSrs1200)
{
    EXPECT_EQ(aggregateIpcOf("gups", MitigationKind::Srs, 1200),
              "0.277250");
}

TEST(IpcLock, McfRrs2400)
{
    EXPECT_EQ(aggregateIpcOf("mcf", MitigationKind::Rrs, 2400),
              "0.650047");
}

TEST(IpcLock, GccBaseline4800)
{
    EXPECT_EQ(aggregateIpcOf("gcc", MitigationKind::None, 4800),
              "1.209718");
}

TEST(IpcLock, GupsScaleSrs1200)
{
    EXPECT_EQ(aggregateIpcOf("gups", MitigationKind::ScaleSrs, 1200),
              "0.277250");
}

TEST(IpcLock, Comm1Srs4800)
{
    EXPECT_EQ(aggregateIpcOf("comm1", MitigationKind::Srs, 4800),
              "1.857115");
}

} // namespace
} // namespace srs
