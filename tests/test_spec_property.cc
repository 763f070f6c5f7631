/**
 * @file
 * Property-style coverage of the experiment-identity grammar
 * (sim/workload_spec.hh): for a few hundred seeded-RNG-generated
 * SystemAxes and WorkloadSpec values, `parse(field(x)) == x` holds
 * exactly — the spellings these types put into CSV identity columns
 * and shard manifests are loss-free — and every malformed spelling
 * dies with a fatal() that names the offending input *verbatim* and
 * lists the accepted spellings (table-driven negative cases).
 *
 * The generators only produce *valid* values (e.g. effective
 * tRC >= tRCD + tRP); invalid combinations are covered by the
 * negative tables, where the property is the diagnostic, not the
 * roundtrip.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/sweep.hh"
#include "sim/workload_spec.hh"
#include "trace/generators.hh"
#include "trace/profiles.hh"

namespace srs
{
namespace
{

constexpr int kIterations = 300;

/**
 * Draw one valid SystemAxes: random policy and preset, a random
 * in-bounds organization triple with probability ~1/2 (sometimes
 * landing on the default 2x1x16, which field() must canonicalize
 * away), each timing knob overridden with probability ~1/2.  tRC
 * (when overridden) is drawn at or above the effective tRCD + tRP so
 * the combination always validates.
 */
SystemAxes
randomAxes(Rng &rng)
{
    SystemAxes axes;
    axes.pagePolicy =
        rng.nextBool(0.5) ? PagePolicy::Closed : PagePolicy::Open;
    axes.preset =
        rng.nextBool(0.5) ? DramPreset::Ddr4 : DramPreset::Ddr5;
    if (rng.nextBool(0.5)) {
        static const std::uint32_t chs[] = {1, 2, 4, 8};
        static const std::uint32_t rks[] = {1, 2, 4};
        static const std::uint32_t bks[] = {4, 8, 16, 32, 64};
        axes.orgChannels = chs[rng.nextBelow(std::size(chs))];
        axes.orgRanks = rks[rng.nextBelow(std::size(rks))];
        axes.orgBanks = bks[rng.nextBelow(std::size(bks))];
    }
    if (rng.nextBool(0.5))
        axes.tRcdNs = static_cast<std::uint32_t>(rng.nextRange(1, 100));
    if (rng.nextBool(0.5))
        axes.tRpNs = static_cast<std::uint32_t>(rng.nextRange(1, 100));
    // Effective tRCD/tRP fall back to the preset default (14 ns in
    // both presets) when not overridden; when their sum outgrows the
    // default tRC (45 ns), a tRC override is forced so the generated
    // axes always validate.
    const std::uint32_t trcd = axes.tRcdNs ? axes.tRcdNs : 14;
    const std::uint32_t trp = axes.tRpNs ? axes.tRpNs : 14;
    if (trcd + trp > 45 || rng.nextBool(0.5)) {
        axes.tRcNs = static_cast<std::uint32_t>(
            rng.nextRange(trcd + trp, trcd + trp + 400));
    }
    if (rng.nextBool(0.5))
        axes.tRefiNs =
            static_cast<std::uint32_t>(rng.nextRange(1, 100'000));
    if (rng.nextBool(0.5))
        axes.tRfcNs =
            static_cast<std::uint32_t>(rng.nextRange(1, 10'000));
    return axes;
}

/** Draw one trace path from the CSV/manifest-safe character set. */
std::string
randomTracePath(Rng &rng)
{
    static const char safe[] =
        "abcdefghijklmnopqrstuvwxyz0123456789_.-";
    std::string path = "/";
    const std::uint64_t len = rng.nextRange(1, 24);
    for (std::uint64_t i = 0; i < len; ++i) {
        if (rng.nextBool(0.15)) {
            path += '/';
            continue;
        }
        path += safe[rng.nextBelow(sizeof(safe) - 1)];
    }
    return path;
}

/**
 * Draw one valid GeneratorSpec across all three families: a Zipf or
 * hotspot victim, optionally wrapped into a blend by a nonzero
 * attack rate.  Every knob spans its full accepted range so the
 * canonical decimal formatter (trailing-zero stripping, whole-number
 * collapse) is exercised at its edges.
 */
GeneratorSpec
randomGenerator(Rng &rng)
{
    GeneratorSpec gen;
    if (rng.nextBool(0.5)) {
        gen.family = GeneratorFamily::Zipf;
        gen.rows =
            static_cast<std::uint32_t>(rng.nextRange(1, 65536));
        gen.skewMilli =
            static_cast<std::uint32_t>(rng.nextRange(0, 8000));
    } else {
        gen.family = GeneratorFamily::Hotspot;
        gen.rows =
            static_cast<std::uint32_t>(rng.nextRange(1, 65536));
        gen.hotFracMilli =
            static_cast<std::uint32_t>(rng.nextRange(1, 999));
        gen.hotProbMilli =
            static_cast<std::uint32_t>(rng.nextRange(1, 1000));
        if (rng.nextBool(0.5))
            gen.shiftCycles = rng.nextRange(1, 1'000'000'000);
    }
    if (rng.nextBool(0.5))
        gen.attackRateMilli =
            static_cast<std::uint32_t>(rng.nextRange(1, 999));
    return gen;
}

TEST(SpecProperty, SystemAxesParseIsTheExactInverseOfField)
{
    Rng rng(0xA85e5);
    for (int i = 0; i < kIterations; ++i) {
        const SystemAxes axes = randomAxes(rng);
        const std::string spelling = axes.field();
        SCOPED_TRACE(spelling);
        const SystemAxes back = SystemAxes::parse(spelling);
        EXPECT_EQ(back, axes);
        // field() is canonical: re-serializing changes nothing.
        EXPECT_EQ(back.field(), spelling);
        // The spelling survives a CSV cell and a manifest value.
        EXPECT_EQ(spelling.find(','), std::string::npos);
        EXPECT_EQ(spelling.find('#'), std::string::npos);
        EXPECT_EQ(spelling.find(' '), std::string::npos);
    }
}

TEST(SpecProperty, WorkloadSpecParseIsTheExactInverseOfLabel)
{
    Rng rng(0x10ad5);
    const std::vector<WorkloadProfile> &profiles = allProfiles();
    for (int i = 0; i < kIterations; ++i) {
        WorkloadSpec spec;
        if (rng.nextBool(0.5)) {
            spec = WorkloadSpec::synthetic(
                profiles[rng.nextBelow(profiles.size())].name);
        } else {
            const std::size_t count = rng.nextBool(0.5) ? 1 : 8;
            std::vector<std::string> paths;
            for (std::size_t p = 0; p < count; ++p)
                paths.push_back(randomTracePath(rng));
            spec = WorkloadSpec::traceFiles(std::move(paths));
        }
        const std::string spelling = spec.label();
        SCOPED_TRACE(spelling);
        const WorkloadSpec back = WorkloadSpec::parse(spelling, 8);
        EXPECT_EQ(back, spec);
        EXPECT_EQ(back.label(), spelling);
        EXPECT_EQ(spelling.find(','), std::string::npos);
    }
}

TEST(SpecProperty, GeneratorSpecParseIsTheExactInverseOfLabel)
{
    Rng rng(0x21Bf);
    for (int i = 0; i < kIterations; ++i) {
        const GeneratorSpec gen = randomGenerator(rng);
        const std::string spelling = gen.label();
        SCOPED_TRACE(spelling);
        const GeneratorSpec back = GeneratorSpec::parse(spelling);
        EXPECT_EQ(back, gen);
        // label() is canonical: re-serializing changes nothing.
        EXPECT_EQ(back.label(), spelling);
        // The spelling survives a CSV cell and a manifest value.
        EXPECT_EQ(spelling.find(','), std::string::npos);
        EXPECT_EQ(spelling.find('#'), std::string::npos);
        EXPECT_EQ(spelling.find(' '), std::string::npos);
        // The same spelling routes through the WorkloadSpec grammar
        // (the `--workloads` list and the manifest `workloads=` key).
        const WorkloadSpec spec = WorkloadSpec::parse(spelling, 8);
        EXPECT_EQ(spec.kind, WorkloadKind::Generator);
        EXPECT_EQ(spec.generator, gen);
        EXPECT_EQ(spec.label(), spelling);
    }
}

TEST(SpecProperty, GeneratorDecimalKnobsKeepExactMilliResolution)
{
    // The fractional knobs are stored in exact milli units: any
    // spelling with at most three fractional digits roundtrips to
    // the canonical form with trailing zeros stripped, never through
    // a lossy double.
    const GeneratorSpec a = GeneratorSpec::parse("zipf:4096@s=0.990");
    EXPECT_EQ(a.skewMilli, 990u);
    EXPECT_EQ(a.label(), "zipf:4096@s=0.99");
    const GeneratorSpec b = GeneratorSpec::parse("zipf:4096@s=1.000");
    EXPECT_EQ(b.skewMilli, 1000u);
    EXPECT_EQ(b.label(), "zipf:4096@s=1");
    const GeneratorSpec c =
        GeneratorSpec::parse("hotspot:64@hot=0.100@p=1.0");
    EXPECT_EQ(c.hotFracMilli, 100u);
    EXPECT_EQ(c.hotProbMilli, 1000u);
    EXPECT_EQ(c.label(), "hotspot:64@hot=0.1@p=1");
}

TEST(SpecProperty, MixSpecsAreDeterministicPureFunctionsOfTheIndex)
{
    // MIX labels are grid-generated (`--mix`), never spelled in
    // `--workloads`, so their roundtrip property is construction
    // determinism: the same index always draws the same per-core
    // profile list under the same label.
    Rng rng(0x3717);
    for (int i = 0; i < kIterations; ++i) {
        const std::uint32_t index =
            static_cast<std::uint32_t>(rng.nextBelow(1000));
        const WorkloadSpec a = WorkloadSpec::mix(index, 8);
        const WorkloadSpec b = WorkloadSpec::mix(index, 8);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a.label(), "mix" + std::to_string(index));
        EXPECT_EQ(a.mixProfiles.size(), 8u);
    }
}

/** One malformed-spelling case: input + substrings the fatal must name. */
struct NegativeCase
{
    const char *input;
    std::vector<const char *> needles;
};

TEST(SpecProperty, MalformedAxesSpellingsNameInputAndGrammar)
{
    // Every fatal must quote the offending input verbatim and list
    // the accepted spellings, so a typo'd --page-policy or manifest
    // value is self-explanatory.
    const NegativeCase cases[] = {
        {"half-open", {"half-open", "closed|open"}},
        {"", {"closed|open"}},
        {"open@ddr3", {"open@ddr3", "@ddr4|@ddr5"}},
        {"open@tras=30", {"open@tras=30", "@trc=NS", "@trfc=NS"}},
        {"open@trc=", {"open@trc=", "1..10000"}},
        {"open@trc=0", {"open@trc=0", "1..10000"}},
        {"open@trc=48ns", {"open@trc=48ns", "1..10000"}},
        {"open@trc=999999", {"open@trc=999999", "1..10000"}},
        {"open@trefi=200000", {"open@trefi=200000", "1..100000"}},
        {"open@trc=48@trc=50", {"open@trc=48@trc=50", "repeated"}},
        {"open@trefi=3900@trc=48",
         {"open@trefi=3900@trc=48", "out-of-order"}},
        {"open@trc=48@ddr5",
         {"open@trc=48@ddr5", "right after the policy"}},
        {"open@org=0x1x16",
         {"open@org=0x1x16", "0x1x16", "CxRxB", "channels 1..8"}},
        {"open@org=2x2", {"open@org=2x2", "CxRxB", "banks 4..64"}},
        {"open@org=2x2x128",
         {"open@org=2x2x128", "2x2x128", "banks 4..64"}},
        {"open@org=axbxc",
         {"open@org=axbxc", "axbxc", "power-of-two"}},
        {"open@ddr5@org=3x1x16",
         {"open@ddr5@org=3x1x16", "3x1x16", "power-of-two"}},
        {"open@org=2x2x32@org=2x2x32",
         {"open@org=2x2x32@org=2x2x32", "repeated"}},
        {"open@trc=48@org=2x2x32",
         {"open@trc=48@org=2x2x32", "out-of-order",
          "right after the policy"}},
        {"closed@trc=20", {"closed@trc=20", "tRCD + tRP"}},
        {"closed@ddr5@trcd=40@trp=40",
         {"closed@ddr5@trcd=40@trp=40", "tRCD + tRP"}},
    };
    for (const NegativeCase &c : cases) {
        SCOPED_TRACE(c.input);
        try {
            SystemAxes::parse(c.input);
            FAIL() << "'" << c.input << "' was not rejected";
        } catch (const FatalError &err) {
            const std::string msg = err.what();
            for (const char *needle : c.needles)
                EXPECT_NE(msg.find(needle), std::string::npos)
                    << "message lacks '" << needle << "': " << msg;
        }
    }
}

TEST(SpecProperty, MalformedWorkloadSpellingsNameInputAndGrammar)
{
    const NegativeCase cases[] = {
        {"trace:", {"trace:", "trace:<path>"}},
        {"trace:;;;", {"trace:;;;", "trace:<path>"}},
        {"trace:/a;/b;/c", {"trace:/a;/b;/c", "8"}},
        {"trace:/tmp/a b.usimm", {"a b.usimm", "trace:<path>"}},
        {"trace:/tmp/a#b.usimm", {"a#b.usimm", "trace:<path>"}},
    };
    for (const NegativeCase &c : cases) {
        SCOPED_TRACE(c.input);
        try {
            WorkloadSpec::parse(c.input, 8);
            FAIL() << "'" << c.input << "' was not rejected";
        } catch (const FatalError &err) {
            const std::string msg = err.what();
            for (const char *needle : c.needles)
                EXPECT_NE(msg.find(needle), std::string::npos)
                    << "message lacks '" << needle << "': " << msg;
        }
    }
}

TEST(SpecProperty, MalformedGeneratorSpellingsNameInputAndGrammar)
{
    // Generator fatals quote the whole offending spelling verbatim
    // and append the full three-family grammar, so a typo'd
    // --workloads item or manifest entry is self-explanatory.
    const char *kGrammar = "zipf:<rows>@s=<skew>";
    const NegativeCase cases[] = {
        {"zipf:0", {"zipf:0", "zipf:<rows>@s=<skew>",
                    "blend:<zipf-or-hotspot-spec>+attack@<rate>"}},
        {"zipf:0@s=1", {"zipf:0@s=1", "row count", "1..65536"}},
        {"zipf:999999@s=1", {"zipf:999999@s=1", "row count"}},
        {"zipf:4096@s=-1", {"zipf:4096@s=-1", "skew", kGrammar}},
        {"zipf:4096@s=8.001", {"zipf:4096@s=8.001", "skew"}},
        {"zipf:4096@s=0.9999", {"zipf:4096@s=0.9999", "skew"}},
        {"zipf:4096@skew=1", {"zipf:4096@skew=1", "s=<value>"}},
        {"hotspot:4096@hot=0@p=0.5",
         {"hotspot:4096@hot=0@p=0.5", "hot fraction"}},
        {"hotspot:4096@hot=1.5@p=0.5",
         {"hotspot:4096@hot=1.5@p=0.5", "hot fraction"}},
        {"hotspot:4096@hot=0.1@p=0",
         {"hotspot:4096@hot=0.1@p=0", "hot probability"}},
        {"hotspot:4096@hot=0.1@p=0.5@shift=0",
         {"hotspot:4096@hot=0.1@p=0.5@shift=0", "shift period"}},
        {"hotspot:4096@hot=0.1",
         {"hotspot:4096@hot=0.1", "@shift=<cycles>"}},
        {"blend:zipf:64@s=1",
         {"blend:zipf:64@s=1", "+attack@", kGrammar}},
        {"blend:zipf:64@s=1+attack@0",
         {"blend:zipf:64@s=1+attack@0", "attack rate"}},
        {"blend:zipf:64@s=1+attack@1",
         {"blend:zipf:64@s=1+attack@1", "attack rate"}},
        {"blend:blend:zipf:64@s=1+attack@0.1",
         {"blend:blend:zipf:64@s=1+attack@0.1", "not another blend"}},
    };
    for (const NegativeCase &c : cases) {
        SCOPED_TRACE(c.input);
        try {
            // Through the WorkloadSpec entry point, the route the
            // --workloads list and the manifest take.
            WorkloadSpec::parse(c.input, 8);
            FAIL() << "'" << c.input << "' was not rejected";
        } catch (const FatalError &err) {
            const std::string msg = err.what();
            for (const char *needle : c.needles)
                EXPECT_NE(msg.find(needle), std::string::npos)
                    << "message lacks '" << needle << "': " << msg;
        }
    }
}

TEST(SpecProperty, RandomAxesSurviveTheSweepGridAndIdentityPrefix)
{
    // End-to-end identity property: a random axes value placed in a
    // sweep cell appears verbatim inside identityPrefix() — the
    // bytes resume validation and the shard merge compare.
    Rng rng(0x1dff);
    for (int i = 0; i < 50; ++i) {
        SweepCell cell;
        cell.workload = WorkloadSpec::synthetic("gups");
        cell.axes = randomAxes(rng);
        const std::string prefix =
            SweepRunner::identityPrefix(7, cell, 0x1234);
        std::string field = ",";
        field += cell.axes.field();
        field += ',';
        EXPECT_NE(prefix.find(field), std::string::npos) << prefix;
    }
}

} // namespace
} // namespace srs
