/**
 * @file
 * SweepRunner / ThreadPool coverage: grid expansion order, result
 * ordering under concurrency, threads=1 vs threads=8 determinism,
 * per-cell seeding, and CSV stability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/sweep.hh"
#include "trace_fixture.hh"

namespace srs
{
namespace
{

/** Small budget so a full sweep stays fast in Debug CI. */
ExperimentConfig
tinyExperiment()
{
    ExperimentConfig exp;
    exp.cycles = 60'000;
    exp.epochLen = 25'000;
    return exp;
}

TEST(ThreadPool, RunsEveryJobOnce)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { count.fetch_add(1); });
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ResolveThreadsDefaultsToHardware)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
}

TEST(SweepGrid, ExpandsRowMajorRatesInnermost)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200, 4800};
    grid.swapRates = {3, 6};
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 16u);
    // First block: workload gups, mitigation rrs.
    EXPECT_EQ(cells[0].workload.label(), "gups");
    EXPECT_EQ(cells[0].mitigation, MitigationKind::Rrs);
    EXPECT_EQ(cells[0].trh, 1200u);
    EXPECT_EQ(cells[0].swapRate, 3u);
    EXPECT_EQ(cells[1].swapRate, 6u);
    EXPECT_EQ(cells[2].trh, 4800u);
    // Mitigation increments after rates x trhs cells.
    EXPECT_EQ(cells[4].mitigation, MitigationKind::ScaleSrs);
    // Workload increments after mitigations x trhs x rates cells.
    EXPECT_EQ(cells[8].workload.label(), "gcc");
    EXPECT_EQ(cells[8].mitigation, MitigationKind::Rrs);
}

TEST(SweepGrid, EmptyAxisYieldsNoCells)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups")};
    grid.mitigations = {};
    grid.trhs = {1200};
    grid.swapRates = {3};
    EXPECT_TRUE(grid.expand().empty());
}

TEST(SweepRunner, CellSeedIsDeterministicAndWorkloadKeyed)
{
    const std::uint64_t a = SweepRunner::cellSeed(0xBEEF, "gups");
    EXPECT_EQ(a, SweepRunner::cellSeed(0xBEEF, "gups"));
    EXPECT_NE(a, SweepRunner::cellSeed(0xBEEF, "gcc"));
    EXPECT_NE(a, SweepRunner::cellSeed(0xF00D, "gups"));
}

TEST(SweepRunner, ResultsMatchCellOrder)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200, 4800};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();

    SweepRunner runner(tinyExperiment(), 8);
    const std::vector<SweepResult> results = runner.run(cells);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(results[i].cell.workload.label(),
                  cells[i].workload.label());
        EXPECT_EQ(results[i].cell.mitigation, cells[i].mitigation);
        EXPECT_EQ(results[i].cell.trh, cells[i].trh);
        EXPECT_EQ(results[i].cell.swapRate, cells[i].swapRate);
        EXPECT_GT(results[i].run.aggregateIpc, 0.0);
        EXPECT_GT(results[i].baselineIpc, 0.0);
    }
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc"),
                      WorkloadSpec::synthetic("hmmer")};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    const ExperimentConfig exp = tinyExperiment();

    SweepRunner serial(exp, 1);
    SweepRunner parallel(exp, 8);
    const std::vector<SweepResult> a = serial.run(grid);
    const std::vector<SweepResult> b = parallel.run(grid);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed) << "cell " << i;
        EXPECT_EQ(a[i].run.aggregateIpc, b[i].run.aggregateIpc)
            << "cell " << i;
        EXPECT_EQ(a[i].run.swaps, b[i].run.swaps) << "cell " << i;
        EXPECT_EQ(a[i].baselineIpc, b[i].baselineIpc) << "cell " << i;
        EXPECT_EQ(a[i].normalized, b[i].normalized) << "cell " << i;
    }

    // CSV serialization is byte-identical too.
    std::ostringstream csvA, csvB;
    SweepRunner::writeCsv(csvA, a);
    SweepRunner::writeCsv(csvB, b);
    EXPECT_EQ(csvA.str(), csvB.str());
}

TEST(SweepRunner, BaselineSharesTraceSeedWithProtectedCells)
{
    // A baseline-mitigation cell replays the exact baseline run, so
    // its normalized performance is exactly 1.
    std::vector<SweepCell> cells(1);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_DOUBLE_EQ(results[0].run.aggregateIpc,
                     results[0].baselineIpc);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
}

TEST(SweepRunner, UnknownWorkloadIsFatalBeforeSimulation)
{
    std::vector<SweepCell> cells(1);
    cells[0].workload = WorkloadSpec::synthetic("no-such-benchmark");
    SweepRunner runner(tinyExperiment(), 2);
    EXPECT_THROW(runner.run(cells), FatalError);
}

TEST(SweepRunner, ConfigErrorInWorkerSurfacesAsFatalError)
{
    // A bad cell config only trips inside the worker (System
    // construction); the error must come back as a FatalError on the
    // calling thread, not std::terminate the process.
    std::vector<SweepCell> cells(1);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::Rrs;
    cells[0].trh = 1200;
    cells[0].swapRate = 2000; // swap rate exceeds T_RH
    SweepRunner runner(tinyExperiment(), 2);
    EXPECT_THROW(runner.run(cells), FatalError);
}

/** CSV text of one full run of @p cells at @p threads workers. */
std::string
sweepCsv(const std::vector<SweepCell> &cells, std::size_t threads)
{
    SweepRunner runner(tinyExperiment(), threads);
    std::ostringstream os;
    SweepRunner::writeCsv(os, runner.run(cells));
    return os.str();
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTempFile(const char *name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return path;
}

std::vector<SweepCell>
resumeTestCells()
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    return grid.expand();
}

TEST(SweepResume, TruncatedCsvResumesByteIdentical)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);

    // Simulate a sweep killed mid-grid: keep the header, the first
    // two data rows, and half of the third (a torn final line).
    std::istringstream in(full);
    std::string line, partial;
    for (int i = 0; i < 3 && std::getline(in, line); ++i)
        partial += line + "\n";
    std::getline(in, line);
    partial += line.substr(0, line.size() / 2);
    const std::string path =
        writeTempFile("sweep_truncated.csv", partial);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SweepRunner runner(tinyExperiment(), threads);
        runner.setResume(path);
        const std::vector<SweepResult> results = runner.run(cells);
        // The two intact rows were reused, the torn one recomputed.
        EXPECT_FALSE(results[0].resumedRow.empty());
        EXPECT_FALSE(results[1].resumedRow.empty());
        EXPECT_TRUE(results[2].resumedRow.empty());
        EXPECT_GT(results[0].normalized, 0.0);
        std::ostringstream os;
        SweepRunner::writeCsv(os, results);
        EXPECT_EQ(os.str(), full) << "threads=" << threads;
    }
}

TEST(SweepResume, FinalLineTornMidDigitIsNotTrusted)
{
    // The nastiest truncation: the file is cut inside the digits of
    // the last field, so the torn line still splits into 15
    // plausible fields.  Only the missing trailing newline gives it
    // away; the row must be recomputed, not trusted.
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);
    ASSERT_EQ(full.back(), '\n');
    const std::string path = writeTempFile(
        "sweep_torn_digit.csv",
        full.substr(0, full.size() - 2)); // drop "N\n" of the last row

    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_TRUE(results.back().resumedRow.empty());
    std::ostringstream os;
    SweepRunner::writeCsv(os, results);
    EXPECT_EQ(os.str(), full);
}

TEST(SweepResume, JournalIsACompleteCheckpoint)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);
    const std::string journalPath =
        testing::TempDir() + "sweep_test.journal";

    SweepRunner first(tinyExperiment(), 8);
    first.setJournal(journalPath);
    first.run(cells);

    // Resuming from the journal recomputes nothing and reproduces
    // the uninterrupted CSV byte for byte.
    SweepRunner second(tinyExperiment(), 8);
    second.setResume(journalPath);
    const std::vector<SweepResult> results = second.run(cells);
    for (const SweepResult &r : results)
        EXPECT_FALSE(r.resumedRow.empty());
    std::ostringstream os;
    SweepRunner::writeCsv(os, results);
    EXPECT_EQ(os.str(), full);
    std::remove(journalPath.c_str());
}

TEST(SweepResume, MismatchedGridIsFatal)
{
    // Synthesize a plausible checkpoint without running simulations:
    // formatRow() emits the exact bytes a real sweep would.
    const std::vector<SweepCell> cells = resumeTestCells();
    const ExperimentConfig exp = tinyExperiment();
    std::string full;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SweepResult r;
        r.cell = cells[i];
        r.seed = SweepRunner::cellSeed(exp.seed,
                                       cells[i].workload.label());
        r.run.aggregateIpc = 1.0;
        r.baselineIpc = 2.0;
        r.normalized = 0.5;
        full += SweepRunner::formatRow(i, r) + "\n";
    }
    const std::string path =
        writeTempFile("sweep_mismatch.csv", full);

    // Same shape, different T_RH: every row's identity prefix
    // disagrees with the file.
    std::vector<SweepCell> other = cells;
    for (SweepCell &cell : other)
        cell.trh = 4800;
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    EXPECT_THROW(runner.run(other), FatalError);

    // A row index past the end of the grid is rejected too.
    SweepRunner shrunk(tinyExperiment(), 2);
    shrunk.setResume(path);
    EXPECT_THROW(shrunk.run(std::vector<SweepCell>(
                     cells.begin(), cells.begin() + 2)),
                 FatalError);
}

TEST(SweepJournal, HeaderNamesSchemaAndGridIdentity)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const ExperimentConfig exp = tinyExperiment();
    const std::string header =
        SweepRunner::journalHeader(cells, exp.seed);
    EXPECT_EQ(header.rfind("# srs_sim sweep journal schema=6 ", 0),
              0u)
        << header;

    SweepRunner::JournalHeader parsed;
    ASSERT_TRUE(SweepRunner::parseJournalHeader(header, parsed));
    EXPECT_EQ(parsed.schema, SweepRunner::kJournalSchema);
    EXPECT_EQ(parsed.cells, cells.size());
    EXPECT_EQ(parsed.digest,
              SweepRunner::gridDigest(cells, exp.seed));
    EXPECT_EQ(parsed.seed, exp.seed);

    // The digest is a function of the grid and the base seed: any
    // change to either renames the journal.
    EXPECT_NE(SweepRunner::gridDigest(cells, exp.seed ^ 1),
              parsed.digest);
    std::vector<SweepCell> other = cells;
    other[0].trh = 4800;
    EXPECT_NE(SweepRunner::gridDigest(other, exp.seed),
              parsed.digest);

    // Unrelated comments are not journal headers.
    EXPECT_FALSE(SweepRunner::parseJournalHeader("# a note", parsed));
    // A mangled header line is fatal, never silently skipped.
    EXPECT_THROW(SweepRunner::parseJournalHeader(
                     "# srs_sim sweep journal gibberish", parsed),
                 FatalError);
}

TEST(SweepJournal, RunWritesTheHeaderFirstAndResumeAcceptsIt)
{
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string full = sweepCsv(cells, 1);
    const std::string journalPath =
        testing::TempDir() + "sweep_header.journal";

    SweepRunner first(tinyExperiment(), 8);
    first.setJournal(journalPath);
    first.run(cells);

    std::ifstream in(journalPath);
    std::string firstLine;
    ASSERT_TRUE(std::getline(in, firstLine));
    EXPECT_EQ(firstLine, SweepRunner::journalHeader(
                             cells, tinyExperiment().seed));

    // The headered journal resumes byte-identically.
    SweepRunner second(tinyExperiment(), 8);
    second.setResume(journalPath);
    std::ostringstream os;
    SweepRunner::writeCsv(os, second.run(cells));
    EXPECT_EQ(os.str(), full);
    std::remove(journalPath.c_str());
}

TEST(SweepJournal, MismatchedHeaderIsFatalByName)
{
    const std::vector<SweepCell> cells = resumeTestCells();

    // A journal headed for a differently-seeded grid must be
    // rejected even though it holds no rows to disagree with.
    const std::string foreign = writeTempFile(
        "journal_foreign",
        SweepRunner::journalHeader(cells, tinyExperiment().seed ^ 1)
            + "\n");
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(foreign);
    try {
        runner.run(cells);
        FAIL() << "foreign journal header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("different grid"),
                  std::string::npos)
            << err.what();
    }

    // A stale schema is named in the error.
    const std::string stale = writeTempFile(
        "journal_stale",
        "# srs_sim sweep journal schema=4 cells=4 "
        "grid=0x0000000000000000 seed=0x0000000000000000\n");
    SweepRunner old(tinyExperiment(), 2);
    old.setResume(stale);
    try {
        old.run(cells);
        FAIL() << "schema-4 journal header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("schema 4"),
                  std::string::npos)
            << err.what();
    }

    // Headerless journals (pre-header builds) still resume.
    const ExperimentConfig exp = tinyExperiment();
    std::string rows;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SweepResult r;
        r.cell = cells[i];
        r.seed = SweepRunner::cellSeed(exp.seed,
                                       cells[i].workload.label());
        r.run.aggregateIpc = 1.0;
        r.baselineIpc = 2.0;
        r.normalized = 0.5;
        rows += SweepRunner::formatRow(i, r) + "\n";
    }
    const std::string headerless =
        writeTempFile("journal_headerless", rows);
    SweepRunner tolerant(tinyExperiment(), 2);
    tolerant.setResume(headerless);
    const std::vector<SweepResult> results = tolerant.run(cells);
    for (const SweepResult &r : results)
        EXPECT_FALSE(r.resumedRow.empty());
}

TEST(SweepMix, CellsRouteThroughRunWorkloadMixDeterministically)
{
    const ExperimentConfig exp = tinyExperiment();
    std::vector<SweepCell> cells;
    SweepCell mix = mixSweepCell(0, exp.numCores);
    ASSERT_EQ(mix.workload.label(), "mix0");
    ASSERT_EQ(mix.workload.kind, WorkloadKind::Mix);
    ASSERT_EQ(mix.workload.mixProfiles.size(), exp.numCores);
    mix.mitigation = MitigationKind::Rrs;
    mix.trh = 1200;
    mix.swapRate = 6;
    cells.push_back(mix);
    SweepCell single;
    single.workload = WorkloadSpec::synthetic("gups");
    single.mitigation = MitigationKind::Rrs;
    single.trh = 1200;
    single.swapRate = 6;
    cells.push_back(single);

    EXPECT_EQ(sweepCsv(cells, 1), sweepCsv(cells, 8));
    SweepRunner runner(exp, 4);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[0].run.aggregateIpc, 0.0);
}

TEST(SweepMix, GridAppendsMixPointsAfterWorkloads)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups")};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    grid.mixCount = 2;
    grid.mixCores = 8;
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].workload.label(), "gups");
    EXPECT_TRUE(cells[0].workload.mixProfiles.empty());
    EXPECT_EQ(cells[1].workload.label(), "mix0");
    EXPECT_EQ(cells[1].workload.mixProfiles.size(), 8u);
    EXPECT_EQ(cells[2].workload.label(), "mix1");
    // Distinct MIX points draw distinct per-core profile lists.
    EXPECT_NE(cells[1].workload.mixProfiles,
              cells[2].workload.mixProfiles);
}

TEST(SweepMix, MixBaseShiftsThePointRange)
{
    // A shard covering the middle of a MIX campaign names its exact
    // points: mixBase=3, mixCount=2 expands to mix3 and mix4 with
    // the same per-core draws the full grid would give them.
    SweepGrid grid;
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    grid.mixCount = 2;
    grid.mixBase = 3;
    grid.mixCores = 8;
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].workload.label(), "mix3");
    EXPECT_EQ(cells[1].workload.label(), "mix4");
    EXPECT_EQ(cells[0].workload, mixSweepCell(3, 8).workload);
    EXPECT_EQ(cells[1].workload, mixSweepCell(4, 8).workload);
}

TEST(SweepMix, InconsistentLabelOrCoreCountIsFatal)
{
    const ExperimentConfig exp = tinyExperiment();
    SweepCell a = mixSweepCell(0, exp.numCores);
    a.mitigation = MitigationKind::Rrs;
    SweepCell b = mixSweepCell(1, exp.numCores);
    b.workload.name = a.workload.name; // same label, other profiles
    b.mitigation = MitigationKind::ScaleSrs;
    SweepRunner runner(exp, 2);
    EXPECT_THROW(runner.run({a, b}), FatalError);

    SweepCell c = mixSweepCell(0, exp.numCores + 1);
    SweepRunner runner2(exp, 2);
    EXPECT_THROW(runner2.run({c}), FatalError);
}

TEST(SweepCsv, HeaderAndRowShape)
{
    SweepResult r;
    r.cell.workload = WorkloadSpec::synthetic("gups");
    r.cell.mitigation = MitigationKind::Rrs;
    r.cell.trh = 1200;
    r.cell.swapRate = 6;
    r.seed = 0x1234;
    r.run.aggregateIpc = 1.5;
    r.baselineIpc = 2.0;
    r.normalized = 0.75;
    r.run.p50Lat = 31;
    r.run.p99Lat = 95;
    r.run.p999Lat = 127;
    r.run.latSamples = 4242;
    std::ostringstream os;
    SweepRunner::writeCsv(os, {r});
    const std::string csv = os.str();
    EXPECT_NE(csv.find("index,workload_spec,mitigation,tracker,trh,"
                       "rate,axes,seed,"),
              std::string::npos);
    // Schema v6: the Monte-Carlo confidence columns close the
    // header; performance cells write zeros there.
    EXPECT_NE(csv.find(",p50_lat,p99_lat,p999_lat,lat_samples,"
                       "iterations,censored,p_break,ci_lo,ci_hi\n"),
              std::string::npos);
    EXPECT_NE(csv.find("0,gups,rrs,misra-gries,1200,6,closed,"),
              std::string::npos);
    EXPECT_NE(csv.find("0.750000"), std::string::npos);
    EXPECT_NE(csv.find(",31,95,127,4242,0,0,0,0,0\n"),
              std::string::npos);
    // Every data row carries exactly kRowColumns comma-separated
    // fields.
    const std::string row = csv.substr(csv.find('\n') + 1);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(row.begin(), row.end(), ',')),
              SweepRunner::kRowColumns - 1);
}

TEST(WorkloadSpecApi, ParseRoundTripsSyntheticAndTraceSpellings)
{
    const WorkloadSpec synth = WorkloadSpec::parse("gcc", 8);
    EXPECT_EQ(synth.kind, WorkloadKind::Synthetic);
    EXPECT_EQ(synth.label(), "gcc");

    const WorkloadSpec one = WorkloadSpec::parse("trace:/tmp/a.usimm", 8);
    EXPECT_EQ(one.kind, WorkloadKind::TraceFile);
    ASSERT_EQ(one.tracePaths.size(), 1u);
    EXPECT_EQ(one.label(), "trace:/tmp/a.usimm");
    EXPECT_EQ(WorkloadSpec::parse(one.label(), 8), one);

    // Per-core path lists round-trip through the ';' spelling.
    std::string perCore = "trace:";
    for (int c = 0; c < 8; ++c) {
        if (c > 0)
            perCore += ';';
        perCore += "/t/c";
        perCore += std::to_string(c);
    }
    const WorkloadSpec spec = WorkloadSpec::parse(perCore, 8);
    EXPECT_EQ(spec.tracePaths.size(), 8u);
    EXPECT_EQ(spec.label(), perCore);
    EXPECT_EQ(WorkloadSpec::parse(spec.label(), 8), spec);

    // Generator spellings parse into the Generator kind and
    // round-trip through their canonical label.
    const WorkloadSpec gen =
        WorkloadSpec::parse("blend:hotspot:512@hot=0.25@p=0.8"
                            "@shift=50000+attack@0.1", 8);
    EXPECT_EQ(gen.kind, WorkloadKind::Generator);
    EXPECT_EQ(gen.label(),
              "blend:hotspot:512@hot=0.25@p=0.8@shift=50000"
              "+attack@0.1");
    EXPECT_EQ(WorkloadSpec::parse(gen.label(), 8), gen);
}

TEST(WorkloadSpecApi, MalformedTraceSpellingsAreFatal)
{
    // No path at all.
    EXPECT_THROW(WorkloadSpec::parse("trace:", 8), FatalError);
    // Wrong per-core count (neither 1 nor cores).
    EXPECT_THROW(WorkloadSpec::parse("trace:/a;/b;/c", 8), FatalError);
    // Characters the CSV/manifest spelling cannot carry (';' would
    // make a single path re-parse as a per-core list).
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a,b.usimm"}),
                 FatalError);
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a;b.usimm"}),
                 FatalError);
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a b.usimm"}),
                 FatalError);
    EXPECT_THROW(WorkloadSpec::traceFiles({"/tmp/a#b.usimm"}),
                 FatalError);
}

TEST(SystemAxesApi, FieldRoundTripsAndRejectsUnknownSpellings)
{
    SystemAxes axes;
    EXPECT_EQ(axes.field(), "closed");
    axes.pagePolicy = PagePolicy::Open;
    EXPECT_EQ(axes.field(), "open");
    axes.tRcNs = 48;
    EXPECT_EQ(axes.field(), "open@trc=48");
    EXPECT_EQ(SystemAxes::parse("open@trc=48"), axes);
    EXPECT_EQ(SystemAxes::parse("closed"), SystemAxes{});

    EXPECT_THROW(pagePolicyFromName("half-open"), FatalError);
    EXPECT_THROW(SystemAxes::parse("open@tras=30"), FatalError);
    EXPECT_THROW(SystemAxes::parse("open@trc=zero"), FatalError);
}

TEST(SystemAxesApi, PresetAndTimingKnobSpellingsRoundTrip)
{
    // The DDR5 preset chains right after the policy; overridden
    // knobs follow in the canonical trc, trcd, trp, trefi, trfc
    // order.  parse() is the exact inverse of field().
    SystemAxes axes;
    axes.pagePolicy = PagePolicy::Open;
    axes.preset = DramPreset::Ddr5;
    EXPECT_EQ(axes.field(), "open@ddr5");
    EXPECT_EQ(SystemAxes::parse("open@ddr5"), axes);

    axes.tRefiNs = 3900;
    EXPECT_EQ(axes.field(), "open@ddr5@trefi=3900");
    EXPECT_EQ(SystemAxes::parse("open@ddr5@trefi=3900"), axes);

    axes.tRcNs = 48;
    axes.tRcdNs = 15;
    axes.tRpNs = 15;
    axes.tRfcNs = 295;
    EXPECT_EQ(axes.field(),
              "open@ddr5@trc=48@trcd=15@trp=15@trefi=3900@trfc=295");
    EXPECT_EQ(SystemAxes::parse(axes.field()), axes);

    // ddr4 is accepted as an explicit preset but never emitted (it
    // is the default): parse canonicalizes it away.
    EXPECT_EQ(SystemAxes::parse("closed@ddr4"), SystemAxes{});
    EXPECT_EQ(SystemAxes::parse("closed@ddr4").field(), "closed");
}

TEST(SystemAxesApi, MalformedOrInconsistentSpellingsAreFatal)
{
    // Out-of-order, repeated, or misplaced suffixes are rejected —
    // canonical order is what makes parse/field exact inverses.
    EXPECT_THROW(SystemAxes::parse("open@trefi=3900@trc=48"),
                 FatalError);
    EXPECT_THROW(SystemAxes::parse("open@trc=48@trc=50"), FatalError);
    EXPECT_THROW(SystemAxes::parse("open@trc=48@ddr5"), FatalError);
    EXPECT_THROW(SystemAxes::parse("open@ddr3"), FatalError);
    EXPECT_THROW(SystemAxes::parse("open@trefi=0"), FatalError);
    EXPECT_THROW(SystemAxes::parse("open@trefi=200000"), FatalError);
    EXPECT_THROW(SystemAxes::parse("open@trc=20000"), FatalError);
    // tREFI's bound is per-knob: relaxed-refresh points above the
    // 10 us row-timing cap (e.g. 2x DDR4 tREFI) stay spellable.
    EXPECT_EQ(SystemAxes::parse("open@trefi=15600").tRefiNs, 15600u);

    // Inconsistent timings: a tRC smaller than tRCD + tRP cannot
    // describe a real row cycle.
    EXPECT_THROW(SystemAxes::parse("closed@trc=20"), FatalError);
    SystemAxes inconsistent;
    inconsistent.tRcNs = 40;
    inconsistent.tRcdNs = 30;
    inconsistent.tRpNs = 20;
    EXPECT_THROW(inconsistent.validate(), FatalError);

    // Every axes fatal names the accepted spellings and the
    // offending input verbatim.
    try {
        SystemAxes::parse("open@trefi=3900@trc=48");
        FAIL() << "out-of-order suffix was not rejected";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("open@trefi=3900@trc=48"),
                  std::string::npos) << msg;
        EXPECT_NE(msg.find("closed|open"), std::string::npos) << msg;
        EXPECT_NE(msg.find("@trefi=NS"), std::string::npos) << msg;
    }
}

TEST(SystemAxesApi, Ddr5PresetAppliesTheDdr5TimingClass)
{
    SystemAxes axes;
    axes.preset = DramPreset::Ddr5;
    SystemConfig cfg;
    const double ddr4Refi = cfg.timingNs.tREFI;
    axes.apply(cfg);
    EXPECT_DOUBLE_EQ(cfg.timingNs.tREFI, ddr4Refi / 2.0);
    EXPECT_DOUBLE_EQ(cfg.timingNs.tRFC, DramTimingNs::ddr5().tRFC);
    // An override layered on the preset wins over its default.
    axes.tRefiNs = 5000;
    axes.apply(cfg);
    EXPECT_DOUBLE_EQ(cfg.timingNs.tREFI, 5000.0);
    // tRAS is re-derived from the effective tRC and tRP.
    EXPECT_DOUBLE_EQ(cfg.timingNs.tRAS,
                     cfg.timingNs.tRC - cfg.timingNs.tRP);
}

TEST(SweepAxes, GridExpandsAxesBetweenWorkloadAndMitigation)
{
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups"),
                      WorkloadSpec::synthetic("gcc")};
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.tRcOverrides = {0, 48};
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 16u);
    ASSERT_EQ(grid.innerCells(), 8u);

    // Axes sit between the workload (outermost) and the mitigation:
    // page policy outermost of the pair, tRC override inner.
    EXPECT_EQ(cells[0].axes.field(), "closed");
    EXPECT_EQ(cells[0].mitigation, MitigationKind::Rrs);
    EXPECT_EQ(cells[1].mitigation, MitigationKind::ScaleSrs);
    EXPECT_EQ(cells[2].axes.field(), "closed@trc=48");
    EXPECT_EQ(cells[4].axes.field(), "open");
    EXPECT_EQ(cells[6].axes.field(), "open@trc=48");
    // The whole axes block repeats for the next workload.
    EXPECT_EQ(cells[8].workload.label(), "gcc");
    EXPECT_EQ(cells[8].axes.field(), "closed");
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(cells[i].workload.label(), "gups") << "cell " << i;
}

TEST(SweepAxes, PresetAndOverrideAxesCrossInDeclarationOrder)
{
    // Policy outermost, then preset, then the five timing overrides
    // (trc, trcd, trp, trefi, trfc) innermost-last.
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups")};
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.tRefiOverrides = {0, 3900};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    ASSERT_EQ(grid.innerCells(), 8u);
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].axes.field(), "closed");
    EXPECT_EQ(cells[1].axes.field(), "closed@trefi=3900");
    EXPECT_EQ(cells[2].axes.field(), "closed@ddr5");
    EXPECT_EQ(cells[3].axes.field(), "closed@ddr5@trefi=3900");
    EXPECT_EQ(cells[4].axes.field(), "open");
    EXPECT_EQ(cells[7].axes.field(), "open@ddr5@trefi=3900");

    // An inconsistent override combination is fatal at expansion,
    // before any simulation starts.
    SweepGrid bad = grid;
    bad.tRcOverrides = {20}; // < tRCD + tRP
    EXPECT_THROW(bad.expand(), FatalError);
}

TEST(SweepAxes, OrgAxisCrossesBetweenPresetAndTimingOverrides)
{
    // The canonical suffix order is also the expansion order:
    // policy, then preset, then org, then the timing overrides.
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gups")};
    grid.presets = {DramPreset::Ddr4, DramPreset::Ddr5};
    grid.orgs = {"2x1x16", "4x2x32"};
    grid.tRefiOverrides = {0, 3900};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {3};
    ASSERT_EQ(grid.innerCells(), 8u);
    const std::vector<SweepCell> cells = grid.expand();
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].axes.field(), "closed");
    EXPECT_EQ(cells[1].axes.field(), "closed@trefi=3900");
    EXPECT_EQ(cells[2].axes.field(), "closed@org=4x2x32");
    EXPECT_EQ(cells[3].axes.field(),
              "closed@org=4x2x32@trefi=3900");
    EXPECT_EQ(cells[4].axes.field(), "closed@ddr5");
    EXPECT_EQ(cells[6].axes.field(), "closed@ddr5@org=4x2x32");
    EXPECT_EQ(cells[7].axes.field(),
              "closed@ddr5@org=4x2x32@trefi=3900");

    // A malformed org spelling is fatal at expansion, before any
    // simulation starts, naming the input verbatim.
    SweepGrid bad = grid;
    bad.orgs = {"2x2"};
    try {
        bad.expand();
        FAIL() << "malformed org was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("2x2"),
                  std::string::npos)
            << err.what();
        EXPECT_NE(std::string(err.what()).find("CxRxB"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SweepAxes, EachOrgVariantNormalizesAgainstItsOwnBaseline)
{
    // Organization variants of the same workload share a trace seed
    // but not a baseline: a 4-channel cell normalizes against the
    // unprotected 4-channel run, never the default-org one.
    std::vector<SweepCell> cells(2);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    cells[1] = cells[0];
    dramOrgFromName("4x2x32", cells[1].axes);
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
    EXPECT_DOUBLE_EQ(results[1].normalized, 1.0);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[1].baselineIpc, 0.0);
    EXPECT_EQ(results[0].seed, results[1].seed);
}

TEST(SweepAxes, EachPresetVariantNormalizesAgainstItsOwnBaseline)
{
    // DDR4 and DDR5 cells of the same workload share a seed but not
    // a baseline: each normalizes against the unprotected run of
    // its own preset.
    std::vector<SweepCell> cells(2);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    cells[1] = cells[0];
    cells[1].axes.preset = DramPreset::Ddr5;
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
    EXPECT_DOUBLE_EQ(results[1].normalized, 1.0);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[1].baselineIpc, 0.0);
    EXPECT_EQ(results[0].seed, results[1].seed);
}

TEST(SweepAxes, EachAxesVariantNormalizesAgainstItsOwnBaseline)
{
    // An unprotected cell is its own baseline, per axes variant: both
    // normalize to exactly 1.0 even though the two baselines differ.
    std::vector<SweepCell> cells(2);
    cells[0].workload = WorkloadSpec::synthetic("gups");
    cells[0].mitigation = MitigationKind::None;
    cells[1] = cells[0];
    cells[1].axes.pagePolicy = PagePolicy::Open;
    SweepRunner runner(tinyExperiment(), 2);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_DOUBLE_EQ(results[0].normalized, 1.0);
    EXPECT_DOUBLE_EQ(results[1].normalized, 1.0);
    EXPECT_GT(results[0].baselineIpc, 0.0);
    EXPECT_GT(results[1].baselineIpc, 0.0);
    // Same seed on both variants: the trace replays identically, so
    // only the machine differs.
    EXPECT_EQ(results[0].seed, results[1].seed);
}

TEST(SweepTrace, TraceCellsAreThreadCountInvariant)
{
    const test::TraceFixture fx("srs_sweep_trace.usimm", "gups",
                                4000);
    SweepGrid grid;
    grid.workloads = {WorkloadSpec::synthetic("gcc"),
                      WorkloadSpec::parse("trace:" + fx.path, 8)};
    grid.pagePolicies = {PagePolicy::Closed, PagePolicy::Open};
    grid.mitigations = {MitigationKind::Rrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();
    EXPECT_EQ(sweepCsv(cells, 1), sweepCsv(cells, 8));

    SweepRunner runner(tinyExperiment(), 4);
    const std::vector<SweepResult> results = runner.run(cells);
    for (const SweepResult &r : results) {
        EXPECT_GT(r.run.aggregateIpc, 0.0);
        EXPECT_GT(r.baselineIpc, 0.0);
    }
}

TEST(SweepTrace, WrongPerCoreTraceCountOrMissingFileIsFatal)
{
    const ExperimentConfig exp = tinyExperiment();
    std::vector<SweepCell> cells(1);
    cells[0].workload =
        WorkloadSpec::traceFiles({"/a", "/b", "/c"}); // not 1 or 8
    SweepRunner runner(exp, 2);
    EXPECT_THROW(runner.run(cells), FatalError);

    cells[0].workload =
        WorkloadSpec::traceFiles({"/nonexistent/trace.usimm"});
    SweepRunner runner2(exp, 2);
    EXPECT_THROW(runner2.run(cells), FatalError);
}

TEST(SweepResume, SchemaV1FilesAreRejectedWithAVersionedError)
{
    const std::vector<SweepCell> cells = resumeTestCells();

    // A v1 CSV (header names no workload_spec/policy columns).
    const std::string v1Header =
        "index,workload,mitigation,tracker,trh,rate,seed,ipc,"
        "baseline_ipc,normalized,swaps,unswap_swaps,place_backs,"
        "rows_pinned,max_row_acts\n";
    const std::string headerPath =
        writeTempFile("sweep_v1_header.csv", v1Header);
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(headerPath);
    try {
        runner.run(cells);
        FAIL() << "v1 CSV header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("schema v1"),
                  std::string::npos)
            << err.what();
    }

    // A v1 journal (no header, 15-column rows with the seed in
    // column 7) must fail the same way, not recompute silently.
    const std::string v1Row =
        "0,gups,rrs,misra-gries,1200,3,0x1234567890abcdef,1.0,2.0,"
        "0.5,1,2,3,4,5\n";
    const std::string rowPath =
        writeTempFile("sweep_v1_journal", v1Row);
    SweepRunner journalRunner(tinyExperiment(), 2);
    journalRunner.setResume(rowPath);
    try {
        journalRunner.run(cells);
        FAIL() << "v1 journal row was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("schema v1"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SweepResume, SchemaV2FilesAreRejectedWithAVersionedError)
{
    // A v2 CSV names its 7th identity column `policy`; v3 renamed
    // it to `axes` when the DRAM preset/timing knobs joined the
    // axis.  Resuming from a v2 file must fail naming schema v2.
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string v2Header =
        "index,workload_spec,mitigation,tracker,trh,rate,policy,"
        "seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,"
        "place_backs,rows_pinned,max_row_acts\n";
    const std::string path =
        writeTempFile("sweep_v2_header.csv", v2Header);
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    try {
        runner.run(cells);
        FAIL() << "v2 CSV header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("schema v2"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SweepResume, SchemaV3FilesAreRejectedWithAVersionedError)
{
    // A v3 CSV has the axes column but no tail-latency percentile
    // columns; v4 appended p50_lat/p99_lat/p999_lat.  Resuming from
    // a v3 file must fail naming schema v3, both via its header and
    // via a headerless journal row.
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string v3Header =
        "index,workload_spec,mitigation,tracker,trh,rate,axes,"
        "seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,"
        "place_backs,rows_pinned,max_row_acts\n";
    const std::string path =
        writeTempFile("sweep_v3_header.csv", v3Header);
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    try {
        runner.run(cells);
        FAIL() << "v3 CSV header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("schema v3"),
                  std::string::npos)
            << err.what();
    }

    // A v3 journal row: 16 fields, 0x-seed in column 8.
    const std::string v3Row =
        "0,gups,rrs,misra-gries,1200,3,closed,0x1234567890abcdef,"
        "1.0,2.0,0.5,1,2,3,4,5\n";
    const std::string rowPath =
        writeTempFile("sweep_v3_journal", v3Row);
    SweepRunner journalRunner(tinyExperiment(), 2);
    journalRunner.setResume(rowPath);
    try {
        journalRunner.run(cells);
        FAIL() << "v3 journal row was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("v3"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SweepResume, SchemaV4FilesAreRejectedWithAVersionedError)
{
    // A v4 CSV has the tail-latency percentile columns but no
    // lat_samples count; v5 appended it alongside the
    // DRAM-organization axis.  Resuming from a v4 file must fail
    // naming schema v4, both via its header and via a headerless
    // journal row.
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string v4Header =
        "index,workload_spec,mitigation,tracker,trh,rate,axes,"
        "seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,"
        "place_backs,rows_pinned,max_row_acts,p50_lat,p99_lat,"
        "p999_lat\n";
    const std::string path =
        writeTempFile("sweep_v4_header.csv", v4Header);
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    try {
        runner.run(cells);
        FAIL() << "v4 CSV header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("schema v4"),
                  std::string::npos)
            << err.what();
    }

    // A v4 journal row: 19 fields, 0x-seed in column 8.
    const std::string v4Row =
        "0,gups,rrs,misra-gries,1200,3,closed,0x1234567890abcdef,"
        "1.0,2.0,0.5,1,2,3,4,5,31,95,127\n";
    const std::string rowPath =
        writeTempFile("sweep_v4_journal", v4Row);
    SweepRunner journalRunner(tinyExperiment(), 2);
    journalRunner.setResume(rowPath);
    try {
        journalRunner.run(cells);
        FAIL() << "v4 journal row was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("v4"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SweepResume, SchemaV5FilesAreRejectedWithAVersionedError)
{
    // A v5 CSV has the lat_samples count but none of the v6
    // iterations/censored/p_break/ci_lo/ci_hi Monte-Carlo
    // confidence columns.  Resuming from a v5 file must fail naming
    // schema v5, both via its header and via a headerless journal
    // row.
    const std::vector<SweepCell> cells = resumeTestCells();
    const std::string v5Header =
        "index,workload_spec,mitigation,tracker,trh,rate,axes,"
        "seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,"
        "place_backs,rows_pinned,max_row_acts,p50_lat,p99_lat,"
        "p999_lat,lat_samples\n";
    const std::string path =
        writeTempFile("sweep_v5_header.csv", v5Header);
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    try {
        runner.run(cells);
        FAIL() << "v5 CSV header was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("schema v5"),
                  std::string::npos)
            << err.what();
    }

    // A v5 journal row: 20 fields, 0x-seed in column 8.
    const std::string v5Row =
        "0,gups,rrs,misra-gries,1200,3,closed,0x1234567890abcdef,"
        "1.0,2.0,0.5,1,2,3,4,5,31,95,127,4242\n";
    const std::string rowPath =
        writeTempFile("sweep_v5_journal", v5Row);
    SweepRunner journalRunner(tinyExperiment(), 2);
    journalRunner.setResume(rowPath);
    try {
        journalRunner.run(cells);
        FAIL() << "v5 journal row was not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("v5"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SweepGenerator, ZipfAndBlendCellsAreThreadCountInvariant)
{
    // Generator-backed cells derive their per-cell seed from the
    // canonical label like every other workload, so a zipf and a
    // blend cell must produce byte-identical CSV at any worker
    // count — the invariance the orchestrator's shard split relies
    // on.
    SweepGrid grid;
    grid.workloads = {
        WorkloadSpec::parse("zipf:4096@s=0.99", 8),
        WorkloadSpec::parse("blend:zipf:4096@s=0.9+attack@0.05", 8),
    };
    grid.mitigations = {MitigationKind::Rrs, MitigationKind::None};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();
    const std::string csv1 = sweepCsv(cells, 1);
    EXPECT_EQ(csv1, sweepCsv(cells, 8));
    // The identity column carries the canonical spellings, and the
    // percentile columns are live (nonzero for a read-heavy stream).
    EXPECT_NE(csv1.find(",zipf:4096@s=0.99,"), std::string::npos);
    EXPECT_NE(csv1.find(",blend:zipf:4096@s=0.9+attack@0.05,"),
              std::string::npos);

    SweepRunner runner(tinyExperiment(), 4);
    const std::vector<SweepResult> results = runner.run(cells);
    for (const SweepResult &r : results) {
        EXPECT_GT(r.run.aggregateIpc, 0.0);
        EXPECT_GT(r.run.readLatency.total(), 0u);
        EXPECT_GT(r.run.p50Lat, 0u);
        EXPECT_GE(r.run.p99Lat, r.run.p50Lat);
        EXPECT_GE(r.run.p999Lat, r.run.p99Lat);
    }
}

TEST(SweepGenerator, ResumedGeneratorCellsReplayByteIdentical)
{
    // A truncated generator sweep resumes to the uninterrupted
    // bytes: parsed-back identity must validate against the
    // generator labels, and recomputed cells reproduce the same
    // percentiles.
    SweepGrid grid;
    grid.workloads = {
        WorkloadSpec::parse("hotspot:1024@hot=0.1@p=0.9", 8),
        WorkloadSpec::parse("zipf:2048@s=1.2", 8),
    };
    grid.mitigations = {MitigationKind::ScaleSrs};
    grid.trhs = {1200};
    grid.swapRates = {6};
    const std::vector<SweepCell> cells = grid.expand();
    const std::string full = sweepCsv(cells, 2);

    std::istringstream in(full);
    std::string line, partial;
    for (int i = 0; i < 2 && std::getline(in, line); ++i)
        partial += line + "\n";
    const std::string path =
        writeTempFile("sweep_generator_resume.csv", partial);
    SweepRunner runner(tinyExperiment(), 2);
    runner.setResume(path);
    const std::vector<SweepResult> results = runner.run(cells);
    EXPECT_FALSE(results[0].resumedRow.empty());
    std::ostringstream os;
    SweepRunner::writeCsv(os, results);
    EXPECT_EQ(os.str(), full);
}

TEST(SweepNames, MitigationAndTrackerRoundTrip)
{
    for (const MitigationKind kind :
         {MitigationKind::Rrs, MitigationKind::RrsNoUnswap,
          MitigationKind::Srs, MitigationKind::ScaleSrs,
          MitigationKind::BlockHammer, MitigationKind::Aqua}) {
        EXPECT_EQ(mitigationKindFromName(mitigationKindName(kind)),
                  kind);
    }
    for (const TrackerKind kind :
         {TrackerKind::MisraGries, TrackerKind::Hydra, TrackerKind::Cbt,
          TrackerKind::TwiCe}) {
        EXPECT_EQ(trackerKindFromName(trackerKindName(kind)), kind);
    }
    for (const DramPreset preset :
         {DramPreset::Ddr4, DramPreset::Ddr5}) {
        EXPECT_EQ(dramPresetFromName(dramPresetName(preset)), preset);
    }
    EXPECT_THROW(mitigationKindFromName("bogus"), FatalError);
    EXPECT_THROW(trackerKindFromName("bogus"), FatalError);
    EXPECT_THROW(dramPresetFromName("ddr6"), FatalError);
}

} // namespace
} // namespace srs
