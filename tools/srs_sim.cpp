/**
 * @file
 * srs_sim — the command-line front-end of the library.
 *
 * Subcommands:
 *
 *   perf     run one workload under one defense and print IPC and
 *            normalized performance (optionally as CSV):
 *              srs_sim perf --workload=gcc --mitigation=scale-srs
 *                      --trh=1200 --rate=3 [--tracker=misra-gries]
 *                      [--cycles=N] [--epoch=N] [--csv]
 *
 *   attack   evaluate the Juggernaut analytical model (and optional
 *            Monte-Carlo validation, batched across a thread pool)
 *            for one configuration:
 *              srs_sim attack --defense=rrs --trh=4800 --rate=6
 *                      [--rounds=N|best] [--open-page] [--banks=B]
 *                      [--montecarlo=ITERS] [--shards=S]
 *                      [--threads=N]
 *
 *   security run the attack models (analytic + optional Monte-Carlo
 *            campaigns) over the same system axes as `sweep` and
 *            emit one schema-v6 CSV row per (axes, defense, trh,
 *            rate[, rounds]) cell — AttackParams are derived from
 *            the axes via attackParamsFromAxes(), never hand-rolled:
 *              srs_sim security --defenses=srs,rrs --trh=4800
 *                      --rates=6 [--rounds=best|N,…]
 *                      [--page-policy=A,B] [--preset=ddr4,ddr5]
 *                      [--org=CxRxB,…] [--trc=NS,…] [--trcd=NS,…]
 *                      [--trp=NS,…] [--trefi=NS,…] [--trfc=NS,…]
 *                      [--montecarlo=ITERS] [--epoch-loop-limit=N]
 *                      [--seed=S] [--threads=N] [--out=FILE]
 *
 *   storage  print the Table IV storage breakdown:
 *              srs_sim storage --trh=1200
 *
 *   trace    export a synthetic workload as a USIMM trace file:
 *              srs_sim trace --workload=gups --records=100000
 *                      --out=gups.usimm
 *
 *   sweep    run a (workload x system-axes x mitigation x TRH x
 *            rate) grid across a thread pool and emit one CSV row
 *            per cell:
 *              srs_sim sweep --workloads=gups,gcc
 *                      --mitigations=rrs,scale-srs --trh=1200,2400
 *                      --rates=3,6 [--tracker=misra-gries]
 *                      [--trace=FILE[;FILE…]] [--page-policy=A,B]
 *                      [--preset=ddr4,ddr5] [--org=CxRxB,…]
 *                      [--trc=NS,…]
 *                      [--trcd=NS,…] [--trp=NS,…] [--trefi=NS,…]
 *                      [--trfc=NS,…] [--mix=N] [--mix-base=K]
 *                      [--threads=N] [--cycles=N] [--epoch=N]
 *                      [--seed=S] [--out=FILE] [--resume=FILE]
 *                      [--journal=FILE]
 *            --workloads=all sweeps every built-in profile; items
 *            spelled trace:<path>[;<path>…] (or the --trace
 *            shorthand) replay recorded USIMM trace files — one
 *            path for every core, or one per core; items spelled
 *            zipf:<rows>@s=<skew>,
 *            hotspot:<rows>@hot=<frac>@p=<prob>[@shift=<cycles>] or
 *            blend:<spec>+attack@<rate> run generator-backed skewed
 *            multi-tenant streams (Zipf row popularity, migrating
 *            hot sets, victim traffic with an embedded hammer
 *            stream — trace/generators.hh has the grammar); --mix=N
 *            appends N MIX points (per-core profile draws, starting
 *            at mix<K>) to the workload axis; --page-policy,
 *            --preset, --org (channels x ranks x banks-per-rank
 *            DRAM organizations, e.g. 2x1x16) and the
 *            --trc/--trcd/--trp/--trefi/--trfc
 *            override lists sweep the system axes (closed|open page
 *            management, ddr4|ddr5 timing preset, per-knob ns
 *            overrides, 0 = the preset's default), applied to
 *            protected and baseline runs alike.  Every row ends
 *            with the p50_lat/p99_lat/p999_lat read-latency
 *            percentile columns, the lat_samples count and the
 *            Monte-Carlo confidence columns (zeros for
 *            performance cells; schema v6).  CSV goes to stdout
 *            unless --out is given.  Output is ordered by cell
 *            (workloads outermost, then page policy, preset, org,
 *            the timing overrides, mitigations, trhs,
 *            rates innermost) and is byte-identical for any
 *            --threads value (cells run in parallel; each cell is
 *            one serial cycle-by-cycle simulation).
 *            Completed cells stream to a journal
 *            (default <out>.journal; --journal=none disables), and
 *            --resume=FILE skips cells already recorded in a
 *            previous journal or (possibly truncated) sweep CSV —
 *            the resumed output is byte-identical to a fresh run.
 *
 *   orchestrate
 *            split a sweep grid into balanced shards, run each as a
 *            supervised `srs_sim sweep` child process (restarting
 *            killed shards from their journals), and stitch the
 *            shard CSVs into one merged CSV that is byte-identical
 *            to a single-process sweep of the same grid.  Takes the
 *            sweep grid flags plus [--shards=S] [--jobs=J]
 *            [--threads=N per shard] [--retries=R] [--dir=DIR]
 *            [--sim=PATH] [--out=FILE]; --plan writes the manifest
 *            and prints the per-shard commands (for dispatch to
 *            other machines) without launching anything.
 *
 *   merge    stitch-only: validate the shard CSVs named by an
 *            orchestration manifest (written by `orchestrate`, or
 *            by hand for shards run on other machines) and emit the
 *            merged CSV:
 *              srs_sim merge --manifest=DIR/manifest [--out=FILE]
 *
 *   farm     run a planned orchestration (`orchestrate --plan`)
 *            across a fleet described by a hostfile — local job
 *            slots and/or ssh hosts — supervising every shard
 *            through its checkpoint journal, restarting or
 *            rebalancing crashed/stalled shards, and stitching the
 *            same byte-identical merged CSV:
 *              srs_sim farm --manifest=DIR/manifest
 *                      --hosts=hosts.conf [--retries=R]
 *                      [--threads=N per shard] [--poll-ms=MS]
 *                      [--stale-sec=S] [--status-file=FILE]
 *                      [--sim=PATH] [--out=FILE]
 *
 *   monitor  report live fleet progress by reading the shard
 *            journals (and the farm status file, when present) —
 *            no channel to the dispatcher needed:
 *              srs_sim monitor --dir=DIR | --manifest=FILE
 *                      [--watch] [--interval-ms=MS]
 *
 *   list     list the built-in workload profiles.
 *
 * All subcommands validate unknown flags (a typo is a fatal error,
 * not a silently ignored knob).  docs/sweep-format.md specs the CSV,
 * journal and manifest formats; docs/ARCHITECTURE.md maps the
 * library layers underneath.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/thread_pool.hh"
#include "farm/dispatcher.hh"
#include "farm/hostfile.hh"
#include "farm/progress.hh"
#include "security/attack_model.hh"
#include "security/monte_carlo.hh"
#include "security/security_sweep.hh"
#include "security/storage_model.hh"
#include "sim/experiment.hh"
#include "sim/orchestrator.hh"
#include "sim/sweep.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace srs;

int
cmdPerf(const Options &opts)
{
    const std::string workload = opts.getString("workload", "gcc");
    const std::string defense = opts.getString("mitigation", "scale-srs");
    const std::uint32_t trh =
        static_cast<std::uint32_t>(opts.getUint("trh", 1200));
    const std::uint32_t rate =
        static_cast<std::uint32_t>(opts.getUint("rate", 3));
    const TrackerKind tracker =
        trackerKindFromName(opts.getString("tracker", "misra-gries"));
    ExperimentConfig exp;
    exp.cycles = opts.getUint("cycles", 1'500'000);
    exp.epochLen = opts.getUint("epoch", exp.cycles / 2);
    const bool csv = opts.getBool("csv", false);
    opts.rejectUnknown();

    const WorkloadProfile &profile = profileByName(workload);
    const MitigationKind kind = mitigationKindFromName(defense);

    const SystemConfig baseCfg =
        makeSystemConfig(exp, MitigationKind::None, trh, rate, tracker);
    const double baseIpc =
        runWorkload(baseCfg, profile, exp).aggregateIpc;
    const SystemConfig cfg =
        makeSystemConfig(exp, kind, trh, rate, tracker);
    const RunResult res = runWorkload(cfg, profile, exp);
    const double norm = baseIpc > 0.0 ? res.aggregateIpc / baseIpc : 1.0;

    if (csv) {
        std::printf("workload,mitigation,trh,rate,ipc,baseline_ipc,"
                    "normalized,swaps,unswap_swaps,place_backs\n");
        std::printf("%s,%s,%u,%u,%.4f,%.4f,%.4f,%llu,%llu,%llu\n",
                    workload.c_str(), defense.c_str(), trh, rate,
                    res.aggregateIpc, baseIpc, norm,
                    static_cast<unsigned long long>(res.swaps),
                    static_cast<unsigned long long>(res.unswapSwaps),
                    static_cast<unsigned long long>(res.placeBacks));
    } else {
        std::printf("workload %s under %s (T_RH %u, rate %u)\n",
                    workload.c_str(), defense.c_str(), trh, rate);
        std::printf("  ipc        %.4f (baseline %.4f)\n",
                    res.aggregateIpc, baseIpc);
        std::printf("  normalized %.4f\n", norm);
        std::printf("  swaps %llu  unswap-swaps %llu  place-backs "
                    "%llu  pinned %llu\n",
                    static_cast<unsigned long long>(res.swaps),
                    static_cast<unsigned long long>(res.unswapSwaps),
                    static_cast<unsigned long long>(res.placeBacks),
                    static_cast<unsigned long long>(res.rowsPinned));
    }
    return 0;
}

/**
 * Parse the sweep grid + experiment flags shared by `sweep` and
 * `orchestrate` (--workloads/--trace/--mitigations/--page-policy/
 * --preset/--org/--trc/--trcd/--trp/--trefi/--trfc/--trh/--rates/
 * --tracker/--mix/--mix-base/--cycles/--epoch/--seed); fatal() on
 * an empty grid, a malformed org, or inconsistent timing axes.
 */
void
parseGridFlags(const Options &opts, SweepGrid &grid,
               ExperimentConfig &exp)
{
    exp.cycles = opts.getUint("cycles", 1'500'000);
    exp.epochLen = opts.getUint("epoch", exp.cycles / 2);
    exp.seed = opts.getUint("seed", exp.seed);

    const std::string workloads = opts.getString("workloads", "gcc");
    if (workloads == "all") {
        for (const WorkloadProfile &p : allProfiles())
            grid.workloads.push_back(WorkloadSpec::synthetic(p.name));
    } else {
        grid.workloads = splitSpecList(workloads, exp.numCores);
    }
    // --trace=SPEC[,SPEC…] appends trace-file workloads; each SPEC is
    // a path (all cores) or a ';'-separated per-core path list —
    // shorthand for trace:SPEC inside --workloads.
    for (const std::string &spec :
         splitList(opts.getString("trace", ""))) {
        grid.workloads.push_back(
            WorkloadSpec::parse("trace:" + spec, exp.numCores));
    }
    for (const std::string &m :
         splitList(opts.getString("mitigations", "scale-srs")))
        grid.mitigations.push_back(mitigationKindFromName(m));
    grid.pagePolicies.clear();
    for (const std::string &p :
         splitList(opts.getString("page-policy", "closed")))
        grid.pagePolicies.push_back(pagePolicyFromName(p));
    grid.presets.clear();
    for (const std::string &p :
         splitList(opts.getString("preset", "ddr4")))
        grid.presets.push_back(dramPresetFromName(p));
    grid.orgs = splitList(opts.getString("org", "2x1x16"));
    grid.tRcOverrides =
        splitUint32List(opts.getString("trc", "0"), "--trc");
    grid.tRcdOverrides =
        splitUint32List(opts.getString("trcd", "0"), "--trcd");
    grid.tRpOverrides =
        splitUint32List(opts.getString("trp", "0"), "--trp");
    grid.tRefiOverrides =
        splitUint32List(opts.getString("trefi", "0"), "--trefi");
    grid.tRfcOverrides =
        splitUint32List(opts.getString("trfc", "0"), "--trfc");
    grid.trhs =
        splitUint32List(opts.getString("trh", "1200"), "--trh");
    grid.swapRates =
        splitUint32List(opts.getString("rates", "3"), "--rates");
    grid.tracker =
        trackerKindFromName(opts.getString("tracker", "misra-gries"));

    grid.mixCount =
        static_cast<std::uint32_t>(opts.getUint("mix", 0));
    grid.mixBase =
        static_cast<std::uint32_t>(opts.getUint("mix-base", 0));
    grid.mixCores = exp.numCores;

    if ((grid.workloads.empty() && grid.mixCount == 0)
        || grid.mitigations.empty() || grid.pagePolicies.empty()
        || grid.presets.empty() || grid.orgs.empty()
        || grid.tRcOverrides.empty()
        || grid.tRcdOverrides.empty() || grid.tRpOverrides.empty()
        || grid.tRefiOverrides.empty() || grid.tRfcOverrides.empty()
        || grid.trhs.empty() || grid.swapRates.empty()) {
        fatal("sweep grid is empty: need at least one workload or "
              "MIX point, page policy, DRAM preset, DRAM "
              "organization, timing override (0 = default), "
              "mitigation, trh and rate");
    }
    // Reject malformed orgs and inconsistent timing combinations
    // (e.g. tRC < tRCD + tRP) before any shard or worker starts.
    (void)grid.axes();
}

int
cmdSweep(const Options &opts)
{
    SweepGrid grid;
    ExperimentConfig exp;
    parseGridFlags(opts, grid, exp);
    const std::size_t threads =
        static_cast<std::size_t>(opts.getUint("threads", 0));
    const std::string out = opts.getString("out", "");
    const std::string resume = opts.getString("resume", "");
    std::string journal = opts.getString(
        "journal", out.empty() ? "" : out + ".journal");
    if (journal == "none")
        journal.clear();
    opts.rejectUnknown();

    SweepRunner runner(exp, threads);
    runner.setJournal(journal);
    runner.setResume(resume);
    const std::vector<SweepResult> results = runner.run(grid);
    if (out.empty()) {
        SweepRunner::writeCsv(std::cout, results);
        if (!std::cout.flush())
            fatal("error writing CSV to stdout");
    } else {
        std::ofstream file(out);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        SweepRunner::writeCsv(file, results);
        if (!file.flush())
            fatal("error writing CSV to '", out, "'");
        std::fprintf(stderr, "wrote %zu cells to %s (%zu threads)\n",
                     results.size(), out.c_str(),
                     runner.threadCount());
    }
    return 0;
}

/** argv[0] as seen by main(), the --sim fallback for orchestrate. */
std::string gArgv0;

/**
 * Best-effort path of the running binary: /proc/self/exe when the
 * kernel exposes it (Linux), else argv[0].
 */
std::string
selfExePath()
{
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec && !self.empty())
        return self.string();
    return gArgv0;
}

int
cmdOrchestrate(const Options &opts)
{
    SweepGrid grid;
    ExperimentConfig exp;
    parseGridFlags(opts, grid, exp);

    Orchestrator::Config cfg;
    cfg.jobs = static_cast<std::size_t>(opts.getUint("jobs", 0));
    cfg.shardThreads =
        static_cast<std::size_t>(opts.getUint("threads", 1));
    cfg.retries =
        static_cast<std::size_t>(opts.getUint("retries", 2));
    // Default shard count: one shard per concurrent job slot.
    const std::size_t shards = static_cast<std::size_t>(opts.getUint(
        "shards", ThreadPool::resolveThreads(cfg.jobs)));
    const std::string out = opts.getString("out", "");
    cfg.dir = opts.getString(
        "dir", out.empty() ? "srs_shards" : out + ".shards");
    cfg.simPath = opts.getString("sim", selfExePath());
    const bool planOnly = opts.getBool("plan", false);
    const std::string planFormat =
        opts.getString("plan-format", "text");
    if (planFormat != "text" && planFormat != "json")
        fatal("--plan-format is 'text' or 'json', not '", planFormat,
              "'");
    opts.rejectUnknown();

    const ShardManifest manifest = planShards(grid, exp, shards);
    Orchestrator orchestrator(manifest, cfg);
    if (planOnly) {
        // Write the manifest and print the shard commands for
        // dispatch to other machines; launch nothing.
        orchestrator.writePlan(std::cout, planFormat == "json");
        return 0;
    }
    if (out.empty()) {
        orchestrator.run(std::cout);
        if (!std::cout.flush())
            fatal("error writing merged CSV to stdout");
    } else {
        std::ofstream file(out, std::ios::trunc | std::ios::binary);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        orchestrator.run(file);
    }
    std::fprintf(stderr,
                 "orchestrate: merged %zu cells from %zu shard(s) "
                 "into %s (%zu launched, %zu already complete)\n",
                 manifest.totalCells(), manifest.shards.size(),
                 out.empty() ? "stdout" : out.c_str(),
                 orchestrator.launches(),
                 orchestrator.skippedShards());
    return 0;
}

int
cmdMerge(const Options &opts)
{
    const std::string manifestPath = opts.getString("manifest", "");
    const std::string out = opts.getString("out", "");
    opts.rejectUnknown();
    if (manifestPath.empty())
        fatal("merge needs --manifest=FILE (written by 'srs_sim "
              "orchestrate', or by hand for remote shards)");

    const ShardManifest manifest = loadManifest(manifestPath);
    const std::string dir =
        std::filesystem::path(manifestPath).parent_path().string();
    if (out.empty()) {
        mergeShards(manifest, dir, std::cout);
        if (!std::cout.flush())
            fatal("error writing merged CSV to stdout");
    } else {
        std::ofstream file(out, std::ios::trunc | std::ios::binary);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        mergeShards(manifest, dir, file);
    }
    std::fprintf(stderr,
                 "merge: stitched %zu cells from %zu shard(s)\n",
                 manifest.totalCells(), manifest.shards.size());
    return 0;
}

int
cmdFarm(const Options &opts)
{
    const std::string manifestPath = opts.getString("manifest", "");
    const std::string hostsPath = opts.getString("hosts", "");
    FarmConfig cfg;
    cfg.shardThreads =
        static_cast<std::size_t>(opts.getUint("threads", 1));
    cfg.retries =
        static_cast<std::size_t>(opts.getUint("retries", 2));
    cfg.pollMs = opts.getUint("poll-ms", 200);
    cfg.staleSec = static_cast<double>(opts.getUint("stale-sec", 0));
    cfg.statusFile = opts.getString("status-file", "");
    cfg.simPath = opts.getString("sim", selfExePath());
    const std::string out = opts.getString("out", "");
    opts.rejectUnknown();
    if (manifestPath.empty())
        fatal("farm needs --manifest=FILE (written by 'srs_sim "
              "orchestrate --plan')");
    if (hostsPath.empty())
        fatal("farm needs --hosts=FILE (the fleet hostfile; "
              "docs/sweep-format.md has the format)");

    const ShardManifest manifest = loadManifest(manifestPath);
    cfg.dir =
        std::filesystem::path(manifestPath).parent_path().string();
    if (cfg.dir.empty())
        cfg.dir = ".";
    cfg.hosts = loadHostfile(hostsPath);

    FarmDispatcher farm(manifest, cfg);
    if (out.empty()) {
        farm.run(std::cout);
        if (!std::cout.flush())
            fatal("error writing merged CSV to stdout");
    } else {
        std::ofstream file(out, std::ios::trunc | std::ios::binary);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        farm.run(file);
    }
    std::fprintf(stderr,
                 "farm: merged %zu cells from %zu shard(s) across "
                 "%zu host(s) into %s (%zu launched, %zu restarted, "
                 "%zu already complete)\n",
                 manifest.totalCells(), manifest.shards.size(),
                 cfg.hosts.size(), out.empty() ? "stdout" : out.c_str(),
                 farm.launches(), farm.restarts(),
                 farm.skippedShards());
    return 0;
}

int
cmdMonitor(const Options &opts)
{
    std::string manifestPath = opts.getString("manifest", "");
    std::string dir = opts.getString("dir", "");
    const bool watch = opts.getBool("watch", false);
    const std::uint64_t intervalMs =
        opts.getUint("interval-ms", 1000);
    opts.rejectUnknown();
    if (manifestPath.empty() && dir.empty())
        fatal("monitor needs --dir=DIR (the shard directory) or "
              "--manifest=FILE");
    if (manifestPath.empty())
        manifestPath = dir + "/manifest";
    if (dir.empty()) {
        dir = std::filesystem::path(manifestPath)
                  .parent_path()
                  .string();
        if (dir.empty())
            dir = ".";
    }

    const ShardManifest manifest = loadManifest(manifestPath);
    const std::size_t n = manifest.shards.size();
    const std::string statusPath = dir + "/farm.status";

    // The snapshot is built from the shard journals alone; the
    // dispatcher's status file (when present) only decorates it with
    // host assignments.  Rates/ETAs need two samples, so one-shot
    // JSON reports them as -1 and --watch fills them in from the
    // second refresh on.
    ProgressClock clock(n);
    for (;;) {
        std::vector<ShardStatus> snapshot = snapshotFromJournals(
            manifest, dir, nullptr,
            readHostsFromStatus(statusPath, n));
        const double now =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        for (ShardStatus &s : snapshot)
            clock.sample(s.index, s.rows, now);
        for (ShardStatus &s : snapshot) {
            s.rowsPerSec = clock.rowsPerSec(s.index);
            s.etaSec = s.state == ShardState::Done
                           ? 0.0
                           : clock.etaSec(s.index, s.cells);
        }
        if (!watch) {
            writeStatusJson(std::cout, snapshot);
            if (!std::cout.flush())
                fatal("error writing status to stdout");
            return 0;
        }
        writeStatusTable(std::cout, snapshot);
        if (fleetDone(snapshot)) {
            std::printf("monitor: fleet complete\n");
            return 0;
        }
        std::printf("\n");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(intervalMs));
    }
}

int
cmdAttack(const Options &opts)
{
    const std::string defense = opts.getString("defense", "rrs");
    // --open-page / --ddr5 are spelled as a SystemAxes identity and
    // the attack parameters derived from it — one definition of the
    // environment, shared with the sweep cells (Section VIII-5 falls
    // out of the ddr5 preset's halved tREFI).
    SystemAxes axes;
    if (opts.getBool("open-page", false))
        axes.pagePolicy = PagePolicy::Open;
    if (opts.getBool("ddr5", false))
        axes.preset = DramPreset::Ddr5;
    const AttackParams p = attackParamsFromAxes(
        axes, static_cast<std::uint32_t>(opts.getUint("trh", 4800)),
        static_cast<std::uint32_t>(opts.getUint("rate", 6)));
    const std::uint32_t banks =
        static_cast<std::uint32_t>(opts.getUint("banks", 1));
    const std::string rounds = opts.getString("rounds", "best");
    const std::uint64_t mcIters = opts.getUint("montecarlo", 0);
    const std::size_t mcShards =
        static_cast<std::size_t>(opts.getUint("shards", 0));
    const std::size_t mcThreads =
        static_cast<std::size_t>(opts.getUint("threads", 0));
    opts.rejectUnknown();

    JuggernautModel model(p);
    AttackResult r;
    if (defense == "srs" || defense == "scale-srs") {
        r = model.evaluateSrs();
    } else if (defense == "rrs") {
        if (banks > 1)
            r = model.evaluateRrsMultiBank(banks);
        else if (rounds == "best")
            r = model.bestRrs();
        else
            r = model.evaluateRrs(std::strtoull(rounds.c_str(),
                                                nullptr, 10));
    } else {
        fatal("attack model covers 'rrs', 'srs' and 'scale-srs'");
    }

    std::printf("%s, T_RH %u, swap rate %u, %u bank(s)%s%s\n",
                defense.c_str(), p.trh, p.swapRate, banks,
                p.actTimeFactor > 1.0 ? ", open page" : "",
                p.epochSec < 64e-3 ? ", ddr5" : "");
    if (!r.feasible) {
        std::printf("  attack infeasible within one refresh epoch\n");
        return 0;
    }
    std::printf("  rounds N        %llu\n",
                static_cast<unsigned long long>(r.rounds));
    std::printf("  required k      %llu\n",
                static_cast<unsigned long long>(r.k));
    std::printf("  guesses G       %.0f per epoch\n", r.guesses);
    std::printf("  p(success)      %.3g per epoch\n", r.pSuccess);
    std::printf("  time-to-break   %.3g days\n",
                r.timeToBreakSec / 86400.0);

    if (mcIters > 0) {
        MonteCarloBatch mc(p, /*seed=*/0x5eed, mcThreads);
        const MonteCarloResult sim =
            defense == "rrs"
                ? mc.runRrs(r.rounds, mcIters, 100000, mcShards)
                : mc.runSrs(mcIters, mcShards);
        std::printf("  monte-carlo     %.3g days (%llu iters, "
                    "%zu shards)\n",
                    sim.meanTimeSec / 86400.0,
                    static_cast<unsigned long long>(mcIters),
                    MonteCarloBatch::resolveShards(mcShards, mcIters));
    }
    return 0;
}

int
cmdSecurity(const Options &opts)
{
    SecurityGrid grid;
    grid.pagePolicies.clear();
    for (const std::string &p :
         splitList(opts.getString("page-policy", "closed")))
        grid.pagePolicies.push_back(pagePolicyFromName(p));
    grid.presets.clear();
    for (const std::string &p :
         splitList(opts.getString("preset", "ddr4")))
        grid.presets.push_back(dramPresetFromName(p));
    grid.orgs = splitList(opts.getString("org", "2x1x16"));
    grid.tRcOverrides =
        splitUint32List(opts.getString("trc", "0"), "--trc");
    grid.tRcdOverrides =
        splitUint32List(opts.getString("trcd", "0"), "--trcd");
    grid.tRpOverrides =
        splitUint32List(opts.getString("trp", "0"), "--trp");
    grid.tRefiOverrides =
        splitUint32List(opts.getString("trefi", "0"), "--trefi");
    grid.tRfcOverrides =
        splitUint32List(opts.getString("trfc", "0"), "--trfc");
    for (const std::string &d :
         splitList(opts.getString("defenses", "srs,rrs")))
        grid.defenses.push_back(securityDefenseFromName(d));
    grid.trhs =
        splitUint32List(opts.getString("trh", "4800"), "--trh");
    grid.swapRates =
        splitUint32List(opts.getString("rates", "6"), "--rates");
    grid.rounds.clear();
    for (const std::string &r :
         splitList(opts.getString("rounds", "best"))) {
        grid.rounds.push_back(
            r == "best" ? SecurityGrid::kBestRounds
                        : std::strtoull(r.c_str(), nullptr, 10));
    }
    const std::uint64_t iterations = opts.getUint("montecarlo", 0);
    const std::uint64_t loopLimit =
        opts.getUint("epoch-loop-limit", 100000);
    const std::uint64_t seed = opts.getUint("seed", 0x5eed);
    const std::size_t threads =
        static_cast<std::size_t>(opts.getUint("threads", 0));
    const std::string out = opts.getString("out", "");
    opts.rejectUnknown();

    SecuritySweep sweep(seed, threads);
    sweep.setIterations(iterations);
    sweep.setEpochLoopLimit(loopLimit);
    const std::vector<SecurityResult> results = sweep.run(grid);
    if (out.empty()) {
        SecuritySweep::writeCsv(std::cout, results);
        if (!std::cout.flush())
            fatal("error writing CSV to stdout");
    } else {
        std::ofstream file(out);
        if (!file)
            fatal("cannot open '", out, "' for writing");
        SecuritySweep::writeCsv(file, results);
        if (!file.flush())
            fatal("error writing CSV to '", out, "'");
        std::fprintf(stderr,
                     "wrote %zu security cells to %s (%zu threads)\n",
                     results.size(), out.c_str(),
                     sweep.threadCount());
    }
    return 0;
}

int
cmdStorage(const Options &opts)
{
    StorageParams p;
    p.trh = static_cast<std::uint32_t>(opts.getUint("trh", 1200));
    opts.rejectUnknown();
    StorageModel model(p);
    std::printf("per-bank storage at T_RH = %u\n%-20s %10s %10s\n",
                p.trh, "structure", "RRS", "Scale-SRS");
    for (const StorageLine &line : model.breakdown()) {
        std::printf("%-20s %9.1fK %9.1fK\n", line.structure.c_str(),
                    line.rrsBytes / 1024.0,
                    line.scaleSrsBytes / 1024.0);
    }
    std::printf("%-20s %9.1fK %9.1fK   (%.1fx)\n", "total",
                model.totalRrsBytes() / 1024.0,
                model.totalScaleSrsBytes() / 1024.0,
                model.savingsRatio());
    std::printf("single-table RIT option (Section VIII-4): %.1fK\n",
                model.ritBytesScaleSrsSingleTable() / 1024.0);
    return 0;
}

int
cmdTrace(const Options &opts)
{
    const std::string workload = opts.getString("workload", "gups");
    const std::string out = opts.getString("out", workload + ".usimm");
    const std::uint64_t records = opts.getUint("records", 100'000);
    const std::uint64_t seed = opts.getUint("seed", 0xBEEF);
    const std::uint32_t core =
        static_cast<std::uint32_t>(opts.getUint("core", 0));
    opts.rejectUnknown();

    const DramOrg org;
    AddressMap map(org);
    SyntheticTrace source(profileByName(workload), map, core, seed);
    TraceWriter writer(out);
    for (std::uint64_t i = 0; i < records; ++i)
        writer.append(source.next());
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(
                    writer.recordsWritten()),
                out.c_str());
    return 0;
}

int
cmdList(const Options &opts)
{
    opts.rejectUnknown();
    std::printf("%-16s %-12s %7s %7s %8s %6s\n", "name", "suite",
                "avgGap", "hotPr", "hotRows", "fpMB");
    for (const WorkloadProfile &p : allProfiles()) {
        std::printf("%-16s %-12s %7.1f %7.2f %8u %6llu\n",
                    p.name.c_str(), p.suite.c_str(), p.avgGap,
                    p.hotProb, p.hotRows,
                    static_cast<unsigned long long>(p.footprintMB));
    }
    return 0;
}

void
usage()
{
    std::printf(
        "usage: srs_sim <subcommand> [--key=value ...]\n"
        "\n"
        "subcommands and their flags (defaults in parentheses):\n"
        "\n"
        "  perf         one workload under one defense\n"
        "    --workload=NAME (gcc)  --mitigation=KIND (scale-srs)\n"
        "    --trh=N (1200)  --rate=N (3)  --tracker=KIND\n"
        "    --cycles=N (1500000)  --epoch=N (cycles/2)  --csv\n"
        "\n"
        "  sweep        workload x system-axes x mitigation x TRH x\n"
        "               rate grid, one CSV row per cell,\n"
        "               thread-pool parallel\n"
        "    --workloads=A,B|all (gcc); an item trace:<path>[;<path>]\n"
        "    replays USIMM trace file(s), one path or one per core;\n"
        "    generator items: zipf:<rows>@s=<skew>,\n"
        "    hotspot:<rows>@hot=<frac>@p=<prob>[@shift=<cycles>],\n"
        "    blend:<spec>+attack@<rate>\n"
        "    --trace=FILE[;FILE] (none)  shorthand: append a\n"
        "    trace-file workload to the grid\n"
        "    --mitigations=A,B (scale-srs)\n"
        "    --page-policy=closed|open[,..] (closed)\n"
        "    --preset=ddr4|ddr5[,..] (ddr4)  DRAM timing preset\n"
        "    --org=CxRxB[,..] (2x1x16)  DRAM organization:\n"
        "    channels x ranks x banks-per-rank, powers of two in\n"
        "    1..8 / 1..4 / 4..64\n"
        "    --trc=NS,.. --trcd=NS,.. --trp=NS,.. --trefi=NS,..\n"
        "    --trfc=NS,.. (0 = the preset's default timing)\n"
        "    --trh=N,M (1200)\n"
        "    --rates=N,M (3)  --tracker=KIND\n"
        "    --mix=N (0)  --mix-base=K (0)  --threads=N (all)\n"
        "    --cycles=N  --epoch=N  --seed=S  --out=FILE (stdout)\n"
        "    --journal=FILE|none (<out>.journal)  --resume=FILE\n"
        "\n"
        "  orchestrate  split a sweep grid into shard processes,\n"
        "               supervise them, stitch one merged CSV\n"
        "    (all sweep grid flags above, plus:)\n"
        "    --shards=S (jobs)  --jobs=J (hardware threads)\n"
        "    --threads=N per shard (1)  --retries=R (2)\n"
        "    --dir=DIR (<out>.shards)  --sim=PATH (this binary)\n"
        "    --out=FILE (stdout)  --plan (write manifest + print\n"
        "    shard commands for other machines, launch nothing)\n"
        "    --plan-format=text|json (text)  plan output format\n"
        "\n"
        "  merge        validate + stitch shard CSVs from a manifest\n"
        "    --manifest=FILE (required)  --out=FILE (stdout)\n"
        "\n"
        "  farm         dispatch a planned orchestration across a\n"
        "               fleet (hostfile: local slots and/or ssh\n"
        "               hosts), supervise via checkpoint journals,\n"
        "               restart/rebalance dead shards, stitch the\n"
        "               byte-identical merged CSV\n"
        "    --manifest=FILE (required, from orchestrate --plan)\n"
        "    --hosts=FILE (required fleet hostfile)\n"
        "    --threads=N per shard (1)  --retries=R (2)\n"
        "    --poll-ms=MS (200)  --stale-sec=S (0 = no straggler\n"
        "    timeout)  --status-file=FILE (<dir>/farm.status)\n"
        "    --sim=PATH (this binary)  --out=FILE (stdout)\n"
        "\n"
        "  monitor      live fleet progress from the shard journals\n"
        "               alone (JSON lines; --watch for a table)\n"
        "    --dir=DIR | --manifest=FILE (one required;\n"
        "    --manifest defaults to <dir>/manifest)\n"
        "    --watch  refresh a table until the fleet completes\n"
        "    --interval-ms=MS (1000)\n"
        "\n"
        "  attack       Juggernaut analytical model / Monte-Carlo\n"
        "    --defense=rrs|srs|scale-srs (rrs)  --trh=N (4800)\n"
        "    --rate=N (6)  --rounds=N|best (best)  --banks=B (1)\n"
        "    --open-page  --ddr5  --montecarlo=ITERS (0)\n"
        "    --shards=S (auto)  --threads=N (all)\n"
        "\n"
        "  security     attack-model sweep over the same system axes\n"
        "               as `sweep`, one schema-v6 CSV row per\n"
        "               (axes, defense, trh, rate[, rounds]) cell\n"
        "    --defenses=srs,rrs (srs,rrs)  --trh=N,M (4800)\n"
        "    --rates=N,M (6)  --rounds=best|N[,..] (best; RRS only)\n"
        "    --page-policy=closed|open[,..] (closed)\n"
        "    --preset=ddr4|ddr5[,..] (ddr4)  --org=CxRxB[,..]\n"
        "    --trc=NS,.. --trcd=NS,.. --trp=NS,.. --trefi=NS,..\n"
        "    --trfc=NS,..  --montecarlo=ITERS (0 = analytic only)\n"
        "    --epoch-loop-limit=N (100000)  --seed=S (0x5eed)\n"
        "    --threads=N (all; never changes results)\n"
        "    --out=FILE (stdout)\n"
        "\n"
        "  storage      Table IV storage breakdown\n"
        "    --trh=N (1200)\n"
        "\n"
        "  trace        export a synthetic workload as a USIMM trace\n"
        "    --workload=NAME (gups)  --records=N (100000)\n"
        "    --seed=S  --core=N (0)  --out=FILE (<workload>.usimm)\n"
        "\n"
        "  list         list the built-in workload profiles\n"
        "\n"
        "Unknown flags are fatal errors.  File formats (sweep CSV,\n"
        "journal, shard manifest): docs/sweep-format.md; library\n"
        "layering: docs/ARCHITECTURE.md.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    gArgv0 = argc > 0 ? argv[0] : "srs_sim";
    const Options opts = Options::fromArgs(argc, argv);
    if (opts.positional().empty()) {
        usage();
        return 1;
    }
    const std::string &cmd = opts.positional().front();
    try {
        if (cmd == "perf")
            return cmdPerf(opts);
        if (cmd == "sweep")
            return cmdSweep(opts);
        if (cmd == "orchestrate")
            return cmdOrchestrate(opts);
        if (cmd == "merge")
            return cmdMerge(opts);
        if (cmd == "farm")
            return cmdFarm(opts);
        if (cmd == "monitor")
            return cmdMonitor(opts);
        if (cmd == "attack")
            return cmdAttack(opts);
        if (cmd == "security")
            return cmdSecurity(opts);
        if (cmd == "storage")
            return cmdStorage(opts);
        if (cmd == "trace")
            return cmdTrace(opts);
        if (cmd == "list")
            return cmdList(opts);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "srs_sim: %s\n", err.what());
        return 1;
    }
    usage();
    return 1;
}
