/**
 * @file
 * Same-machine benchmark of the Scale-SRS simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --sim PATH --workdir DIR
 *
 * Runs one workload (defended_attack, benign_unprotected,
 * security_montecarlo or sweep_orchestrate) for about S seconds of
 * measurement, checks its outputs, prints a human-readable report
 * and, as the last line of stdout, one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * With --trace 0 the metrics are the end-to-end figures; with
 * --trace 1 they are the per-layer figures from timing wrappers at
 * the trace and mitigation seams (metric_names.hh lists both).
 * ../README.md explains each workload and metric.
 *
 * Only public library entry points are driven: makeSystemConfig,
 * System, SweepRunner, SecuritySweep, JuggernautModel,
 * MonteCarloBatch, and the srs_sim orchestrate/merge/farm
 * subcommands (--sim).
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hh"
#include "metric_names.hh"
#include "probes.hh"
#include "security/attack_model.hh"
#include "security/monte_carlo.hh"
#include "security/security_sweep.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "trace/generators.hh"
#include "trace/synthetic.hh"

extern char **environ;

namespace perfbench
{
namespace
{

using srs::Cycle;
using srs::MitigationKind;

// ------------------------------------------------------------ fixed inputs

/** Victim Zipf stream with an embedded double-sided hammer. */
constexpr const char *kAttackBlend = "blend:zipf:4096@s=1.1+attack@0.05";
constexpr std::uint32_t kTrh = 1200;
constexpr std::uint32_t kRate = 6;
constexpr std::uint32_t kCores = 8;
/**
 * Defended cells span two refresh epochs, so place-backs happen and
 * rrs re-swaps a displaced row (unswap); 500k cycles is too short for
 * the latter on every seed tried.
 */
constexpr Cycle kDefendedCycles = 1'000'000;
constexpr Cycle kDefendedEpoch = 490'000;
/** Benign cells need no epoch boundary; shorter cells give more rounds. */
constexpr Cycle kBenignCycles = 500'000;
/** Untraced cells are timed in slices of this many cycles. */
constexpr Cycle kSlice = 50'000;
/** The paper's benign profiles, IPC 0.28 (gups) to 1.86 (comm1). */
const std::vector<std::string> kBenignProfiles = {"gups", "mcf", "gcc",
                                                  "comm1"};
/** Monte-Carlo trials per security cell and pass. */
constexpr std::uint64_t kMcIterations = 4'000'000;
/** Sweep grid of sweep_orchestrate: 4 workloads x {srs, rrs}. */
constexpr const char *kSweepWorkloads =
    "mcf,gcc,comm1,blend:zipf:4096@s=1.1+attack@0.05";
constexpr Cycle kSweepCycles = 50'000;
/** Repeats per round of the short N-thread and multi-process passes. */
constexpr int kShortRepeats = 4;
/**
 * Set-ups timed after every round; setup_s is the median of all of
 * them.  Host speed for this allocation-heavy work flips between two
 * levels about 1.4x apart for seconds at a time, so the samples are
 * spread over the whole run rather than taken in one burst.
 */
constexpr int kSetupsPerRound = 5;
/** Timed evaluations of the analytic model (microseconds each). */
constexpr int kAnalyticSamples = 51;

// ------------------------------------------------------------ options

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string sim;
    std::string workdir = ".";
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --sim PATH "
                 "--workdir DIR\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usageError("missing value for " + key);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (end == val.c_str() || *end != '\0')
                usageError("bad --seed " + val);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0' || a.seconds <= 0)
                usageError("bad --seconds " + val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usageError("--trace is 0 or 1");
            a.trace = val == "1";
        } else if (key == "--sim") {
            a.sim = val;
        } else if (key == "--workdir") {
            a.workdir = val;
        } else {
            usageError("unknown option " + key);
        }
    }
    if (a.workload.empty())
        usageError("--workload is required");
    return a;
}

/** Worker threads / child processes: the machine's cores, at most 8. */
std::size_t
parallelism()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

/**
 * Peak resident set of this process so far (VmHWM), in MB.  Not
 * getrusage's ru_maxrss: that also counts the parent's resident set at
 * the fork that started this program.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ report

/** Metrics, correctness tally and the human-readable lines. */
struct Report
{
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/** Deadline-driven round loop: at least one round, then stop before
 *  the next round would end past the budget. */
class RoundClock
{
  public:
    explicit RoundClock(double seconds)
        : budgetNs_(static_cast<std::int64_t>(seconds * 1e9)),
          start_(nowNs())
    {}

    bool
    another(std::int64_t lastRoundNs) const
    {
        if (rounds_ == 0)
            return true;
        return nowNs() - start_ + lastRoundNs <= budgetNs_;
    }

    void tick() { ++rounds_; }

  private:
    std::int64_t budgetNs_;
    std::int64_t start_;
    int rounds_ = 0;
};

// ------------------------------------------------------------ simulator cells

/** One cycle-level simulation the benchmark times. */
struct SimCell
{
    std::string name;
    srs::SystemConfig cfg;
    Cycle cycles = 0;
    bool generator = false; ///< GeneratorTrace, else SyntheticTrace
    srs::GeneratorSpec gen;
    srs::WorkloadProfile profile;
    std::uint64_t traceSeed = 0;
};

/** Everything one run of a cell produced. */
struct CellRun
{
    std::int64_t ctorNs = 0;
    std::int64_t setupNs = 0; ///< ctor + trace attachment
    std::int64_t runNs = 0;
    std::vector<std::int64_t> sliceNs; ///< empty when run in one call
    // deterministic outputs
    double ipc = 0.0;
    std::map<std::string, std::uint64_t> ctrl, mit, sys;
    std::uint64_t p50 = 0, p99 = 0, p999 = 0;
    // seam spans (traced runs only)
    SeamCount trace, remap, activate, actAllowed;

    bool
    sameOutputs(const CellRun &o) const
    {
        return ipc == o.ipc && ctrl == o.ctrl && mit == o.mit
               && sys == o.sys && p50 == o.p50 && p99 == o.p99
               && p999 == o.p999;
    }

    std::uint64_t
    mitStat(const std::string &k) const
    {
        const auto it = mit.find(k);
        return it == mit.end() ? 0 : it->second;
    }

    std::uint64_t
    ctrlStat(const std::string &k) const
    {
        const auto it = ctrl.find(k);
        return it == ctrl.end() ? 0 : it->second;
    }

    std::uint64_t
    sysStat(const std::string &k) const
    {
        const auto it = sys.find(k);
        return it == sys.end() ? 0 : it->second;
    }
};

std::unique_ptr<srs::System>
buildSystem(const SimCell &cell, SeamCount *traceSink, CellRun &out)
{
    const std::int64_t t0 = nowNs();
    auto sys = std::make_unique<srs::System>(cell.cfg);
    const std::int64_t t1 = nowNs();
    const srs::AddressMap &map = sys->controller().addressMap();
    for (srs::CoreId c = 0; c < cell.cfg.numCores; ++c) {
        std::unique_ptr<srs::TraceSource> src;
        if (cell.generator) {
            src = std::make_unique<srs::GeneratorTrace>(cell.gen, map, c,
                                                        cell.traceSeed);
        } else {
            src = std::make_unique<srs::SyntheticTrace>(
                cell.profile, map, c, cell.traceSeed);
        }
        if (traceSink != nullptr)
            src = std::make_unique<TimingTrace>(std::move(src), *traceSink);
        sys->setTrace(c, std::move(src));
    }
    out.ctorNs = t1 - t0;
    out.setupNs = nowNs() - t0;
    return sys;
}

/**
 * Build and run one cell.  Untraced runs advance in kSlice steps and
 * time each; traced runs call System::run once, so the traced-vs-
 * untraced identity check also proves slicing leaves outputs alone.
 */
CellRun
runCell(const SimCell &cell, bool traced)
{
    CellRun r;
    std::unique_ptr<srs::System> sys =
        buildSystem(cell, traced ? &r.trace : nullptr, r);
    std::unique_ptr<TimingListener> seam;
    // The unprotected baseline installs no listener, so it gets none.
    if (traced && cell.cfg.mitigation != MitigationKind::None) {
        seam = std::make_unique<TimingListener>(sys->mitigation());
        sys->controller().setListener(seam.get());
    }
    if (traced) {
        const std::int64_t t0 = nowNs();
        sys->run(cell.cycles);
        r.runNs = nowNs() - t0;
    } else {
        for (Cycle done = 0; done < cell.cycles; done += kSlice) {
            const std::int64_t t0 = nowNs();
            sys->run(std::min(kSlice, cell.cycles - done));
            r.sliceNs.push_back(nowNs() - t0);
            r.runNs += r.sliceNs.back();
        }
    }

    r.ipc = sys->aggregateIpc();
    r.ctrl = sys->controller().stats().all();
    r.mit = sys->mitigation().stats().all();
    r.sys = sys->stats().all();
    const srs::LatencyHistogram &lat = sys->controller().readLatency();
    r.p50 = lat.quantilePermille(500);
    r.p99 = lat.quantilePermille(990);
    r.p999 = lat.quantilePermille(999);
    if (seam) {
        r.remap = seam->remap;
        r.activate = seam->activate;
        r.actAllowed = seam->actAllowed;
    }
    sys.reset(); // the controller must not outlive its listener's use
    return r;
}

SimCell
makeCell(const std::string &name, const srs::WorkloadSpec &spec,
         MitigationKind kind, Cycle cycles, Cycle epoch, std::uint64_t seed)
{
    srs::ExperimentConfig exp;
    exp.cycles = cycles;
    exp.epochLen = epoch;
    exp.numCores = kCores;
    // Same derivation as SweepRunner, so `srs_sim sweep --seed=N`
    // replays the identical trace.
    exp.seed = srs::SweepRunner::cellSeed(seed, spec.label());
    SimCell c;
    c.name = name;
    c.cfg = srs::makeSystemConfig(exp, kind, kTrh, kRate);
    c.cycles = cycles;
    c.traceSeed = exp.seed;
    c.generator = spec.kind == srs::WorkloadKind::Generator;
    if (c.generator)
        c.gen = spec.generator;
    else
        c.profile = srs::profileByName(spec.name);
    return c;
}

using Round = std::vector<CellRun>;

/**
 * Keep a thread on one CPU: a cell that migrates leaves its working
 * set behind in the old core's L2.  Threads a pinned thread starts
 * inherit its CPU.  Best effort: a restricted CPU set simply leaves
 * the thread free.
 */
void
pinThread(pthread_t thread, std::size_t slot)
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    if (cpus.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[slot % cpus.size()], &one);
    pthread_setaffinity_np(thread, sizeof(one), &one);
}

/** Run @p f on this thread pinned to CPU slot @p slot, then unpin it. */
template <typename F>
void
pinnedCall(std::size_t slot, F &&f)
{
    cpu_set_t saved;
    const bool ok =
        pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) == 0;
    pinThread(pthread_self(), slot);
    f();
    if (ok)
        pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
}

/**
 * Run every cell once.  Cells run concurrently, one per thread (at
 * most nproc), as a SweepRunner pool would run them; each cell is
 * itself single-threaded and independent of the others.  The CPU a
 * cell is pinned to rotates with @p rotation: a neighbour can slow one
 * CPU for minutes, and the best-of over rounds should see every cell
 * on every CPU.
 */
Round
runRound(const std::vector<SimCell> &cells, bool traced, std::size_t rotation)
{
    Round round(cells.size());
    const std::size_t n = std::min(parallelism(), cells.size());
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < n; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < cells.size(); i += n)
                round[i] = runCell(cells[i], traced);
        });
        pinThread(workers.back().native_handle(), t + rotation);
    }
    for (std::thread &w : workers)
        w.join();
    return round;
}

std::int64_t
roundRunNs(const Round &r)
{
    std::int64_t ns = 0;
    for (const CellRun &c : r)
        ns += c.runNs;
    return ns;
}

/** Median over rounds of f(round). */
double
medianOver(const std::vector<Round> &rounds,
           const std::function<double(const Round &)> &f)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(f(r));
    return median(v);
}

void
printCellTable(const std::vector<SimCell> &cells, const Round &r,
               const std::vector<double> &rates)
{
    std::printf("%-14s %9s %7s %6s %7s %7s %9s %6s %14s\n", "cell", "ipc",
                "swaps", "unswap", "placeb", "lazyrs", "throttled",
                "pinned", "sim_cycles/s");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellRun &c = r[i];
        std::printf("%-14s %9.6f %7" PRIu64 " %6" PRIu64 " %7" PRIu64
                    " %7" PRIu64 " %9" PRIu64 " %6" PRIu64 " %14.0f\n",
                    cells[i].name.c_str(), c.ipc, c.mitStat("swaps"),
                    c.mitStat("unswap_swaps"), c.mitStat("place_backs"),
                    c.mitStat("lazy_restores"),
                    c.mitStat("throttled_acts"), c.mitStat("rows_pinned"),
                    rates[i]);
    }
}

/** Each paper mechanism with the cells that fired it. */
void
printCoverage(const std::vector<SimCell> &cells, const Round &r)
{
    struct Mechanism
    {
        const char *name;
        std::function<std::uint64_t(const CellRun &)> count;
    };
    const std::vector<Mechanism> mechanisms = {
        {"swap", [](const CellRun &c) { return c.mitStat("swaps"); }},
        {"unswap",
         [](const CellRun &c) { return c.mitStat("unswap_swaps"); }},
        {"place-back",
         [](const CellRun &c) {
             return c.mitStat("place_backs") + c.mitStat("lazy_restores");
         }},
        {"throttle",
         [](const CellRun &c) { return c.mitStat("throttled_acts"); }},
        {"pin", [](const CellRun &c) { return c.mitStat("rows_pinned"); }},
    };
    std::printf("mechanism coverage:\n");
    for (const Mechanism &m : mechanisms) {
        std::string fired;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::uint64_t n = m.count(r[i]);
            if (n > 0) {
                fired += (fired.empty() ? "" : ", ") + cells[i].name + " ("
                         + std::to_string(n) + ")";
            }
        }
        if (fired.empty()) {
            fired = std::string("not exercised")
                    + (std::string(m.name) == "pin"
                           ? " (Scale-SRS pinning never fires on these "
                             "streams; no scale-srs cell, see README)"
                           : "");
        }
        std::printf("  %-10s %s\n", m.name, fired.c_str());
    }
}

/**
 * Shared runner of the two cycle-level workloads: untraced rounds
 * measure the end-to-end figures; traced rounds (interleaved with
 * untraced ones under --trace 1, one verification round otherwise)
 * give the per-layer split and the identity check.
 */
void
runSimWorkload(const Args &args, const std::vector<SimCell> &cells,
               Report &rep,
               const std::function<void(const Round &, Report &)> &checks)
{
    std::vector<Round> plain;
    std::vector<Round> traced;
    RoundClock clock(args.seconds);
    std::int64_t last = 0;
    std::vector<double> setups;
    while (clock.another(last)) {
        const std::int64_t t0 = nowNs();
        plain.push_back(runRound(cells, false, plain.size()));
        if (args.trace)
            traced.push_back(runRound(cells, true, traced.size()));
        // Set-up on its own, with no cell running beside it.
        for (int k = 0; k < kSetupsPerRound; ++k) {
            double s = 0;
            for (const SimCell &c : cells) {
                CellRun r;
                buildSystem(c, nullptr, r);
                s += static_cast<double>(r.setupNs);
            }
            setups.push_back(s * 1e-9);
        }
        last = nowNs() - t0;
        clock.tick();
    }
    if (!args.trace)
        traced.push_back(runRound(cells, true, 0)); // for the identity check

    // Identity: every traced run reproduces the untraced outputs.
    for (const Round &t : traced) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            rep.check(t[i].sameOutputs(plain.front()[i]),
                      cells[i].name + ": traced run differs from untraced");
        }
    }
    for (std::size_t k = 1; k < plain.size(); ++k) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            rep.check(plain[k][i].sameOutputs(plain.front()[i]),
                      cells[i].name + ": repeated run differs");
        }
    }

    // A cell's rate: cycles over the sum of its best-of-rounds slice
    // times.  Neighbours on a shared host contend for the last-level
    // cache for seconds at a time, slowing this memory-bound code by up
    // to 40%; the fastest of several runs of the same slice is the
    // figure that repeats.
    std::vector<double> rates;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        double best = 0;
        for (std::size_t k = 0; k < plain.front()[i].sliceNs.size(); ++k) {
            std::int64_t t = plain.front()[i].sliceNs[k];
            for (const Round &r : plain)
                t = std::min(t, r[i].sliceNs[k]);
            best += double(t);
        }
        rates.push_back(double(cells[i].cycles) * 1e9 / best);
    }
    printCellTable(cells, plain.front(), rates);
    printCoverage(cells, plain.front());
    checks(plain.front(), rep);

    rep.endToEnd["throughput_per_s"] = median(rates);
    rep.endToEnd["worst_per_s"] = *std::min_element(rates.begin(),
                                                    rates.end());
    rep.endToEnd["setup_s"] = median(setups);
    rep.endToEnd["peak_rss_mb"] = peakRssMb();
    // One pass over every cell, each running at its measured rate.
    double pass = rep.endToEnd["setup_s"];
    for (std::size_t i = 0; i < cells.size(); ++i)
        pass += double(cells[i].cycles) / rates[i];
    rep.endToEnd["wall_s"] = pass;
    std::vector<double> roundNs;
    for (const Round &r : plain)
        roundNs.push_back(double(roundRunNs(r)));
    std::printf("untraced rounds %zu (run-time spread, IQR/median, %.3f), "
                "set-up samples %zu\n",
                plain.size(), relativeSpread(roundNs), setups.size());

    if (!args.trace)
        return;

    // ---- per-layer split from the traced rounds
    auto &L = rep.perLayer;
    double cycles = 0;
    for (const SimCell &c : cells)
        cycles += double(c.cycles);
    const Round &t0 = traced.front();
    auto seamNs = [](const CellRun &c) {
        return static_cast<double>(c.remap.ns + c.activate.ns
                                   + c.actAllowed.ns);
    };
    auto traceNs = [](const CellRun &c) {
        return static_cast<double>(c.trace.ns);
    };
    auto roundSum = [](const Round &r,
                       const std::function<double(const CellRun &)> &f) {
        double s = 0;
        for (const CellRun &c : r)
            s += f(c);
        return s;
    };
    const double records =
        roundSum(t0, [](const CellRun &c) { return double(c.trace.calls); });
    L["trace.records"] = records;
    L["trace.ns_per_record"] = medianOver(traced, [&](const Round &r) {
        return ratio(roundSum(r, traceNs), records);
    });
    L["trace.share"] = medianOver(traced, [&](const Round &r) {
        return ratio(roundSum(r, traceNs), double(roundRunNs(r)));
    });
    const std::vector<std::pair<std::string, SeamCount CellRun::*>> seams =
        {{"remap", &CellRun::remap},
         {"activate", &CellRun::activate},
         {"act_allowed", &CellRun::actAllowed}};
    for (const auto &[name, member] : seams) {
        L["mitigation." + name + "_calls"] =
            roundSum(t0, [m = member](const CellRun &c) {
                return double((c.*m).calls);
            });
        L["mitigation." + name + "_ns"] =
            medianOver(traced, [&, m = member](const Round &r) {
                return roundSum(r, [m](const CellRun &c) {
                    return double((c.*m).ns);
                });
            });
    }
    L["mitigation.share"] = medianOver(traced, [&](const Round &r) {
        return ratio(roundSum(r, seamNs), double(roundRunNs(r)));
    });
    // Lookups per demand ACT, over the cells that have a listener.
    double defendedActs = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].cfg.mitigation != MitigationKind::None)
            defendedActs += double(t0[i].ctrlStat("activations"));
    }
    L["mitigation.remaps_per_act"] =
        ratio(L["mitigation.remap_calls"], defendedActs);
    for (const char *k :
         {"swaps", "unswap_swaps", "place_backs", "lazy_restores",
          "throttled_acts", "rows_pinned", "partner_fallbacks",
          "attacks_detected"}) {
        L[std::string("mitigation.") + k] = roundSum(
            t0, [k](const CellRun &c) { return double(c.mitStat(k)); });
    }
    L["system.self_ns_per_cycle"] = medianOver(traced, [&](const Round &r) {
        return (double(roundRunNs(r)) - roundSum(r, traceNs)
                - roundSum(r, seamNs))
               / cycles;
    });
    L["system.share"] = 1.0 - L["trace.share"] - L["mitigation.share"];
    L["system.ctor_ns"] = medianOver(traced, [&](const Round &r) {
        return roundSum(r, [](const CellRun &c) {
                   return double(c.ctorNs);
               })
               / double(r.size());
    });
    double skips = 0;
    for (const char *k :
         {"activations", "row_hits", "row_conflicts", "reads_completed",
          "reads_forwarded", "writes_issued", "refreshes", "idle_closes",
          "latent_activations", "migration_busy_cycles", "p2_skip_busy",
          "p2_skip_forced", "p2_skip_hit_wait", "p2_skip_pre_wait",
          "p2_skip_act_wait", "p2_skip_throttled"}) {
        const double v = roundSum(
            t0, [k](const CellRun &c) { return double(c.ctrlStat(k)); });
        L[std::string("memctrl.") + k] = v;
        if (std::strncmp(k, "p2_skip_", 8) == 0)
            skips += v;
    }
    L["memctrl.p2_skips_per_issue"] =
        ratio(skips, L["memctrl.activations"]);
    std::vector<double> p50, p99, ipc;
    for (const CellRun &c : t0) {
        p50.push_back(double(c.p50));
        p99.push_back(double(c.p99));
        ipc.push_back(c.ipc);
    }
    L["memctrl.read_lat_p50"] = median(p50);
    L["memctrl.read_lat_p99"] = median(p99);
    L["cpu.ipc"] = median(ipc);
    L["cache.pinned_absorbed"] = roundSum(t0, [](const CellRun &c) {
        return double(c.sysStat("pinned_absorbed"));
    });
    L["cache.pin_writebacks_posted"] = roundSum(t0, [](const CellRun &c) {
        return double(c.sysStat("pin_writebacks_posted"));
    });
    auto runNs = [](const Round &r) { return double(roundRunNs(r)); };
    L["bench.trace_overhead"] =
        medianOver(traced, runNs) / medianOver(plain, runNs);
    L["bench.traced_rounds"] = double(traced.size());
    L["bench.untraced_rounds"] = double(plain.size());
}

void
defendedAttack(const Args &args, Report &rep)
{
    const srs::WorkloadSpec spec = srs::WorkloadSpec::parse(kAttackBlend,
                                                            kCores);
    const std::vector<SimCell> cells = {
        makeCell("baseline", spec, MitigationKind::None, kDefendedCycles,
                 kDefendedEpoch, args.seed),
        makeCell("srs", spec, MitigationKind::Srs, kDefendedCycles,
                 kDefendedEpoch, args.seed),
        makeCell("rrs", spec, MitigationKind::Rrs, kDefendedCycles,
                 kDefendedEpoch, args.seed),
        makeCell("blockhammer", spec, MitigationKind::BlockHammer,
                 kDefendedCycles, kDefendedEpoch, args.seed),
    };
    runSimWorkload(args, cells, rep, [&](const Round &r, Report &rp) {
        rp.check(r[0].ipc > 0, "baseline IPC is positive");
        for (std::size_t i = 1; i < r.size(); ++i) {
            rp.check(r[i].ipc > 0 && r[i].ipc <= r[0].ipc * 1.05,
                     cells[i].name + " IPC within (0, 1.05 x baseline]");
            std::printf("%s normalized IPC %.6f\n", cells[i].name.c_str(),
                        r[i].ipc / r[0].ipc);
        }
        rp.check(r[1].mitStat("swaps") > 0, "srs swaps > 0");
        rp.check(r[1].mitStat("place_backs") + r[1].mitStat("lazy_restores")
                     > 0,
                 "srs place-backs > 0");
        rp.check(r[2].mitStat("swaps") > 0, "rrs swaps > 0");
        rp.check(r[2].mitStat("unswap_swaps") > 0, "rrs unswap_swaps > 0");
        rp.check(r[3].mitStat("throttled_acts") > 0,
                 "blockhammer throttled_acts > 0");
        rp.check(r[0].mitStat("swaps") == 0, "baseline performs no swaps");
    });
}

void
benignUnprotected(const Args &args, Report &rep)
{
    std::vector<SimCell> cells;
    for (const std::string &p : kBenignProfiles) {
        cells.push_back(makeCell(p, srs::WorkloadSpec::parse(p, kCores),
                                 MitigationKind::None, kBenignCycles,
                                 kBenignCycles, args.seed));
    }
    runSimWorkload(args, cells, rep, [&](const Round &r, Report &rp) {
        for (std::size_t i = 0; i < r.size(); ++i) {
            rp.check(r[i].ipc > 0, cells[i].name + " IPC is positive");
            rp.check(r[i].ctrlStat("reads_completed") > 0,
                     cells[i].name + " completes reads");
        }
    });
}

// ------------------------------------------------------------ security

bool
sameMc(const srs::MonteCarloResult &a, const srs::MonteCarloResult &b)
{
    // Exact equality on purpose: the contract is bit-identical results.
    return a.iterations == b.iterations && a.censored == b.censored
           && a.meanEpochs == b.meanEpochs && a.meanTimeSec == b.meanTimeSec
           && a.stddevTimeSec == b.stddevTimeSec
           && a.timeCiLoSec == b.timeCiLoSec
           && a.timeCiHiSec == b.timeCiHiSec && a.pBreak == b.pBreak
           && a.pBreakCiLo == b.pBreakCiLo && a.pBreakCiHi == b.pBreakCiHi
           && a.sumTimeSec == b.sumTimeSec
           && a.sumSqTimeSec == b.sumSqTimeSec
           && a.sumPBreak == b.sumPBreak && a.sumSqPBreak == b.sumSqPBreak
           && a.feasible == b.feasible && a.reliable == b.reliable;
}

void
securityMontecarlo(const Args &args, Report &rep)
{
    const std::size_t n = parallelism();
    srs::SecurityGrid grid;
    grid.defenses = {srs::SecurityDefense::Srs, srs::SecurityDefense::Rrs};
    grid.trhs = {1200, 4800};
    grid.swapRates = {kRate};
    // rounds stays {kBestRounds}: the attacker-optimal N.

    std::vector<double> setups;
    auto sampleSetup = [&] {
        const std::int64_t t0 = nowNs();
        srs::SecuritySweep probe(args.seed, n);
        probe.setIterations(kMcIterations);
        (void)grid.expand(); // timed: expansion is part of set-up
        setups.push_back(double(nowNs() - t0) * 1e-9);
    };
    const std::vector<srs::SecurityCell> cells = grid.expand();

    srs::SecuritySweep many(args.seed, n);
    many.setIterations(kMcIterations);

    // Each pass: the whole grid on N threads, then each cell alone on
    // one thread (a cell's seed depends only on its identity, so the
    // rows must match).  Per-cell one-thread times keep the t1 figure
    // a best-of over many short samples, like the simulator slices.
    std::vector<double> wallN;
    std::vector<std::vector<double>> wall1(cells.size());
    std::vector<srs::SecurityResult> first;
    RoundClock clock(args.seconds);
    std::int64_t last = 0;
    for (std::size_t round = 0; clock.another(last); ++round) {
        const std::int64_t t0 = nowNs();
        // The one-thread sweep's worker inherits a pin that rotates
        // over the CPUs round by round (see runRound).
        std::unique_ptr<srs::SecuritySweep> one;
        pinnedCall(round, [&] {
            one = std::make_unique<srs::SecuritySweep>(args.seed, 1);
        });
        one->setIterations(kMcIterations);
        std::vector<srs::SecurityResult> resN;
        for (int k = 0; k < kShortRepeats; ++k) {
            const std::int64_t p0 = nowNs();
            resN = many.run(cells);
            wallN.push_back(double(nowNs() - p0) * 1e-9);
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::int64_t c0 = nowNs();
            const auto res1 = one->run({cells[i]});
            wall1[i].push_back(double(nowNs() - c0) * 1e-9);
            rep.check(srs::SecuritySweep::formatRow(i, resN[i])
                              == srs::SecuritySweep::formatRow(i, res1[0])
                          && sameMc(resN[i].mc, res1[0].mc),
                      cells[i].label() + ": result differs at 1 and "
                          + std::to_string(n) + " threads");
        }
        if (first.empty())
            first = resN;
        for (int k = 0; k < kSetupsPerRound; ++k)
            sampleSetup();
        last = nowNs() - t0;
        clock.tick();
    }

    std::uint64_t trials = 0;
    std::uint64_t censored = 0;
    std::printf("%-18s %6s %12s %14s %14s %10s\n", "cell", "trh",
                "iterations", "mc_ttb_s", "analytic_ttb_s", "censored");
    for (const srs::SecurityResult &r : first) {
        trials += r.mc.iterations;
        censored += r.mc.censored;
        std::printf("%-18s %6u %12" PRIu64 " %14.6g %14.6g %10" PRIu64 "\n",
                    r.cell.label().c_str(), r.cell.trh, r.mc.iterations,
                    r.mc.meanTimeSec, r.analytic.timeToBreakSec,
                    r.mc.censored);
        rep.check(r.analytic.feasible && r.mc.iterations == kMcIterations,
                  r.cell.label() + ": feasible campaign ran every trial");
        rep.check(r.mc.meanTimeSec > 0 && r.analytic.timeToBreakSec > 0,
                  r.cell.label() + ": positive time to break");
    }

    // Intra-campaign parallelism: one MonteCarloBatch campaign split
    // across the pool must match the serial one bit for bit.
    const srs::AttackParams p =
        srs::attackParamsFromAxes(srs::SystemAxes{}, kTrh, kRate);
    const std::uint64_t rounds = srs::JuggernautModel(p).bestRrs().rounds;
    srs::MonteCarloBatch b1(p, args.seed, 1);
    srs::MonteCarloBatch bN(p, args.seed, n);
    rep.check(sameMc(b1.runRrs(rounds, kMcIterations / 4),
                     bN.runRrs(rounds, kMcIterations / 4)),
              "MonteCarloBatch differs at 1 and N threads");

    // Fastest samples, as for the cycle-level cells (runSimWorkload).
    const double tN = *std::min_element(wallN.begin(), wallN.end());
    double t1 = 0;
    for (const std::vector<double> &w : wall1)
        t1 += *std::min_element(w.begin(), w.end());
    rep.endToEnd["throughput_per_s"] = double(trials) / tN;
    rep.endToEnd["worst_per_s"] = double(trials) / t1;
    rep.endToEnd["wall_s"] = tN;
    rep.endToEnd["setup_s"] = median(setups);
    rep.endToEnd["peak_rss_mb"] = peakRssMb();
    std::printf("threads %zu, rounds %zu, trials/pass %" PRIu64
                ", N-thread pass spread (IQR/median) %.3f\n",
                n, wall1.front().size(), trials, relativeSpread(wallN));
    if (!args.trace)
        return;

    std::vector<double> analytic;
    for (int k = 0; k < kAnalyticSamples; ++k) {
        const std::int64_t t0 = nowNs();
        for (const srs::SecurityCell &c : cells) {
            const srs::JuggernautModel m(
                srs::attackParamsFromAxes(c.axes, c.trh, c.swapRate));
            const srs::AttackResult a =
                c.defense == srs::SecurityDefense::Srs ? m.evaluateSrs()
                                                       : m.bestRrs();
            rep.check(a.feasible, c.label() + ": analytic model feasible");
        }
        analytic.push_back(double(nowNs() - t0) / double(cells.size()));
    }
    auto &L = rep.perLayer;
    L["security.analytic_ns_per_cell"] = median(analytic);
    L["security.mc_trials"] = double(trials);
    L["security.mc_ns_per_trial_t1"] = t1 * 1e9 / double(trials);
    L["security.mc_scaling"] = t1 / (double(n) * tN);
    L["security.censored_frac"] = ratio(double(censored), double(trials));
    L["bench.trace_overhead"] = 1.0;
    L["bench.untraced_rounds"] = double(wall1.front().size());
}

// ------------------------------------------------------------ sweep stack

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Run @p argv to completion, stdout/stderr to files; @return seconds. */
double
spawnTimed(const std::vector<std::string> &argv, const std::string &out,
           const std::string &err, int &status)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, 2, err.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    const std::int64_t t0 = nowNs();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        status = -1;
        std::fprintf(stderr, "perfbench: cannot spawn %s: %s\n", cargv[0],
                     std::strerror(rc));
        return 0.0;
    }
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return double(nowNs() - t0) * 1e-9;
}

bool
exitedOk(int status)
{
    return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** The count printed just before @p word, e.g. "3 launched". */
std::uint64_t
numberBefore(const std::string &text, const std::string &word)
{
    const std::size_t at = text.rfind(" " + word);
    if (at == std::string::npos)
        return 0;
    std::size_t b = at;
    while (b > 0 && std::isdigit(static_cast<unsigned char>(text[b - 1])))
        --b;
    return std::strtoull(text.c_str() + b, nullptr, 10);
}

void
sweepOrchestrate(const Args &args, Report &rep)
{
    namespace fs = std::filesystem;
    const std::size_t n = parallelism();
    if (args.sim.empty() || !fs::exists(args.sim))
        usageError("sweep_orchestrate needs --sim PATH to srs_sim");

    // The in-process grid and the srs_sim flags spell the same sweep.
    srs::ExperimentConfig exp;
    exp.cycles = kSweepCycles;
    exp.epochLen = kSweepCycles / 2; // srs_sim's --epoch default
    exp.seed = args.seed;
    srs::SweepGrid grid;
    grid.workloads = srs::splitSpecList(kSweepWorkloads, exp.numCores);
    grid.mitigations = {MitigationKind::Srs, MitigationKind::Rrs};
    grid.trhs = {kTrh};
    grid.swapRates = {kRate};
    const double cells = double(grid.expand().size());
    const std::string ns = std::to_string(n);
    const std::vector<std::string> gridFlags = {
        "--workloads=" + std::string(kSweepWorkloads),
        "--mitigations=srs,rrs",
        "--trh=" + std::to_string(kTrh),
        "--rates=" + std::to_string(kRate),
        "--cycles=" + std::to_string(kSweepCycles),
        "--seed=" + std::to_string(args.seed),
        "--shards=" + ns,
        "--jobs=" + ns,
        "--threads=1"};
    auto orchestrate = [&](const std::vector<std::string> &extra) {
        std::vector<std::string> v = {args.sim, "orchestrate"};
        v.insert(v.end(), gridFlags.begin(), gridFlags.end());
        v.insert(v.end(), extra.begin(), extra.end());
        return v;
    };

    const fs::path base = fs::absolute(fs::path(args.workdir))
                          / ("sweep_" + std::to_string(getpid()));
    std::vector<double> setup, wall1, wallN, wallOrch, wallMerge, wallFarm,
        overhead;
    // This process only: srs_sim children are spawned from its address
    // space, so their peaks would count it twice.
    double rss = 0;
    std::uint64_t orchRelaunches = 0;
    std::uint64_t farmRelaunches = 0;
    RoundClock clock(args.seconds);
    std::int64_t last = 0;
    for (int round = 0; clock.another(last); ++round) {
        const std::int64_t r0 = nowNs();
        const fs::path dir = base / std::to_string(round);
        fs::create_directories(dir);
        const std::string d = dir.string();
        int st = 0;

        // set-up: plan the orchestration that the farm replays (the
        // first plan), plus more plans for more samples
        for (int k = 0; k < kSetupsPerRound; ++k) {
            const std::string p = d + "/plan" + std::to_string(k);
            setup.push_back(spawnTimed(
                orchestrate({"--plan", "--dir=" + p}), p + ".out",
                p + ".err", st));
            rep.check(exitedOk(st), "orchestrate --plan exits 0");
        }

        // In-process SweepRunner at 1 thread, then at N threads.  The
        // shorter N-thread and multi-process passes repeat more often,
        // for more best-of samples per round.
        std::string csv1, csvN;
        auto sweep = [&](std::size_t threads, std::vector<double> &wall,
                         std::string &csv) {
            srs::SweepRunner runner(exp, threads);
            const std::int64_t t0 = nowNs();
            const std::vector<srs::SweepResult> results = runner.run(grid);
            wall.push_back(double(nowNs() - t0) * 1e-9);
            std::ostringstream os;
            srs::SweepRunner::writeCsv(os, results);
            csv = os.str();
        };
        // Its one worker inherits the pin, rotating as in runRound.
        pinnedCall(static_cast<std::size_t>(round), [&] {
            for (int k = 0; k < 2; ++k)
                sweep(1, wall1, csv1);
        });
        // Before any multi-threaded pass, so its peak does not depend on
        // how cells overlap on the pool.
        if (round == 0)
            rss = peakRssMb();
        double roundN = 1e300;
        for (int k = 0; k < kShortRepeats; ++k) {
            sweep(n, wallN, csvN);
            roundN = std::min(roundN, wallN.back());
            rep.check(!csv1.empty() && csvN == csv1,
                      "SweepRunner CSV identical at 1 and N threads");
        }

        // the same grid as supervised shard processes
        double roundOrch = 1e300;
        for (int k = 0; k < kShortRepeats; ++k) {
            const std::string o = d + "/orch" + std::to_string(k);
            wallOrch.push_back(spawnTimed(
                orchestrate({"--dir=" + o, "--out=" + o + ".csv"}),
                o + ".out", o + ".err", st));
            roundOrch = std::min(roundOrch, wallOrch.back());
            rep.check(exitedOk(st), "orchestrate exits 0");
            rep.check(slurp(o + ".csv") == csv1,
                      "orchestrate CSV identical to SweepRunner");
            // relaunches = launches beyond one per shard
            const std::uint64_t launched =
                numberBefore(slurp(o + ".err"), "launched,");
            orchRelaunches += launched > n ? launched - n : 0;
        }
        overhead.push_back(roundOrch - roundN);

        wallMerge.push_back(spawnTimed(
            {args.sim, "merge", "--manifest=" + d + "/orch0/manifest",
             "--out=" + d + "/merge.csv"},
            d + "/merge.out", d + "/merge.err", st));
        rep.check(exitedOk(st), "merge exits 0");

        // the planned orchestration through the farm dispatcher
        {
            std::ofstream hosts(d + "/hosts.conf");
            hosts << "version=1\nhosts=1\nhost0.host=local\nhost0.jobs="
                  << n << "\n";
        }
        wallFarm.push_back(spawnTimed(
            {args.sim, "farm", "--manifest=" + d + "/plan0/manifest",
             "--hosts=" + d + "/hosts.conf", "--poll-ms=20",
             "--out=" + d + "/farm.csv"},
            d + "/farm.out", d + "/farm.err", st));
        rep.check(exitedOk(st), "farm exits 0");
        farmRelaunches += numberBefore(slurp(d + "/farm.err"), "restarted,");

        rep.check(slurp(d + "/merge.csv") == csv1,
                  "merge CSV identical to SweepRunner");
        rep.check(slurp(d + "/farm.csv") == csv1,
                  "farm CSV identical to SweepRunner");
        if (round == 0)
            std::printf("%s", csv1.c_str());
        fs::remove_all(dir);
        last = nowNs() - r0;
        clock.tick();
    }
    std::error_code ec;
    fs::remove_all(base, ec);

    // Fastest pass, as for the cycle-level cells (see runSimWorkload).
    auto best = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    const double t1 = best(wall1);
    const double tN = best(wallN);
    const double orch = best(wallOrch);
    rep.endToEnd["throughput_per_s"] = cells / tN;
    rep.endToEnd["worst_per_s"] = cells / t1;
    rep.endToEnd["wall_s"] = orch;
    rep.endToEnd["setup_s"] = median(setup);
    rep.endToEnd["peak_rss_mb"] = rss;
    std::printf("threads/jobs %zu, rounds %zu, cells %g, orchestrate "
                "overhead %.4f s, orchestrate spread (IQR/median) %.3f\n",
                n, wallFarm.size(), cells, median(overhead),
                relativeSpread(wallOrch));
    if (!args.trace)
        return;
    auto &L = rep.perLayer;
    L["sweep.cells"] = cells;
    L["sweep.scaling_eff"] = t1 / (double(n) * tN);
    L["sweep.utilisation"] = t1 / (double(n) * orch);
    L["orchestrator.wall_s"] = orch;
    L["orchestrator.merge_s"] = best(wallMerge);
    L["orchestrator.overhead_s"] = median(overhead);
    L["orchestrator.relaunches"] = double(orchRelaunches);
    L["farm.wall_s"] = best(wallFarm);
    L["farm.relaunches"] = double(farmRelaunches);
    L["bench.trace_overhead"] = 1.0;
    L["bench.untraced_rounds"] = double(wallFarm.size());
}

// ------------------------------------------------------------ output

/**
 * The result line.  Layers a workload does not run report 0, but a
 * missing end-to-end metric is a bug: @return false, printing nothing.
 */
bool
printJson(const Report &rep, bool trace)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    const char *sep = "";
    auto emit = [&](const MetricName &m, double v) {
        os << sep << "\"" << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    };
    if (trace) {
        for (const MetricName &m : kPerLayer) {
            const auto it = rep.perLayer.find(m.name);
            emit(m, it == rep.perLayer.end() ? 0.0 : it->second);
        }
    } else {
        for (const MetricName &m : kEndToEnd) {
            const auto it = rep.endToEnd.find(m.name);
            if (it == rep.endToEnd.end()) {
                std::fprintf(stderr, "perfbench: %s was not measured\n",
                             m.name);
                return false;
            }
            emit(m, it->second);
        }
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return true;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    Report rep;
    const std::map<std::string, std::function<void(const Args &, Report &)>>
        workloads = {
            {"defended_attack", defendedAttack},
            {"benign_unprotected", benignUnprotected},
            {"security_montecarlo", securityMontecarlo},
            {"sweep_orchestrate", sweepOrchestrate},
        };
    const auto it = workloads.find(args.workload);
    if (it == workloads.end())
        usageError("unknown workload " + args.workload);
    std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0);
    it->second(args, rep);

    for (const auto &[name, v] : rep.endToEnd)
        std::printf("  %-28s %.6g\n", name.c_str(), v);
    for (const auto &[name, v] : rep.perLayer)
        std::printf("  %-28s %.6g\n", name.c_str(), v);
    std::printf("ops_failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                ratio(double(rep.failed), double(rep.attempted)),
                rep.failed, rep.attempted);
    std::fflush(stdout);
    return printJson(rep, args.trace) ? 0 : 1;
}
