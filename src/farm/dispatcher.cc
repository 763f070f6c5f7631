#include "farm/dispatcher.hh"

#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/subprocess.hh"
#include "farm/progress.hh"
#include "farm/transport.hh"

namespace srs
{

namespace
{

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/** Monotonic seconds for rate/staleness measurement. */
double
steadySec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

FarmDispatcher::FarmDispatcher(ShardManifest manifest,
                               FarmConfig config)
    : manifest_(std::move(manifest)), config_(std::move(config))
{
    if (config_.dir.empty())
        fatal("farm: no shard directory configured");
    if (config_.simPath.empty())
        fatal("farm: no srs_sim binary path configured");
    if (config_.hosts.empty())
        fatal("farm: the hostfile provides no hosts");
}

#if !defined(_WIN32)

void
FarmDispatcher::run(std::ostream &mergedOut)
{
    prepareShardDir(manifest_, config_.dir);
    const std::string statusPath = config_.statusFile.empty()
                                       ? config_.dir + "/farm.status"
                                       : config_.statusFile;

    std::vector<std::unique_ptr<Transport>> transports;
    for (const HostSpec &spec : config_.hosts)
        transports.push_back(makeTransport(spec, config_.dir));
    const std::vector<std::size_t> slots =
        expandHostSlots(config_.hosts);

    const std::size_t n = manifest_.shards.size();
    states_.assign(n, ShardRunState{});

    /** Runtime state the supervisor tracks per shard. */
    struct Live
    {
        ShardState state = ShardState::Pending;
        long pid = -1;
        std::size_t slot = kNoSlot;
        std::size_t rows = 0;
        double lastAdvance = 0.0;
        std::string host = "-";
        bool checkedComplete = false;
    };
    std::vector<Live> live(n);
    std::vector<std::uint64_t> digests(n);
    for (std::size_t k = 0; k < n; ++k) {
        digests[k] = SweepRunner::gridDigest(
            manifest_.shards[k].grid.expand(), manifest_.exp.seed);
    }

    std::deque<std::size_t> pending;
    for (std::size_t k = 0; k < n; ++k)
        pending.push_back(k);
    std::vector<char> slotBusy(slots.size(), 0);
    ProgressClock clock(n);

    const auto localCsv = [&](std::size_t k) {
        return config_.dir + "/" + manifest_.shards[k].csv;
    };
    const auto logPath = [&](std::size_t k) {
        return config_.dir + "/shard" + std::to_string(k) + ".log";
    };
    const auto freeSlot = [&]() -> std::size_t {
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (!slotBusy[s])
                return s;
        }
        return kNoSlot;
    };

    const auto writeStatus = [&] {
        std::vector<ShardStatus> snapshot;
        for (std::size_t k = 0; k < n; ++k) {
            ShardStatus status;
            status.index = k;
            status.state = live[k].state;
            status.host = live[k].host;
            status.rows = live[k].rows;
            status.cells = manifest_.shards[k].cells;
            status.attempts = states_[k].launches;
            status.rowsPerSec = clock.rowsPerSec(k);
            status.etaSec =
                live[k].state == ShardState::Done
                    ? 0.0
                    : clock.etaSec(k, manifest_.shards[k].cells);
            snapshot.push_back(std::move(status));
        }
        // Written whole then renamed into place, so a concurrent
        // reader never sees a half-written snapshot.
        const std::string tmp = statusPath + ".tmp";
        {
            std::ofstream out(tmp,
                              std::ios::trunc | std::ios::binary);
            if (!out)
                fatal("farm: cannot write status file '", tmp, "'");
            writeStatusJson(out, snapshot);
        }
        std::error_code ec;
        std::filesystem::rename(tmp, statusPath, ec);
        if (ec) {
            fatal("farm: cannot move status snapshot into '",
                  statusPath, "': ", ec.message());
        }
    };

    // Reap every in-flight child before a fatal() — orphans would
    // keep writing into the shard directory and race a re-run.
    // Their journals survive, so no completed cell is lost.
    const auto teardown = [&] {
        for (std::size_t k = 0; k < n; ++k) {
            if (live[k].pid >= 0) {
                killProcess(live[k].pid);
                waitProcess(live[k].pid);
                live[k].pid = -1;
            }
        }
    };

    const auto launch = [&](std::size_t k, std::size_t s) {
        Transport &transport = *transports[slots[s]];
        const HostSpec &host = config_.hosts[slots[s]];
        const ShardSpec &shard = manifest_.shards[k];
        // Ship the latest checkpoint to the executing side so a
        // restarted (or rebalanced) shard resumes from its last
        // journal row instead of recomputing finished cells.
        std::string resume;
        const std::string journal = shard.csv + ".journal";
        if (std::filesystem::exists(config_.dir + "/" + journal)) {
            transport.push(journal);
            resume = transport.remoteDir() + "/" + journal;
        } else if (std::filesystem::exists(localCsv(k))) {
            transport.push(shard.csv);
            resume = transport.remoteDir() + "/" + shard.csv;
        }
        const std::string sim =
            host.sim.empty() ? config_.simPath : host.sim;
        const long pid = transport.launch(
            shardCommandLine(manifest_, k, sim,
                             transport.remoteDir(),
                             config_.shardThreads, resume),
            logPath(k));
        ++launches_;
        ++states_[k].launches;
        slotBusy[s] = 1;
        live[k].state = ShardState::Running;
        live[k].pid = pid;
        live[k].slot = s;
        live[k].host = transport.label();
        live[k].lastAdvance = steadySec();
        std::fprintf(stderr,
                     "farm: shard %zu of %zu -> %s (slot %zu, pid "
                     "%ld, %zu cells%s)\n",
                     k, n, transport.label().c_str(), s, pid,
                     shard.cells, resume.empty() ? "" : ", resumed");
    };

    const auto releaseSlot = [&](std::size_t k) {
        if (live[k].slot != kNoSlot)
            slotBusy[live[k].slot] = 0;
        live[k].slot = kNoSlot;
        live[k].pid = -1;
    };

    // A failed or stalled shard goes back in the queue and takes
    // the next free slot on any live host — that requeue *is* the
    // rebalance away from dead hosts.  fatal() (with the fleet torn
    // down and the child's last words) once its retries run out.
    const auto handleFailure = [&](std::size_t k,
                                   const std::string &err) {
        releaseSlot(k);
        states_[k].lastError = err;
        if (states_[k].launches > config_.retries) {
            live[k].state = ShardState::Failed;
            writeStatus();
            teardown();
            const std::string tail = lastLogLine(logPath(k));
            writeShardSummary(std::cerr, manifest_, states_,
                              config_.dir);
            fatal("farm: shard ", k, " failed after ",
                  states_[k].launches, " attempt(s): ", err,
                  tail.empty()
                      ? ""
                      : "\n  shard's last log line: " + tail,
                  "\n  (see ", logPath(k), ")");
        }
        ++restarts_;
        ++states_[k].restarts;
        live[k].state = ShardState::Pending;
        // std::string, not the literal: GCC 12 false -Wrestrict.
        live[k].host = std::string("-");
        std::fprintf(stderr,
                     "farm: shard %zu failed (%s), relaunching from "
                     "its journal (attempt %zu/%zu)\n",
                     k, err.c_str(), states_[k].launches + 1,
                     config_.retries + 1);
        pending.push_back(k);
    };

    for (;;) {
        // Fill free slots from the queue, skipping shards whose
        // CSVs already validate (a previous run finished them).
        while (!pending.empty()) {
            const std::size_t k = pending.front();
            if (!live[k].checkedComplete) {
                live[k].checkedComplete = true;
                if (validateShardCsv(manifest_.shards[k],
                                     manifest_.exp, localCsv(k))
                        .empty()) {
                    pending.pop_front();
                    live[k].state = ShardState::Done;
                    live[k].rows = manifest_.shards[k].cells;
                    states_[k].done = true;
                    ++skipped_;
                    std::fprintf(stderr,
                                 "farm: shard %zu already complete "
                                 "(%zu cells)\n",
                                 k, manifest_.shards[k].cells);
                    continue;
                }
            }
            const std::size_t s = freeSlot();
            if (s == kNoSlot)
                break;
            pending.pop_front();
            launch(k, s);
        }

        bool anyRunning = false;
        for (std::size_t k = 0; k < n; ++k)
            anyRunning |= live[k].state == ShardState::Running;
        if (!anyRunning && pending.empty())
            break;

        writeStatus();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.pollMs));
        const double now = steadySec();

        for (std::size_t k = 0; k < n; ++k) {
            if (live[k].state != ShardState::Running)
                continue;
            Transport &transport = *transports[slots[live[k].slot]];
            const std::string journal =
                manifest_.shards[k].csv + ".journal";
            int status = 0;
            if (pollProcess(live[k].pid, status)) {
                // Collect outputs before judging: the merge needs
                // the CSV locally, and a failure keeps the pulled
                // journal as the next attempt's resume point.
                transport.pull(manifest_.shards[k].csv);
                transport.pull(journal);
                std::string err;
                if (processExitedCleanly(status)) {
                    err = validateShardCsv(manifest_.shards[k],
                                           manifest_.exp,
                                           localCsv(k));
                } else {
                    err = describeProcessExit(status);
                }
                if (err.empty()) {
                    releaseSlot(k);
                    live[k].state = ShardState::Done;
                    live[k].rows = manifest_.shards[k].cells;
                    states_[k].done = true;
                    clock.sample(k, live[k].rows, now);
                    std::fprintf(stderr, "farm: shard %zu done\n",
                                 k);
                } else {
                    handleFailure(k, err);
                }
                continue;
            }
            if (transport.pull(journal)) {
                const JournalScan scan = scanShardJournal(
                    config_.dir + "/" + journal,
                    manifest_.shards[k].cells, digests[k]);
                if (!scan.error.empty()) {
                    teardown();
                    fatal("farm: shard ", k, " journal '",
                          config_.dir + "/" + journal, "': ",
                          scan.error);
                }
                if (scan.rows > live[k].rows) {
                    live[k].rows = scan.rows;
                    live[k].lastAdvance = now;
                }
                clock.sample(k, live[k].rows, now);
            }
            if (config_.staleSec > 0
                && now - live[k].lastAdvance > config_.staleSec) {
                killProcess(live[k].pid);
                waitProcess(live[k].pid);
                char why[96];
                std::snprintf(why, sizeof(why),
                              "stalled: journal did not advance for "
                              "%.1fs (straggler or dead host)",
                              now - live[k].lastAdvance);
                handleFailure(k, why);
            }
        }
    }

    writeStatus();
    writeShardSummary(std::cerr, manifest_, states_, config_.dir);
    mergeShards(manifest_, config_.dir, mergedOut);
}

#else // _WIN32

void
FarmDispatcher::run(std::ostream &)
{
    fatal("srs_sim farm requires a POSIX platform (fork/waitpid); "
          "run the shards from the manifest by hand and stitch with "
          "'srs_sim merge'");
}

#endif

} // namespace srs
