/**
 * @file
 * Child-process helpers for the one shard supervisor.
 *
 * FarmDispatcher (farm/dispatcher.hh), behind both `srs_sim farm`
 * and `srs_sim orchestrate`, forks worker processes — a shard sweep
 * locally, or an ssh/scp client carrying one to another machine —
 * through these primitives: spawn with output captured to a log
 * file, a bounded wait that wakes as soon as any child exits, kill,
 * and a human-readable exit description.  POSIX-only
 * (fork/execv/waitpid); every entry point is fatal() on non-POSIX
 * platforms.
 */

#ifndef SRS_COMMON_SUBPROCESS_HH
#define SRS_COMMON_SUBPROCESS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace srs
{

/**
 * Fork and exec @p argv (argv[0] is the executable path, resolved
 * without PATH search) with stdout and stderr appended to
 * @p logPath; an empty @p logPath inherits the parent's streams.
 * On Linux the child dies with the parent (PDEATHSIG), so a killed
 * supervisor never leaks workers that race a later re-run for the
 * same output files.
 *
 * @return the child pid; fatal() when the fork fails.  An exec
 *         failure surfaces as exit status 127 with the reason as
 *         the log's last line.
 */
long spawnProcess(const std::vector<std::string> &argv,
                  const std::string &logPath);

/**
 * Reap whichever child of this process exits first, waiting at most
 * @p timeoutMs milliseconds.  Polls waitpid(-1, WNOHANG) every
 * millisecond, so it needs no signal handler and wakes within about
 * 1 ms of an exit.  Any child may be reaped, so a caller that owns
 * only some of its children must ignore pids it did not spawn.
 *
 * @return the reaped pid, with @p status holding its raw waitpid
 *         status (decode with describeProcessExit); -1 when no child
 *         exited before the deadline.
 */
long waitAnyChild(int &status, std::uint64_t timeoutMs);

/** Blocking reap of @p pid; @return the raw waitpid status. */
int waitProcess(long pid);

/** SIGKILL @p pid (best-effort; no error when already gone). */
void killProcess(long pid);

/**
 * Spawn @p argv, wait for it, and return its exit code (127 when
 * the exec failed, 128+signal when it died on one).  Used for the
 * short-lived copy children (scp/rsync) of the ssh transport.
 */
int runProcess(const std::vector<std::string> &argv,
               const std::string &logPath = "");

/** @return true when the raw status is a clean zero exit. */
bool processExitedCleanly(int status);

/** "exited with status N" / "killed by signal N" for messages. */
std::string describeProcessExit(int status);

} // namespace srs

#endif // SRS_COMMON_SUBPROCESS_HH
