#include "farm/transport.hh"

#include <filesystem>
#include <utility>

#include "common/logging.hh"
#include "common/subprocess.hh"

namespace srs
{

std::string
shellQuote(const std::string &s)
{
    // 'foo'\''bar': close the quote, emit a literal ', reopen.
    std::string out = "'";
    for (const char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += '\'';
    return out;
}

LocalTransport::LocalTransport(std::string label, std::string dir)
    : label_(std::move(label)), dir_(std::move(dir))
{
}

long
LocalTransport::launch(const std::vector<std::string> &argv,
                       const std::string &logPath)
{
    return spawnProcess(argv, logPath);
}

bool
LocalTransport::pull(const std::string &name)
{
    // The shard writes straight into the shard dir; "pulling" is
    // just an existence check so the dispatcher's journal polling
    // works identically on both transports.
    return std::filesystem::exists(dir_ + "/" + name);
}

void
LocalTransport::push(const std::string &)
{
}

SshTransport::SshTransport(const HostSpec &spec, std::string dir)
    : label_(spec.host), host_(spec.host), workdir_(spec.workdir),
      dir_(std::move(dir))
{
    if (workdir_.empty())
        fatal("ssh host '", host_, "' has no workdir configured");
}

long
SshTransport::launch(const std::vector<std::string> &argv,
                     const std::string &logPath)
{
    // The remote shell gets one quoted command string; exec keeps
    // the remote shard as the ssh client's direct child, so killing
    // the local ssh pid tears the remote side down with it
    // (BatchMode keeps a dead host from hanging on a password
    // prompt — it fails fast and the dispatcher's retry logic takes
    // over).
    std::string remote = "mkdir -p " + shellQuote(workdir_) + " && cd "
                         + shellQuote(workdir_) + " && exec";
    for (const std::string &arg : argv) {
        remote += ' ';
        remote += shellQuote(arg);
    }
    return spawnProcess({"/usr/bin/ssh", "-o", "BatchMode=yes", "-tt",
                         host_, remote},
                        logPath);
}

bool
SshTransport::pull(const std::string &name)
{
    // Whole-file copy per poll: journals are one short line per
    // completed cell, so incremental pulls stay cheap even on
    // paper-scale grids.
    return runProcess({"/usr/bin/scp", "-q", "-o", "BatchMode=yes",
                       host_ + ":" + workdir_ + "/" + name,
                       dir_ + "/" + name})
           == 0;
}

void
SshTransport::push(const std::string &name)
{
    if (runProcess({"/usr/bin/ssh", "-o", "BatchMode=yes", host_,
                    "mkdir -p " + shellQuote(workdir_)})
        != 0) {
        fatal("farm: cannot create workdir '", workdir_, "' on '",
              host_, "'");
    }
    if (runProcess({"/usr/bin/scp", "-q", "-o", "BatchMode=yes",
                    dir_ + "/" + name,
                    host_ + ":" + workdir_ + "/" + name})
        != 0) {
        fatal("farm: cannot push '", name, "' to '", host_, ":",
              workdir_, "'");
    }
}

std::unique_ptr<Transport>
makeTransport(const HostSpec &spec, const std::string &dir)
{
    if (spec.isLocal())
        return std::make_unique<LocalTransport>(spec.host, dir);
    return std::make_unique<SshTransport>(spec, dir);
}

} // namespace srs
