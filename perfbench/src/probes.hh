/**
 * @file
 * Timing wrappers placed at the two seams the library exposes
 * publicly: the per-core TraceSource handed to System::setTrace, and
 * the MemCtrlListener the controller consults on every ACT.  Each
 * forwards every call unchanged and adds a steady_clock span around
 * it, so a traced cell simulates exactly what an untraced one does.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>

#include "cpu/core.hh"
#include "memctrl/controller.hh"

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Span totals of one seam method. */
struct SeamCount
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
};

/** Times every next() of the wrapped generator. */
class TimingTrace : public srs::TraceSource
{
  public:
    TimingTrace(std::unique_ptr<srs::TraceSource> inner, SeamCount &sink)
        : inner_(std::move(inner)), sink_(sink)
    {}

    srs::TraceRecord
    next() override
    {
        const std::int64_t t0 = nowNs();
        const srs::TraceRecord r = inner_->next();
        sink_.ns += nowNs() - t0;
        ++sink_.calls;
        return r;
    }

  private:
    std::unique_ptr<srs::TraceSource> inner_;
    SeamCount &sink_;
};

/** Times the three listener queries, forwarding each to @p inner. */
class TimingListener : public srs::MemCtrlListener
{
  public:
    explicit TimingListener(srs::MemCtrlListener &inner) : inner_(inner) {}

    srs::RowId
    remapRow(std::uint32_t channel, std::uint32_t bank,
             srs::RowId logical) override
    {
        const std::int64_t t0 = nowNs();
        const srs::RowId r = inner_.remapRow(channel, bank, logical);
        remap.ns += nowNs() - t0;
        ++remap.calls;
        return r;
    }

    void
    onActivate(std::uint32_t channel, std::uint32_t bank,
               srs::RowId physRow, srs::Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onActivate(channel, bank, physRow, now);
        activate.ns += nowNs() - t0;
        ++activate.calls;
    }

    srs::Cycle
    actAllowedAt(std::uint32_t channel, std::uint32_t bank,
                 srs::RowId physRow, srs::Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        const srs::Cycle c = inner_.actAllowedAt(channel, bank, physRow,
                                                 now);
        actAllowed.ns += nowNs() - t0;
        ++actAllowed.calls;
        return c;
    }

    bool
    concurrentChannelQueriesSafe() const override
    {
        // The span counters are shared, so queries must stay serial.
        return false;
    }

    SeamCount remap;
    SeamCount activate;
    SeamCount actAllowed;

  private:
    srs::MemCtrlListener &inner_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
