/**
 * @file
 * Every metric the benchmark emits, with its unit.  BENCHMARK.json at
 * the repository root lists the same names; the self-test checks the
 * two agree, and the program refuses to print a result that misses an
 * end-to-end one.
 */

#ifndef PERFBENCH_METRIC_NAMES_HH
#define PERFBENCH_METRIC_NAMES_HH

#include <array>

namespace perfbench
{

struct MetricName
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0 (host time unless the unit says otherwise). */
inline constexpr std::array<MetricName, 5> kEndToEnd{{
    {"throughput_per_s", "1/s"},
    {"worst_per_s", "1/s"},
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
}};

/** Printed with --trace 1: one entry per layer seam or counter. */
inline constexpr std::array<MetricName, 61> kPerLayer{{
    {"trace.records", "count"},
    {"trace.ns_per_record", "ns"},
    {"trace.share", "ratio"},
    {"mitigation.remap_calls", "count"},
    {"mitigation.remap_ns", "ns"},
    {"mitigation.activate_calls", "count"},
    {"mitigation.activate_ns", "ns"},
    {"mitigation.act_allowed_calls", "count"},
    {"mitigation.act_allowed_ns", "ns"},
    {"mitigation.share", "ratio"},
    {"mitigation.remaps_per_act", "ratio"},
    {"mitigation.swaps", "count"},
    {"mitigation.unswap_swaps", "count"},
    {"mitigation.place_backs", "count"},
    {"mitigation.lazy_restores", "count"},
    {"mitigation.throttled_acts", "count"},
    {"mitigation.rows_pinned", "count"},
    {"mitigation.partner_fallbacks", "count"},
    {"mitigation.attacks_detected", "count"},
    {"system.self_ns_per_cycle", "ns"},
    {"system.share", "ratio"},
    {"system.ctor_ns", "ns"},
    {"memctrl.activations", "count"},
    {"memctrl.row_hits", "count"},
    {"memctrl.row_conflicts", "count"},
    {"memctrl.reads_completed", "count"},
    {"memctrl.reads_forwarded", "count"},
    {"memctrl.writes_issued", "count"},
    {"memctrl.refreshes", "count"},
    {"memctrl.idle_closes", "count"},
    {"memctrl.latent_activations", "count"},
    {"memctrl.migration_busy_cycles", "cycles"},
    {"memctrl.p2_skip_busy", "count"},
    {"memctrl.p2_skip_forced", "count"},
    {"memctrl.p2_skip_hit_wait", "count"},
    {"memctrl.p2_skip_pre_wait", "count"},
    {"memctrl.p2_skip_act_wait", "count"},
    {"memctrl.p2_skip_throttled", "count"},
    {"memctrl.p2_skips_per_issue", "ratio"},
    {"memctrl.read_lat_p50", "cycles"},
    {"memctrl.read_lat_p99", "cycles"},
    {"cpu.ipc", "instr/cycle"},
    {"cache.pinned_absorbed", "count"},
    {"cache.pin_writebacks_posted", "count"},
    {"security.analytic_ns_per_cell", "ns"},
    {"security.mc_trials", "count"},
    {"security.mc_ns_per_trial_t1", "ns"},
    {"security.mc_scaling", "ratio"},
    {"security.censored_frac", "ratio"},
    {"sweep.cells", "count"},
    {"sweep.scaling_eff", "ratio"},
    {"sweep.utilisation", "ratio"},
    {"orchestrator.wall_s", "s"},
    {"orchestrator.merge_s", "s"},
    {"orchestrator.overhead_s", "s"},
    {"orchestrator.relaunches", "count"},
    {"farm.wall_s", "s"},
    {"farm.relaunches", "count"},
    {"bench.trace_overhead", "ratio"},
    {"bench.traced_rounds", "count"},
    {"bench.untraced_rounds", "count"},
}};

} // namespace perfbench

#endif // PERFBENCH_METRIC_NAMES_HH
