#include "sim/workload_spec.hh"

#include <cctype>
#include <cstdlib>

#include "common/logging.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

namespace srs
{

namespace
{

constexpr const char *kTracePrefix = "trace:";

/** Split @p value on ';' into its non-empty items. */
std::vector<std::string>
splitSemis(const std::string &value)
{
    std::vector<std::string> items;
    std::string::size_type start = 0;
    while (start <= value.size()) {
        const auto semi = value.find(';', start);
        const auto end =
            semi == std::string::npos ? value.size() : semi;
        if (end > start)
            items.push_back(value.substr(start, end - start));
        if (semi == std::string::npos)
            break;
        start = semi + 1;
    }
    return items;
}

/**
 * A trace path appears verbatim inside one CSV field and one
 * manifest value, so it must not contain the characters those
 * formats give meaning to — nor ';', the per-core path separator,
 * or the label would re-parse as a different spec.
 */
void
validateTracePath(const std::string &path)
{
    for (const char c : path) {
        if (c == ',' || c == ';' || c == '#'
            || std::isspace(static_cast<unsigned char>(c))) {
            fatal("trace path '", path, "' contains '", std::string(1, c),
                  "', which cannot be spelled in a sweep CSV or shard "
                  "manifest (no commas, semicolons, whitespace or "
                  "'#'; want trace:<path> or trace:<p0>;<p1>;...)");
        }
    }
}

} // namespace

std::string
WorkloadSpec::label() const
{
    if (kind != WorkloadKind::TraceFile)
        return name;
    std::string joined = kTracePrefix;
    for (std::size_t i = 0; i < tracePaths.size(); ++i) {
        if (i > 0)
            joined += ';';
        joined += tracePaths[i];
    }
    return joined;
}

WorkloadSpec
WorkloadSpec::synthetic(const std::string &profileName)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Synthetic;
    spec.name = profileName;
    return spec;
}

WorkloadSpec
WorkloadSpec::mix(std::uint32_t index, std::uint32_t cores)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Mix;
    spec.name = "mix" + std::to_string(index);
    for (const WorkloadProfile &p : mixWorkload(index, cores))
        spec.mixProfiles.push_back(p.name);
    return spec;
}

WorkloadSpec
WorkloadSpec::traceFiles(std::vector<std::string> paths)
{
    if (paths.empty()) {
        fatal("trace workload spec needs at least one path (want "
              "trace:<path> or trace:<p0>;<p1>;... with one path per "
              "core)");
    }
    for (const std::string &path : paths)
        validateTracePath(path);
    WorkloadSpec spec;
    spec.kind = WorkloadKind::TraceFile;
    spec.tracePaths = std::move(paths);
    spec.name = spec.label();
    return spec;
}

WorkloadSpec
WorkloadSpec::generatorSpec(const GeneratorSpec &gen)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Generator;
    spec.generator = gen;
    spec.name = gen.label();
    return spec;
}

WorkloadSpec
WorkloadSpec::parse(const std::string &spelling, std::uint32_t cores)
{
    if (GeneratorSpec::matchesPrefix(spelling))
        return generatorSpec(GeneratorSpec::parse(spelling));
    if (spelling.rfind(kTracePrefix, 0) != 0)
        return synthetic(spelling);
    std::vector<std::string> paths =
        splitSemis(spelling.substr(std::string(kTracePrefix).size()));
    if (paths.empty()) {
        fatal("workload spec '", spelling, "': trace spec needs at "
              "least one path (want trace:<path> or "
              "trace:<p0>;<p1>;... with one path per core)");
    }
    if (paths.size() != 1 && paths.size() != cores) {
        fatal("workload spec '", spelling, "': ", paths.size(),
              " trace paths, but a per-core list needs exactly ",
              cores, " (or a single path shared by every core)");
    }
    return traceFiles(std::move(paths));
}

namespace
{

/**
 * The timing-knob suffixes of an axes spelling, in canonical order.
 * The order is load-bearing: field() emits overridden knobs in this
 * sequence and parse() requires it, which is what makes the two
 * exact inverses.
 */
struct AxesKnob
{
    const char *key;
    std::uint32_t SystemAxes::*member;
    /** Largest accepted override in ns (row timings stay far below
     *  refresh-interval scale, so the sanity bound is per knob). */
    std::uint32_t maxNs;
};

constexpr AxesKnob kAxesKnobs[] = {
    {"trc", &SystemAxes::tRcNs, 10'000},
    {"trcd", &SystemAxes::tRcdNs, 10'000},
    {"trp", &SystemAxes::tRpNs, 10'000},
    // DDR4's default tREFI is already 7800 ns; relaxed-refresh
    // sensitivity points (2x, 4x tREFI) must stay spellable.
    {"trefi", &SystemAxes::tRefiNs, 100'000},
    {"trfc", &SystemAxes::tRfcNs, 10'000},
};

constexpr const char *kAxesGrammar =
    "<policy>[@ddr4|@ddr5][@org=CxRxB][@trc=NS][@trcd=NS][@trp=NS]"
    "[@trefi=NS][@trfc=NS] with policy closed|open, suffixes in that "
    "order, org a power-of-two channels x ranks x banks-per-rank "
    "triple (channels 1..8, ranks 1..4, banks 4..64), NS in 1..10000 "
    "nanoseconds (trefi: 1..100000)";

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** One strictly-decimal component of a CxRxB triple. */
bool
parseOrgPart(const std::string &part, std::uint32_t &out)
{
    if (part.empty()
        || !std::isdigit(static_cast<unsigned char>(part[0])))
        return false;
    char *endp = nullptr;
    const unsigned long long v = std::strtoull(part.c_str(), &endp, 10);
    if (endp != part.c_str() + part.size() || v > 0xFFFFFFFFull)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Shape check only: exactly three 'x'-separated decimal fields. */
bool
parseOrgValue(const std::string &value, std::uint32_t &channels,
              std::uint32_t &ranks, std::uint32_t &banks)
{
    const auto x1 = value.find('x');
    if (x1 == std::string::npos)
        return false;
    const auto x2 = value.find('x', x1 + 1);
    if (x2 == std::string::npos
        || value.find('x', x2 + 1) != std::string::npos)
        return false;
    return parseOrgPart(value.substr(0, x1), channels)
        && parseOrgPart(value.substr(x1 + 1, x2 - x1 - 1), ranks)
        && parseOrgPart(value.substr(x2 + 1), banks);
}

bool
orgInBounds(std::uint32_t channels, std::uint32_t ranks,
            std::uint32_t banks)
{
    return isPow2(channels) && channels <= 8
        && isPow2(ranks) && ranks <= 4
        && isPow2(banks) && banks >= 4 && banks <= 64;
}

} // namespace

std::string
SystemAxes::field() const
{
    std::string text = pagePolicyName(pagePolicy);
    if (preset != DramPreset::Ddr4) {
        text += '@';
        text += dramPresetName(preset);
    }
    const DramOrg defaultOrg{};
    if (orgChannels != defaultOrg.channels
        || orgRanks != defaultOrg.ranksPerChannel
        || orgBanks != defaultOrg.banksPerRank) {
        text += "@org=" + std::to_string(orgChannels) + "x"
                + std::to_string(orgRanks) + "x"
                + std::to_string(orgBanks);
    }
    for (const AxesKnob &knob : kAxesKnobs) {
        const std::uint32_t ns = this->*knob.member;
        if (ns != 0) {
            text += '@';
            text += knob.key;
            text += '=';
            text += std::to_string(ns);
        }
    }
    return text;
}

SystemAxes
SystemAxes::parse(const std::string &text)
{
    SystemAxes axes;
    const auto at = text.find('@');
    const std::string policy = text.substr(0, at);
    if (policy == "closed") {
        axes.pagePolicy = PagePolicy::Closed;
    } else if (policy == "open") {
        axes.pagePolicy = PagePolicy::Open;
    } else {
        fatal("system axes '", text, "': unknown page policy '",
              policy, "' (want ", kAxesGrammar, ")");
    }

    // Each '@'-chained suffix is the preset name, the org triple, or
    // one knob=value pair; kAxesKnobs order is enforced (nextKnob
    // only advances), which also rejects duplicates.
    std::size_t nextKnob = 0;
    bool sawPreset = false;
    bool sawOrg = false;
    std::string::size_type start = at;
    while (start != std::string::npos) {
        const auto end = text.find('@', start + 1);
        const std::string suffix =
            text.substr(start + 1, end == std::string::npos
                                       ? std::string::npos
                                       : end - start - 1);
        start = end;

        const auto eq = suffix.find('=');
        if (eq == std::string::npos) {
            if (sawPreset || sawOrg || nextKnob > 0) {
                fatal("system axes '", text, "': preset '", suffix,
                      "' must come right after the policy (want ",
                      kAxesGrammar, ")");
            }
            if (suffix == "ddr4") {
                axes.preset = DramPreset::Ddr4;
            } else if (suffix == "ddr5") {
                axes.preset = DramPreset::Ddr5;
            } else {
                fatal("system axes '", text, "': unknown suffix '",
                      suffix, "' (want ", kAxesGrammar, ")");
            }
            sawPreset = true;
            continue;
        }

        const std::string key = suffix.substr(0, eq);
        if (key == "org") {
            if (sawOrg || nextKnob > 0) {
                fatal("system axes '", text, "': ",
                      sawOrg ? "repeated" : "out-of-order",
                      " org suffix '", suffix, "' — org comes right "
                      "after the policy/preset (want ", kAxesGrammar,
                      ")");
            }
            const std::string value = suffix.substr(eq + 1);
            std::uint32_t channels = 0, ranks = 0, banks = 0;
            if (!parseOrgValue(value, channels, ranks, banks)
                || !orgInBounds(channels, ranks, banks)) {
                fatal("system axes '", text, "': '", value,
                      "' is not a CxRxB DRAM organization (want ",
                      kAxesGrammar, ")");
            }
            axes.orgChannels = channels;
            axes.orgRanks = ranks;
            axes.orgBanks = banks;
            sawOrg = true;
            continue;
        }
        std::size_t k = nextKnob;
        while (k < std::size(kAxesKnobs) && key != kAxesKnobs[k].key)
            ++k;
        if (k == std::size(kAxesKnobs)) {
            bool knownKey = false;
            for (const AxesKnob &knob : kAxesKnobs)
                knownKey = knownKey || key == knob.key;
            fatal("system axes '", text, "': ",
                  knownKey ? "out-of-order or repeated" : "unknown",
                  " timing override '", suffix, "' (want ",
                  kAxesGrammar, ")");
        }
        const std::string value = suffix.substr(eq + 1);
        char *endp = nullptr;
        const unsigned long long ns =
            std::strtoull(value.c_str(), &endp, 10);
        if (value.empty() || endp == value.c_str() || *endp != '\0'
            || ns == 0 || ns > kAxesKnobs[k].maxNs) {
            fatal("system axes '", text, "': '", value, "' is not a ",
                  key, " override in nanoseconds (want ",
                  kAxesGrammar, ")");
        }
        axes.*kAxesKnobs[k].member = static_cast<std::uint32_t>(ns);
        nextKnob = k + 1;
    }
    axes.validate();
    return axes;
}

DramTimingNs
SystemAxes::effectiveTimingNs() const
{
    DramTimingNs ns = DramTimingNs::preset(preset);
    if (tRcNs != 0)
        ns.tRC = static_cast<double>(tRcNs);
    if (tRcdNs != 0)
        ns.tRCD = static_cast<double>(tRcdNs);
    if (tRpNs != 0)
        ns.tRP = static_cast<double>(tRpNs);
    if (tRefiNs != 0)
        ns.tREFI = static_cast<double>(tRefiNs);
    if (tRfcNs != 0)
        ns.tRFC = static_cast<double>(tRfcNs);
    // tRAS is never overridden directly; it is re-derived so the
    // bank state machine stays self-consistent.
    ns.tRAS = ns.tRC - ns.tRP;
    return ns;
}

void
SystemAxes::validate() const
{
    if (!orgInBounds(orgChannels, orgRanks, orgBanks)) {
        fatal("system axes '", field(), "': DRAM organization ",
              orgChannels, "x", orgRanks, "x", orgBanks,
              " out of range — channels, ranks and banks-per-rank "
              "must be powers of two within 1..8 / 1..4 / 4..64");
    }
    const DramTimingNs ns = effectiveTimingNs();
    if (ns.tRC < ns.tRCD + ns.tRP) {
        fatal("system axes '", field(), "': inconsistent timings — "
              "tRC (", ns.tRC, "ns) is smaller than tRCD + tRP (",
              ns.tRCD, "ns + ", ns.tRP, "ns); a row cycle must cover "
              "opening and closing the row");
    }
}

void
SystemAxes::apply(SystemConfig &cfg) const
{
    validate();
    cfg.memCtrl.pagePolicy = pagePolicy;
    cfg.org.channels = orgChannels;
    cfg.org.ranksPerChannel = orgRanks;
    cfg.org.banksPerRank = orgBanks;
    const double cpuFreqGHz = cfg.timingNs.cpuFreqGHz;
    cfg.timingNs = effectiveTimingNs();
    cfg.timingNs.cpuFreqGHz = cpuFreqGHz;
}

const char *
pagePolicyName(PagePolicy policy)
{
    switch (policy) {
      case PagePolicy::Closed: return "closed";
      case PagePolicy::Open:   return "open";
    }
    return "?";
}

PagePolicy
pagePolicyFromName(const std::string &name)
{
    if (name == "closed")
        return PagePolicy::Closed;
    if (name == "open")
        return PagePolicy::Open;
    fatal("unknown page policy '", name, "' (want closed|open)");
}

const char *
dramPresetName(DramPreset preset)
{
    switch (preset) {
      case DramPreset::Ddr4: return "ddr4";
      case DramPreset::Ddr5: return "ddr5";
    }
    return "?";
}

DramPreset
dramPresetFromName(const std::string &name)
{
    if (name == "ddr4")
        return DramPreset::Ddr4;
    if (name == "ddr5")
        return DramPreset::Ddr5;
    fatal("unknown DRAM preset '", name, "' (want ddr4|ddr5)");
}

void
dramOrgFromName(const std::string &name, SystemAxes &axes)
{
    std::uint32_t channels = 0, ranks = 0, banks = 0;
    if (!parseOrgValue(name, channels, ranks, banks)
        || !orgInBounds(channels, ranks, banks)) {
        fatal("unknown DRAM org '", name, "' (want CxRxB — "
              "power-of-two channels x ranks x banks-per-rank, "
              "channels 1..8, ranks 1..4, banks 4..64)");
    }
    axes.orgChannels = channels;
    axes.orgRanks = ranks;
    axes.orgBanks = banks;
}

} // namespace srs
