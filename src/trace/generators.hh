/**
 * @file
 * Generator-backed workloads: skewed multi-tenant traffic shapes
 * spelled as first-class WorkloadSpec labels (docs/sweep-format.md,
 * schema v4).
 *
 * Three families, one canonical comma-free grammar:
 *
 *  - `zipf:<rows>@s=<skew>` — row popularity follows a Zipf law with
 *    exponent <skew> over a <rows>-row region (rank 0 hottest);
 *  - `hotspot:<rows>@hot=<frac>@p=<prob>[@shift=<cycles>]` — a hot
 *    set covering <frac> of the region absorbs <prob> of the
 *    accesses; with @shift the hot set migrates to the next window
 *    every <cycles> of generator time (phase changes);
 *  - `blend:<zipf-or-hotspot-spec>+attack@<rate>` — the victim
 *    stream above with an embedded Row Hammer stream: a <rate>
 *    fraction of records become zero-gap reads alternating over the
 *    victim's two hottest rows.
 *
 * GeneratorSpec::parse and ::label are exact inverses
 * (parse(label(x)) == x); fractional knobs are stored in exact
 * milli-units so equality and re-spelling never touch floats.  A
 * malformed spelling is fatal(), quoting the input verbatim and
 * listing the whole grammar — the same contract the synthetic/MIX/
 * trace spellings and SystemAxes already honour.
 */

#ifndef SRS_TRACE_GENERATORS_HH
#define SRS_TRACE_GENERATORS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "cpu/core.hh"
#include "dram/address.hh"

namespace srs
{

/** Which generator family shapes the victim traffic. */
enum class GeneratorFamily
{
    /** Zipf-distributed row popularity. */
    Zipf,
    /** Hot-set with optional phase migration. */
    Hotspot,
};

/**
 * Identity of one generator-backed workload.  Fractional knobs
 * (skew, hot fraction, hot probability, attack rate) are exact
 * milli-units (990 = 0.99) so the spec round-trips its spelling
 * byte-exactly and compares with defaulted equality.  A blend is the
 * victim family plus a nonzero attackRateMilli — nesting a blend
 * inside a blend is a grammar error.
 */
struct GeneratorSpec
{
    GeneratorFamily family = GeneratorFamily::Zipf;
    /** Size of the touched row region (1..65536). */
    std::uint32_t rows = 0;
    /** Zipf exponent in milli-units (0..8000). */
    std::uint32_t skewMilli = 0;
    /** Hotspot hot-set fraction in milli-units (1..999). */
    std::uint32_t hotFracMilli = 0;
    /** Hotspot hot-set hit probability in milli-units (1..1000). */
    std::uint32_t hotProbMilli = 0;
    /** Hotspot phase-shift period in generator time; 0 = static. */
    std::uint64_t shiftCycles = 0;
    /** Blend attack fraction in milli-units; 0 = no attack stream. */
    std::uint32_t attackRateMilli = 0;

    bool operator==(const GeneratorSpec &) const = default;

    /**
     * Canonical spelling — the WorkloadSpec label that keys the
     * cell's trace seed and baseline.  Exact inverse of parse().
     */
    std::string label() const;

    /**
     * Parse one generator spelling (`zipf:...`, `hotspot:...` or
     * `blend:...`); fatal() quotes @p spelling verbatim and lists
     * the whole grammar on any malformed or out-of-range input.
     */
    static GeneratorSpec parse(const std::string &spelling);

    /** @return true when @p spelling starts with a generator prefix. */
    static bool matchesPrefix(const std::string &spelling);
};

/**
 * Deterministic per-core TraceSource driving a GeneratorSpec.
 *
 * Row indices stripe across channels, then banks, then ranks, then
 * rows-in-bank (the address map's own interleave order), so a small
 * region still exercises every bank.  Per-core streams are seeded
 * exactly like SyntheticTrace (seed ^ golden-ratio * (core+1)); the
 * hotspot phase clock advances in generator time (accumulated
 * nonMemGap + 1 per record), so phase boundaries depend only on the
 * stream itself and are identical at any thread count.
 */
class GeneratorTrace : public TraceSource
{
  public:
    /**
     * @param spec generator identity (validated by parse())
     * @param map  system address map; fatal() when spec.rows exceeds
     *             the mapped row count
     * @param core core index (decorrelates per-core streams)
     * @param seed trace seed; same seed -> identical stream
     */
    GeneratorTrace(const GeneratorSpec &spec, const AddressMap &map,
                   CoreId core, std::uint64_t seed);

    TraceRecord next() override;

  private:
    Addr addrOfRowIndex(std::uint64_t rowIndex, std::uint64_t line);
    std::uint64_t hotSetStart() const;
    std::uint64_t pickVictimRow();

    GeneratorSpec spec_;
    const AddressMap &map_;
    CoreId core_;
    Rng rng_;

    std::vector<double> zipfCdf_;   ///< cumulative popularity by rank
    std::uint64_t time_ = 0;        ///< generator time for @shift
    std::uint64_t victimLine_ = 0;  ///< column cursor, victim stream
    std::uint64_t attackLine_ = 0;  ///< column cursor, attack stream
    std::uint64_t attackFlip_ = 0;  ///< alternates the aggressor pair
};

} // namespace srs

#endif // SRS_TRACE_GENERATORS_HH
