/**
 * @file
 * Lightweight statistics containers used across the simulator.
 */

#ifndef SRS_COMMON_STATS_HH
#define SRS_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace srs
{

/**
 * Fixed-bucket log-scale latency histogram for tail percentiles.
 *
 * Values 0..15 get one exact bucket each; beyond that every
 * power-of-two octave is split into 8 sub-buckets (HDR-style), so the
 * relative bucket width is at most 1/8 across the whole 64-bit range
 * while the array stays a flat 496 counters.  Everything is integer
 * arithmetic on a fixed layout, which is what makes the histogram
 * safe for byte-identity contracts: equality is memberwise, and
 * quantiles are derived values that never feed back into state.
 *
 * quantilePermille() reports the q-th percentile as the inclusive
 * upper bound of the first bucket whose cumulative count reaches
 * ceil(total * q / 1000) — a deterministic integer, exact below 16
 * and within 12.5% above, which is the CSV contract for the
 * p50_lat/p99_lat/p999_lat columns (docs/sweep-format.md, schema v4).
 */
class LatencyHistogram
{
  public:
    /** Sub-buckets per octave = 2^kSubBits. */
    static constexpr std::uint32_t kSubBits = 3;
    /** Flat bucket count covering the full uint64 value range. */
    static constexpr std::uint32_t kBucketCount =
        16 + (64 - 4) * (1u << kSubBits);

    /** Count one sample of @p value (e.g. a read latency in cycles). */
    void add(std::uint64_t value, std::uint64_t weight = 1);

    std::uint64_t total() const { return total_; }

    /** Raw count of bucket @p bucket (tests, analysis). */
    std::uint64_t countAt(std::uint32_t bucket) const
    {
        return counts_[bucket];
    }

    /** Flat bucket index holding @p value. */
    static std::uint32_t bucketOf(std::uint64_t value);

    /** Largest value bucket @p bucket can hold (inclusive). */
    static std::uint64_t bucketUpperBound(std::uint32_t bucket);

    /**
     * @p permille-th percentile (500 = p50, 990 = p99, 999 = p999)
     * as the inclusive upper bound of the bucket where the
     * cumulative count first reaches ceil(total * permille / 1000);
     * 0 when the histogram is empty.
     */
    std::uint64_t quantilePermille(std::uint32_t permille) const;

    bool operator==(const LatencyHistogram &) const = default;

  private:
    std::array<std::uint64_t, kBucketCount> counts_{};
    std::uint64_t total_ = 0;
};

/**
 * Named counter registry: simulator components register counters so
 * experiment harnesses can dump everything uniformly.
 *
 * Counters are stored in a flat array indexed by interned handles.
 * Hot paths intern their names once (handle()) and then update
 * counters with a single array add; the string-keyed API remains for
 * cold paths, tests and reporting.
 */
class StatSet
{
  public:
    /** Interned counter index; stable for the StatSet's lifetime. */
    using Handle = std::uint32_t;

    /** Intern @p name, creating the counter at zero. */
    Handle handle(const std::string &name);

    /** Add @p delta to the counter behind @p h (no lookup). */
    void inc(Handle h, std::uint64_t delta = 1) { values_[h] += delta; }

    /** Overwrite the counter behind @p h. */
    void setAt(Handle h, std::uint64_t value) { values_[h] = value; }

    /** @return value of the counter behind @p h. */
    std::uint64_t getAt(Handle h) const { return values_[h]; }

    /** Add @p delta to counter @p name (creating it at zero). */
    void inc(const std::string &name, std::uint64_t delta = 1);

    /** Overwrite counter @p name. */
    void set(const std::string &name, std::uint64_t value);

    /** @return counter value; 0 when never touched. */
    std::uint64_t get(const std::string &name) const;

    /** Materialized name -> value view of every registered counter. */
    std::map<std::string, std::uint64_t> all() const;

    /** Render "name = value" lines, sorted by name. */
    std::string dump() const;

  private:
    std::map<std::string, Handle> index_;
    std::vector<std::uint64_t> values_;
};

} // namespace srs

#endif // SRS_COMMON_STATS_HH
