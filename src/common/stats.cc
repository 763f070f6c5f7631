#include "common/stats.hh"

#include <sstream>

namespace srs
{

void
LatencyHistogram::add(std::uint64_t value, std::uint64_t weight)
{
    counts_[bucketOf(value)] += weight;
    total_ += weight;
}

std::uint32_t
LatencyHistogram::bucketOf(std::uint64_t value)
{
    if (value < 16)
        return static_cast<std::uint32_t>(value);
    std::uint32_t octave = 63;
    while ((value >> octave) == 0)
        --octave;
    const std::uint32_t sub = static_cast<std::uint32_t>(
        (value >> (octave - kSubBits)) - (1u << kSubBits));
    return 16 + (octave - 4) * (1u << kSubBits) + sub;
}

std::uint64_t
LatencyHistogram::bucketUpperBound(std::uint32_t bucket)
{
    if (bucket < 16)
        return bucket;
    const std::uint32_t rel = bucket - 16;
    const std::uint32_t octave = 4 + rel / (1u << kSubBits);
    const std::uint64_t sub = rel % (1u << kSubBits);
    // The (1 << kSubBits) + sub + 1 mantissa shifted into place; the
    // top bucket wraps to exactly UINT64_MAX, its true upper bound.
    return (((1u << kSubBits) + sub + 1) << (octave - kSubBits)) - 1;
}

std::uint64_t
LatencyHistogram::quantilePermille(std::uint32_t permille) const
{
    if (total_ == 0)
        return 0;
    // ceil(total * permille / 1000) without 128-bit intermediates.
    const std::uint64_t whole = total_ / 1000;
    const std::uint64_t rem = total_ % 1000;
    const std::uint64_t rank =
        whole * permille + (rem * permille + 999) / 1000;
    std::uint64_t cumulative = 0;
    for (std::uint32_t b = 0; b < kBucketCount; ++b) {
        cumulative += counts_[b];
        if (cumulative >= rank)
            return bucketUpperBound(b);
    }
    return bucketUpperBound(kBucketCount - 1);
}

StatSet::Handle
StatSet::handle(const std::string &name)
{
    const auto it = index_.find(name);
    if (it != index_.end())
        return it->second;
    const Handle h = static_cast<Handle>(values_.size());
    index_.emplace(name, h);
    values_.push_back(0);
    return h;
}

void
StatSet::inc(const std::string &name, std::uint64_t delta)
{
    inc(handle(name), delta);
}

void
StatSet::set(const std::string &name, std::uint64_t value)
{
    setAt(handle(name), value);
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    const auto it = index_.find(name);
    return it == index_.end() ? 0 : values_[it->second];
}

std::map<std::string, std::uint64_t>
StatSet::all() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, h] : index_)
        out.emplace(name, values_[h]);
    return out;
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &[name, h] : index_)
        os << name << " = " << values_[h] << "\n";
    return os.str();
}

} // namespace srs
