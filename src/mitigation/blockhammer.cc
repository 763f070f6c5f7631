#include "mitigation/blockhammer.hh"

#include <cmath>

#include "common/logging.hh"

namespace srs
{

BlockHammer::BlockHammer(MemoryController &ctrl,
                         AggressorTracker &tracker,
                         const MitigationConfig &cfg,
                         const BlockHammerConfig &bhCfg)
    : Mitigation(ctrl, tracker, cfg), bhCfg_(bhCfg),
      banksPerChannel_(ctrl.org().ranksPerChannel *
                       ctrl.org().banksPerRank)
{
    if (bhCfg_.blacklistFraction <= 0.0 ||
        bhCfg_.blacklistFraction >= 1.0) {
        fatal("blockhammer: blacklist fraction must be in (0, 1)");
    }
    if (bhCfg_.windowsPerEpoch == 0)
        fatal("blockhammer: need at least one window per epoch");
    if (bhCfg_.safetyFactor <= 0.0 || bhCfg_.safetyFactor > 1.0)
        fatal("blockhammer: safety factor must be in (0, 1]");
    nbl_ = static_cast<std::uint32_t>(
        bhCfg_.blacklistFraction * cfg_.trh);
    SRS_ASSERT(nbl_ > 0 && nbl_ < cfg_.trh, "bad blacklist threshold");

    const std::uint32_t banks =
        ctrl_.org().channels * banksPerChannel_;
    filters_.reserve(banks);
    for (std::uint32_t i = 0; i < banks; ++i)
        filters_.emplace_back(bhCfg_.bloom, cfg_.seed + i);
    nextAllowed_.resize(banks);
    throttledActs_ = stats_.handle("throttled_acts");
    throttleStamps_ = stats_.handle("throttle_stamps");
    rowsBlacklisted_ = stats_.handle("rows_blacklisted");

    // Until the first epoch boundary reports the real epoch length,
    // derive the 64 ms refresh window from tREFI (8192 refreshes).
    computeSpacing(ctrl_.timing().tREFI * 8192);
    nextRotateAt_ = windowLen_;
}

void
BlockHammer::computeSpacing(Cycle epochLen)
{
    windowLen_ = std::max<Cycle>(1, epochLen / bhCfg_.windowsPerEpoch);
    // A blacklisted row has at most T_RH - N_BL activations left in
    // the window; spacing them evenly keeps it under T_RH.
    const double budget =
        bhCfg_.safetyFactor * static_cast<double>(cfg_.trh - nbl_);
    spacing_ = std::max<Cycle>(
        1, static_cast<Cycle>(static_cast<double>(windowLen_) /
                              budget));
    stats_.set("throttle_spacing_cycles", spacing_);
}

std::uint32_t
BlockHammer::flatIndex(std::uint32_t channel, std::uint32_t bank) const
{
    const std::uint32_t idx = channel * banksPerChannel_ + bank;
    SRS_ASSERT(idx < filters_.size(), "bank index out of range");
    return idx;
}

RowId
BlockHammer::remapRow(std::uint32_t, std::uint32_t, RowId logical)
{
    return logical;
}

void
BlockHammer::onActivate(std::uint32_t channel, std::uint32_t bank,
                        RowId physRow, Cycle now)
{
    const std::uint32_t idx = flatIndex(channel, bank);
    const std::uint32_t est = filters_[idx].insert(physRow);
    if (est < nbl_)
        return;
    auto [it, fresh] =
        nextAllowed_[idx].insert_or_assign(physRow, now + spacing_);
    (void)it;
    if (fresh)
        stats_.inc(rowsBlacklisted_);
    stats_.inc(throttleStamps_);
}

Cycle
BlockHammer::actAllowedAt(std::uint32_t channel, std::uint32_t bank,
                          RowId physRow, Cycle now)
{
    const std::uint32_t idx = flatIndex(channel, bank);
    const auto it = nextAllowed_[idx].find(physRow);
    if (it == nextAllowed_[idx].end())
        return 0;
    if (it->second <= now) {
        nextAllowed_[idx].erase(it);
        return 0;
    }
    stats_.inc(throttledActs_);
    return it->second;
}

void
BlockHammer::tick(Cycle now)
{
    Mitigation::tick(now);
    if (now < nextRotateAt_)
        return;
    nextRotateAt_ += windowLen_;
    for (auto &filter : filters_)
        filter.rotate();
    // Drop expired throttle stamps so the maps stay small.
    for (auto &bank : nextAllowed_) {
        for (auto it = bank.begin(); it != bank.end();) {
            if (it->second <= now)
                it = bank.erase(it);
            else
                ++it;
        }
    }
    stats_.inc("filter_rotations");
}

void
BlockHammer::onEpochEnd(Cycle now, Cycle epochLen)
{
    Mitigation::onEpochEnd(now, epochLen);
    computeSpacing(epochLen);
    nextRotateAt_ = now + windowLen_;
}

std::uint64_t
BlockHammer::storageBitsPerBank() const
{
    // Dual counting Bloom filters plus a small row-blocker buffer
    // (blacklist stamps); no RIT, no place-back storage.
    const std::uint64_t blockerBits = 1024ULL * 8;
    return filters_.empty()
        ? blockerBits
        : filters_[0].storageBits() + blockerBits;
}

std::size_t
BlockHammer::blacklistedRows(std::uint32_t channel,
                             std::uint32_t bank) const
{
    return nextAllowed_[flatIndex(channel, bank)].size();
}

std::uint32_t
BlockHammer::estimateOf(std::uint32_t channel, std::uint32_t bank,
                        RowId physRow) const
{
    return filters_[flatIndex(channel, bank)].estimate(physRow);
}

} // namespace srs
