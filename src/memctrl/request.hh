/**
 * @file
 * Memory request and row-migration job types exchanged between the
 * LLC, the memory controller and the Row Hammer mitigations.
 */

#ifndef SRS_MEMCTRL_REQUEST_HH
#define SRS_MEMCTRL_REQUEST_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/address.hh"

namespace srs
{

/** One demand access (an LLC miss or writeback) to main memory. */
struct MemRequest
{
    /** unique tag assigned by the controller; ids only grow, so id
     *  order is arrival (age) order */
    std::uint64_t id = 0;
    Addr addr = kInvalidAddr;   ///< byte address (logical / OS view)
    bool isWrite = false;
    CoreId core = 0;
    Cycle arrival = 0;          ///< enqueue cycle

    DramCoord coord;            ///< decoded coordinates (logical row)
    RowId physRow = kInvalidRow;///< row after RIT remap (cached)
    std::uint64_t mapVersion = 0;///< remap-cache validity stamp

    Cycle completion = kNoCycle;///< data-return cycle once issued
};

/** Activation charge to a physical row embedded in a migration. */
struct RowCharge
{
    RowId row;
    std::uint32_t count;
};

/**
 * A mitigation-driven row movement.  Jobs occupy their bank for
 * `duration` cycles and atomically charge the listed "latent"
 * activations to the ground-truth per-row counters when they start.
 */
struct MigrationJob
{
    enum class Kind
    {
        Swap,           ///< RRS/SRS initial swap (two-row exchange)
        UnswapSwap,     ///< RRS restore + re-swap (the Juggernaut lever)
        PlaceBack,      ///< SRS lazy eviction step
        CounterAccess,  ///< per-row swap-counter / Hydra RCT access
    };

    Kind kind = Kind::Swap;
    Cycle duration = 0;
    std::vector<RowCharge> charges;
};

/** @return human-readable name for stats. */
const char *migrationKindName(MigrationJob::Kind kind);

} // namespace srs

#endif // SRS_MEMCTRL_REQUEST_HH
