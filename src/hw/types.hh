/**
 * @file
 * Common hardware-level types for the simulated platform.
 */

#ifndef CRONUS_HW_TYPES_HH
#define CRONUS_HW_TYPES_HH

#include <cstdint>
#include <string>

namespace cronus::hw
{

using PhysAddr = uint64_t;
using VirtAddr = uint64_t;

constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kPageShift = 12;

inline PhysAddr pageAlignUp(PhysAddr a)
{
    return (a + kPageSize - 1) & ~(kPageSize - 1);
}
inline bool isPageAligned(PhysAddr a) { return (a & (kPageSize - 1)) == 0; }

/** Which world issues an access (TrustZone NS bit, inverted). */
enum class World : uint8_t
{
    Normal,
    Secure,
};

/** Identifier of an S-EL2 partition (0 is reserved for the SPM). */
using PartitionId = uint32_t;
constexpr PartitionId kSpmPartition = 0;

/** SMMU stream id assigned to a DMA-capable device. */
using StreamId = uint32_t;

/** Page permissions. */
struct PagePerms
{
    bool read = true;
    bool write = true;
    bool exec = false;

    static PagePerms rw() { return {true, true, false}; }
    static PagePerms ro() { return {true, false, false}; }
};

} // namespace cronus::hw

#endif // CRONUS_HW_TYPES_HH
