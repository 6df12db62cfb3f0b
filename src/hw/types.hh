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

inline PhysAddr pageAlignDown(PhysAddr a) { return a & ~(kPageSize - 1); }
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

inline const char *
worldName(World w)
{
    return w == World::Normal ? "normal" : "secure";
}

/** Identifier of an S-EL2 partition (0 is reserved for the SPM). */
using PartitionId = uint32_t;
constexpr PartitionId kSpmPartition = 0;

/** SMMU stream id assigned to a DMA-capable device. */
using StreamId = uint32_t;

/**
 * A borrowed window into simulated DRAM (zero-copy fast path).
 *
 * Only ever spans a single physical page: backing pages are
 * allocated independently, so cross-page runs are not contiguous in
 * host memory. Pointers stay valid for the lifetime of the
 * PhysicalMemory (pages are never freed), but the *translation* that
 * produced them can be revoked at any time — callers must re-borrow
 * per logical access, never cache a span across accesses.
 */
struct MemSpan
{
    uint8_t *data = nullptr;
    uint64_t len = 0;

    bool ok() const { return data != nullptr; }
};

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
