/**
 * @file
 * Sparse simulated physical memory.
 *
 * Raw storage only: world/partition access checks are layered above
 * (Tzasc at the bus, stage-2 tables in the SPM). The backing store is
 * allocated page-by-page on first touch so multi-GiB address maps are
 * cheap to simulate.
 */

#ifndef CRONUS_HW_PHYS_MEMORY_HH
#define CRONUS_HW_PHYS_MEMORY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/bytes.hh"
#include "base/status.hh"
#include "types.hh"

namespace cronus::hw
{

class PhysicalMemory
{
  public:
    /** @p size total byte capacity of the address range [0, size). */
    explicit PhysicalMemory(uint64_t size) : totalSize(size) {}

    uint64_t size() const { return totalSize; }

    /** Copy @p len bytes at @p addr into @p out. */
    Status read(PhysAddr addr, uint8_t *out, uint64_t len) const;
    Result<Bytes> read(PhysAddr addr, uint64_t len) const;

    /** Write @p len bytes at @p addr. */
    Status write(PhysAddr addr, const uint8_t *data, uint64_t len);
    Status write(PhysAddr addr, const Bytes &data);

    /** Zero a range (used by failure-clearing logic, A3). */
    Status clear(PhysAddr addr, uint64_t len);

    /**
     * Host pointer to the start of the page holding @p addr, for the
     * SPM's software-TLB fast path; nullptr if out of range. Always
     * materializes the page, and pages are never freed, so the
     * pointer stays valid for the memory's lifetime.
     */
    uint8_t *hostPage(PhysAddr addr);

    /** Count of pages actually materialized (test introspection). */
    size_t residentPages() const { return pages.size(); }

  private:
    bool inRange(PhysAddr addr, uint64_t len) const
    {
        return addr < totalSize && len <= totalSize - addr;
    }

    uint8_t *pageFor(PhysAddr addr, bool create) const;

    uint64_t totalSize;
    /* page index -> 4 KiB block; mutable for lazy read allocation */
    mutable std::unordered_map<uint64_t,
                               std::unique_ptr<uint8_t[]>> pages;
};

} // namespace cronus::hw

#endif // CRONUS_HW_PHYS_MEMORY_HH
