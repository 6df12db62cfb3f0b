/**
 * @file
 * Reference page table for the extent-table oracle: one std::map
 * node per 4 KiB page, with the per-page map/unmap/invalidate/
 * revalidate/translate rules hw::PageTable had before it held
 * extents. A range call is the per-page call in a loop (map checks
 * the whole range first, as the extent table does), so both tables
 * take the same operation sequence and must agree on every result.
 */

#ifndef CRONUS_TESTS_HW_REFERENCE_PAGE_TABLE_HH
#define CRONUS_TESTS_HW_REFERENCE_PAGE_TABLE_HH

#include <cstdint>
#include <map>

#include "hw/page_table.hh"

namespace cronus::hw::reference
{

class PerPageTable
{
  public:
    Status map(VirtAddr va, PhysAddr pa, uint64_t pages,
               PagePerms perms, uint64_t share_tag = 0);
    Status unmap(VirtAddr va, uint64_t pages);
    Status invalidate(VirtAddr va, uint64_t pages);
    Status revalidate(VirtAddr va, uint64_t pages);
    Translation translate(VirtAddr va, uint64_t len, bool write) const;
    size_t invalidateByTag(uint64_t share_tag);

    void
    clear()
    {
        entries.clear();
        tlb.shootdownAll();
    }

    const TlbCounters &tlbCounters() const { return tlb.counters(); }

  private:
    struct PageEntry
    {
        PhysAddr phys = 0;
        PagePerms perms;
        bool valid = true;
        uint64_t shareTag = 0;
    };

    Status unmapPage(uint64_t idx);
    Status setValid(uint64_t idx, bool valid);

    /* page index -> entry */
    std::map<uint64_t, PageEntry> entries;
    mutable TranslationCache tlb;
};

} // namespace cronus::hw::reference

#endif // CRONUS_TESTS_HW_REFERENCE_PAGE_TABLE_HH
