/**
 * @file
 * Generic page table model used for stage-1 (mEnclave), stage-2
 * (S-EL2 partition) and SMMU (device DMA) translations.
 *
 * The table holds extents, not pages: one entry maps a contiguous
 * run, as a stage-2 block descriptor maps a partition's region. Every
 * mutator takes a page count and splits an extent only where its
 * range begins or ends inside one.
 *
 * Proceed-trap failover (§IV-D) relies on the SPM invalidating
 * stage-2/SMMU entries so that subsequent accesses *fault*; the table
 * therefore distinguishes "unmapped" from "invalidated" so trap
 * handlers can tell a failure trap from a plain bug.
 */

#ifndef CRONUS_HW_PAGE_TABLE_HH
#define CRONUS_HW_PAGE_TABLE_HH

#include <cstdint>
#include <map>
#include <utility>

#include "base/status.hh"
#include "translation_cache.hh"
#include "types.hh"

namespace cronus::hw
{

/** Result of a translation attempt. */
enum class FaultKind
{
    None,
    /** No entry was ever installed. */
    Unmapped,
    /** Entry exists but was invalidated (failure trap, §IV-D). */
    Invalidated,
    /** Permission violation. */
    Permission,
};

struct Translation
{
    PhysAddr phys = 0;
    FaultKind fault = FaultKind::None;
    /** VA of the first faulting byte (valid when fault != None);
     *  trap handlers report the precise page, not the access base. */
    VirtAddr faultVa = 0;

    bool ok() const { return fault == FaultKind::None; }
};

class PageTable
{
  public:
    /**
     * Map @p pages pages at @p va onto the physical run at @p pa.
     * All or nothing: if any page of the range is mapped and valid,
     * nothing changes and InvalidState is returned. Invalidated
     * entries in the range are replaced.
     */
    Status map(VirtAddr va, PhysAddr pa, uint64_t pages,
               PagePerms perms, uint64_t share_tag = 0);

    /** Remove every mapping in the range; NotFound if some page of
     *  it was not mapped (the mapped ones are still removed). */
    Status unmap(VirtAddr va, uint64_t pages);

    /** Invalidate (but keep) the mappings in the range so later
     *  accesses fault with FaultKind::Invalidated; NotFound as for
     *  unmap(). revalidate() undoes it. */
    Status
    invalidate(VirtAddr va, uint64_t pages)
    {
        return setValid(va, pages, false);
    }
    Status
    revalidate(VirtAddr va, uint64_t pages)
    {
        return setValid(va, pages, true);
    }

    /** Translate one access of @p len bytes starting at @p va.
     *  @p write selects the permission checked. */
    Translation translate(VirtAddr va, uint64_t len, bool write) const;

    /**
     * TLB-only peek for the SPM zero-copy fast path: hit iff the
     * page is cached, valid and @p write is permitted. Never walks
     * the table, so a miss (or disabled cache) means "take the full
     * translate() path". @p host is the annotated backing page
     * (nullptr until cacheHostPage() resolves it).
     */
    bool
    cachedTranslate(uint64_t page_idx, PhysAddr &phys_page,
                    bool write, uint8_t *&host) const
    {
        PagePerms perms;
        if (!tlb.lookup(page_idx, phys_page, perms, host))
            return false;
        return write ? perms.write : perms.read;
    }

    /** Attach the backing host page to a cached translation. */
    void
    cacheHostPage(uint64_t page_idx, uint8_t *host)
    {
        tlb.annotateHost(page_idx, host);
    }

    /** Invalidate every valid page whose shareTag matches. Returns
     *  the number of pages invalidated. */
    size_t invalidateByTag(uint64_t share_tag);

    void
    clear()
    {
        extents.clear();
        tlb.shootdownAll();
    }

    /** Software-TLB introspection (stats, tests). */
    const TlbCounters &tlbCounters() const { return tlb.counters(); }

  private:
    /** @p pages pages mapped onto the physical run at @p phys. */
    struct Extent
    {
        uint64_t pages = 0;
        PhysAddr phys = 0;
        PagePerms perms;
        bool valid = true;
        /** Who the pages are shared with (the SPM's grant id). */
        uint64_t shareTag = 0;
    };
    using Extents = std::map<uint64_t, Extent>;

    /** Split the extents straddling either end of the page range
     *  [@p first, @p first + @p pages) and return the extents that
     *  now lie inside it. */
    std::pair<Extents::iterator, Extents::iterator>
    carve(uint64_t first, uint64_t pages);
    Status setValid(VirtAddr va, uint64_t pages, bool valid);

    /* first page index -> extent; extents never overlap. */
    Extents extents;
    /* Consulted before the extent lookup for single-page accesses;
     * mutable because translate() is logically const. */
    mutable TranslationCache tlb;
};

} // namespace cronus::hw

#endif // CRONUS_HW_PAGE_TABLE_HH
