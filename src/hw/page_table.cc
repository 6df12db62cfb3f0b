#include "page_table.hh"

#include <iterator>

#include "obs/trace.hh"

namespace cronus::hw
{

namespace
{

/** NotFound unless the extents in [@p lo, @p hi) hold all @p pages
 *  of the range they were carved from. */
template <typename It>
Status
covers(It lo, It hi, uint64_t pages)
{
    for (; lo != hi; ++lo)
        pages -= lo->second.pages;
    if (pages != 0)
        return Status(ErrorCode::NotFound, "page not mapped");
    return Status::ok();
}

} // namespace

std::pair<PageTable::Extents::iterator, PageTable::Extents::iterator>
PageTable::carve(uint64_t first, uint64_t pages)
{
    /* Returns the first extent at or after idx. Insertion keeps
     * iterators valid, so the end split survives the start split. */
    auto split_at = [this](uint64_t idx) {
        auto it = extents.lower_bound(idx);
        if (it == extents.begin())
            return it;
        auto &[start, head] = *std::prev(it);
        if (start + head.pages <= idx)
            return it;
        Extent tail = head;
        tail.pages -= idx - start;
        tail.phys += (idx - start) << kPageShift;
        head.pages = idx - start;
        return extents.emplace_hint(it, idx, tail);
    };
    auto hi = split_at(first + pages);
    auto lo = split_at(first);
    return {lo, hi};
}

Status
PageTable::map(VirtAddr va, PhysAddr pa, uint64_t pages,
               PagePerms perms, uint64_t share_tag)
{
    if (!isPageAligned(va) || !isPageAligned(pa))
        return Status(ErrorCode::InvalidArgument,
                      "map requires page-aligned addresses");
    uint64_t first = va >> kPageShift;
    if (pages == 0)
        return Status::ok();
    /* Refuse before any change: a range is never half mapped. */
    auto it = extents.upper_bound(first);
    if (it != extents.begin())
        --it;
    for (; it != extents.end() && it->first < first + pages; ++it) {
        if (it->second.valid && it->first + it->second.pages > first)
            return Status(ErrorCode::InvalidState,
                          "page already mapped");
    }
    auto [lo, hi] = carve(first, pages);
    extents.erase(lo, hi);
    extents.emplace_hint(hi, first,
                         Extent{pages, pa, perms, true, share_tag});
    /* The pages' translations (phys/perms) may have changed. */
    tlb.evictRange(first, pages);
    return Status::ok();
}

Status
PageTable::unmap(VirtAddr va, uint64_t pages)
{
    uint64_t first = va >> kPageShift;
    auto [lo, hi] = carve(first, pages);
    Status s = covers(lo, hi, pages);
    extents.erase(lo, hi);
    tlb.evictRange(first, pages);
    return s;
}

Status
PageTable::setValid(VirtAddr va, uint64_t pages, bool valid)
{
    uint64_t first = va >> kPageShift;
    auto [lo, hi] = carve(first, pages);
    Status s = covers(lo, hi, pages);
    for (; lo != hi; ++lo)
        lo->second.valid = valid;
    /* Revalidation needs no eviction: faults are never cached, so a
     * stale miss simply re-walks and sees the revalidated entry. */
    if (!valid)
        tlb.evictRange(first, pages);
    return s;
}

Translation
PageTable::translate(VirtAddr va, uint64_t len, bool write) const
{
    if (len == 0)
        len = 1;
    /* A range whose end wraps past the top of the address space is
     * never mapped; checked before the TLB, whose one-page test a
     * wrapped end can pass. */
    if (len - 1 > ~va)
        return Translation{0, FaultKind::Unmapped, va};
    uint64_t first = va >> kPageShift;
    uint64_t last = (va + len - 1) >> kPageShift;

    /* Fast path: single-page access through the software TLB. Only
     * valid translations are cached, so a hit can at most differ on
     * permissions, which are stored (and re-checked) per entry. */
    if (first == last && TranslationCache::globalEnable()) {
        PhysAddr phys_page = 0;
        PagePerms perms;
        if (tlb.lookup(first, phys_page, perms)) {
            if (write ? !perms.write : !perms.read)
                return Translation{0, FaultKind::Permission, va};
            return Translation{phys_page + (va & (kPageSize - 1)),
                               FaultKind::None};
        }
    }

    /* Slow path: one step per covered extent, whose pages share its
     * checks; the next extent must start where this one ends (else
     * that page is unmapped) and continue its physical run. */
    auto it = extents.upper_bound(first);
    if (it == extents.begin() ||
        std::prev(it)->first + std::prev(it)->second.pages <= first)
        return Translation{0, FaultKind::Unmapped, va};
    --it;
    PhysAddr phys = 0;
    PhysAddr next_phys = 0;
    for (uint64_t idx = first;;) {
        const Extent &e = it->second;
        VirtAddr fault_va = idx == first ? va : (idx << kPageShift);
        if (!e.valid)
            return Translation{0, FaultKind::Invalidated, fault_va};
        if (write ? !e.perms.write : !e.perms.read)
            return Translation{0, FaultKind::Permission, fault_va};
        PhysAddr page_phys = e.phys + ((idx - it->first) << kPageShift);
        if (idx == first) {
            phys = page_phys + (va & (kPageSize - 1));
        } else if (page_phys != next_phys) {
            /* Access must be physically contiguous to be a single
             * bus transaction in this model. */
            return Translation{0, FaultKind::Unmapped, fault_va};
        }
        uint64_t end = it->first + e.pages;
        if (last < end) {
            if (first == last && TranslationCache::globalEnable())
                tlb.fill(first, page_phys, e.perms);
            return Translation{phys, FaultKind::None};
        }
        next_phys = e.phys + (e.pages << kPageShift);
        idx = end;
        if (++it == extents.end() || it->first != idx)
            return Translation{0, FaultKind::Unmapped,
                               idx << kPageShift};
    }
}

size_t
PageTable::invalidateByTag(uint64_t share_tag)
{
    size_t count = 0;
    for (auto &[first, e] : extents) {
        if (e.shareTag == share_tag && e.valid) {
            e.valid = false;
            tlb.evictRange(first, e.pages);
            count += e.pages;
        }
    }
    /* Instant "tlb.evict" on the shared tlb track (tag-wide sweeps;
     * the per-partition shootdown spans live in the SPM). */
    auto &tr = obs::Tracer::instance();
    if (tr.active() && count != 0) {
        JsonObject args;
        args["kind"] = "invalidate";
        args["tag"] = static_cast<int64_t>(share_tag);
        args["entries"] = static_cast<int64_t>(count);
        tr.instant(tr.track("tlb"), "tlb.evict", "tlb",
                   std::move(args));
    }
    return count;
}

} // namespace cronus::hw
