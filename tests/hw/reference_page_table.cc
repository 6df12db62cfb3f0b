#include "reference_page_table.hh"

namespace cronus::hw::reference
{

namespace
{

/** Fold per-page results: NotFound if any page of the range was. */
Status
rangeStatus(bool any_missing)
{
    if (any_missing)
        return Status(ErrorCode::NotFound, "page not mapped");
    return Status::ok();
}

} // namespace

Status
PerPageTable::map(VirtAddr va, PhysAddr pa, uint64_t pages,
                  PagePerms perms, uint64_t share_tag)
{
    if (!isPageAligned(va) || !isPageAligned(pa))
        return Status(ErrorCode::InvalidArgument,
                      "map requires page-aligned addresses");
    uint64_t first = va >> kPageShift;
    for (uint64_t i = 0; i < pages; ++i) {
        auto it = entries.find(first + i);
        if (it != entries.end() && it->second.valid)
            return Status(ErrorCode::InvalidState,
                          "page already mapped");
    }
    for (uint64_t i = 0; i < pages; ++i) {
        entries[first + i] = PageEntry{pa + (i << kPageShift), perms,
                                       true, share_tag};
        tlb.evictPage(first + i);
    }
    return Status::ok();
}

Status
PerPageTable::unmapPage(uint64_t idx)
{
    if (entries.erase(idx) == 0)
        return Status(ErrorCode::NotFound, "page not mapped");
    tlb.evictPage(idx);
    return Status::ok();
}

Status
PerPageTable::setValid(uint64_t idx, bool valid)
{
    auto it = entries.find(idx);
    if (it == entries.end())
        return Status(ErrorCode::NotFound, "page not mapped");
    it->second.valid = valid;
    /* Revalidation never evicts: faults are never cached. */
    if (!valid)
        tlb.evictPage(idx);
    return Status::ok();
}

Status
PerPageTable::unmap(VirtAddr va, uint64_t pages)
{
    bool missing = false;
    for (uint64_t i = 0; i < pages; ++i)
        missing |= !unmapPage((va >> kPageShift) + i).isOk();
    return rangeStatus(missing);
}

Status
PerPageTable::invalidate(VirtAddr va, uint64_t pages)
{
    bool missing = false;
    for (uint64_t i = 0; i < pages; ++i)
        missing |= !setValid((va >> kPageShift) + i, false).isOk();
    return rangeStatus(missing);
}

Status
PerPageTable::revalidate(VirtAddr va, uint64_t pages)
{
    bool missing = false;
    for (uint64_t i = 0; i < pages; ++i)
        missing |= !setValid((va >> kPageShift) + i, true).isOk();
    return rangeStatus(missing);
}

Translation
PerPageTable::translate(VirtAddr va, uint64_t len, bool write) const
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

    /* Walk each covered page; a key gap is an unmapped page. */
    auto it = entries.find(first);
    PhysAddr phys = 0;
    PhysAddr prev_phys = 0;
    for (uint64_t idx = first; idx <= last; ++idx) {
        VirtAddr fault_va = idx == first ? va : (idx << kPageShift);
        if (it == entries.end() || it->first != idx)
            return Translation{0, FaultKind::Unmapped, fault_va};
        const PageEntry &entry = it->second;
        if (!entry.valid)
            return Translation{0, FaultKind::Invalidated, fault_va};
        if (write ? !entry.perms.write : !entry.perms.read)
            return Translation{0, FaultKind::Permission, fault_va};
        if (idx == first) {
            phys = entry.phys + (va & (kPageSize - 1));
        } else if (entry.phys != prev_phys + kPageSize) {
            return Translation{0, FaultKind::Unmapped, fault_va};
        }
        prev_phys = entry.phys;
        if (idx == first && idx == last &&
            TranslationCache::globalEnable())
            tlb.fill(idx, entry.phys, entry.perms);
        ++it;
    }
    return Translation{phys, FaultKind::None};
}

size_t
PerPageTable::invalidateByTag(uint64_t share_tag)
{
    size_t count = 0;
    for (auto &[idx, entry] : entries) {
        if (entry.shareTag == share_tag && entry.valid) {
            entry.valid = false;
            tlb.evictPage(idx);
            ++count;
        }
    }
    return count;
}

} // namespace cronus::hw::reference
