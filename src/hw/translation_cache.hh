/**
 * @file
 * Software TLB for the page-table models.
 *
 * Every PageTable (stage-2 per partition, SMMU per stream, GPU
 * per-context VA space) embeds one TranslationCache: a direct-mapped
 * VA-page -> (phys page, perms, epoch) cache consulted before the
 * extent lookup. The cache only ever holds *positive* translations
 * of single valid pages, so correctness reduces to one rule: every
 * page-table range mutation must evict each page of its range
 * (precise shootdown) or bump the epoch (full shootdown). The first
 * access after an invalidation therefore walks the table and faults
 * exactly as the uncached model does -- the property the failover story
 * (§IV-D) and the differential-isolation fuzz oracle depend on.
 *
 * The cache is a pure performance layer: it never charges virtual
 * time and never changes outcomes, so figure-bench output is
 * byte-identical with the cache on or off (CRONUS_DISABLE_TLB=1).
 */

#ifndef CRONUS_HW_TRANSLATION_CACHE_HH
#define CRONUS_HW_TRANSLATION_CACHE_HH

#include <cstdint>
#include <vector>

#include "types.hh"

namespace cronus::hw
{

/** Hit/miss/shootdown counters, aggregatable across caches. */
struct TlbCounters
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t fills = 0;
    uint64_t shootdowns = 0;

    void
    add(const TlbCounters &o)
    {
        hits += o.hits;
        misses += o.misses;
        fills += o.fills;
        shootdowns += o.shootdowns;
    }
};

class TranslationCache
{
  public:
    explicit TranslationCache(size_t sets = kDefaultSets);

    /**
     * Global runtime toggle. Initialized once from the
     * CRONUS_DISABLE_TLB environment variable (any non-empty value
     * other than "0" disables); benches flip it per measurement via
     * setGlobalEnable. Shootdown bookkeeping runs regardless of the
     * toggle so re-enabling never exposes stale entries.
     */
    static bool globalEnable();
    static void setGlobalEnable(bool on);

    /** Look up a page; fills @p phys_page / @p perms on hit. */
    bool
    lookup(uint64_t page_idx, PhysAddr &phys_page, PagePerms &perms) const
    {
        uint8_t *host = nullptr;
        return lookup(page_idx, phys_page, perms, host);
    }

    /**
     * Like lookup(), but also returns the cached host-page pointer
     * (nullptr until annotateHost() resolves it). The SPM's zero-copy
     * fast path uses this to reach backing memory without the
     * PhysicalMemory page map; host pointers are stable for the
     * lifetime of the platform, so validity is governed entirely by
     * the entry's tag/epoch discipline.
     */
    bool lookup(uint64_t page_idx, PhysAddr &phys_page,
                PagePerms &perms, uint8_t *&host) const;

    /** Install a positive translation for one page. */
    void fill(uint64_t page_idx, PhysAddr phys_page, PagePerms perms);

    /** Attach the backing host page to a currently-valid entry;
     *  no-op if the page is not cached (or the cache is disabled). */
    void annotateHost(uint64_t page_idx, uint8_t *host);

    /** Precise shootdown of @p pages pages from @p first_page
     *  (no-op for pages not cached). */
    void evictRange(uint64_t first_page, uint64_t pages);
    void evictPage(uint64_t page_idx) { evictRange(page_idx, 1); }

    /** Full shootdown (epoch bump); O(1). */
    void shootdownAll();

    const TlbCounters &counters() const { return stats; }

    static constexpr size_t kDefaultSets = 256;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        PhysAddr physPage = 0;
        uint8_t *host = nullptr;
        PagePerms perms;
        /** Entry is valid iff epoch == owner's current epoch. An
         *  epoch of 0 is never current, so default entries miss. */
        uint64_t epoch = 0;
    };

    std::vector<Entry> slots;
    uint64_t epoch = 1;
    mutable TlbCounters stats;
};

} // namespace cronus::hw

#endif // CRONUS_HW_TRANSLATION_CACHE_HH
