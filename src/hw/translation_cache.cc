#include "translation_cache.hh"

#include <algorithm>
#include <cstdlib>

namespace cronus::hw
{

namespace
{

/* -1 unresolved, 0 disabled, 1 enabled. Resolved lazily so tests
 * and benches can override before or after first use. */
int gTlbEnabled = -1;

bool
envDisablesTlb()
{
    const char *v = std::getenv("CRONUS_DISABLE_TLB");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

} // namespace

bool
TranslationCache::globalEnable()
{
    if (gTlbEnabled < 0)
        gTlbEnabled = envDisablesTlb() ? 0 : 1;
    return gTlbEnabled == 1;
}

void
TranslationCache::setGlobalEnable(bool on)
{
    gTlbEnabled = on ? 1 : 0;
}

TranslationCache::TranslationCache(size_t sets)
    : slots(sets == 0 ? kDefaultSets : sets)
{
}

bool
TranslationCache::lookup(uint64_t page_idx, PhysAddr &phys_page,
                         PagePerms &perms, uint8_t *&host) const
{
    if (!globalEnable())
        return false;
    const Entry &e = slots[page_idx % slots.size()];
    if (e.epoch != epoch || e.tag != page_idx) {
        ++stats.misses;
        return false;
    }
    ++stats.hits;
    phys_page = e.physPage;
    perms = e.perms;
    host = e.host;
    return true;
}

void
TranslationCache::fill(uint64_t page_idx, PhysAddr phys_page,
                       PagePerms perms)
{
    if (!globalEnable())
        return;
    Entry &e = slots[page_idx % slots.size()];
    e.tag = page_idx;
    e.physPage = phys_page;
    e.host = nullptr;
    e.perms = perms;
    e.epoch = epoch;
    ++stats.fills;
}

void
TranslationCache::annotateHost(uint64_t page_idx, uint8_t *host)
{
    Entry &e = slots[page_idx % slots.size()];
    if (e.epoch == epoch && e.tag == page_idx)
        e.host = host;
}

void
TranslationCache::evictRange(uint64_t first_page, uint64_t pages)
{
    /* Page i of the range can only sit in slot (first + i) % sets,
     * so a range longer than the cache visits each slot once. */
    uint64_t visit = std::min<uint64_t>(pages, slots.size());
    for (uint64_t i = 0; i < visit; ++i) {
        Entry &e = slots[(first_page + i) % slots.size()];
        if (e.epoch == epoch && e.tag - first_page < pages) {
            e.epoch = 0;
            ++stats.shootdowns;
        }
    }
}

void
TranslationCache::shootdownAll()
{
    ++epoch;
    ++stats.shootdowns;
}

} // namespace cronus::hw
