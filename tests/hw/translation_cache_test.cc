/**
 * Tests for the software TLB (TranslationCache) and its embedding in
 * PageTable: hit/miss accounting, precise single-page shootdown,
 * epoch-based full shootdown, and the rule the failover story
 * depends on -- the first access after any invalidating mutation
 * faults exactly as the uncached walk does.
 */

#include <gtest/gtest.h>

#include "hw/page_table.hh"
#include "hw/translation_cache.hh"

namespace cronus::hw
{
namespace
{

/** Force the global toggle on for the duration of a test. */
class TlbOn : public ::testing::Test
{
  protected:
    void SetUp() override { TranslationCache::setGlobalEnable(true); }
    void TearDown() override
    {
        TranslationCache::setGlobalEnable(true);
    }
};

using TranslationCacheTest = TlbOn;
using PageTableTlbTest = TlbOn;

TEST_F(TranslationCacheTest, FillThenLookupHits)
{
    TranslationCache tlb;
    PhysAddr phys = 0;
    PagePerms perms;
    EXPECT_FALSE(tlb.lookup(7, phys, perms));
    EXPECT_EQ(tlb.counters().misses, 1u);

    tlb.fill(7, 0x1234000, PagePerms::ro());
    EXPECT_TRUE(tlb.lookup(7, phys, perms));
    EXPECT_EQ(phys, 0x1234000u);
    EXPECT_TRUE(perms.read);
    EXPECT_FALSE(perms.write);
    EXPECT_EQ(tlb.counters().hits, 1u);
    EXPECT_EQ(tlb.counters().fills, 1u);
}

TEST_F(TranslationCacheTest, EvictPageIsPrecise)
{
    TranslationCache tlb;
    tlb.fill(1, 0x1000, PagePerms::rw());
    tlb.fill(2, 0x2000, PagePerms::rw());
    tlb.evictPage(1);

    PhysAddr phys = 0;
    PagePerms perms;
    EXPECT_FALSE(tlb.lookup(1, phys, perms));
    /* The neighbouring entry stays hot. */
    EXPECT_TRUE(tlb.lookup(2, phys, perms));
    EXPECT_EQ(phys, 0x2000u);
    EXPECT_EQ(tlb.counters().shootdowns, 1u);
}

TEST_F(TranslationCacheTest, EvictingAbsentPageIsNotAShootdown)
{
    TranslationCache tlb;
    tlb.fill(1, 0x1000, PagePerms::rw());
    tlb.evictPage(99);
    EXPECT_EQ(tlb.counters().shootdowns, 0u);
}

TEST_F(TranslationCacheTest, ShootdownAllInvalidatesEverything)
{
    TranslationCache tlb;
    tlb.fill(1, 0x1000, PagePerms::rw());
    tlb.fill(2, 0x2000, PagePerms::rw());
    tlb.shootdownAll();

    PhysAddr phys = 0;
    PagePerms perms;
    EXPECT_FALSE(tlb.lookup(1, phys, perms));
    EXPECT_FALSE(tlb.lookup(2, phys, perms));
    EXPECT_EQ(tlb.counters().shootdowns, 1u);

    /* The cache still works after the epoch bump. */
    tlb.fill(1, 0x3000, PagePerms::rw());
    EXPECT_TRUE(tlb.lookup(1, phys, perms));
    EXPECT_EQ(phys, 0x3000u);
}

TEST_F(TranslationCacheTest, ConflictingTagsDoNotAlias)
{
    TranslationCache tlb;
    /* Pages an exact multiple of the set count apart map to the
     * same slot; the tag check must distinguish them. */
    uint64_t a = 5;
    uint64_t b = 5 + TranslationCache::kDefaultSets;
    tlb.fill(a, 0xa000, PagePerms::rw());

    PhysAddr phys = 0;
    PagePerms perms;
    EXPECT_FALSE(tlb.lookup(b, phys, perms));
    tlb.fill(b, 0xb000, PagePerms::rw());
    EXPECT_TRUE(tlb.lookup(b, phys, perms));
    EXPECT_EQ(phys, 0xb000u);
    /* The fill displaced the old resident. */
    EXPECT_FALSE(tlb.lookup(a, phys, perms));
}

TEST_F(TranslationCacheTest, GlobalDisableTurnsLookupsOff)
{
    TranslationCache tlb;
    tlb.fill(1, 0x1000, PagePerms::rw());
    TranslationCache::setGlobalEnable(false);
    PhysAddr phys = 0;
    PagePerms perms;
    EXPECT_FALSE(tlb.lookup(1, phys, perms));
    TranslationCache::setGlobalEnable(true);
    EXPECT_TRUE(tlb.lookup(1, phys, perms));
}

/* ---------------- PageTable embedding ---------------- */

TEST_F(PageTableTlbTest, RepeatTranslateHitsTlb)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x5000, 0x9000, 1, PagePerms::rw()).isOk());
    EXPECT_TRUE(pt.translate(0x5008, 8, true).ok());
    uint64_t misses = pt.tlbCounters().misses;
    EXPECT_TRUE(pt.translate(0x5010, 8, false).ok());
    EXPECT_GE(pt.tlbCounters().hits, 1u);
    EXPECT_EQ(pt.tlbCounters().misses, misses);
}

TEST_F(PageTableTlbTest, UnmapFaultsImmediatelyEvenWhenHot)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x5000, 0x9000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.translate(0x5000, 8, false).ok());
    ASSERT_TRUE(pt.unmap(0x5000, 1).isOk());

    Translation t = pt.translate(0x5000, 8, false);
    EXPECT_EQ(t.fault, FaultKind::Unmapped);
    EXPECT_EQ(t.faultVa, 0x5000u);
}

TEST_F(PageTableTlbTest, InvalidateFaultsImmediatelyEvenWhenHot)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x5000, 0x9000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.translate(0x5000, 8, false).ok());
    ASSERT_TRUE(pt.invalidate(0x5000, 1).isOk());

    Translation t = pt.translate(0x5000, 8, false);
    EXPECT_EQ(t.fault, FaultKind::Invalidated);
    EXPECT_EQ(t.faultVa, 0x5000u);

    /* Revalidation restores the mapping (never cached faults). */
    ASSERT_TRUE(pt.revalidate(0x5000, 1).isOk());
    EXPECT_TRUE(pt.translate(0x5000, 8, false).ok());
}

TEST_F(PageTableTlbTest, RangeUnmapEvictsEveryPage)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0xa000, 2, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.map(0x3000, 0xc000, 1, PagePerms::rw()).isOk());
    /* Heat all three. */
    ASSERT_TRUE(pt.translate(0x1000, 8, false).ok());
    ASSERT_TRUE(pt.translate(0x2000, 8, false).ok());
    ASSERT_TRUE(pt.translate(0x3000, 8, false).ok());

    ASSERT_TRUE(pt.unmap(0x1000, 2).isOk());
    EXPECT_EQ(pt.tlbCounters().shootdowns, 2u);
    EXPECT_EQ(pt.translate(0x1000, 8, false).fault,
              FaultKind::Unmapped);
    EXPECT_EQ(pt.translate(0x2000, 8, false).fault,
              FaultKind::Unmapped);
    /* The page outside the range survives, still hot. */
    uint64_t hits = pt.tlbCounters().hits;
    EXPECT_TRUE(pt.translate(0x3000, 8, false).ok());
    EXPECT_EQ(pt.tlbCounters().hits, hits + 1);
}

TEST_F(PageTableTlbTest, RangeLargerThanTheCacheEvictsOnlyItsPages)
{
    /* A range of at least kDefaultSets pages sweeps the sets instead
     * of evicting page by page; both must evict the same entries. */
    PageTable pt;
    const uint64_t pages = TranslationCache::kDefaultSets + 4;
    ASSERT_TRUE(pt.map(0, 0x100000, pages + 1,
                       PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.translate(0, 8, false).ok());
    ASSERT_TRUE(pt.translate((pages - 1) * kPageSize, 8, false).ok());
    ASSERT_TRUE(pt.translate(pages * kPageSize, 8, false).ok());

    ASSERT_TRUE(pt.invalidate(0, pages).isOk());
    EXPECT_EQ(pt.tlbCounters().shootdowns, 2u);
    EXPECT_EQ(pt.translate(0, 8, false).fault,
              FaultKind::Invalidated);
    uint64_t hits = pt.tlbCounters().hits;
    EXPECT_TRUE(pt.translate(pages * kPageSize, 8, false).ok());
    EXPECT_EQ(pt.tlbCounters().hits, hits + 1);
}

TEST_F(PageTableTlbTest, InvalidateByTagEvictsEveryMatchedPage)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0xa000, 1, PagePerms::rw(), 42).isOk());
    ASSERT_TRUE(pt.translate(0x1000, 8, false).ok());
    EXPECT_EQ(pt.invalidateByTag(42), 1u);
    EXPECT_EQ(pt.translate(0x1000, 8, false).fault,
              FaultKind::Invalidated);
}

TEST_F(PageTableTlbTest, RemapServesNewTranslationNotStale)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x5000, 0x9000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.translate(0x5000, 8, false).ok());
    /* Double-mapping a live page is rejected outright. */
    EXPECT_EQ(pt.map(0x5000, 0xf000, 1, PagePerms::rw()).code(),
              ErrorCode::InvalidState);
    /* Unmap + remap elsewhere; the hot entry must not win. */
    ASSERT_TRUE(pt.unmap(0x5000, 1).isOk());
    ASSERT_TRUE(pt.map(0x5000, 0xf000, 1, PagePerms::rw()).isOk());
    Translation t = pt.translate(0x5004, 4, false);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.phys, 0xf004u);
}

TEST_F(PageTableTlbTest, PermissionFaultOnCachedEntry)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x5000, 0x9000, 1, PagePerms::ro()).isOk());
    ASSERT_TRUE(pt.translate(0x5000, 8, false).ok());
    /* Write through the now-hot read-only entry. */
    Translation t = pt.translate(0x5000, 8, true);
    EXPECT_EQ(t.fault, FaultKind::Permission);
    EXPECT_EQ(t.faultVa, 0x5000u);
}

TEST_F(PageTableTlbTest, ClearShootsDownEverything)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x5000, 0x9000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.translate(0x5000, 8, false).ok());
    pt.clear();
    EXPECT_EQ(pt.translate(0x5000, 8, false).fault,
              FaultKind::Unmapped);
}

TEST_F(PageTableTlbTest, MultiPageFaultVaNamesTheFaultingPage)
{
    PageTable pt;
    /* Pages 0 and 1 mapped physically contiguous, page 2 missing. */
    ASSERT_TRUE(pt.map(0x0000, 0x8000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.map(0x1000, 0x9000, 1, PagePerms::rw()).isOk());

    Translation t = pt.translate(0x0800, 3 * kPageSize, false);
    EXPECT_EQ(t.fault, FaultKind::Unmapped);
    /* The *third* page faults, not the access base. */
    EXPECT_EQ(t.faultVa, 0x2000u);
}

TEST_F(PageTableTlbTest, MultiPageGapFaultsAtTheGap)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x0000, 0x8000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.map(0x2000, 0xa000, 1, PagePerms::rw()).isOk());
    Translation t = pt.translate(0x0000, 3 * kPageSize, false);
    EXPECT_EQ(t.fault, FaultKind::Unmapped);
    EXPECT_EQ(t.faultVa, 0x1000u);
}

TEST_F(PageTableTlbTest, MultiPageNonContiguousPhysIsRejected)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x0000, 0x8000, 1, PagePerms::rw()).isOk());
    /* Adjacent VA, discontiguous phys: a spanning access cannot be
     * served as one run. */
    ASSERT_TRUE(pt.map(0x1000, 0xf000, 1, PagePerms::rw()).isOk());
    Translation t = pt.translate(0x0000, 2 * kPageSize, false);
    EXPECT_EQ(t.fault, FaultKind::Unmapped);
    EXPECT_EQ(t.faultVa, 0x1000u);
}

TEST_F(PageTableTlbTest, MultiPageInvalidatedNamesTheBadPage)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x0000, 0x8000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.map(0x1000, 0x9000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.invalidate(0x1000, 1).isOk());
    Translation t = pt.translate(0x0000, 2 * kPageSize, false);
    EXPECT_EQ(t.fault, FaultKind::Invalidated);
    EXPECT_EQ(t.faultVa, 0x1000u);
}

TEST_F(PageTableTlbTest, DisabledTlbStillTranslatesCorrectly)
{
    TranslationCache::setGlobalEnable(false);
    PageTable pt;
    ASSERT_TRUE(pt.map(0x5000, 0x9000, 1, PagePerms::rw()).isOk());
    Translation t = pt.translate(0x5008, 8, true);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.phys, 0x9008u);
    EXPECT_TRUE(pt.translate(0x5008, 8, true).ok());
    /* No hits and no fills while disabled. */
    EXPECT_EQ(pt.tlbCounters().hits, 0u);
    EXPECT_EQ(pt.tlbCounters().fills, 0u);
}

} // namespace
} // namespace cronus::hw
