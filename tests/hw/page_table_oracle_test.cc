/**
 * Property suite: the extent table (hw::PageTable) against the
 * per-page reference table (reference_page_table.hh). Random
 * map/unmap/invalidate/revalidate/invalidateByTag/clear sequences run
 * against both, with the software TLB on and off; every status code,
 * every translate() result (phys, fault, faultVa), every sweep count
 * and the TLB counters must agree after every step.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "base/rng.hh"
#include "hw/page_table.hh"
#include "reference_page_table.hh"

namespace cronus::hw
{
namespace
{

/* The VA space the sequences touch, in pages. Larger than the TLB,
 * so ranges that sweep the sets instead of evicting page by page
 * are drawn too. */
constexpr uint64_t kUniverse = 3 * TranslationCache::kDefaultSets;

class PageTableOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>>
{
  protected:
    void
    SetUp() override
    {
        TranslationCache::setGlobalEnable(std::get<1>(GetParam()));
    }
    void TearDown() override { TranslationCache::setGlobalEnable(true); }

    /** Mostly short ranges, some longer than the TLB. */
    uint64_t
    drawPages()
    {
        uint64_t pick = rng.nextBelow(16);
        if (pick == 0)
            return TranslationCache::kDefaultSets +
                   rng.nextBelow(TranslationCache::kDefaultSets);
        if (pick < 4)
            return 1 + rng.nextBelow(32);
        return 1 + rng.nextBelow(4);
    }

    uint64_t drawPage() { return rng.nextBelow(kUniverse); }

    /** Half the maps continue one physical run (so adjacent extents
     *  can join into one access), the rest land anywhere. */
    PhysAddr
    drawPhys(uint64_t va_page)
    {
        if (rng.nextBelow(2) == 0)
            return (va_page + 0x1000) << kPageShift;
        return (0x10000 + rng.nextBelow(4 * kUniverse)) << kPageShift;
    }

    void
    checkTranslate(VirtAddr va, uint64_t len, bool write)
    {
        Translation got = table.translate(va, len, write);
        Translation want = ref.translate(va, len, write);
        ASSERT_EQ(got.fault, want.fault)
            << "va=" << va << " len=" << len << " write=" << write;
        ASSERT_EQ(got.phys, want.phys) << "va=" << va << " len=" << len;
        ASSERT_EQ(got.faultVa, want.faultVa)
            << "va=" << va << " len=" << len;
    }

    /** Single-page reads on both sides of each end of a range: heats
     *  the TLB there before a mutation and checks it after, so an
     *  eviction or split that strays by one page shows. */
    void
    checkEdges(uint64_t page, uint64_t pages)
    {
        for (uint64_t edge : {page - 1, page, page + pages - 1,
                              page + pages})
            ASSERT_NO_FATAL_FAILURE(
                checkTranslate(edge << kPageShift, 8, false));
    }

    void
    checkCounters()
    {
        const TlbCounters &a = table.tlbCounters();
        const TlbCounters &b = ref.tlbCounters();
        ASSERT_EQ(a.hits, b.hits);
        ASSERT_EQ(a.misses, b.misses);
        ASSERT_EQ(a.fills, b.fills);
        ASSERT_EQ(a.shootdowns, b.shootdowns);
    }

    Rng rng{std::get<0>(GetParam())};
    PageTable table;
    reference::PerPageTable ref;
};

TEST_P(PageTableOracleTest, MatchesPerPageReference)
{
    for (int step = 0; step < 4000; ++step) {
        uint64_t op = rng.nextBelow(100);
        uint64_t page = drawPage();
        uint64_t pages = drawPages();
        VirtAddr va = page << kPageShift;
        if (op < 55) {
            ASSERT_NO_FATAL_FAILURE(checkEdges(page, pages));
        }
        if (op < 25) {
            PagePerms perms = rng.nextBelow(4) == 0 ? PagePerms::ro()
                                                    : PagePerms::rw();
            uint64_t tag = rng.nextBelow(4);
            PhysAddr pa = drawPhys(page);
            ASSERT_EQ(table.map(va, pa, pages, perms, tag).code(),
                      ref.map(va, pa, pages, perms, tag).code())
                << "map step " << step;
        } else if (op < 35) {
            ASSERT_EQ(table.unmap(va, pages).code(),
                      ref.unmap(va, pages).code())
                << "unmap step " << step;
        } else if (op < 45) {
            ASSERT_EQ(table.invalidate(va, pages).code(),
                      ref.invalidate(va, pages).code())
                << "invalidate step " << step;
        } else if (op < 52) {
            ASSERT_EQ(table.revalidate(va, pages).code(),
                      ref.revalidate(va, pages).code())
                << "revalidate step " << step;
        } else if (op < 55) {
            uint64_t tag = rng.nextBelow(4);
            ASSERT_EQ(table.invalidateByTag(tag),
                      ref.invalidateByTag(tag))
                << "sweep step " << step;
        } else if (op < 56) {
            table.clear();
            ref.clear();
        } else {
            /* Single-page, multi-page and unaligned accesses; the
             * longer ones cross extents and discontiguous steps. */
            uint64_t off = rng.nextBelow(kPageSize);
            uint64_t len = rng.nextBelow(3) == 0
                               ? 1 + rng.nextBelow(4 * kPageSize)
                               : 1 + rng.nextBelow(kPageSize - off);
            ASSERT_NO_FATAL_FAILURE(
                checkTranslate(va + off, len, rng.nextBelow(2) == 1));
        }
        if (op < 55) {
            ASSERT_NO_FATAL_FAILURE(checkEdges(page, pages));
        }
        ASSERT_NO_FATAL_FAILURE(checkCounters()) << "step " << step;
    }
    /* Final sweep: every page of the universe, read and write. */
    for (uint64_t page = 0; page < kUniverse; ++page) {
        ASSERT_NO_FATAL_FAILURE(
            checkTranslate(page << kPageShift, 8, false));
        ASSERT_NO_FATAL_FAILURE(
            checkTranslate(page << kPageShift, 2 * kPageSize, true));
    }
    ASSERT_NO_FATAL_FAILURE(checkCounters());
}

/* A length whose end wraps past 2^64 must fault, never translate as
 * the short range it wraps to: on the one-page TLB path (end wraps
 * into the start page) and on the walk (end wraps below the start). */
using PageTableWrapTest = PageTableOracleTest;

TEST_P(PageTableWrapTest, WrappedRangesFault)
{
    const VirtAddr va = 0x40 << kPageShift;
    ASSERT_TRUE(table.map(va, 0x80000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(ref.map(va, 0x80000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(table.map(va - kPageSize, 0x7f000, 1,
                          PagePerms::rw()).isOk());
    ASSERT_TRUE(ref.map(va - kPageSize, 0x7f000, 1,
                        PagePerms::rw()).isOk());
    /* Heat the TLB (when on) for the start page. */
    ASSERT_NO_FATAL_FAILURE(checkTranslate(va + 16, 8, true));

    const uint64_t one_page_wrap = ~uint64_t(0);   /* end = va + 14 */
    const uint64_t walk_wrap = ~uint64_t(0) - 15;  /* end = va - 1 */
    for (uint64_t len : {one_page_wrap, walk_wrap}) {
        for (bool write : {false, true}) {
            EXPECT_EQ(table.translate(va + 16, len, write).fault,
                      FaultKind::Unmapped) << "len=" << len;
            ASSERT_NO_FATAL_FAILURE(checkTranslate(va + 16, len, write));
        }
    }
    ASSERT_NO_FATAL_FAILURE(checkCounters());
}

std::string
paramName(const ::testing::TestParamInfo<std::tuple<uint64_t, bool>> &info)
{
    return "seed" + std::to_string(std::get<0>(info.param)) +
           (std::get<1>(info.param) ? "_tlb" : "_notlb");
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PageTableOracleTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 9),
                       ::testing::Bool()),
    paramName);

/* The wrap case draws nothing: one seed, TLB on and off. */
INSTANTIATE_TEST_SUITE_P(
    Tlb, PageTableWrapTest,
    ::testing::Combine(::testing::Values<uint64_t>(1),
                       ::testing::Bool()),
    paramName);

} // namespace
} // namespace cronus::hw
