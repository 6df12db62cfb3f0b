/** Unit tests for page table translation and invalidation. */

#include <gtest/gtest.h>

#include "hw/page_table.hh"
#include "hw/smmu.hh"

namespace cronus::hw
{
namespace
{

TEST(PageTableTest, MapTranslateUnmap)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0x80000, 1, PagePerms::rw()).isOk());
    Translation t = pt.translate(0x1234, 8, false);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.phys, 0x80234u);

    ASSERT_TRUE(pt.unmap(0x1000, 1).isOk());
    EXPECT_EQ(pt.translate(0x1234, 8, false).fault,
              FaultKind::Unmapped);
}

TEST(PageTableTest, AlignmentEnforced)
{
    PageTable pt;
    EXPECT_EQ(pt.map(0x1001, 0x80000, 1, PagePerms::rw()).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(pt.map(0x1000, 0x80001, 1, PagePerms::rw()).code(),
              ErrorCode::InvalidArgument);
}

TEST(PageTableTest, DoubleMapRejected)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0x80000, 1, PagePerms::rw()).isOk());
    EXPECT_EQ(pt.map(0x1000, 0x90000, 1, PagePerms::rw()).code(),
              ErrorCode::InvalidState);
}

TEST(PageTableTest, PermissionChecks)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0x80000, 1, PagePerms::ro()).isOk());
    EXPECT_TRUE(pt.translate(0x1000, 8, false).ok());
    EXPECT_EQ(pt.translate(0x1000, 8, true).fault,
              FaultKind::Permission);
}

TEST(PageTableTest, InvalidateGeneratesDistinctFault)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0x80000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.invalidate(0x1000, 1).isOk());
    EXPECT_EQ(pt.translate(0x1000, 8, false).fault,
              FaultKind::Invalidated);
    ASSERT_TRUE(pt.revalidate(0x1000, 1).isOk());
    EXPECT_TRUE(pt.translate(0x1000, 8, false).ok());
}

TEST(PageTableTest, CrossPageContiguous)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0x80000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.map(0x2000, 0x81000, 1, PagePerms::rw()).isOk());
    /* Physically contiguous: single translation succeeds. */
    Translation t = pt.translate(0x1ff0, 32, true);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.phys, 0x80ff0u);

    /* Non-contiguous physical backing faults. */
    PageTable pt2;
    ASSERT_TRUE(pt2.map(0x1000, 0x80000, 1, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt2.map(0x2000, 0x90000, 1, PagePerms::rw()).isOk());
    EXPECT_FALSE(pt2.translate(0x1ff0, 32, true).ok());
}

TEST(PageTableTest, ShareTagBulkOperations)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x1000, 0x80000, 2, PagePerms::rw(), 7).isOk());
    ASSERT_TRUE(pt.map(0x3000, 0x82000, 1, PagePerms::rw(), 9).isOk());

    /* The sweep counts pages, not extents. */
    EXPECT_EQ(pt.invalidateByTag(7), 2u);
    EXPECT_EQ(pt.translate(0x1000, 8, false).fault,
              FaultKind::Invalidated);
    EXPECT_EQ(pt.translate(0x2000, 8, false).fault,
              FaultKind::Invalidated);
    EXPECT_TRUE(pt.translate(0x3000, 8, false).ok());
    /* Already-invalid pages are not counted twice. */
    EXPECT_EQ(pt.invalidateByTag(7), 0u);
}

TEST(PageTableTest, RangeMapIsAllOrNothing)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x3000, 0x83000, 1, PagePerms::rw()).isOk());
    /* The page at 0x3000 is live: nothing of the range is mapped. */
    EXPECT_EQ(pt.map(0x0000, 0x80000, 4, PagePerms::rw()).code(),
              ErrorCode::InvalidState);
    EXPECT_EQ(pt.translate(0x0000, 8, false).fault,
              FaultKind::Unmapped);
    /* An invalidated page in the range is replaced. */
    ASSERT_TRUE(pt.invalidate(0x3000, 1).isOk());
    ASSERT_TRUE(pt.map(0x0000, 0x90000, 4, PagePerms::rw()).isOk());
    Translation t = pt.translate(0x3010, 8, false);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.phys, 0x93010u);
}

TEST(PageTableTest, PartialRangeOpsSplitTheExtent)
{
    PageTable pt;
    ASSERT_TRUE(pt.map(0x0000, 0x80000, 8, PagePerms::rw()).isOk());
    ASSERT_TRUE(pt.invalidate(0x2000, 2).isOk());
    ASSERT_TRUE(pt.unmap(0x6000, 1).isOk());

    EXPECT_EQ(pt.translate(0x1000, 8, false).phys, 0x81000u);
    EXPECT_EQ(pt.translate(0x2000, 8, false).fault,
              FaultKind::Invalidated);
    EXPECT_EQ(pt.translate(0x5000, 8, false).phys, 0x85000u);
    EXPECT_EQ(pt.translate(0x6000, 8, false).fault,
              FaultKind::Unmapped);
    EXPECT_EQ(pt.translate(0x7000, 8, false).phys, 0x87000u);

    /* A read across the split pieces of one physical run is still
     * contiguous; across the invalidated piece it faults there. */
    EXPECT_EQ(pt.translate(0x4ff0, 32, false).phys, 0x84ff0u);
    Translation t = pt.translate(0x1ff0, 32, false);
    EXPECT_EQ(t.fault, FaultKind::Invalidated);
    EXPECT_EQ(t.faultVa, 0x2000u);

    /* Range results report pages the range did not cover. */
    EXPECT_EQ(pt.unmap(0x5000, 2).code(), ErrorCode::NotFound);
    EXPECT_EQ(pt.translate(0x5000, 8, false).fault,
              FaultKind::Unmapped);
    EXPECT_EQ(pt.revalidate(0x2000, 2).code(), ErrorCode::Ok);
    EXPECT_TRUE(pt.translate(0x2000, 2 * kPageSize, false).ok());
}

TEST(SmmuTest, TranslateAndInvalidate)
{
    Smmu smmu;
    EXPECT_FALSE(smmu.hasStream(1));
    EXPECT_EQ(smmu.translate(1, 0x1000, 8, false).fault,
              FaultKind::Unmapped);

    ASSERT_TRUE(smmu.streamTable(1).map(0x1000, 0x40000, 1,
                                        PagePerms::rw(), 5).isOk());
    ASSERT_TRUE(smmu.streamTable(2).map(0x1000, 0x50000, 1,
                                        PagePerms::rw(), 5).isOk());
    EXPECT_TRUE(smmu.translate(1, 0x1000, 8, true).ok());

    EXPECT_EQ(smmu.invalidateByTag(5), 2u);
    EXPECT_EQ(smmu.translate(1, 0x1000, 8, true).fault,
              FaultKind::Invalidated);
}

} // namespace
} // namespace cronus::hw
