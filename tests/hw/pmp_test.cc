/** Tests for the RISC-V PMP hardware model. */

#include <gtest/gtest.h>

#include "hw/pmp.hh"

namespace cronus::hw
{
namespace
{

TEST(PmpTest, NapotEncodeDecodeRoundTrip)
{
    for (uint64_t size : {8ull, 4096ull, 1ull << 20, 16ull << 20}) {
        PhysAddr base = size * 3;  /* naturally aligned */
        auto encoded = Pmp::napotEncode(base, size);
        ASSERT_TRUE(encoded.isOk()) << size;
        auto [dbase, dsize] = Pmp::napotDecode(encoded.value());
        EXPECT_EQ(dbase, base);
        EXPECT_EQ(dsize, size);
    }
}

TEST(PmpTest, NapotRejectsBadShapes)
{
    EXPECT_FALSE(Pmp::napotEncode(0, 4).isOk());      /* too small */
    EXPECT_FALSE(Pmp::napotEncode(0, 24).isOk());     /* not pow2 */
    EXPECT_FALSE(Pmp::napotEncode(100, 4096).isOk()); /* misaligned */
}

TEST(PmpTest, DefaultDeny)
{
    Pmp pmp;
    EXPECT_EQ(pmp.check(0x1000, 8, PmpAccess::Read).code(),
              ErrorCode::AccessFault);
}

TEST(PmpTest, NapotEntryGrantsItsRangeOnly)
{
    Pmp pmp;
    PmpEntry entry;
    entry.mode = PmpMode::Napot;
    entry.addr = Pmp::napotEncode(0x10000, 0x1000).value();
    entry.read = true;
    entry.write = true;
    ASSERT_TRUE(pmp.configure(0, entry).isOk());

    EXPECT_TRUE(pmp.check(0x10000, 8, PmpAccess::Read).isOk());
    EXPECT_TRUE(pmp.check(0x10ff8, 8, PmpAccess::Write).isOk());
    EXPECT_FALSE(pmp.check(0xff00, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x11000, 8, PmpAccess::Read).isOk());
    /* Straddling the top: whole access must be inside. */
    EXPECT_FALSE(pmp.check(0x10ffc, 8, PmpAccess::Read).isOk());
    /* Exec not granted. */
    EXPECT_FALSE(pmp.check(0x10000, 4, PmpAccess::Exec).isOk());
}

TEST(PmpTest, TorUsesPreviousEntryAsBase)
{
    Pmp pmp;
    PmpEntry lo;
    lo.mode = PmpMode::Off;
    lo.addr = 0x8000 >> 2;
    ASSERT_TRUE(pmp.configure(0, lo).isOk());
    PmpEntry hi;
    hi.mode = PmpMode::Tor;
    hi.addr = 0xc000 >> 2;
    hi.read = true;
    ASSERT_TRUE(pmp.configure(1, hi).isOk());

    EXPECT_TRUE(pmp.check(0x8000, 8, PmpAccess::Read).isOk());
    EXPECT_TRUE(pmp.check(0xbff8, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x7ff8, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0xc000, 8, PmpAccess::Read).isOk());
}

TEST(PmpTest, LowestNumberedEntryWins)
{
    Pmp pmp;
    /* Entry 0 denies writes to a subrange entry 1 would allow. */
    PmpEntry deny;
    deny.mode = PmpMode::Napot;
    deny.addr = Pmp::napotEncode(0x10000, 0x1000).value();
    deny.read = true;
    deny.write = false;
    ASSERT_TRUE(pmp.configure(0, deny).isOk());
    PmpEntry allow;
    allow.mode = PmpMode::Napot;
    allow.addr = Pmp::napotEncode(0x10000, 0x10000).value();
    allow.read = true;
    allow.write = true;
    ASSERT_TRUE(pmp.configure(1, allow).isOk());

    EXPECT_FALSE(pmp.check(0x10800, 8, PmpAccess::Write).isOk());
    EXPECT_TRUE(pmp.check(0x12000, 8, PmpAccess::Write).isOk());
}

TEST(PmpTest, LockedEntriesSurviveReset)
{
    Pmp pmp;
    PmpEntry entry;
    entry.mode = PmpMode::Napot;
    entry.addr = Pmp::napotEncode(0x10000, 0x1000).value();
    entry.read = true;
    entry.locked = true;
    ASSERT_TRUE(pmp.configure(0, entry).isOk());
    EXPECT_EQ(pmp.configure(0, PmpEntry{}).code(),
              ErrorCode::PermissionDenied);
    pmp.reset();
    EXPECT_TRUE(pmp.check(0x10000, 8, PmpAccess::Read).isOk());
}

/* ---- TOR boundary cases ---- */

TEST(PmpTest, TorAtEntryZeroStartsAtAddressZero)
{
    Pmp pmp;
    PmpEntry hi;
    hi.mode = PmpMode::Tor;
    hi.addr = 0x4000 >> 2;
    hi.read = true;
    ASSERT_TRUE(pmp.configure(0, hi).isOk());

    EXPECT_TRUE(pmp.check(0, 8, PmpAccess::Read).isOk());
    EXPECT_TRUE(pmp.check(0x3ff8, 8, PmpAccess::Read).isOk());
    /* Top is exclusive; the whole access must fit below it. */
    EXPECT_FALSE(pmp.check(0x3ffc, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x4000, 1, PmpAccess::Read).isOk());
    /* An exact-fit access spanning the full range is fine. */
    EXPECT_TRUE(pmp.check(0, 0x4000, PmpAccess::Read).isOk());
}

TEST(PmpTest, TorEmptyRangeMatchesNothing)
{
    Pmp pmp;
    PmpEntry lo;
    lo.mode = PmpMode::Off;
    lo.addr = 0x8000 >> 2;
    ASSERT_TRUE(pmp.configure(0, lo).isOk());
    /* hi == lo: the half-open [lo, hi) window is empty, so the
     * entry can never satisfy "whole access inside". */
    PmpEntry hi;
    hi.mode = PmpMode::Tor;
    hi.addr = 0x8000 >> 2;
    hi.read = true;
    ASSERT_TRUE(pmp.configure(1, hi).isOk());

    EXPECT_FALSE(pmp.check(0x8000, 1, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x7fff, 1, PmpAccess::Read).isOk());
}

TEST(PmpTest, TorBaseComesFromPredecessorEvenWhenOff)
{
    /* The TOR base is always pmpaddr[i-1], mode-independent --
     * matching the ISA, where an Off entry still parks an address
     * for the next TOR entry to use. */
    Pmp pmp;
    PmpEntry parked;
    parked.mode = PmpMode::Off;
    parked.addr = 0x2000 >> 2;
    ASSERT_TRUE(pmp.configure(4, parked).isOk());
    PmpEntry hi;
    hi.mode = PmpMode::Tor;
    hi.addr = 0x3000 >> 2;
    hi.read = true;
    ASSERT_TRUE(pmp.configure(5, hi).isOk());

    EXPECT_TRUE(pmp.check(0x2000, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x1ff8, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x3000, 8, PmpAccess::Read).isOk());
}

/* ---- NAPOT / NA4 boundary cases ---- */

TEST(PmpTest, NapotMinimumGrainIsEightBytes)
{
    Pmp pmp;
    PmpEntry entry;
    entry.mode = PmpMode::Napot;
    entry.addr = Pmp::napotEncode(0x20008, 8).value();
    entry.read = true;
    ASSERT_TRUE(pmp.configure(0, entry).isOk());

    EXPECT_TRUE(pmp.check(0x20008, 1, PmpAccess::Read).isOk());
    EXPECT_TRUE(pmp.check(0x2000f, 1, PmpAccess::Read).isOk());
    EXPECT_TRUE(pmp.check(0x20008, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x20007, 1, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x20010, 1, PmpAccess::Read).isOk());
    /* Zero-length accesses are probed as one byte, not "always
     * inside": the top boundary still rejects them. */
    EXPECT_TRUE(pmp.check(0x2000f, 0, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x20010, 0, PmpAccess::Read).isOk());
}

TEST(PmpTest, Na4CoversExactlyFourBytes)
{
    Pmp pmp;
    PmpEntry entry;
    entry.mode = PmpMode::Na4;
    entry.addr = 0x30004 >> 2;
    entry.read = true;
    entry.write = true;
    ASSERT_TRUE(pmp.configure(0, entry).isOk());

    EXPECT_TRUE(pmp.check(0x30004, 4, PmpAccess::Write).isOk());
    EXPECT_TRUE(pmp.check(0x30007, 1, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x30003, 1, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x30008, 1, PmpAccess::Read).isOk());
    /* An 8-byte access straddles out of the NA4 window. */
    EXPECT_FALSE(pmp.check(0x30004, 8, PmpAccess::Read).isOk());
}

/* ---- overlapping-region priority ---- */

TEST(PmpTest, FirstMatchDecidesEvenWhenItAllows)
{
    /* Priority is positional, not deny-biased: a low-numbered allow
     * entry shadows a high-numbered deny over the same range. */
    Pmp pmp;
    PmpEntry allow;
    allow.mode = PmpMode::Napot;
    allow.addr = Pmp::napotEncode(0x40000, 0x1000).value();
    allow.read = true;
    allow.write = true;
    ASSERT_TRUE(pmp.configure(0, allow).isOk());
    PmpEntry deny;
    deny.mode = PmpMode::Napot;
    deny.addr = Pmp::napotEncode(0x40000, 0x10000).value();
    ASSERT_TRUE(pmp.configure(1, deny).isOk());

    EXPECT_TRUE(pmp.check(0x40800, 8, PmpAccess::Write).isOk());
    /* Outside the allow subrange the deny entry takes over. */
    EXPECT_FALSE(pmp.check(0x42000, 8, PmpAccess::Read).isOk());
}

TEST(PmpTest, StraddlingOutOfTheFirstMatchFallsThrough)
{
    /* An access that does not fit entirely inside entry 0's range
     * does not match it at all, so a wider later entry decides. */
    Pmp pmp;
    PmpEntry narrow;
    narrow.mode = PmpMode::Napot;
    narrow.addr = Pmp::napotEncode(0x50000, 8).value();
    narrow.read = true;
    ASSERT_TRUE(pmp.configure(0, narrow).isOk());
    PmpEntry wide;
    wide.mode = PmpMode::Napot;
    wide.addr = Pmp::napotEncode(0x50000, 0x1000).value();
    wide.read = true;
    wide.write = true;
    ASSERT_TRUE(pmp.configure(1, wide).isOk());

    /* Inside the narrow entry: it decides, and it denies writes. */
    EXPECT_FALSE(pmp.check(0x50000, 8, PmpAccess::Write).isOk());
    /* Straddling past it: falls through to the wide allow. */
    EXPECT_TRUE(pmp.check(0x50000, 16, PmpAccess::Write).isOk());
}

/* ---- lock-bit behavior ---- */

TEST(PmpTest, LockedEntryKeepsItsConfigurationOnFailedWrite)
{
    Pmp pmp;
    PmpEntry entry;
    entry.mode = PmpMode::Napot;
    entry.addr = Pmp::napotEncode(0x60000, 0x1000).value();
    entry.read = true;
    entry.locked = true;
    ASSERT_TRUE(pmp.configure(2, entry).isOk());

    PmpEntry takeover = entry;
    takeover.write = true;
    EXPECT_EQ(pmp.configure(2, takeover).code(),
              ErrorCode::PermissionDenied);
    /* The denied write must not have partially applied. */
    EXPECT_FALSE(pmp.entry(2).write);
    EXPECT_FALSE(pmp.check(0x60000, 8, PmpAccess::Write).isOk());
    EXPECT_TRUE(pmp.check(0x60000, 8, PmpAccess::Read).isOk());
}

TEST(PmpTest, ResetClearsOnlyUnlockedEntries)
{
    Pmp pmp;
    PmpEntry locked;
    locked.mode = PmpMode::Napot;
    locked.addr = Pmp::napotEncode(0x60000, 0x1000).value();
    locked.read = true;
    locked.locked = true;
    ASSERT_TRUE(pmp.configure(0, locked).isOk());
    PmpEntry plain = locked;
    plain.locked = false;
    plain.addr = Pmp::napotEncode(0x70000, 0x1000).value();
    ASSERT_TRUE(pmp.configure(1, plain).isOk());

    pmp.reset();
    EXPECT_TRUE(pmp.check(0x60000, 8, PmpAccess::Read).isOk());
    EXPECT_FALSE(pmp.check(0x70000, 8, PmpAccess::Read).isOk());
    EXPECT_EQ(pmp.entry(1).mode, PmpMode::Off);
    /* The unlocked slot is reusable after reset... */
    EXPECT_TRUE(pmp.configure(1, plain).isOk());
    /* ...the locked one still refuses. */
    EXPECT_EQ(pmp.configure(0, plain).code(),
              ErrorCode::PermissionDenied);
}

/* ---- region exhaustion ---- */

TEST(PmpTest, ConfigureRejectsOutOfRangeIndex)
{
    Pmp pmp;
    EXPECT_EQ(pmp.configure(Pmp::kEntries, PmpEntry{}).code(),
              ErrorCode::InvalidArgument);
}

} // namespace
} // namespace cronus::hw
