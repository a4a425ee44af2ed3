/**
 * @file
 * Unit tests for the software-managed TLB and the page table.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "mem/tlb.hh"

using namespace softwatt;

TEST(Tlb, MissUntilInserted)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    tlb.insert(1, 0x1000);
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
    EXPECT_TRUE(tlb.lookup(1, 0x1ffc));  // same page
    EXPECT_FALSE(tlb.lookup(1, 0x2000)); // next page
    EXPECT_EQ(tlb.refs(), 4u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, AsidsAreIsolated)
{
    Tlb tlb(4);
    tlb.insert(1, 0x1000);
    EXPECT_FALSE(tlb.lookup(2, 0x1000));
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb(2);
    tlb.insert(1, 0x1000);
    tlb.insert(1, 0x2000);
    EXPECT_TRUE(tlb.lookup(1, 0x1000));  // refresh page 1
    tlb.insert(1, 0x3000);               // evicts page 2
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
    EXPECT_FALSE(tlb.lookup(1, 0x2000));
    EXPECT_TRUE(tlb.lookup(1, 0x3000));
}

TEST(Tlb, DoubleInsertIsIdempotent)
{
    Tlb tlb(2);
    tlb.insert(1, 0x1000);
    tlb.insert(1, 0x1000);
    tlb.insert(1, 0x2000);
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
    EXPECT_TRUE(tlb.lookup(1, 0x2000));
}

TEST(Tlb, InvalidateAsidOnlyDropsThatSpace)
{
    Tlb tlb(4);
    tlb.insert(1, 0x1000);
    tlb.insert(2, 0x1000);
    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    EXPECT_TRUE(tlb.lookup(2, 0x1000));
}

TEST(Tlb, InvalidateAllDropsEverything)
{
    Tlb tlb(4);
    tlb.insert(1, 0x1000);
    tlb.insert(2, 0x2000);
    tlb.invalidateAll();
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    EXPECT_FALSE(tlb.lookup(2, 0x2000));
}

TEST(Tlb, CapacityIsRespected)
{
    Tlb tlb(64);
    for (int p = 0; p < 64; ++p)
        tlb.insert(1, Addr(p) * 4096);
    for (int p = 0; p < 64; ++p)
        EXPECT_TRUE(tlb.lookup(1, Addr(p) * 4096)) << p;
    tlb.insert(1, 64 * 4096);
    int hits = 0;
    for (int p = 0; p <= 64; ++p)
        hits += tlb.lookup(1, Addr(p) * 4096);
    EXPECT_EQ(hits, 64);  // exactly one got evicted
}

namespace
{

std::vector<std::uint8_t>
stateOf(const Tlb &tlb)
{
    ChunkWriter out;
    tlb.saveState(out);
    return out.bytes();
}

/** Same entries, LRU clock and statistics, but a cold MRU hint. */
std::unique_ptr<Tlb>
coldCopy(const Tlb &tlb)
{
    auto copy = std::make_unique<Tlb>(tlb.size(), tlb.pageBytes());
    std::vector<std::uint8_t> state = stateOf(tlb);
    ChunkReader in(state, "tlb");  // keeps a reference to state
    copy->loadState(in);
    return copy;
}

} // namespace

TEST(Tlb, MruHintKeepsExactLruVictim)
{
    // Hot: repeated hits on page 1 are served by the MRU hint.
    // Cold: every hit runs on a restored copy, whose hint is cold.
    Tlb hot(4);
    auto cold = std::make_unique<Tlb>(4);
    for (Addr page = 1; page <= 4; ++page) {
        hot.insert(1, page * 4096);
        cold->insert(1, page * 4096);
    }
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(hot.lookup(1, 1 * 4096));
        cold = coldCopy(*cold);
        EXPECT_TRUE(cold->lookup(1, 1 * 4096));
    }
    EXPECT_EQ(stateOf(hot), stateOf(*cold));

    // Page 2 is now least recently used, not the hinted page 1.
    hot.insert(1, 5 * 4096);
    cold->insert(1, 5 * 4096);
    for (Addr page = 1; page <= 5; ++page) {
        bool hit = hot.lookup(1, page * 4096);
        EXPECT_EQ(hit, cold->lookup(1, page * 4096)) << page;
        EXPECT_EQ(hit, page != 2) << page;
    }
    EXPECT_EQ(stateOf(hot), stateOf(*cold));
}

TEST(Tlb, MruHintIsCheckedAfterInvalidation)
{
    Tlb tlb(4);
    tlb.insert(1, 0x1000);
    EXPECT_TRUE(tlb.lookup(1, 0x1000));  // hint on this slot
    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    tlb.insert(2, 0x1000);               // same vpn, other space
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    EXPECT_TRUE(tlb.lookup(2, 0x1000));
}

TEST(TlbDeath, BadParamsFatal)
{
    EXPECT_DEATH(Tlb(0), "at least one");
    EXPECT_DEATH(Tlb(4, 3000), "power of two");
}

TEST(PageTable, MapAndQuery)
{
    PageTable pt(4096);
    EXPECT_FALSE(pt.isMapped(0x1000));
    EXPECT_TRUE(pt.map(0x1000));
    EXPECT_FALSE(pt.map(0x1400));  // same page: already mapped
    EXPECT_TRUE(pt.isMapped(0x1000));
    EXPECT_TRUE(pt.isMapped(0x1fff));
    EXPECT_FALSE(pt.isMapped(0x2000));
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(PageTable, ClearDropsMappings)
{
    PageTable pt(4096);
    pt.map(0x1000);
    pt.clear();
    EXPECT_FALSE(pt.isMapped(0x1000));
    EXPECT_EQ(pt.mappedPages(), 0u);
}
