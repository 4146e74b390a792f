#include <gtest/gtest.h>

#include <vector>

#include "base/serialize.hh"
#include "mm/page_table.hh"

using namespace contig;

TEST(PageTable, EmptyLookupFails)
{
    PageTable pt;
    EXPECT_FALSE(pt.lookup(0x1234));
}

TEST(PageTable, MapLookup4k)
{
    PageTable pt;
    pt.map(100, 7, 0);
    auto m = pt.lookup(100);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pfn, 7u);
    EXPECT_EQ(m->order, 0u);
    EXPECT_FALSE(pt.lookup(101));
    EXPECT_FALSE(pt.lookup(99));
}

TEST(PageTable, MapLookupHuge)
{
    PageTable pt;
    const Vpn base = 5 * 512;
    pt.map(base, 1024, kHugeOrder);
    // Every vpn inside the huge region resolves to the same leaf.
    for (Vpn v = base; v < base + 512; v += 37) {
        auto m = pt.lookup(v);
        ASSERT_TRUE(m);
        EXPECT_EQ(m->pfn, 1024u);
        EXPECT_EQ(m->order, kHugeOrder);
    }
    EXPECT_FALSE(pt.lookup(base + 512));
}

TEST(PageTable, UnmapRemoves)
{
    PageTable pt;
    pt.map(42, 43, 0);
    pt.unmap(42, 0);
    EXPECT_FALSE(pt.lookup(42));
    EXPECT_EQ(pt.stats().mappedBasePages, 0u);
}

TEST(PageTable, Walk4kTouchesFourLevels)
{
    PageTable pt;
    pt.map(0x123456, 99, 0);
    WalkTrace t;
    pt.walk(0x123456, t);
    EXPECT_TRUE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 4u);
    EXPECT_EQ(t.mapping.pfn, 99u);
}

TEST(PageTable, WalkHugeTouchesThreeLevels)
{
    PageTable pt;
    pt.map(512, 512, kHugeOrder);
    WalkTrace t;
    pt.walk(512 + 17, t);
    EXPECT_TRUE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 3u);
}

TEST(PageTable, WalkMissRecordsPartialTrace)
{
    PageTable pt;
    pt.map(0, 1, 0); // builds the path for low vpns
    WalkTrace t;
    pt.walk(3, t); // same L1 node, missing slot
    EXPECT_FALSE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 4u);
    // A vpn far away misses at the root.
    pt.walk(Vpn{1} << 35, t);
    EXPECT_FALSE(t.hit);
    EXPECT_EQ(t.nodeFrames.size(), 1u);
}

TEST(PageTable, ContigBit)
{
    PageTable pt;
    pt.map(10, 20, 0);
    EXPECT_FALSE(pt.lookup(10)->contigBit);
    pt.setContigBit(10, true);
    EXPECT_TRUE(pt.lookup(10)->contigBit);
    pt.setContigBit(10, false);
    EXPECT_FALSE(pt.lookup(10)->contigBit);
}

TEST(PageTable, CowBits)
{
    PageTable pt;
    pt.map(10, 20, 0, true, false);
    pt.setWritable(10, false, true);
    auto m = pt.lookup(10);
    EXPECT_FALSE(m->writable);
    EXPECT_TRUE(m->cow);
}

TEST(PageTable, ForEachLeafAscending)
{
    PageTable pt;
    pt.map(1000, 1, 0);
    pt.map(512 * 9, 512, kHugeOrder); // vpn 4608 (aligned)
    pt.map(5, 2, 0);
    std::vector<Vpn> seen;
    pt.forEachLeaf([&](Vpn v, const Mapping &) { seen.push_back(v); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], 5u);
    EXPECT_EQ(seen[1], 1000u);
    EXPECT_EQ(seen[2], 512u * 9);
}

TEST(PageTable, ForEachLeafInClipsMixedLeaves)
{
    PageTable pt;
    pt.map(100, 1, 0);
    pt.map(512, 512, kHugeOrder); // [512, 1024)
    pt.map(700 + 512, 3, 0);      // 1212
    pt.map(1536, 1024, kHugeOrder); // [1536, 2048)
    pt.map(2100, 4, 0);
    pt.map(Vpn{1} << 18, 2048, kHugeOrder); // another level-3 subtree
    pt.map((Vpn{1} << 18) + 512 + 9, 5, 0);

    const auto visit = [&pt](Vpn start, Vpn end) {
        std::vector<Vpn> seen;
        pt.forEachLeafIn(start, end,
                         [&](Vpn v, const Mapping &) { seen.push_back(v); });
        return seen;
    };
    using V = std::vector<Vpn>;
    // A huge leaf straddling start is visited; a leaf at end is not.
    EXPECT_EQ(visit(600, 2100), (V{512, 1212, 1536}));
    EXPECT_EQ(visit(600, 2101), (V{512, 1212, 1536, 2100}));
    EXPECT_EQ(visit(1024, 1536), (V{1212}));
    EXPECT_EQ(visit(1024, 1537), (V{1212, 1536}));
    EXPECT_EQ(visit(2047, 2100), (V{1536}));
    EXPECT_EQ(visit(101, 512), V{});
    EXPECT_EQ(visit(100, 100), V{});
    EXPECT_EQ(visit(2101, 100), V{});
    EXPECT_EQ(visit(2000, (Vpn{1} << 18) + 1),
              (V{1536, 2100, Vpn{1} << 18}));
    EXPECT_EQ(visit((Vpn{1} << 18) + 520, Vpn{1} << 36),
              (V{(Vpn{1} << 18) + 521}));

    // The whole-range visit is forEachLeaf, ascending.
    const V all = visit(0, Vpn{1} << 36);
    EXPECT_EQ(all, (V{100, 512, 1212, 1536, 2100, Vpn{1} << 18,
                      (Vpn{1} << 18) + 521}));
    V every;
    pt.forEachLeaf([&](Vpn v, const Mapping &m) {
        every.push_back(v);
        if (v == 1536) {
            EXPECT_EQ(m.order, kHugeOrder);
            EXPECT_EQ(m.pfn, 1024u);
        }
    });
    EXPECT_EQ(every, all);
}

TEST(PageTable, NodeAllocatorUsed)
{
    Pfn next = 1000;
    std::vector<Pfn> freed;
    {
        PageTable pt([&] { return next++; },
                     [&](Pfn p) { freed.push_back(p); });
        pt.map(0x1, 5, 0);
        pt.map(Vpn{1} << 30, 6, 0);
        EXPECT_GE(pt.stats().nodesAllocated, 4u);
        EXPECT_EQ(pt.rootFrame(), 1000u);
    }
    // All node frames returned on destruction.
    EXPECT_EQ(freed.size(), next - 1000);
}

TEST(PageTable, HighVpnsSupported)
{
    PageTable pt;
    const Vpn high = (Vpn{1} << 36) - 512; // top of the 48-bit space
    pt.map(high, 512, kHugeOrder);
    auto m = pt.lookup(high + 11);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pfn, 512u);
}

TEST(PageTable, UnmapRangeMatchesPerLeafUnmap)
{
    // Two identical tables: one torn down leaf by leaf (collect, then
    // unmap each), the other with one unmapRange descent. Callbacks,
    // hook calls, stats, generation and checkpoint bytes must match.
    struct Hooked
    {
        PageTable pt;
        std::vector<std::pair<Vpn, Pfn>> hooks;
        Hooked()
        {
            pt.setUpdateHook([this](Vpn v, const Mapping &m, bool present) {
                if (!present)
                    hooks.emplace_back(v, m.pfn);
            });
            pt.map(100, 1, 0);
            pt.map(512, 512, kHugeOrder); // [512, 1024), straddles start
            pt.map(1212, 3, 0);
            pt.map(1536, 1024, kHugeOrder);
            pt.map(2100, 4, 0); // at end: kept
            pt.map(Vpn{1} << 18, 2048, kHugeOrder);
        }
    };
    const Vpn start = 600;
    const Vpn end = 2100;
    using Leaves = std::vector<std::pair<Vpn, Pfn>>;

    Hooked a;
    std::vector<std::pair<Vpn, Mapping>> leaves;
    a.pt.forEachLeafIn(start, end, [&](Vpn v, const Mapping &m) {
        leaves.emplace_back(v, m);
    });
    Leaves seen_a;
    for (const auto &[v, m] : leaves) {
        a.pt.unmap(v, m.order);
        seen_a.emplace_back(v, m.pfn);
    }

    Hooked b;
    Leaves seen_b;
    b.pt.unmapRange(start, end, [&](Vpn v, const Mapping &m) {
        seen_b.emplace_back(v, m.pfn);
    });

    EXPECT_EQ(seen_b, (Leaves{{512, 512}, {1212, 3}, {1536, 1024}}));
    EXPECT_EQ(seen_b, seen_a);
    EXPECT_EQ(b.hooks, a.hooks);
    EXPECT_EQ(b.pt.generation(), a.pt.generation());
    EXPECT_EQ(b.pt.stats().unmaps, 3u);
    EXPECT_EQ(b.pt.stats().mappedHugePages, 1u);
    EXPECT_EQ(b.pt.stats().mappedBasePages, 2u);
    Serializer sa, sb;
    a.pt.saveState(sa);
    b.pt.saveState(sb);
    EXPECT_EQ(sb.data(), sa.data());
    EXPECT_TRUE(b.pt.lookup(2100));
    EXPECT_FALSE(b.pt.lookup(1212));
}
