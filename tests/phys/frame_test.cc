/**
 * Fresh-machine tests: a new mem_map is OS-zeroed memory whose
 * all-zero frames read free, and a new machine's buddy state (list
 * counts, list order, checkpoint bytes) is pinned to explicit values.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "base/serialize.hh"
#include "mm/kernel.hh"
#include "mm/policy.hh"
#include "mm/process.hh"
#include "phys/phys_mem.hh"

using namespace contig;

static_assert(std::is_trivially_default_constructible_v<Frame>);
static_assert(std::is_trivially_destructible_v<Frame>);

namespace
{

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
stateDigest(const PhysicalMemory &pm)
{
    Serializer s;
    pm.saveState(s);
    return fnv1a(s.data());
}

std::vector<Pfn>
topList(const BuddyAllocator &b)
{
    std::vector<Pfn> v;
    b.forEachFreeBlock(b.maxOrder(), [&](Pfn p) { v.push_back(p); });
    return v;
}

std::vector<Pfn>
ascending(Pfn base, std::uint64_t blocks, std::uint64_t block_pages)
{
    std::vector<Pfn> v;
    for (std::uint64_t i = 0; i < blocks; ++i)
        v.push_back(base + i * block_pages);
    return v;
}

/** Only the top order holds blocks: `blocks` of them. */
std::vector<std::uint64_t>
topOnly(unsigned max_order, std::uint64_t blocks)
{
    std::vector<std::uint64_t> v(max_order + 1, 0);
    v[max_order] = blocks;
    return v;
}

/** The scaled host (2 x 1 GiB), sorted top list. */
PhysMemConfig
hostConfig()
{
    PhysMemConfig cfg;
    cfg.bytesPerNode = 1ull << 30;
    cfg.numNodes = 2;
    return cfg;
}

/** The stock host: unsorted top list seeded in scrambled order. */
PhysMemConfig
scrambledConfig()
{
    PhysMemConfig cfg = hostConfig();
    cfg.zone.sortedTopList = false;
    cfg.zone.scrambleSeed = 0xC0FFEE;
    return cfg;
}

/** A stock guest (2 x 768 MiB), scrambled with the guest seed. */
PhysMemConfig
guestConfig()
{
    PhysMemConfig cfg;
    cfg.bytesPerNode = 768ull << 20;
    cfg.numNodes = 2;
    cfg.zone.sortedTopList = false;
    cfg.zone.scrambleSeed = 0xFACADE;
    return cfg;
}

/** Eager paging's raised MAX_ORDER: one 1 GiB block per node. */
PhysMemConfig
eagerConfig()
{
    PhysMemConfig cfg = scrambledConfig();
    cfg.zone.maxOrder = 18;
    return cfg;
}

PhysMemConfig
shardedConfig(PhysMemConfig cfg)
{
    cfg.zone.numaShards = 4;
    return cfg;
}

/** Every frame reads free, unowned, unmapped and off every LRU. */
void
expectPristine(const PhysicalMemory &pm)
{
    std::uint64_t heads = 0;
    for (Pfn p = 0; p < pm.totalFrames(); ++p) {
        const Frame &f = pm.frame(p);
        ASSERT_FALSE(f.inUse) << p;
        ASSERT_TRUE(pm.isFreePage(p)) << p;
        ASSERT_EQ(f.ownerKind, FrameOwner::None) << p;
        ASSERT_EQ(f.refCount, 0u) << p;
        ASSERT_EQ(f.mapCount, 0u) << p;
        ASSERT_EQ(f.lruList, Frame::LruList::None) << p;
        ASSERT_FALSE(f.referenced) << p;
        heads += f.freeHead;
    }
    std::uint64_t top_blocks = 0;
    for (unsigned n = 0; n < pm.numNodes(); ++n) {
        const BuddyAllocator &b = pm.zone(n).buddy();
        EXPECT_TRUE(b.checkInvariants());
        top_blocks += b.freeBlocks(b.maxOrder());
    }
    // Only the seeded top-order heads were written.
    EXPECT_EQ(heads, top_blocks);
    EXPECT_EQ(pm.freePages(), pm.totalFrames());
}

} // namespace

TEST(FreshMachine, FrameArrayIsHugeAlignedAndZero)
{
    // Down to the tiny arrays the buddy fixtures build.
    for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{7},
                            pagesInOrder(kMaxOrder),
                            8 * pagesInOrder(kMaxOrder) + 3}) {
        FrameArray frames(n);
        EXPECT_EQ(frames.size(), n);
        const auto base = reinterpret_cast<std::uintptr_t>(frames.data());
        EXPECT_EQ(base % kHugeSize, 0u) << n;
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(frames.data());
        std::vector<unsigned char> zero(n * sizeof(Frame), 0);
        EXPECT_EQ(std::memcmp(bytes, zero.data(), zero.size()), 0) << n;
    }
}

TEST(FreshMachine, HostIsPristineAndSorted)
{
    PhysicalMemory pm(hostConfig());
    expectPristine(pm);
    const std::uint64_t blk = pagesInOrder(kMaxOrder);
    for (unsigned n = 0; n < 2; ++n) {
        const BuddyAllocator &b = pm.zone(n).buddy();
        EXPECT_EQ(b.freeBlockCounts(), topOnly(kMaxOrder, 128));
        EXPECT_EQ(topList(b), ascending(n * 262144, 128, blk));
    }
    EXPECT_EQ(pm.freeClusters().size(), 2u);
    EXPECT_EQ(stateDigest(pm), 0x29a2672eeb5ea04eull);
}

TEST(FreshMachine, ShardedHostMatchesUnshardedHost)
{
    PhysicalMemory pm(shardedConfig(hostConfig()));
    expectPristine(pm);
    const std::uint64_t blk = pagesInOrder(kMaxOrder);
    for (unsigned n = 0; n < 2; ++n) {
        const BuddyAllocator &b = pm.zone(n).buddy();
        EXPECT_EQ(b.topStripes(), 4u);
        EXPECT_EQ(b.freeBlockCounts(), topOnly(kMaxOrder, 128));
        EXPECT_EQ(topList(b), ascending(n * 262144, 128, blk));
    }
    // One cluster per contiguity-map stripe; same checkpoint bytes.
    EXPECT_EQ(pm.freeClusters().size(), 8u);
    EXPECT_EQ(stateDigest(pm), 0x29a2672eeb5ea04eull);
}

TEST(FreshMachine, ScrambledHostKeepsItsSeedOrder)
{
    PhysicalMemory pm(scrambledConfig());
    expectPristine(pm);
    const std::vector<std::vector<Pfn>> first8 = {
        {241664, 114688, 18432, 180224, 16384, 184320, 6144, 8192},
        {448512, 514048, 296960, 319488, 280576, 270336, 362496, 434176},
    };
    for (unsigned n = 0; n < 2; ++n) {
        const BuddyAllocator &b = pm.zone(n).buddy();
        EXPECT_EQ(b.freeBlockCounts(), topOnly(kMaxOrder, 128));
        const std::vector<Pfn> top = topList(b);
        ASSERT_EQ(top.size(), 128u);
        EXPECT_EQ(std::vector<Pfn>(top.begin(), top.begin() + 8),
                  first8[n]);
    }
    EXPECT_EQ(stateDigest(pm), 0x02da8502e735782eull);
}

TEST(FreshMachine, ShardedScrambledHostKeepsItsSeedOrder)
{
    PhysicalMemory pm(shardedConfig(scrambledConfig()));
    expectPristine(pm);
    const std::vector<std::vector<Pfn>> first8 = {
        {18432, 16384, 6144, 8192, 63488, 57344, 4096, 30720},
        {296960, 319488, 280576, 270336, 282624, 323584, 315392, 272384},
    };
    for (unsigned n = 0; n < 2; ++n) {
        const BuddyAllocator &b = pm.zone(n).buddy();
        EXPECT_EQ(b.freeBlockCounts(), topOnly(kMaxOrder, 128));
        const std::vector<Pfn> top = topList(b);
        ASSERT_EQ(top.size(), 128u);
        EXPECT_EQ(std::vector<Pfn>(top.begin(), top.begin() + 8),
                  first8[n]);
    }
    EXPECT_EQ(stateDigest(pm), 0xc7b9d5d95632803eull);
}

TEST(FreshMachine, GuestKeepsItsSeedOrder)
{
    PhysicalMemory pm(guestConfig());
    expectPristine(pm);
    const std::vector<std::vector<Pfn>> first8 = {
        {143360, 86016, 190464, 6144, 133120, 178176, 59392, 8192},
        {212992, 196608, 315392, 360448, 317440, 253952, 321536, 217088},
    };
    for (unsigned n = 0; n < 2; ++n) {
        const BuddyAllocator &b = pm.zone(n).buddy();
        EXPECT_EQ(b.freeBlockCounts(), topOnly(kMaxOrder, 96));
        const std::vector<Pfn> top = topList(b);
        ASSERT_EQ(top.size(), 96u);
        EXPECT_EQ(std::vector<Pfn>(top.begin(), top.begin() + 8),
                  first8[n]);
    }
    EXPECT_EQ(stateDigest(pm), 0x160e4da2bca930c9ull);
}

TEST(FreshMachine, EagerMaxOrderSeedsOneBlockPerNode)
{
    PhysicalMemory pm(eagerConfig());
    expectPristine(pm);
    for (unsigned n = 0; n < 2; ++n) {
        const BuddyAllocator &b = pm.zone(n).buddy();
        EXPECT_EQ(b.freeBlockCounts(), topOnly(18, 1));
        EXPECT_EQ(topList(b), std::vector<Pfn>{n * Pfn{262144}});
    }
    EXPECT_EQ(stateDigest(pm), 0xf1885859423a3f2full);
}

TEST(FreshMachine, RebuildAfterPopulateIsPristine)
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 64ull << 20;
    cfg.phys.numNodes = 2;
    auto snapshot = [](const Kernel &k) {
        const FrameArray &fa = k.physMem().frames();
        const auto *b = reinterpret_cast<const std::uint8_t *>(fa.data());
        return std::vector<std::uint8_t>(b, b + fa.size() * sizeof(Frame));
    };

    auto k = std::make_unique<Kernel>(cfg,
                                      std::make_unique<DefaultThpPolicy>());
    const std::vector<std::uint8_t> fresh = snapshot(*k);
    Serializer fresh_state;
    k->physMem().saveState(fresh_state);

    Process &p = k->createProcess("populate");
    Vma &vma = p.mmap(16ull << 20);
    for (std::uint64_t off = 0; off < vma.pages() * kPageSize;
         off += kPageSize) {
        p.touch(vma.start() + off);
    }
    EXPECT_LE(k->physMem().freePages(), k->physMem().totalFrames() -
                                            vma.pages());
    k.reset();

    k = std::make_unique<Kernel>(cfg, std::make_unique<DefaultThpPolicy>());
    EXPECT_TRUE(snapshot(*k) == fresh);
    Serializer again;
    k->physMem().saveState(again);
    EXPECT_EQ(again.data(), fresh_state.data());
}
