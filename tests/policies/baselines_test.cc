#include <gtest/gtest.h>

#include "mm/kernel.hh"
#include "policies/eager.hh"
#include "policies/ideal.hh"
#include "policies/ingens.hh"
#include "policies/ranger.hh"

using namespace contig;

namespace
{

KernelConfig
smallConfig(unsigned max_order = kMaxOrder)
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 256ull << 20;
    cfg.phys.numNodes = 2;
    cfg.phys.zone.maxOrder = max_order;
    cfg.tickPeriodFaults = 64;
    return cfg;
}

std::uint64_t
largestContiguousRun(const Process &proc)
{
    std::uint64_t best = 0, cur = 0;
    std::int64_t last_off = 0;
    Vpn last_end = 0;
    bool have = false;
    proc.pageTable().forEachLeaf([&](Vpn vpn, const Mapping &m) {
        std::int64_t off = static_cast<std::int64_t>(vpn) -
                           static_cast<std::int64_t>(m.pfn);
        std::uint64_t n = pagesInOrder(m.order);
        if (have && off == last_off && vpn == last_end)
            cur += n;
        else
            cur = n;
        last_off = off;
        last_end = vpn + n;
        have = true;
        best = std::max(best, cur);
    });
    return best;
}

} // namespace

TEST(Eager, PreallocatesWholeVmaAtMmap)
{
    auto policy = std::make_unique<EagerPolicy>();
    auto *eager = policy.get();
    // Eager paging runs with a raised MAX_ORDER (here 64 MiB blocks).
    Kernel k(smallConfig(kMaxOrder + 3), std::move(policy));
    Process &p = k.createProcess("t");

    const std::uint64_t bytes = 32ull << 20;
    Vma &vma = p.mmap(bytes);
    // Everything is backed before any touch.
    EXPECT_EQ(vma.allocatedPages, bytes >> kPageShift);
    EXPECT_EQ(eager->stats().preallocatedPages, bytes >> kPageShift);
    EXPECT_EQ(largestContiguousRun(p), bytes >> kPageShift);

    // Touching afterwards raises no faults.
    const std::uint64_t faults = k.faultStats().faults;
    p.touchRange(vma.start(), bytes);
    EXPECT_EQ(k.faultStats().faults, faults);
}

TEST(Eager, BloatEqualsUntouchedPages)
{
    Kernel k(smallConfig(kMaxOrder + 3), std::make_unique<EagerPolicy>());
    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(32ull << 20);
    p.touchRange(vma.start(), 1ull << 20); // touch 1/32 of it
    EXPECT_EQ(vma.allocatedPages, (32ull << 20) >> kPageShift);
    EXPECT_EQ(vma.touchedPages, (1ull << 20) >> kPageShift);
}

TEST(Eager, MmapLatencyDominatesTail)
{
    Kernel k(smallConfig(kMaxOrder + 3), std::make_unique<EagerPolicy>());
    Process &p = k.createProcess("t");
    p.mmap(64ull << 20);
    // One giant zeroing event: far beyond a normal fault's latency.
    double p99 = k.faultStats().latencyUs.quantile(0.99);
    double normal = (k.config().faultBaseCycles +
                     512 * k.config().zeroCyclesPerPage) /
                    k.config().cyclesPerUs;
    EXPECT_GT(p99, 20 * normal);
}

TEST(Eager, FragmentationForcesSmallBlocks)
{
    auto policy = std::make_unique<EagerPolicy>();
    auto *eager = policy.get();
    Kernel k(smallConfig(kMaxOrder + 3), std::move(policy));

    // Fragment: allocate every top block, free every other huge chunk.
    PhysicalMemory &pm = k.physMem();
    std::vector<Pfn> blocks;
    while (auto b = pm.alloc(kMaxOrder + 3))
        blocks.push_back(*b);
    for (Pfn b : blocks) {
        // Free alternating 2 MiB halves within each block.
        for (std::uint64_t off = 0; off < pagesInOrder(kMaxOrder + 3);
             off += 2 * pagesInOrder(kHugeOrder)) {
            pm.free(b + off, kHugeOrder);
        }
    }

    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(8ull << 20);
    EXPECT_EQ(vma.allocatedPages, (8ull << 20) >> kPageShift);
    // The pre-allocation had to be stitched from many small blocks, so
    // the largest contiguous mapping is just one huge page.
    EXPECT_EQ(largestContiguousRun(p), pagesInOrder(kHugeOrder));
    // 8 MiB had to be stitched from four separate 2 MiB blocks.
    EXPECT_EQ(eager->stats().blocks, 4u);
}

TEST(Ingens, PromotesUtilizedRegionsAsynchronously)
{
    auto policy = std::make_unique<IngensPolicy>();
    auto *ingens = policy.get();
    KernelConfig cfg = smallConfig();
    Kernel k(cfg, std::move(policy));
    Process &p = k.createProcess("t");

    Vma &vma = p.mmap(4 * kHugeSize);
    // Ingens allocates 4 KiB pages only.
    p.touchRange(vma.start(), 4 * kHugeSize);
    EXPECT_EQ(k.faultStats().hugeFaults, 0u);
    // The daemon ran during the touches (tick every 64 faults) and
    // promoted fully-utilized regions.
    EXPECT_GT(ingens->stats().promotions, 0u);
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_EQ(m->order, kHugeOrder);
}

TEST(Ingens, SkipsUnderUtilizedRegions)
{
    auto policy = std::make_unique<IngensPolicy>();
    auto *ingens = policy.get();
    Kernel k(smallConfig(), std::move(policy));
    Process &p = k.createProcess("t");

    Vma &vma = p.mmap(16 * kHugeSize);
    // Touch only 10% of each huge region: below the 90% threshold.
    for (std::uint64_t h = 0; h < 16; ++h)
        p.touchRange(vma.start() + h * kHugeSize, 51 * kPageSize);
    // Force several daemon runs.
    for (int i = 0; i < 10; ++i)
        k.policy().onTick(k);
    EXPECT_EQ(ingens->stats().promotions, 0u);
}

namespace
{

/** Clear n touched bits scattered over the region at VMA offset rel. */
void
clearTouched(Vma &vma, std::uint64_t rel, unsigned n)
{
    const std::uint64_t huge = pagesInOrder(kHugeOrder);
    for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t idx = rel + (k * 37) % huge; // 37 odd: distinct
        vma.touchedBitmap[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    }
}

} // namespace

TEST(Ingens, TouchedBitmapCountsMatchBitByBit)
{
    Vma vma(1, Gva{Addr{1} << 32}, 4 * kHugeSize, VmaKind::Anon);
    std::vector<bool> naive(vma.pages(), false);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int k = 0; k < 1500; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t idx = x % vma.pages();
        EXPECT_EQ(vma.markTouched(idx), !naive[idx]);
        naive[idx] = true;
    }
    const std::uint64_t huge = pagesInOrder(kHugeOrder);
    for (std::uint64_t first : {0ull, 1ull, 63ull, 64ull, 509ull, 512ull,
                                1021ull, 1536ull}) {
        std::uint64_t expect = 0;
        for (std::uint64_t i = first; i < first + huge; ++i)
            expect += naive[i];
        EXPECT_EQ(vma.touchedIn(first, huge), expect) << first;
    }
}

/**
 * Ingens at threshold 0.75 (exactly 384 of a region's 512 pages),
 * its daemon run only when the test calls onTick.
 */
class IngensThreshold : public ::testing::Test
{
  protected:
    static constexpr unsigned kNeeded = 384;

    static KernelConfig
    config()
    {
        KernelConfig cfg = smallConfig();
        cfg.tickPeriodFaults = std::uint64_t{1} << 30;
        return cfg;
    }

    IngensThreshold()
        : ingens(new IngensPolicy(IngensConfig{0.75, 8})),
          k(config(), std::unique_ptr<AllocationPolicy>(ingens)),
          p(k.createProcess("t"))
    {
    }

    /**
     * Both full regions from region1 on are mapped with 4 KiB pages
     * (promotion needs every leaf present), then touched bits are
     * cleared so region1 keeps exactly kNeeded and the next region
     * one fewer: one daemon pass promotes region1 and skips the other
     * (which, fully mapped, would promote if it were tried).
     */
    void
    expectKnownAnswer(Vma &vma, Gva region1)
    {
        const std::uint64_t huge = pagesInOrder(kHugeOrder);
        p.touchRange(region1, 2 * kHugeSize);
        ASSERT_EQ(ingens->stats().scans, 0u); // the daemon has not run
        const std::uint64_t rel =
            region1.pageNumber() - vma.start().pageNumber();
        clearTouched(vma, rel, static_cast<unsigned>(huge) - kNeeded);
        clearTouched(vma, rel + huge,
                     static_cast<unsigned>(huge) - kNeeded + 1);
        ASSERT_EQ(vma.touchedIn(rel, huge), kNeeded);
        ASSERT_EQ(vma.touchedIn(rel + huge, huge), kNeeded - 1);

        k.policy().onTick(k);
        EXPECT_EQ(ingens->stats().promotions, 1u);
        EXPECT_EQ(ingens->stats().promotionFailures, 0u);
        auto m1 = p.pageTable().lookup(region1.pageNumber());
        ASSERT_TRUE(m1);
        EXPECT_EQ(m1->order, kHugeOrder);
        auto m2 = p.pageTable().lookup(region1.pageNumber() + huge);
        ASSERT_TRUE(m2);
        EXPECT_EQ(m2->order, 0u);
    }

    IngensPolicy *ingens;
    Kernel k;
    Process &p;
};

TEST_F(IngensThreshold, KnownAnswerOnAlignedVma)
{
    Vma &vma = p.mmap(2 * kHugeSize);
    ASSERT_EQ(vma.start().pageNumber() % 64, 0u); // whole-word path
    expectKnownAnswer(vma, vma.start());
}

TEST_F(IngensThreshold, KnownAnswerOnUnalignedVma)
{
    // A VMA 3 pages past a 2 MiB boundary: its full regions start at
    // VMA offsets 509 and 1021, off the 64-page word grid (bit path).
    const Gva huge_base{Addr{0x7000} << 32};
    Vma &vma = p.addressSpace().mmap(3 * kHugeSize, VmaKind::Anon,
                                     huge_base + 3 * kPageSize);
    ASSERT_EQ(vma.start().pageNumber() % 512, 3u);
    // Touch the leading partial region too: its bits share a word
    // with the first full region's and must not be counted.
    p.touchRange(vma.start(), 509 * kPageSize);
    expectKnownAnswer(vma, huge_base + kHugeSize);
}

TEST(Ingens, RepeatedTouchesCountOnce)
{
    Kernel k(smallConfig(), std::make_unique<IngensPolicy>());
    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(kHugeSize);
    for (int i = 0; i < 5; ++i) {
        p.touch(vma.start() + 7 * kPageSize);
        p.touch(vma.start() + 64 * kPageSize, Access::Read);
    }
    EXPECT_EQ(p.touchedPages(), 2u);
    EXPECT_EQ(vma.touchedPages, 2u);
    EXPECT_EQ(vma.touchedIn(0, pagesInOrder(kHugeOrder)), 2u);
}

TEST(Ranger, CoalescesAsynchronously)
{
    auto policy = std::make_unique<RangerPolicy>();
    auto *ranger = policy.get();
    KernelConfig cfg = smallConfig();
    cfg.tickPeriodFaults = 1000000; // keep the daemon off during setup
    Kernel k(cfg, std::move(policy));
    Process &p = k.createProcess("t");

    // Scatter the VMA: allocate with default THP while another
    // allocation interleaves, so frames are not contiguous.
    Vma &vma = p.mmap(16 * kHugeSize);
    Process &noise = k.createProcess("noise");
    Vma &nv = noise.mmap(16 * kHugeSize);
    for (std::uint64_t i = 0; i < 16; ++i) {
        p.touch(vma.start() + i * kHugeSize);
        noise.touch(nv.start() + i * kHugeSize);
    }
    const std::uint64_t before = largestContiguousRun(p);
    ASSERT_LT(before, 16u * 512);

    // Run defrag epochs until stable.
    for (int i = 0; i < 50; ++i)
        k.policy().onTick(k);
    EXPECT_EQ(largestContiguousRun(p), 16u * 512);
    EXPECT_GT(ranger->stats().migratedPages, 0u);
    EXPECT_GT(k.counters().get("migrate.shootdowns"), 0u);
}

TEST(Ranger, MigrationBudgetLimitsEpochWork)
{
    RangerConfig rcfg;
    rcfg.pagesPerEpoch = 512; // one huge page per epoch
    auto policy = std::make_unique<RangerPolicy>(rcfg);
    auto *ranger = policy.get();
    KernelConfig cfg = smallConfig();
    cfg.tickPeriodFaults = 1000000;
    Kernel k(cfg, std::move(policy));
    Process &p = k.createProcess("t");
    Process &noise = k.createProcess("noise");

    Vma &vma = p.mmap(8 * kHugeSize);
    Vma &nv = noise.mmap(8 * kHugeSize);
    for (std::uint64_t i = 0; i < 8; ++i) {
        p.touch(vma.start() + i * kHugeSize);
        noise.touch(nv.start() + i * kHugeSize);
    }
    k.policy().onTick(k);
    EXPECT_LE(ranger->stats().migratedPages, 512u);
}

TEST(Ideal, OfflineAssignmentIsContiguous)
{
    auto policy = std::make_unique<IdealPolicy>();
    Kernel k(smallConfig(), std::move(policy));
    Process &p = k.createProcess("t");
    Vma &vma = p.mmap(32 * kHugeSize);
    // Offset assigned at mmap time, before any fault.
    EXPECT_EQ(vma.caOffsetCount(), 1u);
    p.touchRange(vma.start(), vma.bytes());
    EXPECT_EQ(largestContiguousRun(p), 32u * 512);
}

TEST(Ideal, BestFitPicksTightestHole)
{
    auto policy = std::make_unique<IdealPolicy>();
    Kernel k(smallConfig(), std::move(policy));
    PhysicalMemory &pm = k.physMem();

    // Create the process first so its page-table pool chunk comes from
    // low memory, before we shape the holes.
    Process &p = k.createProcess("t");

    // Carve node 0 into two holes: a tight one (16 MiB) and the rest.
    // Hole A: blocks [2, 4) stay free; occupy blocks [0,2) and [4,6).
    const std::uint64_t top = pagesInOrder(kMaxOrder);
    for (std::uint64_t b : {0ull, 1ull, 4ull, 5ull}) {
        // The pool chunk may already sit inside block 0; occupy the
        // rest of each block piecewise.
        for (std::uint64_t off = 0; off < top;
             off += pagesInOrder(kHugeOrder)) {
            if (pm.isFreePage(b * top + off)) {
                ASSERT_TRUE(
                    pm.allocSpecific(b * top + off, kHugeOrder));
            }
        }
    }
    Vma &vma = p.mmap(2 * top * kPageSize); // exactly the tight hole
    p.touchRange(vma.start(), vma.bytes());
    auto m = p.pageTable().lookup(vma.start().pageNumber());
    ASSERT_TRUE(m);
    EXPECT_EQ(m->pfn, 2 * top); // placed into the tight hole
    EXPECT_EQ(largestContiguousRun(p), 2 * top);
}
