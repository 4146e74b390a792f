#include <gtest/gtest.h>

#include "base/rng.hh"
#include "core/config.hh"
#include "mm/kernel.hh"
#include "tlb/translation_sim.hh"

using namespace contig;

namespace
{

struct SimTest : public ::testing::Test
{
    SimTest()
        : kernel(
              [] {
                  KernelConfig cfg;
                  cfg.phys.bytesPerNode = 256ull << 20;
                  cfg.phys.numNodes = 1;
                  return cfg;
              }(),
              std::make_unique<DefaultThpPolicy>()),
          proc(kernel.createProcess("t"))
    {
        vma = &proc.mmap(64 * kHugeSize);
        proc.touchRange(vma->start(), vma->bytes());
    }

    XlatConfig
    config(XlatScheme scheme)
    {
        XlatConfig cfg;
        cfg.tlb = ScaledDefaults::tlb();
        cfg.walker = ScaledDefaults::walker();
        cfg.scheme = scheme;
        cfg.spot = ScaledDefaults::spot();
        cfg.rangeTlb = ScaledDefaults::rangeTlb();
        return cfg;
    }

    Kernel kernel;
    Process &proc;
    Vma *vma = nullptr;
};

} // namespace

TEST_F(SimTest, RepeatAccessHitsTlb)
{
    TranslationSim sim(config(XlatScheme::Base), proc.pageTable());
    MemAccess a{0x400000, vma->start()};
    sim.access(a);
    EXPECT_EQ(sim.stats().walks, 1u);
    for (int i = 0; i < 100; ++i)
        sim.access(a);
    EXPECT_EQ(sim.stats().walks, 1u);
    EXPECT_EQ(sim.stats().l1Hits, 100u);
}

TEST_F(SimTest, ThrashForcesWalks)
{
    TranslationSim sim(config(XlatScheme::Base), proc.pageTable());
    // Round-robin over 64 huge pages >> 24-entry L2: mostly misses.
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            sim.access({0x400000, vma->start() + h * kHugeSize});
    EXPECT_GT(sim.stats().walks, 300u);
    EXPECT_GT(sim.stats().exposedCycles, 0u);
    EXPECT_EQ(sim.stats().exposedCycles, sim.stats().walkCycles);
}

TEST_F(SimTest, SpotHidesStableOffsets)
{
    TranslationSim sim(config(XlatScheme::Spot), proc.pageTable());
    // Mark the mapping so fills are allowed (native: guest bit only).
    for (Vpn v = vma->start().pageNumber();
         v < vma->start().pageNumber() + vma->pages(); v += 512)
        proc.pageTable().setContigBit(v, true);

    for (int round = 0; round < 20; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            sim.access({0x400000, vma->start() + h * kHugeSize});
    const auto &s = sim.stats();
    EXPECT_GT(s.spotCorrect, s.walks / 2);
    EXPECT_LT(s.exposedCycles, s.walkCycles / 2);
}

TEST_F(SimTest, SpotWithoutMarksNeverFills)
{
    TranslationSim sim(config(XlatScheme::Spot), proc.pageTable());
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            sim.access({0x400000, vma->start() + h * kHugeSize});
    EXPECT_EQ(sim.stats().spotCorrect, 0u);
    EXPECT_EQ(sim.stats().spotNoPrediction, sim.stats().walks);
}

TEST_F(SimTest, RmmHitsEraseExposedCost)
{
    TranslationSim sim(config(XlatScheme::Rmm), proc.pageTable());
    sim.setSegments(extractSegs(proc.pageTable()));
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t h = 0; h < 64; ++h)
            sim.access({0x400000, vma->start() + h * kHugeSize});
    // A single contiguous mapping: after the first refill every miss
    // hits the cached range.
    EXPECT_GT(sim.stats().rangeHits, sim.stats().walks - 5);
    EXPECT_LT(sim.stats().exposedCycles, sim.stats().walkCycles / 10);
}

TEST_F(SimTest, DsSkipsTranslationEntirely)
{
    TranslationSim sim(config(XlatScheme::Ds), proc.pageTable());
    sim.setSegments(extractSegs(proc.pageTable()));
    for (std::uint64_t h = 0; h < 64; ++h)
        sim.access({0x400000, vma->start() + h * kHugeSize});
    EXPECT_EQ(sim.stats().walks, 0u);
    EXPECT_EQ(sim.stats().segmentHits, 64u);
}

TEST_F(SimTest, DsMergesAdjacentSegments)
{
    // Two VMAs that are virtually adjacent after merge logic: feed
    // synthetic segments and check both are covered.
    TranslationSim sim(config(XlatScheme::Ds), proc.pageTable());
    std::vector<Seg> segs{Seg{100, 5000, 50}, Seg{150, 9000, 50},
                          Seg{400, 1000, 10}};
    sim.setSegments(std::move(segs));
    sim.access({1, Gva{120 << kPageShift}});
    sim.access({1, Gva{180 << kPageShift}});
    sim.access({1, Gva{405 << kPageShift}});
    EXPECT_EQ(sim.stats().segmentHits, 3u);
}

TEST_F(SimTest, DsEdgeCasesAgreeAcrossEngines)
{
    // Hand-built segment layouts around the lookup's boundaries: the
    // Batched engine's segment search must reproduce the Reference
    // engine's upper_bound on every access, and both must match a
    // linear scan of the segment list.
    const Vpn v0 = vma->start().pageNumber();
    const std::uint64_t pages = vma->pages();
    auto check = [&](const char *what, const std::vector<Seg> &segs,
                     const std::vector<Vpn> &vpns) {
        SCOPED_TRACE(what);
        std::vector<MemAccess> acc;
        std::uint64_t want_hits = 0;
        for (Vpn v : vpns) {
            acc.push_back({0x400000, Gva{v << kPageShift}});
            for (const Seg &s : segs)
                want_hits += v >= s.vpn && v < s.vpn + s.pages;
        }
        XlatConfig ref_cfg = config(XlatScheme::Ds);
        XlatConfig bat_cfg = config(XlatScheme::Ds);
        ref_cfg.engine = XlatEngine::Reference;
        bat_cfg.engine = XlatEngine::Batched;
        TranslationSim ref(ref_cfg, proc.pageTable());
        TranslationSim bat(bat_cfg, proc.pageTable());
        ref.setSegments(segs);
        bat.setSegments(segs);
        ref.accessChunk(acc.data(), acc.size());
        bat.accessChunk(acc.data(), acc.size());
        const XlatStats &r = ref.stats();
        const XlatStats &b = bat.stats();
        EXPECT_EQ(r.segmentHits, want_hits);
        EXPECT_EQ(b.segmentHits, want_hits);
        EXPECT_EQ(b.accesses, r.accesses);
        EXPECT_EQ(b.l1Hits, r.l1Hits);
        EXPECT_EQ(b.l2Hits, r.l2Hits);
        EXPECT_EQ(b.walks, r.walks);
        EXPECT_EQ(b.walkRefs, r.walkRefs);
        EXPECT_EQ(b.walkCycles, r.walkCycles);
        EXPECT_EQ(b.exposedCycles, r.exposedCycles);
        EXPECT_EQ(b.rangeHits, r.rangeHits);
        EXPECT_EQ(r.accesses, vpns.size());
        EXPECT_EQ(r.segmentHits + r.l1Hits + r.l2Hits + r.walks,
                  r.accesses);
    };

    // One segment; probes below it, on its first and last page, one
    // page past its end and far above it.
    check("single", {Seg{v0 + 512, 0, 512}},
          {v0, v0 + 511, v0 + 512, v0 + 1023, v0 + 1024, v0 + 5000,
           v0 + 512});
    // Two segments with a gap: both edges of each, and the gap.
    check("gap", {Seg{v0 + 100, 0, 50}, Seg{v0 + 300, 0, 50}},
          {v0 + 99, v0 + 100, v0 + 149, v0 + 150, v0 + 200, v0 + 299,
           v0 + 300, v0 + 349, v0 + 350, v0});
    // A one-page segment at the very start of the mapping.
    check("first page", {Seg{v0, 0, 1}}, {v0, v0 + 1, v0});

    // Many segments (given unsorted; setSegments sorts them) with
    // gaps of at least one page so none merge, probed at random and
    // at every boundary.
    Rng rng(41);
    std::vector<Seg> segs;
    for (Vpn at = v0 + 1 + rng.below(8); segs.size() < 300;) {
        const std::uint64_t len = 1 + rng.below(40);
        if (at + len >= v0 + pages)
            break;
        segs.push_back(Seg{at, 0, len});
        at += len + 1 + rng.below(60);
    }
    ASSERT_GT(segs.size(), 100u);
    std::vector<Vpn> vpns;
    for (const Seg &s : segs)
        for (Vpn v : {s.vpn - 1, s.vpn, s.vpn + s.pages - 1,
                      s.vpn + s.pages})
            vpns.push_back(v);
    for (int i = 0; i < 5000; ++i)
        vpns.push_back(v0 + rng.below(pages));
    rng.shuffle(segs);
    check("many", segs, vpns);
}

TEST_F(SimTest, AccessCountsAreConsistent)
{
    TranslationSim sim(config(XlatScheme::Base), proc.pageTable());
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        sim.access({0x400000, vma->start() +
                                  (rng.below(vma->bytes()) & ~7ull)});
    }
    const auto &s = sim.stats();
    EXPECT_EQ(s.accesses, 5000u);
    EXPECT_EQ(s.l1Hits + s.l2Hits + s.walks, s.accesses);
}
