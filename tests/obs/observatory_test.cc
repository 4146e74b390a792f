#include <gtest/gtest.h>

#include "contig/analysis.hh"
#include "mm/kernel.hh"
#include "obs/observatory.hh"
#include "obs/snapshot.hh"
#include "phys/buddy.hh"
#include "virt/vm.hh"

using namespace contig;
using namespace contig::obs;

namespace
{

KernelConfig
smallConfig(bool thp = false)
{
    KernelConfig cfg;
    cfg.phys.bytesPerNode = 128ull << 20;
    cfg.phys.numNodes = 2;
    cfg.thpEnabled = thp;
    return cfg;
}

} // namespace

// --- FMFI -----------------------------------------------------------------

TEST(Fmfi, KnownValues)
{
    // A 2048-page block with one page carved out decomposes into one
    // free block of each order 0..10: at the huge order (9), the
    // orders 9 and 10 are usable (512 + 1024 of 2047 free pages).
    std::vector<std::uint64_t> counts(kMaxOrder + 1, 0);
    for (unsigned o = 0; o <= 10; ++o)
        counts[o] = 1;
    EXPECT_DOUBLE_EQ(fmfiFromCounts(counts, kHugeOrder), 511.0 / 2047.0);

    // Fully intact top-order block: nothing is unusable.
    std::vector<std::uint64_t> intact(kMaxOrder + 1, 0);
    intact[kMaxOrder] = 1;
    EXPECT_DOUBLE_EQ(fmfiFromCounts(intact, kHugeOrder), 0.0);

    // Everything in base pages: all of it is unusable.
    std::vector<std::uint64_t> shattered(kMaxOrder + 1, 0);
    shattered[0] = 2048;
    EXPECT_DOUBLE_EQ(fmfiFromCounts(shattered, kHugeOrder), 1.0);

    // No free memory at all: defined as 0 (nothing to fragment).
    EXPECT_DOUBLE_EQ(
        fmfiFromCounts(std::vector<std::uint64_t>(kMaxOrder + 1, 0),
                       kHugeOrder),
        0.0);
}

TEST(Fmfi, BuddyLiveStateMatchesCounts)
{
    constexpr std::uint64_t frames_n = 8 * pagesInOrder(kMaxOrder);
    FrameArray frames(frames_n);
    BuddyAllocator buddy(frames, 0, frames_n);

    EXPECT_DOUBLE_EQ(buddy.unusableFreeIndex(kHugeOrder), 0.0);

    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn);
    // One top-order block shattered down to a page: 511 of the
    // remaining 16383 free pages sit below the huge order.
    EXPECT_DOUBLE_EQ(buddy.unusableFreeIndex(kHugeOrder),
                     511.0 / 16383.0);
    EXPECT_DOUBLE_EQ(
        fmfiFromCounts(buddy.freeBlockCounts(), kHugeOrder),
        buddy.unusableFreeIndex(kHugeOrder));

    buddy.free(*pfn, 0);
    EXPECT_DOUBLE_EQ(buddy.unusableFreeIndex(kHugeOrder), 0.0);
}

// --- per-VMA offset runs --------------------------------------------------

TEST(VmaRuns, AttributesSegsToVmas)
{
    // VMA 1: [0, 1024), VMA 2: [4096, 8192).
    std::vector<VmaSpan> spans{{0, 1024, 1}, {4096, 8192, 2}};
    std::vector<Seg> segs{
        {0, 100, 512},    // vma 1
        {512, 9000, 256}, // vma 1
        {4096, 200, 512}, // vma 2
    };
    auto runs = vmaRunStats(segs, spans, 7, "1d");
    ASSERT_EQ(runs.size(), 2u);

    EXPECT_EQ(runs[0].vmaId, 1u);
    EXPECT_EQ(runs[0].pid, 7u);
    EXPECT_EQ(runs[0].dim, "1d");
    EXPECT_EQ(runs[0].pages, 768u);
    EXPECT_EQ(runs[0].runs, 2u);
    EXPECT_EQ(runs[0].maxRun, 512u);
    // Weighted mean: (512^2 + 256^2) / 768.
    EXPECT_DOUBLE_EQ(runs[0].weightedMeanRun,
                     (512.0 * 512 + 256.0 * 256) / 768.0);

    EXPECT_EQ(runs[1].vmaId, 2u);
    EXPECT_EQ(runs[1].runs, 1u);
    EXPECT_EQ(runs[1].maxRun, 512u);
}

// --- flat encoding --------------------------------------------------------

namespace
{

Snapshot
sampleSnapshot()
{
    Snapshot snap;
    snap.seq = 3;
    snap.tick = 1000;
    snap.faults = 1000;
    snap.hugeFaults = 2;
    ZoneSnap z;
    z.node = 0;
    z.freePages = 2047;
    z.freeBlocks.assign(kMaxOrder + 1, 0);
    for (unsigned o = 0; o <= 10; ++o)
        z.freeBlocks[o] = 1;
    z.fmfi = 511.0 / 2047.0;
    z.clusterCount = 1;
    z.largestClusterPages = 1024;
    snap.zones.push_back(z);
    snap.vmaRuns.push_back(VmaRunSnap{"1d", 7, 1, 768, 2, 512, 426.0});
    snap.hasCoverage = true;
    snap.coverage.cov32 = 0.5;
    snap.coverage.cov128 = 0.75;
    snap.coverage.mappings = 40;
    snap.coverage.mappingsFor99 = 30;
    snap.coverage.totalPages = 4096;
    return snap;
}

} // namespace

TEST(FlatSnapCodec, DeltaRoundTrip)
{
    const Snapshot a = sampleSnapshot();
    Snapshot b = a;
    b.seq = 4;
    b.tick = 1100;
    b.zones[0].fmfi = 0.9;
    b.vmaRuns.clear(); // VMA went away: its keys must be deleted
    b.coverage.cov32 = 0.25;

    const FlatSnap fa = flatten(a);
    const FlatSnap fb = flatten(b);
    const FlatDelta d = diffFlat(fa, fb);

    // The delta only carries changes and removals.
    EXPECT_TRUE(d.set.count("zone0.fmfi"));
    EXPECT_TRUE(d.set.count("cov.cov32"));
    EXPECT_FALSE(d.set.count("cov.cov128"));
    EXPECT_FALSE(d.del.empty());

    EXPECT_EQ(applyDelta(fa, d), fb);
}

TEST(FlatSnapCodec, TimelineRecordRoundTrip)
{
    const FlatSnap flat = flatten(sampleSnapshot());

    TimelineRecord rec;
    rec.stream = 2;
    rec.domain = "CA:\"svm\""; // escaping must survive
    rec.seq = 3;
    rec.tick = 1000;
    rec.full = false;
    rec.set = flat;
    rec.del = {"vma1d.7.1.pages", "vma1d.7.1.runs"};

    const std::string line = encodeTimelineRecord(rec);
    std::string err;
    auto back = decodeTimelineRecord(line, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_EQ(back->stream, rec.stream);
    EXPECT_EQ(back->domain, rec.domain);
    EXPECT_EQ(back->seq, rec.seq);
    EXPECT_EQ(back->tick, rec.tick);
    EXPECT_EQ(back->full, rec.full);
    EXPECT_EQ(back->set, rec.set);
    EXPECT_EQ(back->del, rec.del);
}

TEST(FlatSnapCodec, DecodeRejectsMalformed)
{
    EXPECT_FALSE(decodeTimelineRecord("not json"));
    EXPECT_FALSE(decodeTimelineRecord("[1,2,3]"));
    EXPECT_FALSE(decodeTimelineRecord(
        R"({"stream":0,"domain":"d","seq":0,"tick":0,"kind":"bogus","set":{}})"));
    EXPECT_FALSE(decodeTimelineRecord(
        R"({"stream":0,"domain":"d","seq":0,"tick":0,"kind":"full","set":{"k":"str"}})"));
    std::string err;
    EXPECT_FALSE(decodeTimelineRecord("{}", &err));
    EXPECT_FALSE(err.empty());
}

// --- the sampler against a live kernel ------------------------------------

TEST(StateSampler, PeriodicFaultDrivenCapture)
{
    Kernel kernel(smallConfig(), std::make_unique<DefaultThpPolicy>());
    Process &proc = kernel.createProcess("obs_test");
    Vma &vma = kernel.mmapAnon(proc, 64 * kPageSize);

    SamplerConfig cfg;
    cfg.periodFaults = 4;
    StateSampler sampler(cfg);
    sampler.attachKernel(kernel);
    ASSERT_EQ(kernel.faultEngine().sampler(), &sampler);

    for (std::uint64_t i = 0; i < 16; ++i)
        kernel.touch(proc, vma.start() + i * kPageSize, Access::Write);

    // 16 base faults at period 4 -> 4 captures.
    ASSERT_EQ(sampler.snapshots().size(), 4u);
    const Snapshot &snap = sampler.snapshots().back();
    EXPECT_EQ(snap.faults, 16u);
    ASSERT_EQ(snap.zones.size(), 2u);
    EXPECT_GT(snap.zones[0].freePages + snap.zones[1].freePages, 0u);
    for (const ZoneSnap &z : snap.zones) {
        EXPECT_GE(z.fmfi, 0.0);
        EXPECT_LE(z.fmfi, 1.0);
        EXPECT_DOUBLE_EQ(z.fmfi,
                         fmfiFromCounts(z.freeBlocks, kHugeOrder));
    }

    sampler.detachKernel();
    EXPECT_EQ(kernel.faultEngine().sampler(), nullptr);
    // Detached, further faults never capture...
    kernel.touch(proc, vma.start() + 20 * kPageSize, Access::Write);
    EXPECT_EQ(sampler.snapshots().size(), 4u);
    // ...but the kernel stays readable through sampleNow().
    const Snapshot &manual = sampler.sampleNow();
    EXPECT_EQ(manual.faults, 17u);
}

TEST(StateSampler, KernelKnobOverridesPeriod)
{
    KernelConfig kcfg = smallConfig();
    kcfg.obsSamplePeriodFaults = 2;
    Kernel kernel(kcfg, std::make_unique<DefaultThpPolicy>());

    SamplerConfig cfg;
    cfg.periodFaults = 1000;
    StateSampler sampler(cfg);
    sampler.attachKernel(kernel);
    EXPECT_EQ(sampler.periodFaults(), 2u);
}

TEST(StateSampler, KernellessSampleAtUsesExplicitTick)
{
    StateSampler sampler;
    const Snapshot &snap = sampler.sampleAt(123);
    EXPECT_EQ(snap.tick, 123u);
    EXPECT_EQ(snap.seq, 0u);
    EXPECT_TRUE(snap.zones.empty());
    EXPECT_FALSE(snap.hasCoverage);
    EXPECT_FALSE(snap.hasXlat);
}

// --- seg-probe reuse ------------------------------------------------------

namespace
{

/** A 1-D probe over `pt` that counts its extractions. */
StateSampler::SegProbe
countingProbe(const PageTable &pt, int &runs)
{
    return [&pt, &runs] {
        ++runs;
        return extractSegs(pt);
    };
}

} // namespace

TEST(StateSampler, ProbeReusedWhileTablesUnchanged)
{
    Kernel kernel(smallConfig(), std::make_unique<DefaultThpPolicy>());
    Process &proc = kernel.createProcess("reuse");
    Vma &vma = kernel.mmapAnon(proc, 64 * kPageSize);
    for (std::uint64_t i = 0; i < 40; i += 3)
        kernel.touch(proc, vma.start() + i * kPageSize, Access::Write);

    int runs = 0;
    StateSampler sampler;
    sampler.addSegProbe("1d", &proc, countingProbe(proc.pageTable(), runs),
                        true, {&proc.pageTable()});
    sampler.attachKernel(kernel);

    const Snapshot first = sampler.sampleNow();
    const Snapshot &second = sampler.sampleNow();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sampler.probeRuns(), 1u);
    EXPECT_EQ(sampler.captures(), 2u);

    // The reused snapshot equals a fresh extraction.
    const std::vector<Seg> fresh = extractSegs(proc.pageTable());
    const CoverageMetrics cov = coverage(fresh);
    ASSERT_TRUE(second.hasCoverage);
    EXPECT_EQ(second.coverage.totalPages, cov.totalPages);
    EXPECT_EQ(second.coverage.mappings, cov.mappings);
    EXPECT_EQ(second.coverage.mappingsFor99, cov.mappingsFor99);
    EXPECT_DOUBLE_EQ(second.coverage.cov32, cov.cov32);
    EXPECT_DOUBLE_EQ(second.coverage.cov128, cov.cov128);
    const std::vector<VmaSpan> spans{
        {vma.start().pageNumber(), vma.start().pageNumber() + vma.pages(),
         vma.id()}};
    const auto runs_fresh = vmaRunStats(fresh, spans, proc.pid(), "1d");
    ASSERT_EQ(second.vmaRuns.size(), runs_fresh.size());
    for (std::size_t i = 0; i < runs_fresh.size(); ++i) {
        EXPECT_EQ(second.vmaRuns[i].vmaId, runs_fresh[i].vmaId);
        EXPECT_EQ(second.vmaRuns[i].pages, runs_fresh[i].pages);
        EXPECT_EQ(second.vmaRuns[i].runs, runs_fresh[i].runs);
        EXPECT_EQ(second.vmaRuns[i].maxRun, runs_fresh[i].maxRun);
        EXPECT_DOUBLE_EQ(second.vmaRuns[i].weightedMeanRun,
                         runs_fresh[i].weightedMeanRun);
    }
    EXPECT_EQ(first.vmaRuns.size(), second.vmaRuns.size());

    // A fault changes the table: the next capture re-extracts.
    kernel.touch(proc, vma.start() + 50 * kPageSize, Access::Write);
    const Snapshot &third = sampler.sampleNow();
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(third.coverage.totalPages, cov.totalPages + 1);
}

TEST(StateSampler, VmaRunsFollowSpansWhenTablesUnchanged)
{
    // The probe reads a standalone table whose leaves fall in an
    // untouched VMA: unmapping that VMA changes the spans but no
    // generation, and the per-VMA runs must still follow.
    Kernel kernel(smallConfig(), std::make_unique<DefaultThpPolicy>());
    Process &proc = kernel.createProcess("spans");
    Vma &vma = kernel.mmapAnon(proc, 16 * kPageSize);
    const std::uint32_t id = vma.id();
    PageTable pt;
    pt.map(vma.start().pageNumber(), 5, 0);
    pt.map(vma.start().pageNumber() + 1, 6, 0);

    int runs = 0;
    StateSampler sampler;
    sampler.addSegProbe("1d", &proc, countingProbe(pt, runs), false,
                        {&pt});
    const Snapshot &before = sampler.sampleNow();
    ASSERT_EQ(before.vmaRuns.size(), 1u);
    EXPECT_EQ(before.vmaRuns[0].vmaId, id);
    EXPECT_EQ(before.vmaRuns[0].pages, 2u);

    kernel.munmap(proc, vma);
    const Snapshot &after = sampler.sampleNow();
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(after.vmaRuns.empty());
}

TEST(StateSampler, EveryLeafMutationForcesReextraction)
{
    PageTable pt;
    pt.map(0, 100, 0);
    pt.map(1, 101, 0);
    int runs = 0;
    StateSampler sampler;
    sampler.addSegProbe("1d", nullptr, countingProbe(pt, runs), true,
                        {&pt});

    const auto expect_runs = [&](int n, const char *what) {
        sampler.sampleNow();
        EXPECT_EQ(runs, n) << what;
        sampler.sampleNow();
        EXPECT_EQ(runs, n) << what << " (second capture reuses)";
    };
    expect_runs(1, "first capture");

    pt.map(2, 102, 0);
    expect_runs(2, "map");
    EXPECT_EQ(sampler.snapshots().back().coverage.totalPages, 3u);
    EXPECT_EQ(sampler.snapshots().back().coverage.mappings, 1u);

    pt.unmap(1, 0);
    expect_runs(3, "unmap");
    EXPECT_EQ(sampler.snapshots().back().coverage.mappings, 2u);

    pt.setWritable(0, false, true);
    expect_runs(4, "setWritable");

    pt.setContigBit(2, true);
    expect_runs(5, "setContigBit");

    {
        PageTable::RunMapper mapper(pt);
        mapper.map(3, 103, true, false);
    }
    expect_runs(6, "RunMapper install");
    EXPECT_EQ(sampler.snapshots().back().coverage.totalPages, 3u);
    EXPECT_EQ(sampler.snapshots().back().coverage.mappings, 2u);

    // A table the probe did not declare does not invalidate it.
    PageTable unrelated;
    unrelated.map(7, 7, 0);
    expect_runs(6, "undeclared table");
}

TEST(StateSampler, ProbeWithoutTablesRunsOnEveryCapture)
{
    PageTable pt;
    pt.map(0, 100, 0);
    int runs = 0;
    StateSampler sampler;
    sampler.addSegProbe("1d", nullptr, countingProbe(pt, runs), true);
    for (int i = 0; i < 3; ++i)
        sampler.sampleNow();
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(sampler.probeRuns(), 3u);
}

TEST(StateSampler, VmProbesKeyOnGuestAndNestedTables)
{
    KernelConfig hcfg;
    hcfg.phys.bytesPerNode = 256ull << 20;
    hcfg.phys.numNodes = 1;
    Kernel host(hcfg, std::make_unique<DefaultThpPolicy>());
    VmConfig vcfg;
    vcfg.guestBytesPerNode = 64ull << 20;
    vcfg.guestNodes = 1;
    VirtualMachine vm(host, std::make_unique<DefaultThpPolicy>(), vcfg);
    Process &proc = vm.guest().createProcess("g");
    Vma &vma = proc.mmap(2 * kHugeSize);
    proc.touchRange(vma.start(), kHugeSize);

    StateSampler sampler;
    sampler.attachVm(proc, vm);
    sampler.sampleNow();
    const Snapshot &reused = sampler.sampleNow();
    EXPECT_EQ(sampler.probeRuns(), 2u); // "1d" and "2d", once each
    const CoverageMetrics cov = coverage(extract2d(proc, vm));
    EXPECT_EQ(reused.coverage.totalPages, cov.totalPages);
    EXPECT_EQ(reused.coverage.mappings, cov.mappings);

    // A nested-only change re-runs the 2-D probe alone.
    PageTable &npt = vm.backing().pageTable();
    Vpn nested_leaf = 0;
    bool found = false;
    npt.forEachLeaf([&](Vpn v, const Mapping &) {
        if (!found) {
            nested_leaf = v;
            found = true;
        }
    });
    ASSERT_TRUE(found);
    npt.setContigBit(nested_leaf, true);
    sampler.sampleNow();
    EXPECT_EQ(sampler.probeRuns(), 3u);
    npt.setContigBit(nested_leaf, false);

    // A guest fault changes the guest table (and backs new frames):
    // both probes re-run.
    proc.touch(vma.start() + kHugeSize);
    sampler.sampleNow();
    EXPECT_EQ(sampler.probeRuns(), 5u);
    sampler.sampleNow();
    EXPECT_EQ(sampler.probeRuns(), 5u);
}
