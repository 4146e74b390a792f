/**
 * @file
 * Self-test of the benchmark's own arithmetic and checks: percentiles
 * with their sample counts, self time under overlapping child spans,
 * host factors, digest stability, and a minimal-size smoke pass of
 * every workload against the digests stored in expected.json.
 */

#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "ledger.hh"
#include "runner.hh"

using namespace perfbench;

namespace
{

Span
span(const char *name, std::int64_t a, std::int64_t b, int parent,
     std::uint32_t cell = 1)
{
    Span s;
    s.name = name;
    s.startNs = a;
    s.endNs = b;
    s.parent = parent;
    s.cell = cell;
    return s;
}

} // namespace

TEST(Percentile, ReportsValueWithSampleCount)
{
    contig::Percentiles p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    const Quantile q90 = quantileWithCount(p, 0.9);
    EXPECT_DOUBLE_EQ(q90.value, 90.1); // R-7: rank 89.1 of 0..99
    EXPECT_EQ(q90.count, 100u);
    EXPECT_EQ(q90.beyond, 10u);
    const Quantile q50 = quantileWithCount(p, 0.5);
    EXPECT_DOUBLE_EQ(q50.value, 50.5);
    EXPECT_EQ(q50.beyond, 50u);
}

TEST(Percentile, FewSamplesLeaveFewerBeyondP90)
{
    contig::Percentiles p;
    for (int i = 0; i < 99; ++i)
        p.add(i);
    EXPECT_EQ(quantileWithCount(p, 0.9).beyond, 10u);
    contig::Percentiles small;
    for (int i = 0; i < 50; ++i)
        small.add(i);
    EXPECT_EQ(quantileWithCount(small, 0.9).beyond, 5u);
    contig::Percentiles none;
    EXPECT_EQ(quantileWithCount(none, 0.9).count, 0u);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // Parent [0, 100); children [10, 40) and [30, 60) overlap, and
    // [90, 120) runs past the parent's end.
    const std::vector<Span> spans{
        span("cell.x", 0, 100, -1),
        span("mm.populate", 10, 40, 0),
        span("mm.populate", 30, 60, 0),
        span("tlb.translate", 90, 120, 0),
        span("workloads.decode", 95, 100, 3),
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - (50 + 10));
    EXPECT_EQ(self[1], 30);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30 - 5);
    EXPECT_EQ(self[4], 5);
}

TEST(SelfTime, LedgerSplitsMeasuredCellsByLayer)
{
    const std::vector<Span> spans{
        span("cell.a", 0, 1'000'000, -1, 1),
        span("phys.construct", 0, 400'000, 0, 1),
        span("mm.populate", 400'000, 900'000, 0, 1),
        span("cell.b", 2'000'000, 3'000'000, -1, 2), // warm-up cell
        span("tlb.translate", 2'000'000, 3'000'000, 3, 2),
    };
    const Ledger led = measuredLedger(spans, {false, true, false});
    EXPECT_DOUBLE_EQ(led.cellMs, 1.0);
    EXPECT_DOUBLE_EQ(led.residualMs, 0.1);
    EXPECT_DOUBLE_EQ(led.selfMs.at("phys"), 0.4);
    EXPECT_DOUBLE_EQ(led.selfMs.at("mm"), 0.5);
    EXPECT_EQ(led.selfMs.count("tlb"), 0u);
}

TEST(Recorder, NestsSpansUnderTheOpenCell)
{
    Recorder rec(true);
    rec.beginCell("k", true);
    rec.timed("tlb.translate",
              [&] { rec.timed("workloads.decode", [] {}); });
    rec.endCell();
    rec.timed("phys.destroy", [] {});
    const std::vector<Span> &s = rec.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].name, "cell.k");
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 1);
    EXPECT_EQ(s[1].cell, 1u);
    EXPECT_EQ(s[3].parent, -1);
    EXPECT_EQ(s[3].cell, 0u);
    EXPECT_LE(s[0].startNs, s[1].startNs);
    EXPECT_LE(s[2].endNs, s[1].endNs);
    EXPECT_LE(s[1].endNs, s[0].endNs);
    EXPECT_EQ(rec.cellMeasured(), (std::vector<bool>{false, true}));
}

TEST(HostFactors, MedianOfTheProbeWindowInTheSamePhase)
{
    // Cell ids 1..20: 1..4 warm-up, 5..20 measured. Probe time c ms
    // after cell c, except a slow probe after cell 10.
    std::vector<double> probe{0.0};
    std::vector<bool> measured{false};
    for (int c = 1; c <= 20; ++c) {
        probe.push_back(c == 10 ? 1000.0 : c);
        measured.push_back(c > 4);
    }
    const HostFactors f(probe, measured, 2.0);
    // Cell 12: window 5..19, every probe measured; one outlier.
    EXPECT_DOUBLE_EQ(f.of(12), 13.0 / 2.0);
    // Cell 2: window 1..9, warm-up cells 1..4 only.
    EXPECT_DOUBLE_EQ(f.of(2), 2.5 / 2.0);
    // Outside any cell: the median of all warm-up probes.
    EXPECT_DOUBLE_EQ(f.of(0), 2.5 / 2.0);
    EXPECT_DOUBLE_EQ(f.phase(false), 2.5 / 2.0);
    EXPECT_DOUBLE_EQ(f.phase(true), 13.5 / 2.0);
    // Past the last cell: the last cell's factor.
    EXPECT_DOUBLE_EQ(f.of(25), f.of(20));
}

TEST(Digest, StableAndOrderSensitive)
{
    Digest empty;
    EXPECT_EQ(empty.value(), 0xcbf29ce484222325ull); // FNV-1a basis
    Digest a;
    a.add(std::uint64_t{1});
    a.add(2.5);
    Digest b;
    b.add(std::uint64_t{1});
    b.add(2.5);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_EQ(hexDigest(a.value()), "3914b1f14ddf2c40");
    Digest c;
    c.add(2.5);
    c.add(std::uint64_t{1});
    EXPECT_NE(a.value(), c.value());
    Digest z;
    z.add(0.0);
    Digest nz;
    nz.add(-0.0);
    EXPECT_NE(z.value(), nz.value());
}

class Smoke : public ::testing::TestWithParam<std::string>
{};

TEST_P(Smoke, EveryCellMatchesItsStoredDigest)
{
    const std::string dir = PERFBENCH_WORK_DIR;
    std::filesystem::create_directories(dir);
    RunOptions opts;
    opts.workload = GetParam();
    opts.size = Size::smoke();
    opts.workDir = dir;
    auto stored = loadExpected(PERFBENCH_EXPECTED, "smoke", opts.workload);
    ASSERT_TRUE(stored) << "no smoke digests for " << opts.workload;
    opts.expected = *stored;
    RunResult r = runBench(opts);
    EXPECT_EQ(r.attempted, 2 * r.kinds.size());
    EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures[0]);
    std::filesystem::remove_all(dir);
}

TEST_P(Smoke, OtherSeedReproducesItsFirstPass)
{
    const std::string dir = PERFBENCH_WORK_DIR;
    std::filesystem::create_directories(dir);
    RunOptions opts;
    opts.workload = GetParam();
    opts.seed = 7;
    opts.size = Size::smoke();
    opts.setups = 2;
    opts.workDir = dir;
    opts.traced = true;
    RunResult r = runBench(opts);
    EXPECT_EQ(r.attempted, 3 * r.kinds.size());
    EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures[0]);
    // Every per-layer metric is a finite number.
    for (const auto &[name, v] : layerMetrics(r))
        EXPECT_TRUE(std::isfinite(v)) << name;
    std::filesystem::remove_all(dir);
}

TEST(SmokeCheck, MismatchCountsAsFailedCells)
{
    const std::string dir = PERFBENCH_WORK_DIR;
    std::filesystem::create_directories(dir);
    RunOptions opts;
    opts.workload = "overcommit";
    opts.size = Size::smoke();
    opts.workDir = dir;
    opts.passes = 2;
    opts.expected = *loadExpected(PERFBENCH_EXPECTED, "smoke", "overcommit");
    opts.expected.at("CA/lru") = "0000000000000000";
    RunResult r = runBench(opts);
    // One warm-up pass and two measured passes of four kinds.
    EXPECT_EQ(r.attempted, 12u);
    EXPECT_EQ(r.failed, 3u);
    ASSERT_FALSE(r.failures.empty());
    EXPECT_EQ(r.failures[0].rfind("CA/lru: digest ", 0), 0u);
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workloadNames()));
