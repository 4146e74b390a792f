#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "core/experiment.hh"
#include "workloads/access_stream.hh"
#include "workloads/workloads.hh"

using namespace contig;

namespace
{

/** Small scale so every workload fits a quick test machine. */
WorkloadConfig
quick(std::uint64_t seed = 5)
{
    WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.seed = seed;
    return cfg;
}

} // namespace

class WorkloadParamTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadParamTest, SetupTouchesDeclaredFootprint)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload(GetParam(), quick());
    Process &p = sys.kernel().createProcess(GetParam());
    wl->setup(p);
    EXPECT_EQ(p.touchedPages(), wl->footprintBytes() >> kPageShift);
    EXPECT_GE(wl->reservedBytes(), wl->footprintBytes());
    wl->teardown();
}

TEST_P(WorkloadParamTest, AccessesStayInsideTouchedMemory)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload(GetParam(), quick());
    Process &p = sys.kernel().createProcess(GetParam());
    wl->setup(p);
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
        MemAccess a = wl->nextAccess(rng);
        auto m = p.pageTable().lookup(a.va.pageNumber());
        ASSERT_TRUE(m && m->valid())
            << GetParam() << " access outside mapped memory at 0x"
            << std::hex << a.va.value;
    }
    wl->teardown();
}

TEST_P(WorkloadParamTest, StreamsAreDeterministicPerSeed)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto w1 = makeWorkload(GetParam(), quick(42));
    auto w2 = makeWorkload(GetParam(), quick(42));
    Process &p1 = sys.kernel().createProcess("a");
    Process &p2 = sys.kernel().createProcess("b");
    w1->setup(p1);
    w2->setup(p2);
    Rng r1(7), r2(7);
    for (int i = 0; i < 1000; ++i) {
        MemAccess a = w1->nextAccess(r1);
        MemAccess b = w2->nextAccess(r2);
        EXPECT_EQ(a.pc, b.pc);
        // Addresses differ by the VMA base offset only; compare the
        // offsets within the processes' first VMAs via page distance.
        EXPECT_EQ(a.va.value - w1->vmas()[0]->start().value,
                  b.va.value - w2->vmas()[0]->start().value)
            << "diverged at access " << i;
        if (::testing::Test::HasFailure())
            break;
    }
    w1->teardown();
    w2->teardown();
}

TEST_P(WorkloadParamTest, UsesMultiplePcs)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload(GetParam(), quick());
    Process &p = sys.kernel().createProcess(GetParam());
    wl->setup(p);
    Rng rng(23);
    std::set<Addr> pcs;
    for (int i = 0; i < 5000; ++i)
        pcs.insert(wl->nextAccess(rng).pc);
    // The single-stream control uses one PC; real workloads several.
    const std::size_t expected = GetParam() == "tlbfriendly" ? 1 : 2;
    EXPECT_GE(pcs.size(), expected) << GetParam();
    wl->teardown();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadParamTest,
    ::testing::Values("svm", "pagerank", "hashjoin", "xsbench", "bt",
                      "tlbfriendly"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** One pinned stream: a workload at a scale and its access digest. */
struct StreamCase
{
    const char *workload;
    double scale;
    /** FNV-1a over (pc, offset from the first VMA) of the stream. */
    std::uint64_t digest;
};

class AccessStreamTest : public ::testing::TestWithParam<StreamCase>
{
  protected:
    static constexpr std::uint64_t kTotal = 200000;
    /** Does not divide kTotal: the final chunk is short. */
    static constexpr std::uint64_t kChunk = 4093;

    static std::uint64_t
    mix(std::uint64_t h, std::uint64_t v)
    {
        return (h ^ v) * 0x100000001b3ull;
    }
};

TEST_P(AccessStreamTest, ChunksMatchTheUnchunkedSequence)
{
    // The digests were pinned from the one-virtual-call-per-access
    // generators; nextAccess and the chunked fillAccesses path must
    // both still produce exactly that stream, whatever the chunk size.
    const StreamCase &c = GetParam();
    NativeSystem sys(PolicyKind::Thp, 3);
    WorkloadConfig cfg;
    cfg.scale = c.scale;
    cfg.seed = 42;
    auto w1 = makeWorkload(c.workload, cfg);
    auto w2 = makeWorkload(c.workload, cfg);
    Process &p1 = sys.kernel().createProcess("a");
    Process &p2 = sys.kernel().createProcess("b");
    w1->setup(p1);
    w2->setup(p2);
    const std::uint64_t base1 = w1->vmas()[0]->start().value;
    const std::uint64_t base2 = w2->vmas()[0]->start().value;

    Rng ref(9);
    std::uint64_t loop_digest = 0xcbf29ce484222325ull;
    for (std::uint64_t i = 0; i < kTotal; ++i) {
        const MemAccess a = w1->nextAccess(ref);
        loop_digest = mix(mix(loop_digest, a.pc), a.va.value - base1);
    }

    AccessStream stream(*w2, kTotal, 9, kChunk);
    EXPECT_EQ(stream.chunkAccesses(), kChunk);
    std::uint64_t chunk_digest = 0xcbf29ce484222325ull;
    std::uint64_t i = 0, chunks = 0, wraps = 0, last_off = 0;
    const MemAccess *chunk = nullptr;
    while (std::size_t n = stream.next(chunk)) {
        ++chunks;
        EXPECT_TRUE(n == kChunk || stream.done()) << "short mid-chunk";
        for (std::size_t j = 0; j < n; ++j, ++i) {
            const std::uint64_t off = chunk[j].va.value - base2;
            chunk_digest = mix(mix(chunk_digest, chunk[j].pc), off);
            wraps += off < last_off;
            last_off = off;
        }
    }
    EXPECT_EQ(loop_digest, c.digest) << "nextAccess stream moved";
    EXPECT_EQ(chunk_digest, c.digest) << "fillAccesses stream moved";
    EXPECT_EQ(i, kTotal);
    EXPECT_EQ(chunks, (kTotal + kChunk - 1) / kChunk);
    EXPECT_EQ(stream.produced(), kTotal);
    EXPECT_TRUE(stream.done());
    EXPECT_EQ(stream.next(chunk), 0u);
    if (std::string_view(c.workload) == "tlbfriendly") {
        // A single streaming cursor: every backwards step is the
        // cursor wrapping its region. At 0.01 scale the 160 KiB
        // region wraps about ten times in the stream.
        const std::uint64_t region = w2->footprintBytes();
        EXPECT_EQ(wraps, kTotal * 8 / region);
    }
    w1->teardown();
    w2->teardown();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AccessStreamTest,
    ::testing::Values(
        StreamCase{"svm", 0.1, 0x852d59add8ffce11ull},
        StreamCase{"pagerank", 0.1, 0xda364cfbc46f60a5ull},
        StreamCase{"hashjoin", 0.1, 0x80f5b0f77464a6cdull},
        StreamCase{"xsbench", 0.1, 0xdae0be0b579f6905ull},
        StreamCase{"bt", 0.1, 0xcf9d0505af68bc0dull},
        StreamCase{"tlbfriendly", 0.1, 0x8e8fdb00be106525ull},
        StreamCase{"tlbfriendly", 0.01, 0x42ed1ff1d9d7e525ull}),
    [](const ::testing::TestParamInfo<StreamCase> &info) {
        return std::string(info.param.workload) +
               (info.param.scale < 0.05 ? "_wrapping" : "");
    });

/**
 * A long pinned stream at a scale where every streamed cursor wraps
 * many times: at 0.001 the largest streamed region (pagerank's edge
 * array, 1.2 MiB) wraps five times in 2^21 accesses, svm's CSR
 * values about 25 times, bt's plane sweep every ~170 accesses.
 * hashjoin runs at 0.01, the smallest scale whose table fits its VMA
 * (its probe relation then wraps four times).
 */
struct WrapCase
{
    const char *workload;
    double scale;
    /** FNV-1a over (pc, offset from the first VMA) of the stream. */
    std::uint64_t digest;
    /** FNV-1a over the stream Rng's four state words at the end. */
    std::uint64_t rngState;
};

class WrappingStreamTest : public ::testing::TestWithParam<WrapCase>
{
  protected:
    static constexpr std::uint64_t kTotal = 1u << 21;
    static constexpr std::size_t kChunk = 4093;

    static std::uint64_t
    mix(std::uint64_t h, std::uint64_t v)
    {
        return (h ^ v) * 0x100000001b3ull;
    }

    static std::uint64_t
    stateDigest(const Rng &rng)
    {
        std::uint64_t s[4];
        rng.state(s);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint64_t w : s)
            h = mix(h, w);
        return h;
    }

    /** A populated instance of the case's workload. */
    std::unique_ptr<Workload>
    make(NativeSystem &sys, const char *proc_name)
    {
        WorkloadConfig cfg;
        cfg.scale = GetParam().scale;
        cfg.seed = 42;
        auto wl = makeWorkload(GetParam().workload, cfg);
        wl->setup(sys.kernel().createProcess(proc_name));
        return wl;
    }
};

TEST_P(WrappingStreamTest, EntryPointsAgreeAcrossWraps)
{
    // Pinned from the per-access branching generators: nextAccess,
    // chunked fillAccesses and any interleaving of the two must all
    // produce that stream and leave the Rng in the same state.
    const WrapCase &c = GetParam();
    NativeSystem sys(PolicyKind::Thp, 3);
    std::unique_ptr<Workload> wl[3] = {make(sys, "a"), make(sys, "b"),
                                       make(sys, "c")};
    Rng rng[3] = {Rng(9), Rng(9), Rng(9)};
    std::uint64_t digest[3];
    std::vector<MemAccess> buf(kChunk);
    for (int k = 0; k < 3; ++k) {
        const std::uint64_t base = wl[k]->vmas()[0]->start().value;
        std::uint64_t h = 0xcbf29ce484222325ull;
        const auto fold = [&](const MemAccess &a) {
            h = mix(mix(h, a.pc), a.va.value - base);
        };
        std::uint64_t i = 0;
        // k = 0: nextAccess only; 1: fillAccesses only (the final
        // chunk short); 2: nextAccess x3, a 4093 chunk, nextAccess x1,
        // a 4093 chunk, ... — each call continues the other's stream.
        for (unsigned step = 0; i < kTotal; ++step) {
            const bool fill = k == 1 || (k == 2 && step % 2 == 1);
            if (fill) {
                const std::size_t n = std::min<std::uint64_t>(
                    kChunk, kTotal - i);
                wl[k]->fillAccesses(rng[k], buf.data(), n);
                for (std::size_t j = 0; j < n; ++j)
                    fold(buf[j]);
                i += n;
            } else {
                const unsigned n = k == 2 && step % 4 == 2 ? 1 : 3;
                for (unsigned j = 0; j < n && i < kTotal; ++j, ++i)
                    fold(wl[k]->nextAccess(rng[k]));
            }
        }
        digest[k] = h;
    }
    EXPECT_EQ(digest[0], c.digest) << "nextAccess stream moved";
    EXPECT_EQ(digest[1], c.digest) << "fillAccesses stream moved";
    EXPECT_EQ(digest[2], c.digest) << "interleaved stream moved";
    for (int k = 0; k < 3; ++k)
        EXPECT_EQ(stateDigest(rng[k]), c.rngState)
            << "end Rng state moved (entry pattern " << k << ")";
    for (auto &w : wl)
        w->teardown();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WrappingStreamTest,
    ::testing::Values(
        WrapCase{"svm", 0.001, 0x187c816e44c21345ull,
                 0x9f196023c77d79c0ull},
        WrapCase{"pagerank", 0.001, 0x0a3abe8be0ecefc5ull,
                 0x3cb2969fe8116ed3ull},
        WrapCase{"hashjoin", 0.01, 0x4b1220651eee4e25ull,
                 0xfff7ac1722f5f8bcull},
        WrapCase{"xsbench", 0.001, 0xacae09b237859aa5ull,
                 0x0be58922dea2cdeaull},
        WrapCase{"bt", 0.001, 0x3d06c0278a2491bdull,
                 0x396a24773b45be3aull},
        WrapCase{"tlbfriendly", 0.001, 0xd7ab96f952222325ull,
                 0x70497a2e4d62d37dull}),
    [](const ::testing::TestParamInfo<WrapCase> &info) {
        return std::string(info.param.workload);
    });

TEST(Workloads, FactoryRejectsUnknown)
{
    EXPECT_DEATH((void)makeWorkload("nonsense", quick()), "unknown");
}

TEST(Workloads, PaperListHasFive)
{
    EXPECT_EQ(paperWorkloads().size(), 5u);
}

TEST(Workloads, InputFileReusePersistsCache)
{
    NativeSystem sys(PolicyKind::Ca, 3);
    auto w1 = makeWorkload("pagerank", quick());
    Process &p1 = sys.kernel().createProcess("r1");
    w1->setup(p1);
    ASSERT_TRUE(w1->inputFileId());
    const std::uint32_t file_id = *w1->inputFileId();
    File &f = sys.kernel().pageCache().file(file_id);
    const std::uint64_t cached = f.cachedPages();
    EXPECT_GT(cached, 0u);
    w1->teardown();
    sys.kernel().exitProcess(p1);

    // Second run against the same file: no new cache fills.
    auto w2 = makeWorkload("pagerank", quick());
    w2->setInputFile(file_id);
    Process &p2 = sys.kernel().createProcess("r2");
    w2->setup(p2);
    EXPECT_EQ(f.cachedPages(), cached);
    w2->teardown();
}

TEST(Hog, PinsRequestedFraction)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto &pm = sys.kernel().physMem();
    const std::uint64_t free0 = pm.freePages();
    Rng rng(3);
    hogMemory(sys.kernel(), 0.25, rng);
    const double pinned =
        static_cast<double>(free0 - pm.freePages()) / pm.totalFrames();
    EXPECT_NEAR(pinned, 0.25, 0.02);
}

TEST(Hog, FreeMemoryStaysCoarse)
{
    // The hog must leave plenty of free huge pages (it fragments at
    // >2 MiB granularity, like the paper's).
    NativeSystem sys(PolicyKind::Thp, 3);
    Rng rng(3);
    hogMemory(sys.kernel(), 0.5, rng);
    std::uint64_t huge_free = 0;
    for (unsigned n = 0; n < sys.kernel().physMem().numNodes(); ++n) {
        const auto &buddy = sys.kernel().physMem().zone(n).buddy();
        for (unsigned o = kHugeOrder; o <= buddy.maxOrder(); ++o)
            huge_free += buddy.freeBlocks(o) * pagesInOrder(o);
    }
    // At least half of the remaining free memory is still huge-page
    // allocatable.
    EXPECT_GT(huge_free, sys.kernel().physMem().freePages() / 2);
}

TEST(Hog, ExitReleasesEverything)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto &k = sys.kernel();
    const std::uint64_t free0 = k.physMem().freePages();
    Rng rng(3);
    Process &hog = hogMemory(k, 0.3, rng);
    k.exitProcess(hog);
    // Only the kernel metadata pool (page-table frames) stays taken.
    EXPECT_EQ(k.physMem().freePages(), free0 - k.kernelPoolPages());
}

TEST(Churn, PinsIslandsOnStockMachines)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    const std::uint64_t free0 = sys.kernel().physMem().freePages();
    systemChurn(sys.kernel(), 32, 99);
    EXPECT_EQ(free0 - sys.kernel().physMem().freePages(),
              32 * kReadaheadPages);
}

TEST(Churn, CaMachinePacksThePins)
{
    NativeSystem sys(PolicyKind::Ca, 3);
    systemChurn(sys.kernel(), 32, 99);
    // All churn pages must form one contiguous physical run.
    File &log = sys.kernel().pageCache().file(0);
    Pfn first = log.frameFor(0);
    for (std::uint64_t p = 1; p < log.sizePages(); ++p) {
        if (!log.isCached(p))
            break;
        EXPECT_EQ(log.frameFor(p), first + p);
    }
}
