/**
 * @file
 * The .ctrace container and the trace frontend: codec round-trips,
 * capture→replay equivalence against the live generator for every
 * workload, AccessStream edge cases (prime-sized totals, empty
 * streams), seekable resume, and the fail-loudly guarantees (death
 * tests over truncated / corrupt / mismatched files).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "workloads/access_stream.hh"
#include "workloads/ctrace.hh"
#include "workloads/trace_source.hh"
#include "workloads/workloads.hh"

using namespace contig;

namespace
{

WorkloadConfig
quick(std::uint64_t seed = 5)
{
    WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.seed = seed;
    return cfg;
}

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** RAII temp file remover. */
struct TmpFile
{
    explicit TmpFile(std::string p) : path(std::move(p)) {}
    ~TmpFile() { std::remove(path.c_str()); }
    std::string path;
};

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &buf)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
}

/**
 * Capture `total` accesses of a workload stream into a .ctrace,
 * returning the generated sequence (the live-generator reference —
 * workloads may advance internal state, so the captured stream itself
 * is the ground truth).
 */
std::vector<MemAccess>
captureStream(Workload &wl, const std::string &path, std::uint64_t seed,
              std::uint64_t total, std::uint64_t chunk,
              std::uint64_t digest = 1)
{
    AccessStream stream(wl, total, seed, chunk);
    CtraceWriter writer(path, digest, stream.chunkAccesses(), total);
    stream.captureTo(&writer);
    std::vector<MemAccess> all;
    const MemAccess *c = nullptr;
    while (std::size_t n = stream.next(c))
        all.insert(all.end(), c, c + n);
    return all;
}

} // namespace

TEST(CtraceCodec, RoundTripsArbitraryAccesses)
{
    std::vector<MemAccess> in;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        MemAccess a;
        a.pc = rng.next();
        a.va = Gva{rng.next()};
        in.push_back(a);
    }
    // Strided tails exercise the small-delta fast path.
    for (int i = 0; i < 1000; ++i) {
        MemAccess a;
        a.pc = 0x400000 + (i % 7) * 4;
        a.va = Gva{0x7f0000000000ull + i * 64};
        in.push_back(a);
    }

    std::vector<std::uint8_t> enc;
    ctraceEncodeChunk(in.data(), in.size(), enc);

    std::vector<MemAccess> out(in.size());
    ASSERT_TRUE(
        ctraceDecodeChunk(enc.data(), enc.size(), in.size(), out.data()));
    for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(in[i].pc, out[i].pc) << i;
        ASSERT_EQ(in[i].va.value, out[i].va.value) << i;
    }
}

TEST(CtraceCodec, RejectsTrailingAndTruncatedBytes)
{
    std::vector<MemAccess> in(16);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i].va = Gva{i * 4096};
    std::vector<std::uint8_t> enc;
    ctraceEncodeChunk(in.data(), in.size(), enc);

    std::vector<MemAccess> out(in.size());
    // Trailing garbage is a decode failure, not a silent success.
    auto longer = enc;
    longer.push_back(0x00);
    EXPECT_FALSE(ctraceDecodeChunk(longer.data(), longer.size(),
                                   in.size(), out.data()));
    // A short buffer must not read past the end.
    EXPECT_FALSE(ctraceDecodeChunk(enc.data(), enc.size() - 1, in.size(),
                                   out.data()));
}

namespace
{

/**
 * The byte-at-a-time decoder ctraceDecodeChunk had before its word
 * path: the differential oracle for every accept/reject decision.
 */
bool
byteLoopDecode(const std::uint8_t *p, std::size_t n, std::size_t count,
               MemAccess *out)
{
    std::size_t off = 0;
    const auto varint = [&](std::uint64_t &v) {
        v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (off >= n)
                return false;
            const std::uint8_t b = p[off++];
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                return true;
        }
        return false;
    };
    std::uint64_t pc = 0, va = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t dpc, dva;
        if (!varint(dpc) || !varint(dva))
            return false;
        pc += (dpc >> 1) ^ (~(dpc & 1) + 1);
        va += (dva >> 1) ^ (~(dva & 1) + 1);
        out[i].pc = pc;
        out[i].va = Gva{va};
    }
    return off == n;
}

/**
 * Decode `enc` with count accesses through both decoders, from an
 * exactly sized heap copy (so a sanitizer build catches any read past
 * the end), and require the same verdict and the same output words.
 */
void
expectSameDecode(const std::vector<std::uint8_t> &enc, std::size_t count,
                 const char *what)
{
    const std::unique_ptr<std::uint8_t[]> exact(
        new std::uint8_t[enc.size() + (enc.empty() ? 1 : 0)]);
    std::copy(enc.begin(), enc.end(), exact.get());
    std::vector<MemAccess> got(count, MemAccess{1, Gva{1}});
    std::vector<MemAccess> want(count, MemAccess{1, Gva{1}});
    const bool ok =
        ctraceDecodeChunk(exact.get(), enc.size(), count, got.data());
    ASSERT_EQ(ok, byteLoopDecode(exact.get(), enc.size(), count,
                                 want.data()))
        << what << ": verdict differs (" << enc.size() << " bytes, "
        << count << " accesses)";
    for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i].pc, want[i].pc) << what << " access " << i;
        ASSERT_EQ(got[i].va.value, want[i].va.value)
            << what << " access " << i;
    }
}

/** Accesses whose deltas encode to varints of every length, 1-10. */
std::vector<MemAccess>
mixedLengthAccesses(Rng &rng, std::size_t n)
{
    std::vector<MemAccess> a(n);
    std::uint64_t pc = 0x400000, va = 0x7f0000000000ull;
    for (MemAccess &x : a) {
        pc += rng.chance(0.7) ? rng.below(4) * 0x40
                              : rng.next() >> rng.below(64);
        va += rng.next() >> rng.below(64);
        x.pc = pc;
        x.va = Gva{va};
    }
    return a;
}

} // namespace

TEST(CtraceCodec, WordPathDecodesLikeTheByteLoop)
{
    Rng rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng.below(300);
        const std::vector<MemAccess> in = mixedLengthAccesses(rng, n);
        std::vector<std::uint8_t> enc;
        ctraceEncodeChunk(in.data(), n, enc);
        expectSameDecode(enc, n, "valid");
        // The decode is exact, not just equal to the oracle.
        std::vector<MemAccess> out(n);
        ASSERT_TRUE(ctraceDecodeChunk(enc.data(), enc.size(), n,
                                      out.data()));
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[i].pc, in[i].pc);
            ASSERT_EQ(out[i].va.value, in[i].va.value);
        }
        // Wrong access counts on either side.
        expectSameDecode(enc, n - 1, "count short");
        expectSameDecode(enc, n + 1, "count long");
        // Truncations, including inside the word-path reach.
        for (int t = 0; t < 8; ++t)
            expectSameDecode(std::vector<std::uint8_t>(
                                 enc.begin(),
                                 enc.begin() + rng.below(enc.size())),
                             n, "truncated");
        // Byte mutations: random bytes, flipped stop/continue bits.
        for (int m = 0; m < 8; ++m) {
            auto bad = enc;
            const std::size_t at = rng.below(bad.size());
            bad[at] = m % 2 ? static_cast<std::uint8_t>(rng.below(256))
                            : bad[at] ^ 0x80;
            expectSameDecode(bad, n, "mutated");
        }
    }
}

TEST(CtraceCodec, WordPathEdgeVarints)
{
    // Hand-built streams around the word path's limits: 8-byte
    // varints (the longest it takes), 9- and 10-byte ones (byte loop),
    // a 10-byte varint with bits past 64 (accepted, high bits
    // dropped, as the byte loop always did) and 11-byte runs of
    // continuation bytes (rejected), each at the start, in the
    // middle and in the chunk's 20-byte tail.
    const std::vector<std::vector<std::uint8_t>> varints = {
        {0x00},
        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
        {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
        {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
         0x01},
        {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
         0x80},
    };
    const std::vector<std::uint8_t> filler{0x02, 0x10};
    for (const auto &v : varints) {
        for (std::size_t pairs_before : {0u, 1u, 6u, 40u}) {
            for (std::size_t pairs_after : {0u, 1u, 4u, 40u}) {
                std::vector<std::uint8_t> enc;
                for (std::size_t i = 0; i < pairs_before; ++i)
                    enc.insert(enc.end(), filler.begin(), filler.end());
                enc.insert(enc.end(), v.begin(), v.end());
                enc.push_back(0x04);
                for (std::size_t i = 0; i < pairs_after; ++i)
                    enc.insert(enc.end(), filler.begin(), filler.end());
                const std::size_t n = pairs_before + 1 + pairs_after;
                expectSameDecode(enc, n, "edge varint");
                expectSameDecode(enc, n + 1, "edge varint, count long");
            }
        }
    }
}

TEST(AccessStream, PrimeSizedTotalEmitsExactRemainder)
{
    // 997 accesses in chunks of 64: 15 full chunks + a 37-access
    // final chunk. The partial final chunk must be exactly the
    // remainder — not padded, not dropped.
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload("pagerank", quick());
    Process &p = sys.kernel().createProcess("w");
    wl->setup(p);

    constexpr std::uint64_t kTotal = 997, kChunk = 64;
    AccessStream stream(*wl, kTotal, 11, kChunk);
    std::uint64_t produced = 0, chunks = 0;
    std::size_t last = 0;
    const MemAccess *chunk = nullptr;
    while (std::size_t n = stream.next(chunk)) {
        ++chunks;
        last = n;
        produced += n;
        EXPECT_LE(n, kChunk);
    }
    EXPECT_EQ(produced, kTotal);
    EXPECT_EQ(chunks, (kTotal + kChunk - 1) / kChunk);
    EXPECT_EQ(last, kTotal % kChunk);
    EXPECT_TRUE(stream.done());
    wl->teardown();
}

TEST(AccessStream, EmptyStreamNeverTouchesTheWorkload)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload("pagerank", quick());
    Process &p = sys.kernel().createProcess("w");
    wl->setup(p);

    AccessStream stream(*wl, 0, 11, 64);
    const MemAccess *chunk = nullptr;
    EXPECT_EQ(stream.next(chunk), 0u);
    EXPECT_EQ(stream.produced(), 0u);
    EXPECT_TRUE(stream.done());
    // And an empty captured trace still seals into a valid file.
    TmpFile t(tmpPath("ctrace_empty.ctrace"));
    AccessStream s2(*wl, 0, 11, 64);
    CtraceWriter w(t.path, 42, 64, 0);
    s2.captureTo(&w);
    EXPECT_EQ(s2.next(chunk), 0u);
    CtraceReader r(t.path);
    EXPECT_EQ(r.totalAccesses(), 0u);
    EXPECT_EQ(r.chunkCount(), 0u);
    r.requireDigest(42);
    wl->teardown();
}

class CtraceWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CtraceWorkloadTest, CaptureThenReplayIsElementWiseIdentical)
{
    // The golden capture→replay contract, per workload: decoding the
    // captured file through the producer-thread frontend yields the
    // exact access sequence the live generator produces.
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload(GetParam(), quick());
    Process &p = sys.kernel().createProcess(GetParam());
    wl->setup(p);

    constexpr std::uint64_t kTotal = 5003, kChunk = 256; // prime total
    TmpFile t(tmpPath("ctrace_" + GetParam() + ".ctrace"));
    const std::vector<MemAccess> ref =
        captureStream(*wl, t.path, 23, kTotal, kChunk, 99);
    ASSERT_EQ(ref.size(), kTotal);

    TraceReplaySource replay(t.path, {});
    replay.reader().requireDigest(99);
    EXPECT_EQ(replay.total(), kTotal);
    EXPECT_EQ(replay.chunkAccesses(), kChunk);

    std::uint64_t i = 0;
    const MemAccess *b = nullptr;
    while (std::size_t n = replay.next(b)) {
        for (std::size_t j = 0; j < n; ++j, ++i) {
            ASSERT_EQ(ref[i].pc, b[j].pc) << GetParam() << " access " << i;
            ASSERT_EQ(ref[i].va.value, b[j].va.value)
                << GetParam() << " access " << i;
        }
    }
    EXPECT_EQ(i, kTotal);
    EXPECT_TRUE(replay.done());
    wl->teardown();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CtraceWorkloadTest,
    ::testing::Values("svm", "pagerank", "hashjoin", "xsbench", "bt",
                      "tlbfriendly"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(TraceReplaySource, StartChunkSkipsExactlyKChunks)
{
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload("pagerank", quick());
    Process &p = sys.kernel().createProcess("w");
    wl->setup(p);

    constexpr std::uint64_t kTotal = 1000, kChunk = 64;
    TmpFile t(tmpPath("ctrace_seek.ctrace"));
    captureStream(*wl, t.path, 31, kTotal, kChunk);

    // Full replay for reference.
    std::vector<MemAccess> all;
    {
        TraceReplaySource full(t.path, {});
        const MemAccess *c = nullptr;
        while (std::size_t n = full.next(c))
            all.insert(all.end(), c, c + n);
    }
    ASSERT_EQ(all.size(), kTotal);

    TraceSourceOptions opt;
    opt.startChunk = 7;
    TraceReplaySource seek(t.path, opt);
    EXPECT_EQ(seek.produced(), 7 * kChunk);
    std::vector<MemAccess> tail;
    const MemAccess *c = nullptr;
    while (std::size_t n = seek.next(c))
        tail.insert(tail.end(), c, c + n);
    ASSERT_EQ(tail.size(), kTotal - 7 * kChunk);
    for (std::size_t i = 0; i < tail.size(); ++i) {
        ASSERT_EQ(tail[i].pc, all[7 * kChunk + i].pc) << i;
        ASSERT_EQ(tail[i].va.value, all[7 * kChunk + i].va.value) << i;
    }
    wl->teardown();
}

TEST(CtraceReaderDeath, FailsLoudlyOnDamage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    NativeSystem sys(PolicyKind::Thp, 3);
    auto wl = makeWorkload("pagerank", quick());
    Process &p = sys.kernel().createProcess("w");
    wl->setup(p);

    constexpr std::uint64_t kTotal = 1000, kChunk = 64;
    TmpFile t(tmpPath("ctrace_damage.ctrace"));
    captureStream(*wl, t.path, 31, kTotal, kChunk, 7);
    const std::vector<std::uint8_t> good = readAll(t.path);
    ASSERT_GT(good.size(), kCtraceHeaderBytes);

    // Not a trace at all.
    TmpFile bad(tmpPath("ctrace_bad.ctrace"));
    writeAll(bad.path, {'n', 'o', 'p', 'e'});
    EXPECT_DEATH({ CtraceReader r(bad.path); }, "truncated .ctrace");
    std::vector<std::uint8_t> junk(128, 0xAB);
    writeAll(bad.path, junk);
    EXPECT_DEATH({ CtraceReader r(bad.path); }, "bad magic");

    // Truncated mid-payload: the index bounds check trips.
    std::vector<std::uint8_t> cut(good.begin(),
                                  good.begin() + good.size() / 2);
    writeAll(bad.path, cut);
    EXPECT_DEATH({ CtraceReader r(bad.path); }, "truncated .ctrace");

    // Version bump: refuse to guess at future formats.
    std::vector<std::uint8_t> vbad = good;
    vbad[4] = 0x7F; // header offset 4: u32 version LSB
    writeAll(bad.path, vbad);
    EXPECT_DEATH({ CtraceReader r(bad.path); },
                 "version mismatch.*file is v127");

    // Flip one payload byte: the per-chunk CRC catches it on decode.
    std::vector<std::uint8_t> cbad = good;
    cbad[kCtraceHeaderBytes + 5] ^= 0x40;
    writeAll(bad.path, cbad);
    EXPECT_DEATH(
        {
            CtraceReader r(bad.path);
            std::vector<MemAccess> out;
            r.decodeChunk(0, out);
        },
        "CRC mismatch");

    // Wrong run identity.
    EXPECT_DEATH(
        {
            CtraceReader r(t.path);
            r.requireDigest(8);
        },
        "config digest mismatch");
    wl->teardown();
}
