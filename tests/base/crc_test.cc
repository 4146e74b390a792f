#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/rng.hh"
#include "base/serialize.hh"

using namespace contig;

namespace
{

/** Byte-at-a-time table CRC-32 (IEEE, reflected): the plain form. */
std::uint32_t
referenceCrc(const std::uint8_t *p, std::size_t n, std::uint32_t seed)
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return ~c;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    // An empty range returns its seed: chaining through nothing is a
    // no-op.
    EXPECT_EQ(crc32("", 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32, SeedChainsAcrossSplits)
{
    constexpr std::string_view kText =
        "The quick brown fox jumps over the lazy dog, twice over.";
    const std::uint32_t whole = crc32(kText.data(), kText.size());
    for (std::size_t cut = 0; cut <= kText.size(); ++cut) {
        const std::uint32_t head = crc32(kText.data(), cut);
        EXPECT_EQ(crc32(kText.data() + cut, kText.size() - cut, head),
                  whole)
            << "split at " << cut;
    }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // Every length up to 4 KiB from each of the 8 start offsets a
    // word-at-a-time loop can see, over random bytes and seeds.
    Rng rng(0xC3C);
    std::vector<std::uint8_t> buf(4096 + 8);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 4096; ++len) {
            const auto seed = static_cast<std::uint32_t>(rng.next());
            ASSERT_EQ(crc32(buf.data() + off, len, seed),
                      referenceCrc(buf.data() + off, len, seed))
                << "offset " << off << " length " << len;
        }
    }
}
