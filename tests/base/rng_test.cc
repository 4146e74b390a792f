#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "base/rng.hh"

using namespace contig;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// Known answers pinned from the out-of-line implementation: inlining
// the samplers must not move a single value of any stream.
TEST(Rng, KnownAnswerNext)
{
    static constexpr std::uint64_t kExpected[16] = {
        0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull, 0xae17533239e499a1ull,
        0xecb8ad4703b360a1ull, 0xfde6dc7fe2ec5e64ull, 0xc50da53101795238ull,
        0xb82154855a65ddb2ull, 0xd99a2743ebe60087ull, 0xc2e96e726e97647eull,
        0x9556615f775fbc3dull, 0xaeb53b340c103971ull, 0x4a69db9873af8965ull,
        0xcd0feda93006c6b6ull, 0x52480865a4b42742ull, 0xb60dec3bf2d887cdull,
        0xe0b55a68b96677faull};
    Rng rng(42);
    for (std::uint64_t want : kExpected)
        EXPECT_EQ(rng.next(), want);
}

TEST(Rng, KnownAnswerUniform)
{
    static constexpr double kExpected[8] = {
        0x1.5780b2e0c2ecp-4,  0x1.84136619b444ep-2, 0x1.5c2ea66473c93p-1,
        0x1.d9715a8e0766cp-1, 0x1.fbcdb8ffc5d8bp-1, 0x1.8a1b4a6202f2ap-1,
        0x1.7042a90ab4cbbp-1, 0x1.b3344e87d7ccp-1};
    Rng rng(42);
    for (double want : kExpected)
        EXPECT_EQ(rng.uniform(), want);
}

TEST(Rng, KnownAnswerBelowAndBetween)
{
    static constexpr std::uint64_t kBelow[16] = {
        83, 378, 680, 924, 991, 769, 719, 850,
        761, 583, 682, 290, 801, 321, 711, 877};
    static constexpr std::uint64_t kBetween[16] = {
        3, 5, 7, 9, 9, 8, 8, 8, 8, 7, 7, 5, 8, 5, 7, 9};
    Rng below(42), between(42);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(below.below(1000), kBelow[i]) << "draw " << i;
        EXPECT_EQ(between.between(3, 9), kBetween[i]) << "draw " << i;
    }
}

TEST(Rng, EmptyRangesAreRejected)
{
    Rng rng(42);
    EXPECT_DEATH((void)rng.below(0), "bound must be positive");
    EXPECT_DEATH((void)rng.between(9, 3), "empty range");
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng rng(13);
    const std::uint64_t buckets = 8;
    std::vector<int> hist(buckets, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++hist[rng.below(buckets)];
    for (auto c : hist)
        EXPECT_NEAR(c, n / static_cast<int>(buckets), n / 100);
}

namespace
{

/** Every probability a workload generator draws against. */
constexpr double kGeneratorProbabilities[] = {
    0.48, 0.70, 0.96, 0.055, 0.09, 0.55, 0.80, 0.030, 0.50, 0.020,
    0.018, 0.0005};

std::uint64_t
stateWord(const Rng &rng, int i)
{
    std::uint64_t s[4];
    rng.state(s);
    return s[i];
}

} // namespace

static_assert(Rng::cut(0.5) == 1ull << 52, "cut is a constant");
static_assert(Rng::cut(0.0) == 0 && Rng::cut(1.0) == 1ull << 53,
              "cut clamps to [0, 2^53]");

TEST(Rng, CutMatchesTheUniformCompare)
{
    // For every probability p, `r < cut(p)` must hold exactly when
    // the double compare `r * 2^-53 < p` does, for the 53-bit draws
    // around the threshold, where a rounding slip would show.
    std::vector<double> probs{0.0, 1.0, 0x1p-53, 0x1p-54, 0x1p-60,
                              std::nextafter(1.0, 0.0),
                              std::numeric_limits<double>::denorm_min(),
                              0x1p-53 * 3, 0x1p-52 + 0x1p-80};
    for (double p : kGeneratorProbabilities) {
        probs.push_back(p);
        probs.push_back(std::nextafter(p, 0.0));
        probs.push_back(std::nextafter(p, 1.0));
    }
    for (double p : probs) {
        const std::uint64_t c = Rng::cut(p);
        ASSERT_LE(c, 1ull << 53) << p;
        for (std::uint64_t r = c < 2 ? 0 : c - 2; r <= c + 1; ++r) {
            if (r >= 1ull << 53)
                break;
            EXPECT_EQ(static_cast<double>(r) * 0x1p-53 < p, r < c)
                << "p=" << p << " r=" << r << " cut=" << c;
        }
    }
    // Outside [0, 1] the compare is constant, and so is the cut.
    EXPECT_EQ(Rng::cut(-0.5), 0u);
    EXPECT_EQ(Rng::cut(std::nan("")), 0u);
    EXPECT_EQ(Rng::cut(2.0), 1ull << 53);
}

TEST(Rng, ChanceIfIsConditionalChance)
{
    // chanceIf(cond, p) must equal `cond && chance(p)` in its value
    // and in all four state words after it, over a long seeded walk
    // that mixes conditions, probabilities and plain draws.
    Rng masked(2024), branchy(2024), driver(7);
    std::vector<double> probs(std::begin(kGeneratorProbabilities),
                              std::end(kGeneratorProbabilities));
    probs.push_back(0.0);
    probs.push_back(1.0);
    for (int step = 0; step < 100000; ++step) {
        const bool cond = driver.chance(0.5);
        const double p = probs[driver.below(probs.size())];
        std::uint64_t before[4];
        masked.state(before);
        const bool got = masked.chanceIf(cond, p);
        const bool want = cond && branchy.chance(p);
        ASSERT_EQ(got, want) << "step " << step;
        for (int w = 0; w < 4; ++w) {
            ASSERT_EQ(stateWord(masked, w), stateWord(branchy, w))
                << "state word " << w << " at step " << step;
            if (!cond) {
                ASSERT_EQ(stateWord(masked, w), before[w])
                    << "a false cond moved the state at step " << step;
            }
        }
        if (step % 7 == 0) {
            ASSERT_EQ(masked.bits53(), branchy.next() >> 11);
        }
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Zipf, RanksWithinRange)
{
    Rng rng(23);
    ZipfSampler z(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 1000u);
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(29);
    ZipfSampler z(10000, 1.1);
    int head = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        if (z.sample(rng) < 100)
            ++head;
    // With s=1.1 over 10k items, the top 1% of ranks should take a
    // large share of the draws (far more than the uniform 1%).
    EXPECT_GT(head, n / 4);
}

TEST(Zipf, NearZeroSkewIsRoughlyUniform)
{
    Rng rng(31);
    ZipfSampler z(100, 0.0);
    std::vector<int> hist(100, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++hist[z.sample(rng)];
    int mn = *std::min_element(hist.begin(), hist.end());
    int mx = *std::max_element(hist.begin(), hist.end());
    EXPECT_GT(mn, 0);
    EXPECT_LT(mx, 3 * n / 100);
}

TEST(Zipf, SingleItem)
{
    Rng rng(37);
    ZipfSampler z(1, 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}
