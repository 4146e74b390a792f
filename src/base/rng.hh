/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * experiments: a xoshiro256** core plus the distribution samplers the
 * synthetic workloads need (uniform, Zipf/power-law, geometric).
 *
 * The core and the uniform samplers are inline: the workload
 * generators draw one or two values per simulated access, and an
 * out-of-line call per draw cost more than the draw itself.
 */

#ifndef CONTIG_BASE_RNG_HH
#define CONTIG_BASE_RNG_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace contig
{

/**
 * Deterministic 64-bit PRNG (xoshiro256**). Seeded via SplitMix64 so a
 * single 64-bit seed fully determines the stream.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's method. bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        contig_assert(bound > 0, "Rng::below bound must be positive");
        // Lemire's nearly-divisionless method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            std::uint64_t t = -bound % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        contig_assert(lo <= hi, "Rng::between empty range");
        return lo + below(hi - lo + 1);
    }

    /** The top 53 bits of next(): uniform() is bits53() * 2^-53. */
    std::uint64_t bits53() { return next() >> 11; }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(bits53()) * 0x1.0p-53;
    }

    /** True with the given probability. */
    bool chance(double p) { return uniform() < p; }

    /**
     * The integer threshold of probability p: the smallest integer
     * >= p * 2^53, clamped to [0, 2^53]. `bits53() < cut(p)` holds
     * exactly when `uniform() < p` would, for the same draw: both
     * sides scale by a power of two, so nothing rounds. A generator
     * picks an access kind by comparing one bits53() roll against
     * compile-time cuts instead of branching on a double.
     */
    static constexpr std::uint64_t
    cut(double p)
    {
        const double x = p * 0x1.0p53;
        if (!(x > 0.0)) // p <= 0 or NaN: never
            return 0;
        if (x >= 0x1.0p53) // p >= 1: always
            return 1ull << 53;
        const auto floor = static_cast<std::uint64_t>(x);
        return floor + (static_cast<double>(floor) < x);
    }

    /**
     * `cond && chance(p)`, equal in result and in the state it leaves,
     * without a branch on cond: next()'s step with every state-word
     * update masked by `0 - cond`, so a false cond leaves the state as
     * it was. A generator whose chance draw only happens for some
     * access kinds keeps its per-access path branch-free this way.
     */
    bool
    chanceIf(bool cond, double p)
    {
        const bool hit = (rotl(s_[1] * 5, 7) * 9 >> 11) < cut(p);
        const std::uint64_t keep = 0 - static_cast<std::uint64_t>(cond);
        const std::uint64_t t = (s_[1] << 17) & keep;
        s_[2] ^= s_[0] & keep;
        s_[3] ^= s_[1] & keep;
        s_[1] ^= s_[2] & keep;
        s_[0] ^= s_[3] & keep;
        s_[2] ^= t;
        s_[3] ^= (rotl(s_[3], 45) ^ s_[3]) & keep;
        return cond & hit;
    }

    /**
     * Raw xoshiro256** state, for checkpoint/restore. setState with a
     * previously captured state resumes the stream exactly where the
     * capture left it.
     */
    void
    state(std::uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = s_[i];
    }

    void
    setState(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = in[i];
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Zipf(N, s) sampler over {0, ..., n-1} using the rejection-inversion
 * method of Hormann & Derflinger, O(1) per sample. Used by the graph
 * and hash-join workload generators to model power-law access skew.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items (ranks 0..n-1; rank 0 is hottest).
     * @param s Skew exponent, s >= 0 (s == 0 degenerates to uniform).
     */
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one rank. */
    std::uint64_t sample(Rng &rng);

    std::uint64_t n() const { return n_; }
    double skew() const { return s_; }

  private:
    double h(double x) const;
    double hInv(double x) const;

    std::uint64_t n_;
    double s_;
    double hx0_;
    double hxm_;
    double invSMinusOne_;
};

} // namespace contig

#endif // CONTIG_BASE_RNG_HH
