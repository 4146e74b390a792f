#include "probe.hh"

#include <sys/mman.h>

#include <cstdlib>
#include <new>

#include "ledger.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kBufferBytes = 64u << 20;
constexpr std::size_t kHugePage = 2u << 20;
constexpr std::size_t kWordsPerLine = 8; // 64-byte lines
constexpr std::size_t kLines = kBufferBytes / 8 / kWordsPerLine;
/** 4 MiB of lines per run: twice a 2 MiB L2, so no pass hits in L2. */
constexpr std::size_t kSetLines = 65'536;

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

HostProbe::HostProbe()
    : buf_(static_cast<std::uint64_t *>(
          std::aligned_alloc(kHugePage, kBufferBytes))),
      set_(kSetLines)
{
    if (!buf_)
        throw std::bad_alloc();
    // Huge pages, where the host allows them, keep the probe's own
    // TLB misses out of its time.
    madvise(buf_, kBufferBytes, MADV_HUGEPAGE);
    for (std::size_t i = 0; i < kBufferBytes / 8; ++i)
        buf_[i] = 1;
}

HostProbe::~HostProbe() { std::free(buf_); }

double
HostProbe::run()
{
    std::uint64_t sum = 0;
    for (std::uint32_t &line : set_) {
        line = static_cast<std::uint32_t>(splitmix(rng_) % kLines);
        sum += buf_[line * kWordsPerLine];
    }
    buf_[1] = sum; // keeps the loading pass
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < set_.size(); ++i) {
        std::uint64_t *line = &buf_[set_[i] * kWordsPerLine];
        line[0] += i;
        line[3] ^= line[0];
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
HostProbe::residentMiB()
{
    return static_cast<double>(kBufferBytes) / (1u << 20);
}

} // namespace perfbench
