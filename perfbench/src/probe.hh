/**
 * @file
 * Host-speed probe. On a shared host the benchmark's speed drifts by
 * tens of percent over minutes as neighbours contend for the shared
 * last-level cache and memory. The probe is fixed work outside
 * libcontig with the same weakness: read-modify-writes of a random set
 * of cache lines twice the size of the private L2, so they are served
 * by the shared cache and memory. An untimed pass loads the set
 * first, so the timed pass finds every line where the probe itself
 * left it, whatever the cell before it did to the caches: the probe
 * follows the host, not the program's footprint. The runner probes
 * after every cell; probe time over kNominalMs is the host factor its
 * times are divided by.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

class HostProbe
{
  public:
    /**
     * Typical probe time on a 4-vCPU KVM guest of a Xeon with a shared
     * 300 MiB L3: the factor's unit, so host-normalized times read
     * close to raw ones there.
     */
    static constexpr double kNominalMs = 0.6;

    /** Maps the buffer and pages it in. */
    HostProbe();
    ~HostProbe();
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Run the probe once; returns the timed pass's host time in ms. */
    double run();

    /** The buffer's resident size, which peak RSS figures leave out. */
    static double residentMiB();

  private:
    std::uint64_t *buf_;
    /** The lines of the current run, drawn by the loading pass. */
    std::vector<std::uint32_t> set_;
    /** splitmix64 state: each run draws a fresh set of lines. */
    std::uint64_t rng_ = 0x5eed;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
