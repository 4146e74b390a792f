/**
 * @file
 * Micro-benchmark: access-synthesis cost — the ns per access each
 * workload's steady-state generator (Workload::fillAccesses) takes to
 * produce a stream, without translating it. This is the front-end
 * layer of every replay cell (fig13/fig14, perfbench xlat_replay).
 *
 * The six workloads are populated once at 0.1 scale (synthesis does
 * not read simulated memory, so scale only moves how often cursors
 * wrap), then timed in interleaved repetitions: every repetition
 * draws the next kAccesses of each workload's stream in 4096-access
 * chunks, one workload after another, so host drift lands on all of
 * them alike. A row reports the median ns/access over repetitions.
 *
 * The `digest` column is FNV-1a over (pc, offset from the first VMA)
 * of every access generated, in order: it is deterministic and gated
 * by the committed baseline (bench/baselines/BENCH_micro_synth.json),
 * so a speed change to a generator cannot move its stream. The
 * timing column is named `*.wall_us` so `contig_inspect
 * check-baseline` ignores it.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/bench_io.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "workloads/workloads.hh"

using namespace contig;

namespace
{

constexpr std::uint64_t kAccesses = 1u << 19;
constexpr std::size_t kChunk = 4096;
constexpr unsigned kReps = 9;
constexpr double kScale = 0.1;

const char *const kWorkloads[] = {"svm", "pagerank", "hashjoin",
                                  "xsbench", "bt", "tlbfriendly"};

/** One workload's stream, its digest and its per-repetition times. */
struct Synth
{
    std::unique_ptr<Workload> wl;
    Rng rng{99};
    std::uint64_t base = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::vector<double> nsPerAccess;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace

int
main(int argc, char **argv)
{
    printScaledBanner();
    BenchOutput out("micro_synth", argc, argv);
    out.note("accesses", kAccesses);
    out.note("chunk", static_cast<std::uint64_t>(kChunk));
    out.note("reps", static_cast<std::uint64_t>(kReps));
    out.note("scale", kScale);

    NativeSystem sys(PolicyKind::Thp, 7);
    std::vector<Synth> synths;
    for (const char *name : kWorkloads) {
        Synth s;
        s.wl = makeWorkload(name, {kScale, 7});
        s.wl->setup(sys.kernel().createProcess(name));
        s.base = s.wl->vmas()[0]->start().value;
        synths.push_back(std::move(s));
    }

    std::vector<MemAccess> buf(kChunk);
    for (unsigned rep = 0; rep < kReps; ++rep) {
        for (Synth &s : synths) {
            std::uint64_t ns = 0;
            for (std::uint64_t done = 0; done < kAccesses; done += kChunk) {
                const auto t0 = std::chrono::steady_clock::now();
                s.wl->fillAccesses(s.rng, buf.data(), kChunk);
                const auto t1 = std::chrono::steady_clock::now();
                ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t1 - t0)
                          .count();
                // Digest outside the timed region.
                for (const MemAccess &a : buf) {
                    s.digest = (s.digest ^ a.pc) * 0x100000001b3ull;
                    s.digest = (s.digest ^ (a.va.value - s.base)) *
                               0x100000001b3ull;
                }
            }
            s.nsPerAccess.push_back(static_cast<double>(ns) / kAccesses);
        }
    }

    Report rep("micro — access synthesis cost per workload "
               "(fillAccesses, 4096-access chunks, median of " +
               std::to_string(kReps) + " interleaved repetitions)");
    rep.header({"workload", "accesses", "digest", "ns_access.wall_us"});
    for (std::size_t w = 0; w < synths.size(); ++w) {
        const Synth &s = synths[w];
        char digest[32];
        // Prefixed so the JSON writer keeps it a string: a bare hex
        // run could parse as a number and lose bits.
        std::snprintf(digest, sizeof digest, "fnv1a:%016" PRIx64,
                      s.digest);
        rep.row({kWorkloads[w], std::to_string(kAccesses * kReps), digest,
                 Report::num(median(s.nsPerAccess), 2)});
    }
    out.add(rep);
    rep.print();
    out.write();
    return 0;
}
