/**
 * @file
 * The benchmark's workloads. Each one is a fixed list of cell kinds:
 * a cell is one short, self-contained unit of work built from public
 * libcontig calls (core/experiment, contig/analysis, tlb/replay,
 * workloads/ctrace), every call timed through a Recorder. Cells of
 * one kind do identical simulated work, so each returns a digest of
 * its simulated results that every later cell of that kind must
 * reproduce.
 *
 *  - xlat_replay: fig13's machines built once in set-up; cells are
 *    fixed-length translation replays (runTranslation) plus a SpOT
 *    replay fed from a captured .ctrace.
 *  - fault_grid: fig08/fig12-shaped fresh machines; each cell runs
 *    construct -> hog -> populate -> coverage -> teardown.
 *  - overcommit: fig_overcommit's 2 x 96 MiB machines populated at
 *    1.6x physical memory, then a short SpOT replay of the hot set.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hh"

namespace perfbench
{

/** Input sizes. The smoke size only checks that every cell runs. */
struct Size
{
    /** Footprint scale of the paper workloads (1.0 = fig13/fig08). */
    double scale = 1.0;
    /** Accesses per xlat_replay cell. */
    std::uint64_t xlatAccesses = 1ull << 19;
    /** Accesses of an overcommit cell's SpOT replay (fig_overcommit's). */
    std::uint64_t overcommitAccesses = 1ull << 19;
    /** Overcommit machine: bytes per node (two nodes). */
    std::uint64_t overcommitNodeBytes = 96ull << 20;

    static Size full() { return {}; }
    static Size
    smoke()
    {
        return {0.0625, 1ull << 13, 1ull << 12, 16ull << 20};
    }
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Cell kinds, in the round-robin order the runner uses. */
    virtual const std::vector<std::string> &kinds() const = 0;

    /**
     * The kind whose results `kind` must reproduce: itself, except
     * for a cell that replays another kind's captured stream.
     */
    virtual std::size_t twinOf(std::size_t kind) const { return kind; }

    /** Build what the cells share (timed through `rec`). */
    virtual void setUp(Recorder &) {}

    /** Run one cell; returns the digest of its simulated results. */
    virtual std::uint64_t runCell(std::size_t kind, Recorder &rec) = 0;

    /** Release what setUp built. */
    virtual void tearDown(Recorder &) {}

    /**
     * True when the workload's populate calls all happen in set-up,
     * so its pages_per_s is measured there.
     */
    virtual bool populatesInSetUp() const { return false; }

    /**
     * True when the measured cells replay nothing, so accesses_per_s
     * counts the populate pattern's touched pages instead.
     */
    virtual bool accessesAreTouches() const { return false; }
};

/** The benchmark's workload names. */
const std::vector<std::string> &workloadNames();

/**
 * Create a workload. `work_dir` holds files a workload writes (the
 * xlat_replay trace); it must exist.
 */
std::unique_ptr<BenchWorkload> makeWorkload(std::string_view name,
                                            std::uint64_t seed,
                                            const Size &size,
                                            const std::string &work_dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
