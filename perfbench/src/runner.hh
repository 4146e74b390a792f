/**
 * @file
 * One benchmark run: repeated set-ups (each with a warm-up pass over
 * every cell kind), then a fixed number of measured passes that visit
 * the cell kinds round-robin, each cell's simulated digest checked
 * against its kind's reference. Derives the end-to-end and per-layer
 * metrics from the run.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ledger.hh"
#include "workloads.hh"

namespace perfbench
{

/** The seed whose digests are stored in expected.json. */
constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    bool traced = false;
    /** Measured passes; each runs one cell of every kind. */
    std::size_t passes = 1;
    /** Set-ups; setup_s is their median. Only the last is kept. */
    std::size_t setups = 1;
    Size size = Size::full();
    /**
     * Reference digest per kind. Empty: every cell must reproduce the
     * first pass's digest of its kind instead.
     */
    std::map<std::string, std::string> expected;
    /** Existing directory for files the workload writes. */
    std::string workDir = ".";
};

/** A measured cell: its id and its host time. */
struct CellTime
{
    std::uint32_t cell;
    double ms;
};

/** One set-up: host seconds (probes excluded) and a mid-pass cell. */
struct SetUpTime
{
    double seconds;
    std::uint32_t midCell;
};

struct RunResult
{
    explicit RunResult(bool traced) : rec(traced) {}

    std::vector<std::string> kinds;
    bool populatesInSetUp = false;
    bool accessesAreTouches = false;
    /** Cells run (warm-up and measured) and those whose check failed. */
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    /** Digest of each kind's cell in the first warm-up pass. */
    std::map<std::string, std::string> firstPass;
    std::vector<SetUpTime> setUps;
    std::vector<CellTime> cells;
    /** Host-probe time after each cell, by cell id (0: none). */
    std::vector<double> probeMs;
    Recorder rec;
};

RunResult runBench(const RunOptions &opts);

/** The run's host-speed factors (HostFactors over its probes). */
HostFactors hostFactors(const RunResult &r);

/** Host-speed-normalized times of the measured cells. */
contig::Percentiles cellMs(const RunResult &r, const HostFactors &f);

/**
 * wall_s, setup_s, accesses_per_s, pages_per_s, cell_ms_p50/p90 and
 * peak_rss_mib. Every host time is divided by its cell's host factor;
 * peak_rss_mib leaves out the probe's buffer.
 */
std::map<std::string, double> endToEndMetrics(RunResult &r);

/**
 * Per-layer times (host-speed-normalized), simulated counts and the
 * measured-phase ledger.
 */
std::map<std::string, double> layerMetrics(RunResult &r);

std::optional<std::map<std::string, std::string>>
loadExpected(const std::string &path, const std::string &size_name,
             const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
