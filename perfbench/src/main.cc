/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints one JSON
 * line with the run's metrics, checks and configuration.
 *
 *   perfbench_driver --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--work-dir DIR] [--expected FILE]
 *                    [--spans FILE] [--smoke] [--commit HASH]
 *
 * The work per run is fixed: --seconds picks a pass count from a
 * table (kShapes), never a time budget. perfbench/run.py builds this
 * program and wraps it; see perfbench/README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "base/json.hh"
#include "base/simd.hh"
#include "obs/attribution.hh"
#include "runner.hh"

extern char **environ;

using namespace perfbench;

namespace
{

/** The fixed work of one run of a workload. */
struct RunShape
{
    /**
     * Measured passes per unit of --seconds, sized so the measured
     * phase takes roughly --seconds on a 4-vCPU KVM guest.
     */
    double passesPerSecond;
    /**
     * Set-ups per run; setup_s is their median. Workloads whose set-up
     * is cheap take more, for a steadier median.
     */
    std::size_t setups;
};

const std::map<std::string, RunShape> kShapes{
    {"xlat_replay", {5.0, 13}},
    {"fault_grid", {0.8, 5}},
    {"overcommit", {2.5, 11}},
};

/** Enough cells that at least ten lie beyond p90. */
constexpr std::size_t kMinCells = 100;

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char *kCompiler = "gcc " __VERSION__;
#else
constexpr const char *kCompiler = "unknown";
#endif

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", msg);
    std::exit(2);
}

/** The library reads CONTIG_* variables; a run must not inherit any. */
void
refuseContigEnv()
{
    bool found = false;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "CONTIG_", 7) == 0) {
            std::fprintf(stderr, "perfbench_driver: refusing to run with "
                                 "%s set\n",
                         *e);
            found = true;
        }
    }
    if (found)
        std::exit(2);
}

void
writeSpans(const std::string &path, const Recorder &rec)
{
    std::ofstream out(path);
    if (!out)
        usage(("cannot write " + path).c_str());
    for (const Span &s : rec.spans()) {
        contig::JsonWriter w;
        w.beginObject();
        w.field("name", s.name);
        w.field("start_ns", static_cast<std::int64_t>(s.startNs));
        w.field("end_ns", static_cast<std::int64_t>(s.endNs));
        w.field("parent", s.parent);
        w.field("cell", static_cast<std::uint64_t>(s.cell));
        w.endObject();
        out << std::move(w).str() << '\n';
    }
}

void
writeMetrics(contig::JsonWriter &w, std::string_view key,
             const std::map<std::string, double> &m)
{
    w.key(key);
    w.beginObject();
    for (const auto &[name, v] : m)
        w.field(name, v);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    refuseContigEnv();

    RunOptions opts;
    double seconds = 10.0;
    bool smoke = false;
    std::string expected_path;
    std::string spans_path;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opts.workload = v;
            else if (a == "--seed")
                opts.seed = std::stoull(v);
            else if (a == "--seconds")
                seconds = std::stod(v);
            else if (a == "--trace")
                opts.traced = std::stoi(v) != 0;
            else if (a == "--work-dir")
                opts.workDir = v;
            else if (a == "--expected")
                expected_path = v;
            else if (a == "--spans")
                spans_path = v;
            else if (a == "--commit")
                commit = v;
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a + ": " + v).c_str());
        }
    }
    auto shape = kShapes.find(opts.workload);
    if (shape == kShapes.end())
        usage("--workload must be xlat_replay, fault_grid or overcommit");
    if (!(seconds > 0))
        usage("--seconds must be positive");

    // Every performance knob at its pinned value.
    if (contig::obs::AttribRegistry::enabled() ||
        contig::simd::forceScalar())
        usage("attribution or forced-scalar mode is on");

    try {
        std::filesystem::create_directories(opts.workDir);
        const std::size_t kinds =
            makeWorkload(opts.workload, opts.seed, Size::full(),
                         opts.workDir)
                ->kinds()
                .size();
        if (smoke) {
            opts.size = Size::smoke();
            opts.passes = 1;
            opts.setups = 1;
        } else {
            opts.passes = std::max<std::size_t>(
                (kMinCells + kinds - 1) / kinds,
                static_cast<std::size_t>(
                    std::llround(seconds * shape->second.passesPerSecond)));
            opts.setups = shape->second.setups;
        }
        if (!expected_path.empty() && opts.seed == kDefaultSeed) {
            auto stored = loadExpected(expected_path,
                                       smoke ? "smoke" : "full",
                                       opts.workload);
            if (!stored)
                usage(("no stored digests for " + opts.workload + " in " +
                       expected_path)
                          .c_str());
            opts.expected = std::move(*stored);
        }

        RunResult r = runBench(opts);
        if (opts.traced && !spans_path.empty())
            writeSpans(spans_path, r.rec);

        contig::JsonWriter w;
        w.beginObject();
        w.field("workload", opts.workload);
        w.field("seed", opts.seed);
        w.field("traced", opts.traced);
        w.field("reference",
                opts.expected.empty() ? "first_pass" : "expected");
        w.field("attempted", static_cast<std::uint64_t>(r.attempted));
        w.field("failed", static_cast<std::uint64_t>(r.failed));
        w.key("failures");
        w.beginArray();
        for (const std::string &f : r.failures)
            w.value(f);
        w.endArray();
        w.field("passes", static_cast<std::uint64_t>(opts.passes));
        const HostFactors factors = hostFactors(r);
        contig::Percentiles cells = cellMs(r, factors);
        w.field("cells", static_cast<std::uint64_t>(cells.count()));
        w.field("cells_beyond_p90",
                static_cast<std::uint64_t>(
                    quantileWithCount(cells, 0.9).beyond));
        w.field("host_factor", factors.phase(true));
        w.field("host_factor_setup", factors.phase(false));
        double wall_raw_s = 0.0;
        for (const CellTime &c : r.cells)
            wall_raw_s += c.ms / 1e3;
        w.field("wall_s_raw", wall_raw_s);
        w.key("setup_s_raw");
        w.beginArray();
        for (const SetUpTime &s : r.setUps)
            w.value(s.seconds);
        w.endArray();
        w.key("first_pass");
        w.beginObject();
        for (const auto &[kind, d] : r.firstPass)
            w.field(kind, d);
        w.endObject();
        w.key("run_info");
        w.beginObject();
        w.field("build_type", PERFBENCH_BUILD_TYPE);
        w.field("compiler", kCompiler);
        w.field("simd", contig::simd::modeName(contig::simd::enabled()));
        w.field("nproc", static_cast<std::uint64_t>(
                             std::thread::hardware_concurrency()));
        w.field("commit", commit);
        w.field("kernel_threads", 1);
        w.field("replay_threads", 1);
        w.endObject();
        writeMetrics(w, "end_to_end", endToEndMetrics(r));
        writeMetrics(w, "per_layer", layerMetrics(r));
        w.endObject();
        std::printf("%s\n", std::move(w).str().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    return 0;
}
