#include "runner.hh"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/json.hh"
#include "probe.hh"

namespace perfbench
{

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

RunResult
runBench(const RunOptions &opts)
{
    RunResult res(opts.traced);
    Recorder &rec = res.rec;
    std::unique_ptr<BenchWorkload> wl =
        makeWorkload(opts.workload, opts.seed, opts.size, opts.workDir);
    res.kinds = wl->kinds();
    res.populatesInSetUp = wl->populatesInSetUp();
    res.accessesAreTouches = wl->accessesAreTouches();

    const std::size_t n = res.kinds.size();
    std::vector<std::optional<std::uint64_t>> ref(n);
    if (!opts.expected.empty()) {
        for (std::size_t k = 0; k < n; ++k) {
            auto it = opts.expected.find(res.kinds[k]);
            if (it != opts.expected.end())
                ref[k] = std::stoull(it->second, nullptr, 16);
        }
    }

    auto check = [&](std::size_t kind, std::uint64_t got) {
        ++res.attempted;
        const std::size_t twin = wl->twinOf(kind);
        if (opts.expected.empty() && !ref[twin])
            ref[twin] = got;
        if (ref[twin] == got)
            return;
        ++res.failed;
        res.failures.push_back(
            res.kinds[kind] + ": digest " + hexDigest(got) + ", want " +
            (ref[twin] ? hexDigest(*ref[twin]) : std::string("(none)")));
    };

    HostProbe probe;
    res.probeMs.push_back(0.0); // cell id 0: outside any cell
    // One probe after every cell, so every cell has probes close by.
    auto probeAfterCell = [&] {
        double ms = 0.0;
        rec.timed("bench.probe", [&] { ms = probe.run(); });
        res.probeMs.push_back(ms);
        return ms / 1e3;
    };

    for (std::size_t s = 0; s < opts.setups; ++s) {
        // The first set-up's warm-up pass supplies the simulated counts.
        rec.setCounting(s == 0);
        rec.setPhase(Phase::SetUp);
        const Clock::time_point t0 = Clock::now();
        double probe_s = 0.0;
        if (!wl)
            wl = makeWorkload(opts.workload, opts.seed, opts.size,
                              opts.workDir);
        wl->setUp(rec);
        std::uint32_t mid_cell = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t cell = rec.beginCell(res.kinds[k], false);
            const std::uint64_t d = wl->runCell(k, rec);
            rec.endCell();
            probe_s += probeAfterCell();
            check(k, d);
            if (s == 0)
                res.firstPass[res.kinds[k]] = hexDigest(d);
            if (k == n / 2)
                mid_cell = cell;
        }
        res.setUps.push_back({secondsSince(t0) - probe_s, mid_cell});
        if (s + 1 < opts.setups) {
            wl->tearDown(rec);
            wl.reset();
        }
    }

    rec.setCounting(false);
    rec.setPhase(Phase::Measured);
    for (std::size_t p = 0; p < opts.passes; ++p) {
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t cell = rec.beginCell(res.kinds[k], true);
            const std::uint64_t d = wl->runCell(k, rec);
            res.cells.push_back({cell, rec.endCell()});
            probeAfterCell();
            check(k, d);
        }
    }
    rec.setPhase(Phase::SetUp);
    wl->tearDown(rec);
    return res;
}

HostFactors
hostFactors(const RunResult &r)
{
    return HostFactors(r.probeMs, r.rec.cellMeasured(),
                       HostProbe::kNominalMs);
}

namespace
{

/** Host-speed-normalized time of a call. */
double
normMs(const Call &c, const HostFactors &f)
{
    return c.ms / f.of(c.cell);
}

/**
 * Work per normalized host second over `calls`: one call of each
 * group, each taking the median normalized time of its group's calls.
 */
double
rate(const std::vector<Call> &calls, const HostFactors &f)
{
    std::map<std::string, std::pair<std::vector<double>,
                                    std::vector<double>>> groups;
    for (const Call &c : calls) {
        auto &[ms, units] = groups[c.group];
        ms.push_back(normMs(c, f));
        units.push_back(c.units);
    }
    double units = 0.0;
    double ms = 0.0;
    for (auto &[name, g] : groups) {
        ms += median(g.first);
        units += median(g.second);
    }
    return ratio(units, ms / 1e3);
}

} // namespace

contig::Percentiles
cellMs(const RunResult &r, const HostFactors &f)
{
    contig::Percentiles p;
    for (const CellTime &c : r.cells)
        p.add(c.ms / f.of(c.cell));
    return p;
}

std::map<std::string, double>
endToEndMetrics(RunResult &r)
{
    const Recorder &rec = r.rec;
    const HostFactors f = hostFactors(r);
    contig::Percentiles cells = cellMs(r, f);
    double wall_ms = 0.0;
    for (const CellTime &c : r.cells)
        wall_ms += c.ms / f.of(c.cell);
    std::vector<double> setup_s;
    for (const SetUpTime &s : r.setUps)
        setup_s.push_back(s.seconds / f.of(s.midCell));
    const std::vector<Call> &acc = rec.calls(
        Phase::Measured,
        r.accessesAreTouches ? "e2e.touches" : "e2e.accesses");
    const std::vector<Call> &pages = rec.calls(
        r.populatesInSetUp ? Phase::SetUp : Phase::Measured, "e2e.pages");
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"wall_s", wall_ms / 1e3},
        {"setup_s", median(setup_s)},
        {"accesses_per_s", rate(acc, f)},
        {"pages_per_s", rate(pages, f)},
        {"cell_ms_p50", quantileWithCount(cells, 0.5).value},
        {"cell_ms_p90", quantileWithCount(cells, 0.9).value},
        {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0 -
                             HostProbe::residentMiB()},
    };
}

std::map<std::string, double>
layerMetrics(RunResult &r)
{
    const Recorder &rec = r.rec;
    const HostFactors f = hostFactors(r);
    auto med = [&](std::string_view key) {
        std::vector<double> ms;
        for (const Call &c : rec.allCalls(key))
            ms.push_back(normMs(c, f));
        return median(ms);
    };
    auto perUnit = [&](std::string_view key, double scale) {
        std::vector<double> v;
        for (const Call &c : rec.allCalls(key))
            if (c.units > 0)
                v.push_back(normMs(c, f) / c.units * scale);
        return median(v);
    };
    auto count = [&](std::string_view key) {
        auto it = rec.counts().find(key);
        return it == rec.counts().end() ? 0.0 : it->second;
    };

    std::map<std::string, double> m{
        {"phys.construct_ms", med("phys.construct")},
        {"phys.destroy_ms", med("phys.destroy")},
        {"policies.hog_ms", med("policies.hog")},
        {"mm.populate_ms", med("mm.populate")},
        {"mm.teardown_ms", med("mm.teardown")},
        {"mm.faults", count("mm.faults")},
        {"mm.pages", count("mm.pages")},
        {"virt.construct_ms", med("virt.construct")},
        {"virt.populate_ms", med("virt.populate")},
        {"virt.us_per_page", perUnit("virt.populate", 1e3)},
        {"reclaim.populate_ms", med("reclaim.populate")},
        {"reclaim.efficiency",
         ratio(count("reclaim.reclaimed"), count("reclaim.scans"))},
        {"contig.coverage_ms", med("contig.coverage")},
        {"workloads.synth_ns_per_access",
         perUnit("workloads.synth", 1e6)},
        {"workloads.decode_ns_per_access",
         perUnit("workloads.decode", 1e6)},
        {"tlb.l2_hit_ratio",
         ratio(count("tlb.l2_hits"),
               count("tlb.accesses") - count("tlb.l1_hits"))},
        {"spot.accuracy",
         ratio(count("spot.correct"),
               count("spot.correct") + count("spot.mispredicted"))},
        {"bench.cells", static_cast<double>(r.cells.size())},
    };
    for (const char *p : {"4k", "thp", "ca", "eager", "ingens", "ranger"})
        m[std::string("mm.us_per_page.") + p] =
            perUnit(std::string("mm.us_per_page.") + p, 1e3);
    for (const char *c : {"scans", "reclaimed", "swap_outs", "refaults",
                          "thp_splits", "direct", "targeted",
                          "kswapd_runs"})
        m[std::string("reclaim.") + c] =
            count(std::string("reclaim.") + c);
    for (const char *k : {"native_base", "virt_base", "virt_spot",
                          "virt_rmm", "virt_ds", "trace_spot",
                          "native_spot"})
        m[std::string("tlb.ns_per_access.") + k] =
            perUnit(std::string("tlb.") + k, 1e6);
    const double walks_per_s = rate(rec.allCalls("tlb.walk"), f);
    m["tlb.ns_per_walk"] = walks_per_s > 0 ? 1e9 / walks_per_s : 0.0;
    for (const char *c : {"tlb.accesses", "tlb.walks", "tlb.walk_refs",
                          "ranges.hits", "ds.segment_hits"})
        m[c] = count(c);

    const Ledger led =
        measuredLedger(rec.spans(), rec.cellMeasured(), &f);
    for (const char *layer : {"phys", "policies", "mm", "virt", "reclaim",
                              "contig", "workloads", "tlb"}) {
        auto it = led.selfMs.find(layer);
        m[std::string(layer) + ".self_ms"] =
            it == led.selfMs.end() ? 0.0 : it->second;
    }
    m["ledger.residual_share"] = ratio(led.residualMs, led.cellMs);
    return m;
}

std::optional<std::map<std::string, std::string>>
loadExpected(const std::string &path, const std::string &size_name,
             const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    const std::optional<contig::JsonValue> doc =
        contig::JsonValue::parse(text.str(), &err);
    if (!doc)
        throw std::runtime_error(path + ": " + err);
    const contig::JsonValue *size = doc->find(size_name);
    const contig::JsonValue *wl = size ? size->find(workload) : nullptr;
    if (!wl || !wl->isObject())
        return std::nullopt;
    std::map<std::string, std::string> out;
    for (const auto &[kind, digest] : wl->members()) {
        if (!digest.isString())
            throw std::runtime_error(path + ": digest of " + kind +
                                     " is not a string");
        out[kind] = digest.asString();
    }
    return out;
}

} // namespace perfbench
