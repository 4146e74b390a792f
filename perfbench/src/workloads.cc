#include "workloads.hh"

#include <array>
#include <filesystem>
#include <stdexcept>

#include "core/experiment.hh"
#include "mm/kernel.hh"
#include "mm/reclaim.hh"
#include "tlb/replay.hh"
#include "workloads/ctrace.hh"

namespace perfbench
{

using namespace contig;

namespace
{

constexpr std::uint64_t kMiB = 1ull << 20;

// --- digests and counts ------------------------------------------------

void
fold(Digest &d, const CoverageMetrics &m)
{
    d.add(m.totalPages);
    d.add(m.mappings);
    d.add(m.cov32);
    d.add(m.cov128);
    d.add(m.mappingsFor99);
}

void
fold(Digest &d, const ContigRunResult &r)
{
    fold(d, r.avg);
    fold(d, r.final);
    d.add(r.faults);
    d.add(r.migratedPages);
    d.add(r.shootdowns);
    d.add(r.allocatedPages);
    d.add(r.touchedPages);
    d.add(r.swCycles);
}

void
fold(Digest &d, const XlatStats &s)
{
    d.add(s.accesses);
    d.add(s.l1Hits);
    d.add(s.l2Hits);
    d.add(s.walks);
    d.add(s.walkRefs);
    d.add(static_cast<std::uint64_t>(s.walkCycles));
    d.add(static_cast<std::uint64_t>(s.exposedCycles));
    d.add(s.spotCorrect);
    d.add(s.spotMispredicted);
    d.add(s.spotNoPrediction);
    d.add(s.rangeHits);
    d.add(s.segmentHits);
}

void
fold(Digest &d, const ReclaimStats &s)
{
    for (const std::atomic<std::uint64_t> *a :
         {&s.scans, &s.rotations, &s.deactivations, &s.reclaimed,
          &s.swapOuts, &s.refaults, &s.swapCacheHits, &s.thpSplits,
          &s.pagecacheReclaimed, &s.kswapdWakes, &s.kswapdRuns,
          &s.directReclaims, &s.targetedReclaims, &s.directCycles,
          &s.kswapdCycles, &s.lowHits, &s.minHits, &s.pinnedSkips,
          &s.busySkips})
        d.add(a->load());
}

void
countXlat(Recorder &rec, const XlatStats &s)
{
    rec.count("tlb.accesses", s.accesses);
    rec.count("tlb.l1_hits", s.l1Hits);
    rec.count("tlb.l2_hits", s.l2Hits);
    rec.count("tlb.walks", s.walks);
    rec.count("tlb.walk_refs", s.walkRefs);
    rec.count("spot.correct", s.spotCorrect);
    rec.count("spot.mispredicted", s.spotMispredicted);
    rec.count("ranges.hits", s.rangeHits);
    rec.count("ds.segment_hits", s.segmentHits);
}

/** Every replay knob pinned: one thread, default chunk, batched. */
XlatReplayOpts
pinnedReplay()
{
    XlatReplayOpts o;
    o.threads = 1;
    o.chunkAccesses = 0;
    o.memo = true;
    o.engine = XlatEngine::Batched;
    return o;
}

/** Tally one translation call into the layer and end-to-end keys. */
void
tallyReplay(Recorder &rec, const std::string &key, double ms,
            const XlatStats &s)
{
    const auto accesses = static_cast<double>(s.accesses);
    rec.tally("tlb." + key, ms, accesses);
    rec.tally("tlb.walk", ms, static_cast<double>(s.walks));
    rec.tally("e2e.accesses", ms, accesses);
}

/**
 * Tally one populate call; `layer` is mm, virt or reclaim, and
 * `group` names the call when it is made outside a cell.
 */
void
tallyPopulate(Recorder &rec, const std::string &layer, double ms,
              std::uint64_t pages, std::uint64_t faults,
              std::string_view group = {})
{
    rec.tally(layer + ".populate", ms, static_cast<double>(pages), group);
    rec.tally("e2e.pages", ms, static_cast<double>(pages), group);
    rec.count("mm.faults", static_cast<double>(faults));
    rec.count("mm.pages", static_cast<double>(pages));
}

/** Key of a policy in metric names. */
std::string
policyKey(PolicyKind k)
{
    switch (k) {
      case PolicyKind::Base4k: return "4k";
      case PolicyKind::Thp: return "thp";
      case PolicyKind::Ca: return "ca";
      case PolicyKind::Eager: return "eager";
      case PolicyKind::Ingens: return "ingens";
      case PolicyKind::Ranger: return "ranger";
      case PolicyKind::Ideal: return "ideal";
    }
    throw std::logic_error("unknown policy");
}

// --- restartable paper workloads -----------------------------------------

/**
 * A populated paper workload whose steady-state stream can restart.
 * runTranslation continues a workload's stream where the previous
 * call left it; a replay cell instead draws from freshStream(): a new
 * generator at its initial cursors over this instance's mappings, so
 * every cell of a kind replays the same accesses.
 */
class Restartable
{
  public:
    virtual ~Restartable() = default;
    virtual Workload &workload() = 0;
    virtual std::unique_ptr<Workload> freshStream() const = 0;
};

template <class W>
class RestartableWorkload final : public W, public Restartable
{
  public:
    using W::W;

    Workload &workload() override { return *this; }

    std::unique_ptr<Workload>
    freshStream() const override
    {
        auto s = std::make_unique<RestartableWorkload>(this->cfg_);
        s->vmas_ = this->vmas_;
        s->proc_ = this->proc_;
        return s;
    }
};

std::unique_ptr<Restartable>
makeRestartable(std::string_view name, const WorkloadConfig &cfg)
{
    if (name == "pagerank")
        return std::make_unique<RestartableWorkload<PageRankWorkload>>(cfg);
    if (name == "svm")
        return std::make_unique<RestartableWorkload<SvmWorkload>>(cfg);
    throw std::invalid_argument("no restartable workload " +
                                std::string(name));
}

// --- xlat_replay ---------------------------------------------------------

class XlatReplay final : public BenchWorkload
{
  public:
    XlatReplay(std::uint64_t seed, const Size &size,
               const std::string &work_dir)
        : seed_(seed), size_(size),
          traceDir_(std::filesystem::path(work_dir) / "xlat_trace")
    {
        for (std::size_t w = 0; w < kWorkloads.size(); ++w)
            for (const Live &l : kLive)
                kinds_.push_back(std::string(kWorkloads[w]) + "/" +
                                 l.key);
        kinds_.push_back(std::string(kWorkloads[0]) + "/trace_spot");
    }

    const std::vector<std::string> &kinds() const override
    { return kinds_; }

    std::size_t
    twinOf(std::size_t kind) const override
    {
        // The trace was captured from the first workload's SpOT cell.
        return kind == traceKind() ? kSpotLive : kind;
    }

    bool populatesInSetUp() const override { return true; }

    void
    setUp(Recorder &rec) override
    {
        double ms = rec.timed("phys.construct", [&] {
            native_ = std::make_unique<NativeSystem>(PolicyKind::Thp,
                                                     seed_);
        });
        rec.tally("phys.construct", ms);
        for (auto [sys, kind] :
             {std::pair{&virtThp_, PolicyKind::Thp},
              std::pair{&virtCa_, PolicyKind::Ca}}) {
            ms = rec.timed("virt.construct", [&] {
                *sys = std::make_unique<VirtSystem>(kind, kind, seed_);
            });
            rec.tally("virt.construct", ms);
        }

        for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
            for (std::size_t s = 0; s < kSystems; ++s) {
                auto wl = makeRestartable(kWorkloads[w],
                                          {size_.scale, seed_});
                Kernel &kernel =
                    s == kNative ? native_->kernel()
                                 : (s == kVirtThp ? virtThp_ : virtCa_)
                                       ->guest();
                Process &proc = kernel.createProcess(kWorkloads[w]);
                const std::uint64_t faults0 = kernel.faultStats().faults;
                const std::string layer = s == kNative ? "mm" : "virt";
                ms = rec.timed(layer + ".populate",
                               [&] { wl->workload().setup(proc); });
                const std::uint64_t pages = proc.allocatedPages();
                tallyPopulate(rec, layer, ms, pages,
                              kernel.faultStats().faults - faults0,
                              std::string(kWorkloads[w]) + "/" +
                                  kSystemNames[s]);
                if (s == kNative)
                    rec.tally("mm.us_per_page.thp", ms,
                              static_cast<double>(pages));
                wls_[w][s] = std::move(wl);
            }
            // Access synthesis alone, into a private buffer.
            auto stream = wls_[w][kNative]->freshStream();
            std::vector<MemAccess> buf(size_.xlatAccesses);
            Rng rng(seed_);
            ms = rec.timed("workloads.synth", [&] {
                stream->fillAccesses(rng, buf.data(), buf.size());
            });
            rec.tally("workloads.synth", ms,
                      static_cast<double>(buf.size()));
        }

        // Capture the first workload's SpOT stream; the trace cell
        // replays it and must match its live twin.
        std::filesystem::remove_all(traceDir_);
        std::filesystem::create_directories(traceDir_);
        XlatReplayOpts opts = pinnedReplay();
        opts.traceOut = (traceDir_ / "spot").string();
        auto stream = wls_[0][kVirtCa]->freshStream();
        rec.timed("tlb.capture", [&] {
            runTranslation(*stream, &virtCa_->vm(), XlatScheme::Spot,
                           size_.xlatAccesses, seed_, opts);
        });
        std::filesystem::directory_iterator it(traceDir_);
        if (it == std::filesystem::directory_iterator())
            throw std::runtime_error("trace capture wrote no file");
        reader_ = std::make_unique<CtraceReader>(it->path().string());
    }

    std::uint64_t
    runCell(std::size_t kind, Recorder &rec) override
    {
        Digest d;
        if (kind == traceKind()) {
            const XlatStats s = replayTrace(rec);
            fold(d, s);
            countXlat(rec, s);
            return d.value();
        }
        const std::size_t w = kind / kLive.size();
        const Live &l = kLive[kind % kLive.size()];
        auto stream = wls_[w][l.system]->freshStream();
        XlatRunResult x;
        const double ms = rec.timed("tlb.translate", [&] {
            x = runTranslation(*stream, vm(l.system), l.scheme,
                               size_.xlatAccesses, seed_,
                               pinnedReplay());
        });
        tallyReplay(rec, l.key, ms, x.stats);
        fold(d, x.stats);
        countXlat(rec, x.stats);
        return d.value();
    }

    void
    tearDown(Recorder &rec) override
    {
        reader_.reset();
        std::filesystem::remove_all(traceDir_);
        for (auto &row : wls_)
            for (auto &wl : row)
                wl.reset();
        double ms = rec.timed("phys.destroy", [&] { native_.reset(); });
        rec.tally("phys.destroy", ms);
        for (auto *sys : {&virtThp_, &virtCa_}) {
            ms = rec.timed("phys.destroy", [&] { sys->reset(); });
            rec.tally("phys.destroy", ms);
        }
    }

  private:
    static constexpr std::array<const char *, 2> kWorkloads{"pagerank",
                                                            "svm"};
    static constexpr std::size_t kNative = 0;
    static constexpr std::size_t kVirtThp = 1;
    static constexpr std::size_t kVirtCa = 2;
    static constexpr std::size_t kSystems = 3;
    static constexpr std::array<const char *, kSystems> kSystemNames{
        "native_thp", "virt_thp", "virt_ca"};

    /** A live replay cell: which machine, which scheme (fig13). */
    struct Live
    {
        std::size_t system;
        XlatScheme scheme;
        const char *key;
    };
    static constexpr std::array<Live, 5> kLive{{
        {kNative, XlatScheme::Base, "native_base"},
        {kVirtThp, XlatScheme::Base, "virt_base"},
        {kVirtCa, XlatScheme::Spot, "virt_spot"},
        {kVirtCa, XlatScheme::Rmm, "virt_rmm"},
        {kVirtCa, XlatScheme::Ds, "virt_ds"},
    }};
    /** Kind index of the first workload's live SpOT cell. */
    static constexpr std::size_t kSpotLive = 2;

    std::size_t traceKind() const { return kinds_.size() - 1; }

    const VirtualMachine *
    vm(std::size_t system) const
    {
        if (system == kVirtThp)
            return &virtThp_->vm();
        if (system == kVirtCa)
            return &virtCa_->vm();
        return nullptr;
    }

    /** runTranslation's SpOT replay, fed chunk by chunk from the trace. */
    XlatStats
    replayTrace(Recorder &rec)
    {
        XlatConfig cfg;
        cfg.tlb = ScaledDefaults::tlb();
        cfg.walker = ScaledDefaults::walker();
        cfg.scheme = XlatScheme::Spot;
        cfg.spot = ScaledDefaults::spot();
        cfg.rangeTlb = ScaledDefaults::rangeTlb();
        cfg.walker.memoEnabled = true;
        cfg.engine = XlatEngine::Batched;
        const Process &proc = *wls_[0][kVirtCa]->workload().process();
        XlatStats stats;
        const double ms = rec.timed("tlb.translate", [&] {
            ReplayEngine engine(cfg, 1, proc.pageTable(), virtCa_->vm());
            for (std::uint64_t k = 0; k < reader_->chunkCount(); ++k) {
                std::size_t n = 0;
                const double dms = rec.timed("workloads.decode", [&] {
                    n = reader_->decodeChunk(k, chunk_);
                });
                rec.tally("workloads.decode", dms,
                          static_cast<double>(n));
                engine.replayChunk(chunk_.data(), n);
            }
            stats = engine.mergedStats();
        });
        tallyReplay(rec, "trace_spot", ms, stats);
        return stats;
    }

    std::uint64_t seed_;
    Size size_;
    std::filesystem::path traceDir_;
    std::vector<std::string> kinds_;
    std::unique_ptr<NativeSystem> native_;
    std::unique_ptr<VirtSystem> virtThp_;
    std::unique_ptr<VirtSystem> virtCa_;
    std::array<std::array<std::unique_ptr<Restartable>, kSystems>,
               kWorkloads.size()>
        wls_;
    std::unique_ptr<CtraceReader> reader_;
    std::vector<MemAccess> chunk_;
};

// --- fault_grid ----------------------------------------------------------

class FaultGrid final : public BenchWorkload
{
  public:
    FaultGrid(std::uint64_t seed, const Size &size)
        : seed_(seed), size_(size)
    {
        for (PolicyKind p : {PolicyKind::Base4k, PolicyKind::Thp,
                             PolicyKind::Ca, PolicyKind::Eager,
                             PolicyKind::Ingens, PolicyKind::Ranger})
            for (double hog : {0.0, 0.5})
                cells_.push_back({false, p, hog});
        for (PolicyKind p : {PolicyKind::Ca, PolicyKind::Thp})
            cells_.push_back({true, p, 0.0});
        for (const Cell &c : cells_) {
            const std::string p = policyName(c.policy);
            kinds_.push_back(c.virt ? "virt/" + p + "+" + p
                                    : "native/" + p + "/hog" +
                                          std::to_string(static_cast<int>(
                                              c.hog * 100)));
        }
    }

    const std::vector<std::string> &kinds() const override
    { return kinds_; }

    bool accessesAreTouches() const override { return true; }

    std::uint64_t
    runCell(std::size_t kind, Recorder &rec) override
    {
        const Cell &c = cells_[kind];
        auto wl = contig::makeWorkload(kWorkload, {size_.scale, seed_});
        ContigRunResult r;
        CoverageMetrics cov;
        double ms = 0.0;
        if (c.virt) {
            std::unique_ptr<VirtSystem> sys;
            ms = rec.timed("virt.construct", [&] {
                sys = std::make_unique<VirtSystem>(c.policy, c.policy,
                                                   seed_);
            });
            rec.tally("virt.construct", ms);
            ms = rec.timed("virt.populate", [&] { r = sys->run(*wl); });
            tallyPopulate(rec, "virt", ms, r.allocatedPages, r.faults);
            rec.tally("e2e.touches", ms,
                      static_cast<double>(r.touchedPages));
            ms = rec.timed("contig.coverage", [&] {
                cov = coverage(extract2d(*wl->process(), sys->vm()));
            });
            rec.tally("contig.coverage", ms);
            ms = rec.timed("mm.teardown", [&] { sys->finish(*wl); });
            rec.tally("mm.teardown", ms);
            ms = rec.timed("phys.destroy", [&] { sys.reset(); });
            rec.tally("phys.destroy", ms);
        } else {
            std::unique_ptr<NativeSystem> sys;
            ms = rec.timed("phys.construct", [&] {
                sys = std::make_unique<NativeSystem>(c.policy, seed_);
            });
            rec.tally("phys.construct", ms);
            if (c.hog > 0) {
                ms = rec.timed("policies.hog", [&] { sys->hog(c.hog); });
                rec.tally("policies.hog", ms);
            }
            ms = rec.timed("mm.populate", [&] { r = sys->run(*wl); });
            tallyPopulate(rec, "mm", ms, r.allocatedPages, r.faults);
            rec.tally("mm.us_per_page." + policyKey(c.policy), ms,
                      static_cast<double>(r.allocatedPages));
            rec.tally("e2e.touches", ms,
                      static_cast<double>(r.touchedPages));
            ms = rec.timed("contig.coverage", [&] {
                cov = coverage(extractSegs(wl->process()->pageTable()));
            });
            rec.tally("contig.coverage", ms);
            ms = rec.timed("mm.teardown", [&] { sys->finish(*wl); });
            rec.tally("mm.teardown", ms);
            ms = rec.timed("phys.destroy", [&] { sys.reset(); });
            rec.tally("phys.destroy", ms);
        }
        Digest d;
        fold(d, r);
        fold(d, cov);
        return d.value();
    }

  private:
    static constexpr const char *kWorkload = "pagerank";

    struct Cell
    {
        bool virt;
        PolicyKind policy;
        double hog;
    };

    std::uint64_t seed_;
    Size size_;
    std::vector<Cell> cells_;
    std::vector<std::string> kinds_;
};

// --- overcommit ----------------------------------------------------------

/**
 * fig_overcommit's working set: one anonymous region of 1.6x physical
 * memory swept once (evicting its head), then the hot quarter of
 * physical memory re-touched (refaults). The steady-state stream
 * stays in the hot prefix.
 */
class OvercommitSet final : public Workload
{
  public:
    OvercommitSet(const WorkloadConfig &cfg, std::uint64_t phys_bytes)
        : Workload(cfg), wsBytes_(phys_bytes + phys_bytes * 3 / 5),
          hotBytes_(phys_bytes / 4)
    {
        regions_.push_back({wsBytes_ + 8 * kMiB, wsBytes_});
    }

    std::string name() const override { return "overcommit"; }

    std::uint64_t hotBytes() const { return hotBytes_; }

    MemAccess
    nextAccess(Rng &rng) override
    {
        if (rng.chance(0.02))
            hot_ = rng.below(hotBytes_) & ~std::uint64_t{63};
        cursor_ += 64;
        if (rng.chance(0.75))
            return {0x400000, at(0, cursor_ % hotBytes_)};
        return {0x400040, at(0, hot_)};
    }

  protected:
    void
    touchPattern(Process &proc) override
    {
        proc.touchRange(base(0), wsBytes_);
        proc.touchRange(base(0), hotBytes_);
    }

  private:
    std::uint64_t wsBytes_;
    std::uint64_t hotBytes_;
    std::uint64_t cursor_ = 0;
    std::uint64_t hot_ = 0;
};

class Overcommit final : public BenchWorkload
{
  public:
    Overcommit(std::uint64_t seed, const Size &size)
        : seed_(seed), size_(size)
    {
        for (PolicyKind p : {PolicyKind::Ca, PolicyKind::Ranger})
            for (bool contig_aware : {false, true})
                cells_.push_back({p, contig_aware});
        for (const Cell &c : cells_)
            kinds_.push_back(policyName(c.policy) +
                             (c.contigAware ? "/contig" : "/lru"));
    }

    const std::vector<std::string> &kinds() const override
    { return kinds_; }

    std::uint64_t
    runCell(std::size_t kind, Recorder &rec) override
    {
        const Cell &c = cells_[kind];
        const std::uint64_t node_bytes = size_.overcommitNodeBytes;
        std::unique_ptr<NativeSystem> sys;
        double ms = rec.timed("phys.construct", [&] {
            sys = std::make_unique<NativeSystem>(
                c.policy, seed_, [&](KernelConfig &cfg) {
                    cfg.phys.bytesPerNode = node_bytes;
                    cfg.phys.numNodes = 2;
                    cfg.reclaimEnabled = true;
                    cfg.kswapdEnabled = true;
                    cfg.contigAwareReclaim = c.contigAware;
                });
        });
        rec.tally("phys.construct", ms);

        OvercommitSet wl({1.0, seed_}, 2 * node_bytes);
        ContigRunResult r;
        ms = rec.timed("reclaim.populate", [&] {
            r = sys->run(wl);
            // Daemon epochs may have evicted part of the hot set;
            // re-touch it so every replayed address is mapped.
            wl.process()->touchRange(wl.vmas()[0]->start(),
                                     wl.hotBytes());
        });
        Kernel &kernel = sys->kernel();
        const ReclaimStats &rs = kernel.reclaim()->stats();
        tallyPopulate(rec, "reclaim", ms,
                      wl.process()->allocatedPages() + rs.swapOuts.load(),
                      kernel.faultStats().faults);
        rec.count("reclaim.scans", rs.scans.load());
        rec.count("reclaim.reclaimed", rs.reclaimed.load());
        rec.count("reclaim.swap_outs", rs.swapOuts.load());
        rec.count("reclaim.refaults", rs.refaults.load());
        rec.count("reclaim.thp_splits", rs.thpSplits.load());
        rec.count("reclaim.direct", rs.directReclaims.load());
        rec.count("reclaim.targeted", rs.targetedReclaims.load());
        rec.count("reclaim.kswapd_runs", rs.kswapdRuns.load());

        XlatRunResult x;
        ms = rec.timed("tlb.translate", [&] {
            x = runTranslation(wl, nullptr, XlatScheme::Spot,
                               size_.overcommitAccesses, seed_,
                               pinnedReplay());
        });
        tallyReplay(rec, "native_spot", ms, x.stats);
        countXlat(rec, x.stats);

        Digest d;
        fold(d, r);
        fold(d, rs);
        fold(d, x.stats);

        ms = rec.timed("mm.teardown", [&] { sys->finish(wl); });
        rec.tally("mm.teardown", ms);
        ms = rec.timed("phys.destroy", [&] { sys.reset(); });
        rec.tally("phys.destroy", ms);
        return d.value();
    }

  private:
    struct Cell
    {
        PolicyKind policy;
        bool contigAware;
    };

    std::uint64_t seed_;
    Size size_;
    std::vector<Cell> cells_;
    std::vector<std::string> kinds_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"xlat_replay",
                                                "fault_grid",
                                                "overcommit"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(std::string_view name, std::uint64_t seed, const Size &size,
             const std::string &work_dir)
{
    if (name == "xlat_replay")
        return std::make_unique<XlatReplay>(seed, size, work_dir);
    if (name == "fault_grid")
        return std::make_unique<FaultGrid>(seed, size);
    if (name == "overcommit")
        return std::make_unique<Overcommit>(seed, size);
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
}

} // namespace perfbench
