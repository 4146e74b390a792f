#include "mm/kernel.hh"

#include <algorithm>

#include "base/align.hh"
#include "base/logging.hh"
#include "obs/observatory.hh"
#include "obs/trace.hh"
#include "base/serialize.hh"

namespace contig
{

namespace
{
unsigned defaultNumaShards_ = 0;
} // namespace

void
KernelConfig::setDefaultNumaShards(unsigned n)
{
    defaultNumaShards_ = n;
}

unsigned
KernelConfig::defaultNumaShards()
{
    return defaultNumaShards_;
}

KernelConfig
Kernel::normalized(KernelConfig cfg)
{
    // threads > 1 arms one pcp frame cache per worker unless the
    // caller pinned the geometry explicitly. threads == 1 leaves
    // pcpCpus alone (0 by default: order-0 allocations go straight to
    // the buddy, exactly the pre-threading behaviour).
    if (cfg.threads > 1 && cfg.phys.zone.pcpCpus == 0) {
        // Reclaim kernels add one slot for the kswapd thread so its
        // frees never alias a fault worker's cache.
        cfg.phys.zone.pcpCpus =
            cfg.threads + (cfg.reclaimEnabled ? 1 : 0);
    }
    // Fan the pressure knobs out to the zones (watermarks, LRU lists,
    // the free-page gauge all live there).
    cfg.phys.zone.reclaim = cfg.reclaimEnabled;
    cfg.phys.zone.watermarkScale = cfg.watermarkScale;
    // Metadata sharding: the zones stripe their contiguity map and
    // top-order free list the same number of ways as the kernel pool.
    // --numa-shards sets the process-wide default before kernels are
    // built; a caller that pinned the knob explicitly wins.
    if (cfg.numaShards == 0)
        cfg.numaShards = KernelConfig::defaultNumaShards();
    cfg.phys.zone.numaShards = cfg.numaShards;
    // --lock-stats flips the process-wide switch before kernels are
    // built; fold it into the per-instance knob so every kernel in
    // the run (host, guest, scratch instances in benches) is armed
    // without touching each construction site.
    if (LockStatsRegistry::enabled())
        cfg.lockStats = true;
    cfg.phys.zone.lockStats = cfg.lockStats;
    return cfg;
}

Kernel::Kernel(const KernelConfig &cfg,
               std::unique_ptr<AllocationPolicy> policy)
    : cfg_(normalized(cfg)), physMem_(cfg_.phys), policy_(std::move(policy)),
      pool_(cfg_.numaShards > 1 ? cfg_.numaShards : 1)
{
    contig_assert(policy_ != nullptr, "kernel needs an allocation policy");
    if (cfg_.lockStats) {
        // Kernel instances share sites by role (like-named metrics
        // merge the same way); per-zone sites are bound by Zone.
        LockStatsRegistry &ls = LockStatsRegistry::global();
        mmSite_ = &ls.site("mm");
        vmaFaultSite_ = &ls.site("vma.fault");
        pageCacheLock_.bindStats(&ls.site("page_cache"));
        // A single-shard pool keeps the historical "pool" site name;
        // sharded pools get one site per shard.
        if (pool_.size() == 1) {
            pool_[0].lock.bindStats(&ls.site("pool"));
        } else {
            for (std::size_t i = 0; i < pool_.size(); ++i) {
                pool_[i].lock.bindStats(
                    &ls.site("pool" + std::to_string(i)));
            }
        }
        counterLock_.bindStats(&ls.site("counters"));
        LockStatsRegistry::setOffsetRingSite(&ls.site("vma.offset_ring"));
    }
    engine_ = std::make_unique<FaultEngine>(*this);
    if (cfg_.reclaimEnabled) {
        reclaim_ = std::make_unique<ReclaimEngine>(*this);
        reclaim_->startKswapd();
    }
    metricSource_ = obs::MetricSource(
        obs::MetricRegistry::global(), cfg_.metricsPrefix,
        [this](obs::MetricSink &sink) { collectMetrics(sink); });

    // Reproducibility record: the full knob set of every kernel
    // instantiated during a run ends up in the bench JSON config
    // block (config.run), keyed by the metrics prefix so host and
    // guest kernels stay distinguishable.
    obs::RunInfo &ri = obs::RunInfo::global();
    const std::string p = cfg_.metricsPrefix + ".";
    ri.count(p + "instances");
    ri.note(p + "thp_enabled", cfg_.thpEnabled);
    ri.note(p + "fault_base_cycles", cfg_.faultBaseCycles);
    ri.note(p + "zero_cycles_per_page", cfg_.zeroCyclesPerPage);
    ri.note(p + "copy_cycles_per_page", cfg_.copyCyclesPerPage);
    ri.note(p + "cycles_per_us", cfg_.cyclesPerUs);
    ri.note(p + "tick_period_faults", cfg_.tickPeriodFaults);
    ri.note(p + "page_table_levels",
            static_cast<std::uint64_t>(cfg_.pageTableLevels));
    ri.note(p + "fault_batching", cfg_.faultBatching);
    ri.note(p + "fault_stage_timers", cfg_.faultStageTimers);
    ri.note(p + "obs_sample_period_faults", cfg_.obsSamplePeriodFaults);
    ri.note(p + "phys.bytes_per_node", cfg_.phys.bytesPerNode);
    ri.note(p + "phys.num_nodes",
            static_cast<std::uint64_t>(cfg_.phys.numNodes));
    ri.note(p + "phys.max_order",
            static_cast<std::uint64_t>(cfg_.phys.zone.maxOrder));
    ri.note(p + "phys.sorted_top_list", cfg_.phys.zone.sortedTopList);
    ri.note(p + "phys.scramble_seed", cfg_.phys.zone.scrambleSeed);
    ri.note(p + "threads", static_cast<std::uint64_t>(cfg_.threads));
    ri.note(p + "phys.pcp_cpus",
            static_cast<std::uint64_t>(cfg_.phys.zone.pcpCpus));
    ri.note(p + "phys.pcp_batch",
            static_cast<std::uint64_t>(cfg_.phys.zone.pcpBatch));
    ri.note(p + "phys.pcp_high",
            static_cast<std::uint64_t>(cfg_.phys.zone.pcpHigh));
    ri.note(p + "lock_stats", cfg_.lockStats);
    // Sharding recorded only when armed so unsharded runs keep their
    // pre-sharding config block (and the committed goldens).
    if (cfg_.numaShards > 1) {
        ri.note(p + "numa_shards",
                static_cast<std::uint64_t>(cfg_.numaShards));
    }
    // Pressure knobs are recorded only when the path is armed so
    // reclaim-off runs keep their pre-reclaim config block (and stay
    // byte-identical to the committed goldens).
    if (cfg_.reclaimEnabled) {
        ri.note(p + "reclaim_enabled", cfg_.reclaimEnabled);
        ri.note(p + "kswapd_enabled", cfg_.kswapdEnabled);
        ri.note(p + "contig_aware_reclaim", cfg_.contigAwareReclaim);
        ri.note(p + "watermark_scale", cfg_.watermarkScale);
        ri.note(p + "swap.out_cycles_per_page", cfg_.swapCost.outCyclesPerPage);
        ri.note(p + "swap.in_cycles_per_page", cfg_.swapCost.inCyclesPerPage);
        ri.note(p + "swap.cache_hit_cycles", cfg_.swapCost.cacheHitCycles);
        ri.note(p + "swap.cache_pages", cfg_.swapCost.cachePages);
    }
}

void
Kernel::incCounter(std::string_view name, std::uint64_t by)
{
    MaybeGuard<SpinLock> g(counterLock_, threaded());
    counters_.inc(name, by);
}

void
Kernel::collectMetrics(obs::MetricSink &sink) const
{
    const FaultStats &fs = engine_->stats();
    sink.counter("faults", fs.faults);
    sink.counter("huge_faults", fs.hugeFaults);
    sink.counter("base_faults", fs.baseFaults);
    sink.counter("cow_faults", fs.cowFaults);
    sink.counter("file_faults", fs.fileFaults);
    sink.counter("fault_cycles", fs.totalCycles);
    if (fs.latencyUs.count()) {
        // quantile() sorts lazily; work on a copy to stay const.
        Percentiles lat = fs.latencyUs;
        sink.gauge("fault_latency_us.p50", lat.quantile(0.50));
        sink.gauge("fault_latency_us.p95", lat.quantile(0.95));
        sink.gauge("fault_latency_us.p99", lat.quantile(0.99));
    }
    engine_->collectMetrics(sink);
    sink.gauge("kernel_pool_pages",
               static_cast<double>(kernelPoolPages()));
    sink.gauge("processes", static_cast<double>(processes_.size()));

    for (const auto &[name, v] : counters_.all())
        sink.counter(name, v);

    // Per-zone allocator state merges into one "buddy." / one
    // "contig_map." group (MetricSample::mergeFrom adds by name).
    for (unsigned n = 0; n < physMem_.numNodes(); ++n) {
        const Zone &zone = physMem_.zone(n);
        {
            obs::MetricSink::Scope s(sink, "buddy");
            zone.buddy().collectMetrics(sink);
        }
        {
            obs::MetricSink::Scope s(sink, "contig_map");
            zone.contigMap().collectMetrics(sink);
        }
    }

    {
        obs::MetricSink::Scope s(sink, "policy");
        policy_->collectMetrics(sink);
        policy_->collectFailMetrics(sink);
    }

    if (reclaim_) {
        obs::MetricSink::Scope s(sink, "reclaim");
        reclaim_->collectMetrics(sink);
    }
}

Kernel::~Kernel()
{
    // Quiesce kswapd before tearing anything down: it walks processes
    // and zones under the mm lock.
    if (reclaim_)
        reclaim_->stop();
    // Destroy processes before the kernel pool and physical memory:
    // their page-table destructors return node frames via
    // freeKernelFrame().
    processes_.clear();
}

Process &
Kernel::createProcess(const std::string &name, NodeId home_node)
{
    contig_assert(home_node < physMem_.numNodes(), "bad home node");
    MaybeGuard<std::shared_mutex> g(mmLock_, threaded(), mmSite_);
    processes_.push_back(
        std::make_unique<Process>(*this, nextPid_++, name, home_node));
    return *processes_.back();
}

void
Kernel::exitProcess(Process &proc)
{
    MaybeGuard<std::shared_mutex> g(mmLock_, threaded(), mmSite_);
    // Tear down every VMA (policy hook + page release).
    std::vector<Vma *> vmas;
    proc.addressSpace().forEachVma([&](Vma &vma) { vmas.push_back(&vma); });
    for (Vma *vma : vmas)
        munmapLocked(proc, *vma);

    auto it = std::find_if(processes_.begin(), processes_.end(),
                           [&](const auto &p) { return p.get() == &proc; });
    contig_assert(it != processes_.end(), "exit of unknown process");
    processes_.erase(it);

    // With the caches quiesced, return every pcp-held frame to the
    // buddy so post-run free-list audits see the true allocator state.
    if (threaded())
        physMem_.drainPcpCaches();
}

Process *
Kernel::findProcess(std::uint32_t pid)
{
    for (auto &p : processes_)
        if (p->pid() == pid)
            return p.get();
    return nullptr;
}

File &
Kernel::createFile(std::uint64_t size_pages)
{
    return pageCache_.createFile(size_pages);
}

void
Kernel::dropCaches()
{
    MaybeGuard<SpinLock> g(pageCacheLock_, threaded());
    pageCache_.dropCaches(*this);
}

void
Kernel::readFile(File &file, std::uint64_t page_start,
                 std::uint64_t n_pages)
{
    engine_->readFile(file, page_start, n_pages);
}

Vma &
Kernel::mmapAnon(Process &proc, std::uint64_t bytes)
{
    MaybeGuard<std::shared_mutex> g(mmLock_, threaded(), mmSite_);
    Vma &vma = proc.addressSpace().mmap(bytes, VmaKind::Anon);
    vma.faultLock().bindStats(vmaFaultSite_);
    if (threaded()) {
        // Pre-create the interior page-table nodes so concurrent
        // faults never race on node creation (leaf slots are distinct
        // per fault; interior spines are shared).
        const Vpn s = vma.start().pageNumber();
        proc.pageTable().ensureSpine(s, s + vma.pages());
    }
    policy_->onMmap(*this, proc, vma);
    return vma;
}

Vma &
Kernel::mmapFile(Process &proc, std::uint32_t file_id, std::uint64_t bytes,
                 std::uint64_t file_offset_pages)
{
    MaybeGuard<std::shared_mutex> g(mmLock_, threaded(), mmSite_);
    Vma &vma = proc.addressSpace().mmap(bytes, VmaKind::File, std::nullopt,
                                        file_id, file_offset_pages);
    vma.faultLock().bindStats(vmaFaultSite_);
    if (threaded()) {
        const Vpn s = vma.start().pageNumber();
        proc.pageTable().ensureSpine(s, s + vma.pages());
    }
    policy_->onMmap(*this, proc, vma);
    return vma;
}

void
Kernel::unmapVmaPages(Process &proc, Vma &vma)
{
    const Vpn start = vma.start().pageNumber();
    proc.pageTable().unmapRange(
        start, start + vma.pages(), [&](Vpn, const Mapping &m) {
            const std::uint64_t n = pagesInOrder(m.order);
            for (std::uint64_t i = 0; i < n; ++i)
                --physMem_.frame(m.pfn + i).mapCount;
            putFrame(m.pfn, m.order);
        });
}

void
Kernel::munmap(Process &proc, Vma &vma)
{
    MaybeGuard<std::shared_mutex> g(mmLock_, threaded(), mmSite_);
    munmapLocked(proc, vma);
}

void
Kernel::munmapLocked(Process &proc, Vma &vma)
{
    policy_->onMunmap(*this, proc, vma);
    unmapVmaPages(proc, vma);
    if (reclaim_) {
        reclaim_->dropVmaRange(proc.pid(), vma.start().pageNumber(),
                               vma.pages());
    }
    proc.addressSpace().munmap(vma);
}

void
Kernel::claimFrames(Pfn pfn, unsigned order, FrameOwner kind,
                    std::uint32_t owner_id, Addr owner_vaddr)
{
    // The claimer owns the block (it came off the buddy under the zone
    // lock), so plain relaxed stores suffice here.
    const std::uint64_t n = pagesInOrder(order);
    for (std::uint64_t i = 0; i < n; ++i) {
        Frame &f = physMem_.frame(pfn + i);
        f.ownerKind = kind;
        f.ownerId = owner_id;
        f.ownerVaddr = owner_vaddr + i * kPageSize;
        f.refCount.store(0, std::memory_order_relaxed);
        f.mapCount.store(0, std::memory_order_relaxed);
    }
    physMem_.frame(pfn).refCount.store(1, std::memory_order_relaxed);
    if (reclaim_)
        reclaim_->onClaim(pfn, order, kind);
    CONTIG_TRACE(obs::TraceEventKind::Alloc, pfn, order, owner_id);
    if (backingHook)
        backingHook(pfn, order);
}

void
Kernel::getFrame(Pfn pfn)
{
    physMem_.frame(pfn).refCount.fetch_add(1, std::memory_order_relaxed);
}

void
Kernel::putFrame(Pfn pfn, unsigned order)
{
    Frame &f = physMem_.frame(pfn);
    // acq_rel: the releasing thread's stores must be visible to
    // whoever observes the zero and recycles the block.
    const auto old = f.refCount.fetch_sub(1, std::memory_order_acq_rel);
    contig_assert(old > 0, "putFrame on unreferenced frame");
    if (old == 1) {
        const std::uint64_t n = pagesInOrder(order);
        for (std::uint64_t i = 0; i < n; ++i) {
            Frame &g = physMem_.frame(pfn + i);
            g.ownerKind = FrameOwner::None;
            g.ownerId = kNoOwner;
            g.ownerVaddr = 0;
        }
        if (reclaim_)
            reclaim_->onFree(pfn);
        physMem_.free(pfn, order);
    }
}

Kernel::PoolShard &
Kernel::myPoolShard()
{
    return pool_[ThisCpu::id() % pool_.size()];
}

bool
Kernel::refillPoolLocked(PoolShard &shard, NodeId node)
{
    if (auto blk = physMem_.alloc(kKernelPoolOrder, node)) {
        claimFrames(*blk, kKernelPoolOrder, FrameOwner::PageTable,
                    kNoOwner, 0);
        const std::uint64_t n = pagesInOrder(kKernelPoolOrder);
        kernelPoolPages_.fetch_add(n, std::memory_order_relaxed);
        // Hand out ascending: push descending.
        for (std::uint64_t i = n; i > 0; --i)
            shard.pfns.push_back(*blk + i - 1);
        return true;
    }
    if (auto single = physMem_.alloc(0, node)) {
        // Memory too fragmented for a chunk: fall back to one page.
        claimFrames(*single, 0, FrameOwner::PageTable, kNoOwner, 0);
        kernelPoolPages_.fetch_add(1, std::memory_order_relaxed);
        shard.pfns.push_back(*single);
        return true;
    }
    return false;
}

Pfn
Kernel::allocKernelFrame(NodeId node)
{
    PoolShard &home = myPoolShard();
    for (int attempt = 0; attempt < 4; ++attempt) {
        {
            MaybeGuard<SpinLock> g(home.lock, threaded());
            if (!home.pfns.empty() || refillPoolLocked(home, node)) {
                Pfn pfn = home.pfns.back();
                home.pfns.pop_back();
                return pfn;
            }
        }
        // The buddy is dry: raid the other shards' spare frames
        // before escalating (frames freed by workers on other lanes
        // accumulate there).
        for (PoolShard &other : pool_) {
            if (&other == &home)
                continue;
            MaybeGuard<SpinLock> g(other.lock, threaded());
            if (!other.pfns.empty()) {
                Pfn pfn = other.pfns.back();
                other.pfns.pop_back();
                return pfn;
            }
        }
        // Page-table allocations have no failure path of their own, so
        // under overcommit the empty pool escalates to direct reclaim.
        // The pool lock must be dropped first: reclaim's unmaps free
        // empty page-table nodes back through freeKernelFrame, which
        // takes it.
        if (!reclaim_ ||
            reclaim_->directReclaim(node,
                                    pagesInOrder(kKernelPoolOrder))
                    .freed == 0) {
            break;
        }
    }
    fatal("out of memory allocating a kernel (page-table) frame");
}

void
Kernel::freeKernelFrame(Pfn pfn)
{
    // Node frames return to the pool, not to the buddy allocator —
    // matching the sticky behaviour of per-CPU lists.
    PoolShard &home = myPoolShard();
    MaybeGuard<SpinLock> g(home.lock, threaded());
    home.pfns.push_back(pfn);
}

void
Kernel::touch(Process &proc, Gva gva, Access access)
{
    engine_->touch(proc, gva, access);
}

void
Kernel::forkInto(Process &parent, Process &child)
{
    MaybeGuard<std::shared_mutex> g(mmLock_, threaded(), mmSite_);
    // Clone anonymous VMAs COW-style.
    parent.addressSpace().forEachVma([&](Vma &pvma) {
        if (pvma.kind() != VmaKind::Anon)
            return;
        Vma &cvma = child.addressSpace().mmap(
            pvma.bytes(), VmaKind::Anon, pvma.start());
        cvma.faultLock().bindStats(vmaFaultSite_);
        if (threaded()) {
            const Vpn s = cvma.start().pageNumber();
            child.pageTable().ensureSpine(s, s + cvma.pages());
        }
        engine_->shareCowRange(parent, child, pvma, cvma);
    });
}


void
Kernel::saveState(Serializer &s) const
{
    const std::size_t sec = s.beginSection(sectionTag('K', 'E', 'R', 'N'));
    s.u64(now());
    const FaultStats &fs = faultStats();
    s.u64(fs.faults);
    s.u64(fs.hugeFaults);
    s.u64(fs.baseFaults);
    s.u64(fs.cowFaults);
    s.u64(fs.fileFaults);
    s.u64(fs.totalCycles);
    s.u64(fs.latencyUs.count());
    const CounterSet::Map &counters = counters_.all();
    s.u64(counters.size());
    for (const auto &[name, value] : counters) {
        s.str(name);
        s.u64(value);
    }
    s.u64(kernelPoolPages());
    physMem_.saveState(s);
    s.u64(processes_.size());
    for (const auto &p : processes_) {
        s.u32(p->pid());
        s.str(p->name());
        p->addressSpace().saveState(s);
    }
    s.endSection(sec);
}

} // namespace contig
