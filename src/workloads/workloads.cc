#include "workloads/workloads.hh"

#include <algorithm>

#include "base/align.hh"
#include "base/logging.hh"
#include "mm/kernel.hh"

namespace contig
{

namespace
{

constexpr std::uint64_t kMiB = 1ull << 20;

/** Synthetic instruction addresses for the access-stream PCs. */
constexpr Addr
pc(unsigned idx)
{
    return 0x400000 + idx * 0x40;
}

/** All ones when `b`, else zero: the mask of a branch-free select. */
constexpr std::uint64_t
mask(bool b)
{
    return 0 - static_cast<std::uint64_t>(b);
}

/**
 * Advance a stream cursor by `step` when `on`, wrapping at `end`
 * (step < end, cursor < end): the cursor stays an in-region offset,
 * equal to the unbounded cursor modulo `end`, with no division.
 */
inline void
advance(std::uint64_t &cursor, std::uint64_t step, bool on,
        std::uint64_t end)
{
    cursor += step & mask(on);
    cursor -= end & mask(cursor >= end);
}

} // namespace

/**
 * A workload's one-access entry point: a fill of one, so the
 * generator body (the class's fillAccesses) exists once and a chunk
 * costs one virtual call.
 */
#define CONTIG_WORKLOAD_NEXT(W)                                        \
    MemAccess W::nextAccess(Rng &rng)                                  \
    {                                                                  \
        MemAccess a;                                                   \
        W::fillAccesses(rng, &a, 1);                                   \
        return a;                                                      \
    }

void
Workload::setup(Process &proc)
{
    contig_assert(proc_ == nullptr, "workload already set up");
    proc_ = &proc;
    if (inputFileBytes_ > 0 && !inputFileId_) {
        inputFileId_ =
            proc.kernel().createFile(inputFileBytes_ >> kPageShift).id();
    }
    fileReadCursorPages_ = 0;
    for (const Region &r : regions_)
        vmas_.push_back(&proc.mmap(r.vmaBytes));
    touchPattern(proc);
}

void
Workload::populateFromFile(Process &proc, std::size_t anon_region)
{
    contig_assert(inputFileId_, "populateFromFile without an input file");
    File &file = proc.kernel().pageCache().file(*inputFileId_);
    const std::uint64_t heap_bytes = regions_[anon_region].touchBytes;
    const std::uint64_t heap_pages = heap_bytes >> kPageShift;
    // Read batches sized like readahead windows; write the heap in
    // proportion so file and anon allocations interleave.
    const std::uint64_t batch = 4 * kReadaheadPages;
    std::uint64_t heap_done = 0;
    std::uint64_t file_left =
        std::min(file.sizePages() - fileReadCursorPages_,
                 inputFileBytes_ >> kPageShift);
    const std::uint64_t file_total = file_left;
    while (file_left > 0) {
        const std::uint64_t n = std::min(batch, file_left);
        proc.kernel().readFile(file, fileReadCursorPages_, n);
        fileReadCursorPages_ += n;
        file_left -= n;
        // Matching share of heap writes.
        const std::uint64_t frac_pages =
            heap_pages * (file_total - file_left) / file_total;
        while (heap_done < frac_pages) {
            proc.touch(base(anon_region) + heap_done * kPageSize);
            ++heap_done;
        }
    }
    while (heap_done < heap_pages) {
        proc.touch(base(anon_region) + heap_done * kPageSize);
        ++heap_done;
    }
}

void
Workload::teardown()
{
    contig_assert(proc_, "teardown before setup");
    for (Vma *vma : vmas_)
        proc_->munmap(*vma);
    vmas_.clear();
    proc_ = nullptr;
}

void
Workload::fillAccesses(Rng &rng, MemAccess *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = nextAccess(rng);
}

void
Workload::touchPattern(Process &proc)
{
    for (std::size_t i = 0; i < regions_.size(); ++i)
        proc.touchRange(base(i), regions_[i].touchBytes);
}

std::uint64_t
Workload::footprintBytes() const
{
    std::uint64_t total = 0;
    for (const Region &r : regions_)
        total += r.touchBytes;
    return total;
}

std::uint64_t
Workload::reservedBytes() const
{
    std::uint64_t total = 0;
    for (const Region &r : regions_)
        total += r.vmaBytes;
    return total;
}

// --- svm ----------------------------------------------------------------

SvmWorkload::SvmWorkload(const WorkloadConfig &cfg) : Workload(cfg)
{
    // Region 0: CSR values (streamed), 1: column indices (streamed),
    // 2: model weights (skewed random), 3..10: scratch VMAs
    // (irregular accesses by a single instruction).
    const std::uint64_t values = scaled(140 * kMiB) + 44 * kPageSize;
    const std::uint64_t colidx = scaled(44 * kMiB);
    const std::uint64_t weights = scaled(36 * kMiB) + 200 * kPageSize;
    regions_.push_back({values + scaled(12 * kMiB), values});
    regions_.push_back({colidx + scaled(6 * kMiB), colidx});
    regions_.push_back({weights + scaled(2 * kMiB), weights});
    scratchFirst_ = regions_.size();
    // The scattered small VMAs keep their absolute (small) size at
    // any scale: they model fixed-size side structures.
    for (int i = 0; i < 16; ++i)
        regions_.push_back({3 * kMiB / 2, kMiB});
    weightZipf_ = std::make_unique<ZipfSampler>(weights / 64, 0.9);
    // The kdd12 dataset is read at startup and parsed into the CSR
    // arrays.
    inputFileBytes_ = scaled(120 * kMiB);
}

void
SvmWorkload::touchPattern(Process &proc)
{
    populateFromFile(proc, 0); // values parsed out of the dataset
    proc.touchRange(base(1), regions_[1].touchBytes);
    proc.touchRange(base(2), regions_[2].touchBytes);
    for (std::size_t i = scratchFirst_; i < regions_.size(); ++i)
        proc.touchRange(base(i), regions_[i].touchBytes);
}

void
SvmWorkload::fillAccesses(Rng &rng_io, MemAccess *out, std::size_t n)
{
    // Streams dominate the access mix; the random structures are
    // touched through slowly-moving hot pointers, so the new-page
    // rate lands in the paper's ~1 %-of-accesses DTLB-miss regime.
    // Kinds, by roll: 0 CSR values (48 %), 1 column indices (22 %),
    // 2 model-vector lookups (26 %: a hot feature is reused for a
    // while, then the pointer jumps to another, Zipf-skewed one),
    // 3 irregular (4 %: one instruction hopping across the small
    // scattered VMAs — the residual misses outside the 32 largest
    // mappings, §VI-B). DESIGN.md "Access synthesis" has the rules.
    constexpr std::uint64_t kColidx = Rng::cut(0.48);
    constexpr std::uint64_t kWeights = Rng::cut(0.70);
    constexpr std::uint64_t kScratch = Rng::cut(0.96);
    const std::uint64_t values_end = regions_[0].touchBytes;
    const std::uint64_t colidx_end = regions_[1].touchBytes;
    Rng rng = rng_io;
    Addr base_of[4] = {base(0).value, base(1).value, base(2).value,
                       base(scratchVma_).value};
    std::uint64_t off[4] = {valuesCursor_, colidxCursor_, weightHot_,
                            scratchHot_};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t roll = rng.bits53();
        const unsigned kind = (roll >= kColidx) + (roll >= kWeights) +
                              (roll >= kScratch);
        const bool jump = rng.chanceIf(roll >= kWeights,
                                       roll >= kScratch ? 0.09 : 0.055);
        advance(off[0], 8, kind == 0, values_end);
        advance(off[1], 4, kind == 1, colidx_end);
        if (jump) [[unlikely]] {
            Rng cold = rng;
            if (kind == 2) {
                off[2] = weightZipf_->sample(cold) * 64;
            } else {
                scratchVma_ = scratchFirst_ +
                              cold.below(regions_.size() - scratchFirst_);
                base_of[3] = base(scratchVma_).value;
                off[3] =
                    cold.below(regions_[scratchVma_].touchBytes) & ~7ull;
            }
            rng = cold;
        }
        out[i] = {pc(kind), Gva{base_of[kind] + off[kind]}};
    }
    rng_io = rng;
    valuesCursor_ = off[0];
    colidxCursor_ = off[1];
    weightHot_ = off[2];
    scratchHot_ = off[3];
}

CONTIG_WORKLOAD_NEXT(SvmWorkload)

// --- pagerank -------------------------------------------------------------

PageRankWorkload::PageRankWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    // 0: edge array (streamed), 1: source ranks, 2: destination ranks.
    const std::uint64_t edges = scaled(500 * kMiB) + 300 * kPageSize;
    const std::uint64_t ranks = scaled(58 * kMiB) + 100 * kPageSize;
    regions_.push_back({edges + scaled(30 * kMiB), edges});
    regions_.push_back({ranks + scaled(5 * kMiB), ranks});
    regions_.push_back({ranks + scaled(5 * kMiB), ranks});
    vertexZipf_ = std::make_unique<ZipfSampler>(ranks / 8, 0.8);
    // The friendster edge list is read at startup.
    inputFileBytes_ = scaled(160 * kMiB);
}

void
PageRankWorkload::touchPattern(Process &proc)
{
    populateFromFile(proc, 0); // edge array built from the graph file
    proc.touchRange(base(1), regions_[1].touchBytes);
    proc.touchRange(base(2), regions_[2].touchBytes);
}

void
PageRankWorkload::fillAccesses(Rng &rng_io, MemAccess *out,
                               std::size_t n)
{
    // Kinds, by roll: 0 edge scan (55 %), 1 source-rank and 2
    // destination-rank gathers (25 % and 20 %): a hot vertex for a
    // while, then a jump to the next (power-law) neighbour.
    constexpr std::uint64_t kSrc = Rng::cut(0.55);
    constexpr std::uint64_t kDst = Rng::cut(0.80);
    const std::uint64_t edges_end = regions_[0].touchBytes;
    Rng rng = rng_io;
    const Addr base_of[3] = {base(0).value, base(1).value,
                             base(2).value};
    std::uint64_t off[3] = {edgeCursor_, srcHot_, dstHot_};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t roll = rng.bits53();
        const unsigned kind = (roll >= kSrc) + (roll >= kDst);
        const bool jump = rng.chanceIf(roll >= kSrc, 0.030);
        advance(off[0], 8, kind == 0, edges_end);
        if (jump) [[unlikely]] {
            Rng cold = rng;
            off[kind] = vertexZipf_->sample(cold) * 8;
            rng = cold;
        }
        out[i] = {pc(kind), Gva{base_of[kind] + off[kind]}};
    }
    rng_io = rng;
    edgeCursor_ = off[0];
    srcHot_ = off[1];
    dstHot_ = off[2];
}

CONTIG_WORKLOAD_NEXT(PageRankWorkload)

// --- hashjoin --------------------------------------------------------------

HashjoinWorkload::HashjoinWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    // 0: hash table (sized to the next power-of-two style slack: the
    // bloat source for eager paging in Table VI), 1: probe relation.
    const std::uint64_t table = scaled(430 * kMiB) + 150 * kPageSize;
    const std::uint64_t probe = scaled(386 * kMiB);
    regions_.push_back({scaled(816 * kMiB), table}); // ~47 % slack
    regions_.push_back({probe + scaled(2 * kMiB), probe});
}

void
HashjoinWorkload::touchPattern(Process &proc)
{
    // The build initializes the bucket array first (memset-style, so
    // first-touch is sequential), then inserts tuples into random
    // buckets — re-writes of already-mapped pages, no further faults.
    proc.touchRange(base(0), regions_[0].touchBytes);
    for (int i = 0; i < 4096; ++i)
        proc.touch(at(0, rng_.below(regions_[0].touchBytes) & ~7ull));
    // Probe relation is loaded sequentially.
    proc.touchRange(base(1), regions_[1].touchBytes);
}

void
HashjoinWorkload::fillAccesses(Rng &rng_io, MemAccess *out,
                               std::size_t n)
{
    // Kinds, by roll: 0 probe (50 %: each new bucket is uniformly
    // random over the table; a bucket's chain is then followed for a
    // few accesses), 1 sequential scan of the probe relation.
    constexpr std::uint64_t kScan = Rng::cut(0.50);
    const std::uint64_t table_end = regions_[0].touchBytes;
    const std::uint64_t scan_end = regions_[1].touchBytes;
    Rng rng = rng_io;
    const Addr base_of[2] = {base(0).value, base(1).value};
    std::uint64_t off[2] = {probeHot_, scanCursor_};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t roll = rng.bits53();
        const unsigned kind = roll >= kScan;
        const bool jump = rng.chanceIf(roll < kScan, 0.020);
        advance(off[1], 16, kind == 1, scan_end);
        if (jump) [[unlikely]] {
            Rng cold = rng;
            off[0] = cold.below(table_end) & ~7ull;
            rng = cold;
        }
        out[i] = {pc(kind), Gva{base_of[kind] + off[kind]}};
    }
    rng_io = rng;
    probeHot_ = off[0];
    scanCursor_ = off[1];
}

CONTIG_WORKLOAD_NEXT(HashjoinWorkload)

// --- xsbench ---------------------------------------------------------------

XsbenchWorkload::XsbenchWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    // 0: nuclide grid (uniform random), 1: unionized energy grid
    // (random, binary-search-like), 2: concentrations (streamed).
    const std::uint64_t nuclide = scaled(700 * kMiB) + 250 * kPageSize;
    const std::uint64_t energy = scaled(100 * kMiB);
    const std::uint64_t concs = scaled(172 * kMiB);
    regions_.push_back({nuclide + scaled(2 * kMiB), nuclide});
    regions_.push_back({energy + scaled(1 * kMiB), energy});
    regions_.push_back({concs + scaled(1 * kMiB), concs});
}

void
XsbenchWorkload::fillAccesses(Rng &rng_io, MemAccess *out,
                              std::size_t n)
{
    // Kinds, by roll: 0 cross-section lookup (55 %: a nuclide's grid
    // row is scanned for a while after each uniformly random jump),
    // 1 binary search over the unionized energy grid (25 %), 2
    // streamed concentrations.
    constexpr std::uint64_t kEnergy = Rng::cut(0.55);
    constexpr std::uint64_t kConc = Rng::cut(0.80);
    std::uint64_t end[3];
    for (int r = 0; r < 3; ++r)
        end[r] = regions_[r].touchBytes;
    Rng rng = rng_io;
    const Addr base_of[3] = {base(0).value, base(1).value,
                             base(2).value};
    std::uint64_t off[3] = {nuclideHot_, energyHot_, concCursor_};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t roll = rng.bits53();
        const unsigned kind = (roll >= kEnergy) + (roll >= kConc);
        const bool jump = rng.chanceIf(roll < kConc, 0.018);
        if (jump) [[unlikely]] {
            Rng cold = rng;
            off[kind] = cold.below(end[kind]) & ~7ull;
            rng = cold;
        }
        advance(off[0], 8, kind == 0, end[0]);
        advance(off[2], 8, kind == 2, end[2]);
        out[i] = {pc(kind), Gva{base_of[kind] + off[kind]}};
    }
    rng_io = rng;
    nuclideHot_ = off[0];
    energyHot_ = off[1];
    concCursor_ = off[2];
}

CONTIG_WORKLOAD_NEXT(XsbenchWorkload)

// --- bt ---------------------------------------------------------------------

BtWorkload::BtWorkload(const WorkloadConfig &cfg) : Workload(cfg)
{
    // Five solver arrays of equal size.
    const std::uint64_t arr = scaled(267 * kMiB) + 400 * kPageSize;
    for (int i = 0; i < 5; ++i)
        regions_.push_back({arr + scaled(kMiB / 4), arr});
}

void
BtWorkload::touchPattern(Process &proc)
{
    // Interleaved initialization: cell i of every array in turn — the
    // irregular fault pattern that makes the arrays' CA mappings
    // compete for free blocks.
    const std::uint64_t chunk = 32 * kHugeSize;
    const std::uint64_t arr = regions_[0].touchBytes;
    for (std::uint64_t off = 0; off < arr; off += chunk) {
        for (std::size_t a = 0; a < regions_.size(); ++a) {
            const std::uint64_t len =
                std::min<std::uint64_t>(chunk, arr - off);
            proc.touchRange(base(a) + off, len);
        }
    }
}

void
BtWorkload::fillAccesses(Rng &rng_io, MemAccess *out, std::size_t n)
{
    // Plane-major stride sweeps across the five solver arrays: the
    // k-dimension sweeps of BT stride by whole planes, so the TLB
    // misses are regular crossings into new huge pages — exactly the
    // regular-but-TLB-hostile pattern BT exhibits. A rare jump to a
    // random plane models the start of a new sweep phase. The arrays
    // are equal-sized, whole pages, and the cursor stays 64-byte
    // aligned, so cursor + burst * 8 never passes the array's end.
    constexpr std::uint64_t kJump = Rng::cut(0.0005);
    const std::uint64_t end = regions_[0].touchBytes;
    Rng rng = rng_io;
    std::size_t array = sweepArray_;
    Addr array_base = base(array).value;
    std::uint64_t cursor = sweepCursor_;
    unsigned burst = burst_;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.bits53() < kJump) [[unlikely]] {
            Rng cold = rng;
            array = cold.below(regions_.size());
            array_base = base(array).value;
            cursor = cold.below(end) & ~63ull;
            burst = 0;
            rng = cold;
        }
        // A few cell reads per row, then stride one plane row ahead.
        const bool next_row = ++burst >= 3;
        burst &= static_cast<unsigned>(mask(!next_row));
        advance(cursor, 32768, next_row, end);
        out[i] = {pc(static_cast<unsigned>(array)),
                  Gva{array_base + cursor + burst * 8}};
    }
    rng_io = rng;
    sweepArray_ = array;
    sweepCursor_ = cursor;
    burst_ = burst;
}

CONTIG_WORKLOAD_NEXT(BtWorkload)

// --- tlbfriendly -------------------------------------------------------------

TlbFriendlyWorkload::TlbFriendlyWorkload(const WorkloadConfig &cfg)
    : Workload(cfg)
{
    regions_.push_back({scaled(16 * kMiB), scaled(16 * kMiB)});
}

void
TlbFriendlyWorkload::fillAccesses(Rng &rng, MemAccess *out,
                                  std::size_t n)
{
    (void)rng;
    const std::uint64_t end = regions_[0].touchBytes;
    const Addr base0 = base(0).value;
    std::uint64_t cursor = cursor_;
    for (std::size_t i = 0; i < n; ++i) {
        advance(cursor, 8, true, end);
        out[i] = {pc(0), Gva{base0 + cursor}};
    }
    cursor_ = cursor;
}

CONTIG_WORKLOAD_NEXT(TlbFriendlyWorkload)

#undef CONTIG_WORKLOAD_NEXT

// --- factory / hog -----------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &cfg)
{
    if (name == "svm")
        return std::make_unique<SvmWorkload>(cfg);
    if (name == "pagerank")
        return std::make_unique<PageRankWorkload>(cfg);
    if (name == "hashjoin")
        return std::make_unique<HashjoinWorkload>(cfg);
    if (name == "xsbench")
        return std::make_unique<XsbenchWorkload>(cfg);
    if (name == "bt")
        return std::make_unique<BtWorkload>(cfg);
    if (name == "tlbfriendly")
        return std::make_unique<TlbFriendlyWorkload>(cfg);
    fatal("unknown workload '%s'", name.c_str());
}

const std::vector<std::string> &
paperWorkloads()
{
    static const std::vector<std::string> names{
        "svm", "pagerank", "hashjoin", "xsbench", "bt"};
    return names;
}

Process &
hogMemory(Kernel &kernel, double fraction, Rng &rng)
{
    Process &hog = kernel.createProcess("hog");
    hog.defragEligible = false;
    PhysicalMemory &pm = kernel.physMem();
    const std::uint64_t target =
        static_cast<std::uint64_t>(pm.totalFrames() * fraction);

    // Pin scattered 2-4 MiB chunks at random huge-aligned physical
    // positions: free memory stays fragmented at coarse (> 2 MiB)
    // granularity, as the paper's hog does. The chunks are mapped
    // into one big hog VMA so exiting the process releases them.
    Vma &vma = hog.addressSpace().mmap(target * kPageSize + kHugeSize,
                                       VmaKind::Anon);
    PageTable &pt = hog.pageTable();
    Vpn next_vpn = vma.start().pageNumber();

    std::uint64_t pinned = 0;
    std::uint64_t attempts = 0;
    while (pinned < target && attempts < 4 * pm.totalFrames()) {
        ++attempts;
        const unsigned order =
            kHugeOrder + static_cast<unsigned>(rng.below(2)); // 2 or 4 MiB
        const std::uint64_t n = pagesInOrder(order);
        Pfn where = alignDown(rng.below(pm.totalFrames() - n), n);
        if (!pm.allocSpecific(where, order))
            continue;
        kernel.claimFrames(where, order, FrameOwner::Anon, hog.pid(),
                           next_vpn << kPageShift);
        // Map the chunk as huge leaves.
        for (std::uint64_t off = 0; off < n;
             off += pagesInOrder(kHugeOrder)) {
            pt.map(next_vpn + off, where + off, kHugeOrder);
            for (std::uint64_t i = 0; i < pagesInOrder(kHugeOrder); ++i)
                ++pm.frame(where + off + i).mapCount;
        }
        // claimFrames refcounts the block head once; transfer the
        // count to per-huge-leaf granularity for clean unmapping.
        if (order > kHugeOrder) {
            for (std::uint64_t off = pagesInOrder(kHugeOrder); off < n;
                 off += pagesInOrder(kHugeOrder)) {
                pm.frame(where + off).refCount = 1;
            }
        }
        vma.allocatedPages += n;
        next_vpn += n;
        pinned += n;
    }
    kernel.counters().inc("hog.pinnedPages", pinned);
    return hog;
}

void
systemChurn(Kernel &kernel, std::uint64_t islands, std::uint64_t seed)
{
    // One readahead window per island: each burst of long-lived
    // pages (log writes, dentry/inode slabs) lands wherever the
    // free-list heads point after the intervening allocation entropy
    // (modelled as list shuffles). With the stock allocator that is a
    // random free block each time, leaving unmovable islands all over
    // memory; CA machines are immune because the per-file Offset
    // packs the same pages into one contiguous run.
    File &log = kernel.createFile(islands * kReadaheadPages);
    PhysicalMemory &pm = kernel.physMem();
    if (kernel.policy().steersFilePlacement()) {
        // CA-style kernels pack the long-lived pages contiguously via
        // the per-file Offset: the churn leaves one tidy run.
        for (std::uint64_t i = 0; i < islands; ++i)
            kernel.readFile(log, i * kReadaheadPages, 1);
    } else {
        // Stock kernels leave each burst wherever allocation entropy
        // put the free-list heads — uniformly random over free memory
        // from the workload's perspective.
        Rng rng(seed);
        std::uint64_t placed = 0;
        std::uint64_t attempts = 0;
        while (placed < islands && attempts < 64 * islands) {
            ++attempts;
            Pfn at = alignDown(
                rng.below(pm.totalFrames() - kReadaheadPages),
                kReadaheadPages);
            if (!pm.allocSpecific(at, log2Floor(kReadaheadPages)))
                continue;
            for (std::uint64_t j = 0; j < kReadaheadPages; ++j) {
                kernel.claimFrames(at + j, 0, FrameOwner::PageCache,
                                   log.id(),
                                   (placed * kReadaheadPages + j) *
                                       kPageSize);
                log.install(placed * kReadaheadPages + j, at + j);
            }
            ++placed;
        }
    }
    kernel.counters().inc("churn.islands", islands);
}

} // namespace contig
