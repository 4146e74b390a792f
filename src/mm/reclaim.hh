/**
 * @file
 * The ReclaimEngine: the memory-pressure side of the kernel, sibling
 * of the FaultEngine. It implements the Linux-shaped reclaim pipeline
 * the allocation slow path escalates through when a zone runs dry:
 *
 *   fast path -> wake kswapd -> direct reclaim -> (demote) -> OOM
 *
 * Victims come off per-zone inactive/active LRU lists (second-chance
 * referenced bits, block-head grain: one list node per mapped leaf).
 * Anonymous victims are swapped out against a modelled swap device
 * (per-page I/O cost, bounded swap cache); THP victims are split into
 * 512 base mappings first, exactly like split_huge_page on the Linux
 * reclaim path; clean page-cache victims are dropped. A kswapd
 * reclaimer balances zones to the `high` watermark in the background
 * (own thread when the kernel is threaded, synchronous at fault entry
 * when sequential, keeping single-threaded runs deterministic).
 *
 * Lock discipline (see DESIGN.md "Memory pressure & reclaim"): the
 * scanner reads candidate frames' owner triples *racily* (they are
 * relaxed atomics), then re-validates against the owner's page table
 * under the victim VMA's fault lock before touching anything. Every
 * lock it takes beyond the shared mm lock is a try_lock, so reclaim
 * can never deadlock against a fault path that already holds the
 * victim's locks — it just skips the frame. The zone LRU lock is a
 * leaf below everything.
 *
 * None of this state exists when KernelConfig::reclaimEnabled is off:
 * the kernel never constructs a ReclaimEngine, the claim/free hooks
 * compile to a null-pointer test, and the allocation path is
 * byte-identical to the pre-reclaim kernel (golden-gated).
 */

#ifndef CONTIG_MM_RECLAIM_HH
#define CONTIG_MM_RECLAIM_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "base/sync.hh"
#include "base/types.hh"
#include "phys/zone.hh"

namespace contig
{

class Kernel;
class Process;
class Vma;

namespace obs
{
class MetricSink;
} // namespace obs

/**
 * Modelled swap-device costs. Swap-out is asynchronous writeback
 * (cheap, charged to the reclaimer); swap-in is a synchronous read
 * stall charged to the refaulting fault. Recently swapped-out pages
 * sit in a bounded FIFO swap cache whose hits cost a memcpy, not an
 * I/O.
 */
struct SwapCostModel
{
    Cycles outCyclesPerPage = 8000;
    Cycles inCyclesPerPage = 60000;
    Cycles cacheHitCycles = 3000;
    std::uint64_t cachePages = 1024;
};

/**
 * Reclaim-path counters ("reclaim.*" metrics). Atomic because kswapd,
 * direct-reclaiming fault workers and refaulting threads all bump
 * them concurrently; everything is relaxed (pure statistics).
 */
struct ReclaimStats
{
    std::atomic<std::uint64_t> scans{0};        //!< LRU entries examined
    std::atomic<std::uint64_t> rotations{0};    //!< second-chance promotions
    std::atomic<std::uint64_t> deactivations{0}; //!< active -> inactive moves
    std::atomic<std::uint64_t> reclaimed{0};    //!< pages freed, any kind
    std::atomic<std::uint64_t> swapOuts{0};     //!< anon pages swapped out
    std::atomic<std::uint64_t> refaults{0};     //!< swap-ins on touch
    std::atomic<std::uint64_t> swapCacheHits{0};
    std::atomic<std::uint64_t> thpSplits{0};    //!< huge leaves split
    std::atomic<std::uint64_t> pagecacheReclaimed{0};
    std::atomic<std::uint64_t> kswapdWakes{0};
    std::atomic<std::uint64_t> kswapdRuns{0};
    std::atomic<std::uint64_t> directReclaims{0};
    std::atomic<std::uint64_t> targetedReclaims{0};
    std::atomic<std::uint64_t> directCycles{0};
    std::atomic<std::uint64_t> kswapdCycles{0};
    std::atomic<std::uint64_t> lowHits{0};      //!< entries below low wm
    std::atomic<std::uint64_t> minHits{0};      //!< entries below min wm
    std::atomic<std::uint64_t> pinnedSkips{0};  //!< unreclaimable victims
    std::atomic<std::uint64_t> busySkips{0};    //!< lock-held victims
};

class ReclaimEngine
{
  public:
    explicit ReclaimEngine(Kernel &kernel);
    ~ReclaimEngine();

    ReclaimEngine(const ReclaimEngine &) = delete;
    ReclaimEngine &operator=(const ReclaimEngine &) = delete;

    /** What one reclaim pass achieved. */
    struct Progress
    {
        std::uint64_t freed = 0; //!< base pages returned to the buddy
        Cycles cycles = 0;       //!< modelled reclaim cost
    };

    // --- hooks from the kernel's frame lifecycle -------------------------

    /**
     * A freshly buddy-allocated block was claimed (Kernel::
     * claimFrames). Anon and page-cache blocks enter the owning
     * zone's inactive list at the MRU end; page-table frames are
     * kernel-pinned and never listed.
     */
    void onClaim(Pfn pfn, unsigned order, FrameOwner kind);

    /** The block headed at pfn is going back to the buddy. */
    void onFree(Pfn pfn);

    /** Second-chance bit: the mapped block at head was accessed. */
    void noteReferenced(Pfn head);

    // --- swap ------------------------------------------------------------

    /**
     * A fault is installing [base, base + 2^order) for `pid`: erase
     * any swap entries the range covers and return the modelled
     * swap-in stall (0 when nothing was swapped — one relaxed load on
     * that fast path).
     */
    Cycles chargeSwapIn(std::uint32_t pid, Vpn base, unsigned order);

    /** munmap/exit: drop swap entries of [start, start+pages) of pid. */
    void dropVmaRange(std::uint32_t pid, Vpn start, std::uint64_t pages);

    /** Pages currently swapped out across all processes. */
    std::uint64_t
    swappedPages() const
    {
        return swappedPages_.load(std::memory_order_relaxed);
    }

    // --- pressure entry points -------------------------------------------

    /**
     * Fault-entry watermark probe: below `low` wakes kswapd (threaded)
     * or balances the node synchronously to `high` (sequential,
     * keeping single-threaded runs deterministic). Costs one relaxed
     * load when the zone is above `low`.
     */
    void checkWatermarks(NodeId node);

    /** Nudge the background reclaimer (no-op when sequential). */
    void wakeKswapd();

    /**
     * Direct reclaim: synchronously free >= want_pages base pages
     * from `node` (falling back to other nodes), called by the
     * allocation slow path under the shared mm lock.
     */
    Progress directReclaim(NodeId node, std::uint64_t want_pages);

    /**
     * Re-entrancy guard for the page-cache fill path: while a thread
     * holds one of these, any reclaim it triggers skips page-cache
     * victims — otherwise a sequential kernel (whose page-cache lock
     * is disengaged) could evict the very pages the enclosing
     * readahead run just installed.
     */
    class PageCacheFillScope
    {
      public:
        PageCacheFillScope() { ++tlsFillDepth_; }
        ~PageCacheFillScope() { --tlsFillDepth_; }
        PageCacheFillScope(const PageCacheFillScope &) = delete;
        PageCacheFillScope &operator=(const PageCacheFillScope &) = delete;
    };

    /**
     * Fault-path marker: this thread holds `vma`'s fault lock. Direct
     * reclaim running on the same thread may then evict that VMA's
     * pages without (re)taking the lock — without this, N workers
     * each mid-fault on their own VMA would mutually skip every
     * candidate (all of memory belongs to locked VMAs) and a fully
     * reclaimable machine would report OOM.
     */
    class HeldVmaScope
    {
      public:
        explicit HeldVmaScope(const Vma *vma) : prev_(tlsHeldVma_)
        {
            tlsHeldVma_ = vma;
        }
        ~HeldVmaScope() { tlsHeldVma_ = prev_; }
        HeldVmaScope(const HeldVmaScope &) = delete;
        HeldVmaScope &operator=(const HeldVmaScope &) = delete;

      private:
        const Vma *prev_;
    };

    /**
     * Bumped on every eviction that unmaps page-table leaves (anon
     * evictions and THP splits). Unmapping can free empty page-table
     * nodes, so batch installers holding a PageTable::RunMapper
     * snapshot this around anything that can reclaim and invalidate
     * the mapper's cached node when it moved.
     */
    std::uint64_t
    unmapEpoch() const
    {
        return unmapEpoch_.load(std::memory_order_relaxed);
    }

    /**
     * Targeted (contiguity-aware) reclaim: try to evict every
     * reclaimable block inside [base, base + 2^order) so the span can
     * be allocated as one free block — how CA paging / Ranger route
     * their replacement decisions through the reclaim machinery.
     * Returns the base pages freed.
     */
    std::uint64_t reclaimRange(Pfn base, unsigned order);

    /** Victim selection prefers blocks that restore large free runs. */
    bool contigAware() const { return contigAware_; }

    // --- kswapd ----------------------------------------------------------

    /** Launch the background reclaimer thread (threaded kernels). */
    void startKswapd();

    /** Join kswapd; further wakes are no-ops. Idempotent. */
    void stop();

    // --- observation ------------------------------------------------------

    const ReclaimStats &stats() const { return stats_; }

    /** Report reclaim.* (called under the kernel's "reclaim" scope). */
    void collectMetrics(obs::MetricSink &sink) const;

  private:
    /** Outcome of looking at one popped LRU candidate. */
    enum class Victim : std::uint8_t
    {
        Freed,    //!< pages returned to the buddy
        Split,    //!< THP split into 512 inactive base candidates
        Rotated,  //!< referenced bit seen; promoted to active
        Requeued, //!< lock busy; back to inactive MRU
        Pinned,   //!< unreclaimable; left off every list
        Gone,     //!< freed/re-claimed since the pop; nothing to do
    };

    Victim scanOne(Zone &zone, const Zone::LruEntry &e, Progress &out);
    Victim evictAnon(Zone &zone, Pfn head, unsigned order, Progress &out);
    Victim evictPageCache(Zone &zone, Pfn head, Progress &out);
    /** Split one validated huge leaf; caller holds the vma fault lock. */
    void splitHugeLocked(Zone &zone, Process &proc, Vma &vma, Vpn base,
                        Pfn head);
    /** Record a swap-out of (pid, vpn); returns the modelled cost. */
    Cycles recordSwapOut(std::uint32_t pid, Vpn vpn);

    /**
     * Shrink one zone by ~target base pages: demote active overflow,
     * pop inactive-tail batches, second-chance or evict each.
     */
    Progress shrinkZone(Zone &zone, std::uint64_t target);

    /** Occupied-page probe of the enclosing 2 MiB block (0..64). */
    unsigned contigScore(Pfn head) const;

    /** Bring the zone of `node` back to its high watermark. */
    Progress balanceNode(NodeId node);

    void kswapdLoop();

    Kernel &kernel_;
    const bool threaded_;
    const bool contigAware_;
    const SwapCostModel cost_;
    ReclaimStats stats_;
    std::atomic<std::uint64_t> unmapEpoch_{0};
    // Defined here and constant-initialized so the inline scope
    // classes above access them directly, without the TLS init
    // wrapper that an out-of-line definition makes every other
    // translation unit call.
    static constinit inline thread_local unsigned tlsFillDepth_ = 0;
    static constinit inline thread_local const Vma *tlsHeldVma_ = nullptr;

    // --- swap state (slot ids model disk blocks) -------------------------
    mutable SpinLock swapLock_;
    /** pid -> vpn -> swap slot. */
    std::unordered_map<std::uint32_t,
                       std::unordered_map<Vpn, std::uint64_t>>
        swapMap_;
    std::uint64_t nextSlot_ = 0;
    /** FIFO swap cache of recent slots (hits skip the I/O stall). */
    std::deque<std::uint64_t> swapCacheFifo_;
    std::unordered_set<std::uint64_t> swapCacheSet_;
    std::atomic<std::uint64_t> swappedPages_{0};

    // --- kswapd ----------------------------------------------------------
    std::thread kswapd_;
    std::mutex kswapdMu_;
    std::condition_variable kswapdCv_;
    bool kswapdWakePending_ = false;
    bool kswapdStop_ = false;
    bool kswapdRunning_ = false;
};

} // namespace contig

#endif // CONTIG_MM_RECLAIM_HH
