/**
 * @file
 * Frame descriptors: the simulator's analogue of Linux's `struct page`
 * array (`mem_map`). One descriptor per base (4 KiB) frame of a
 * physical address space. CA paging consults these descriptors
 * (refcount/mapcount) to decide whether an allocation target is free,
 * exactly as the paper describes (§III-B).
 *
 * Zero encoding: an all-zero Frame is a frame that is free in the
 * buddy allocator, unowned, unmapped and off every LRU list. A fresh
 * mem_map is therefore nothing but OS-zeroed memory; neither Frame
 * constructors nor a per-frame buddy seeding pass run over the array.
 */

#ifndef CONTIG_PHYS_FRAME_HH
#define CONTIG_PHYS_FRAME_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "base/logging.hh"
#include "base/types.hh"

namespace contig
{

constexpr std::uint32_t kNoOwner = std::numeric_limits<std::uint32_t>::max();

/** What kind of object a frame currently backs (for reverse mapping). */
enum class FrameOwner : std::uint8_t
{
    None,      //!< unallocated or kernel-internal
    Anon,      //!< anonymous process memory
    PageCache, //!< file-backed page-cache page
    PageTable, //!< page-table node
};

/**
 * A plain `T` that is only ever accessed through std::atomic_ref.
 * Unlike std::atomic<T>, whose C++20 default constructor
 * value-initializes, it is trivially default-constructible, so
 * zero-filled memory already holds valid (zero) fields. The member
 * functions mirror std::atomic's, memory-order defaults included.
 */
template <typename T>
class AtomicField
{
    static_assert(alignof(T) >= std::atomic_ref<T>::required_alignment,
                  "field not aligned for atomic access");

  public:
    T
    load(std::memory_order mo = std::memory_order_seq_cst) const
    {
        return ref().load(mo);
    }

    void
    store(T v, std::memory_order mo = std::memory_order_seq_cst)
    {
        ref().store(v, mo);
    }

    T
    exchange(T v, std::memory_order mo = std::memory_order_seq_cst)
    {
        return ref().exchange(v, mo);
    }

    T
    fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst)
    {
        return ref().fetch_add(v, mo);
    }

    T
    fetch_sub(T v, std::memory_order mo = std::memory_order_seq_cst)
    {
        return ref().fetch_sub(v, mo);
    }

    operator T() const { return load(); }
    AtomicField &operator=(T v) { store(v); return *this; }
    T operator++() { return fetch_add(1) + 1; }
    T operator--() { return fetch_sub(1) - 1; }

  private:
    std::atomic_ref<T>
    ref() const
    {
        // The storage is never a const object: const only comes from
        // const views of the mem_map.
        return std::atomic_ref<T>(const_cast<T &>(v_));
    }

    T v_;
};

/**
 * Per-frame metadata. Mirrors the `struct page` fields the paper's
 * mechanisms rely on: `_count`/`_mapcount` for the free check, buddy
 * linkage for the free lists, and a reverse-mapping triple used by the
 * migration-based baselines (Ranger, Ingens promotion).
 *
 * Zero encoding (see the file comment): every field's zero value is
 * its free/unowned/unlisted state. The non-zero sentinels that remain
 * are never read in that state: the free-list linkage (kInvalidPfn) is
 * only read on listed block heads (freeHead), the LRU linkage only on
 * listed LRU heads (lruList != None), and ownerId/ownerVaddr only
 * while ownerKind != None, so kNoOwner keeps its value.
 *
 * Concurrency: refCount/mapCount/inUse are atomic fields because
 * fault threads touch them outside any lock — inUse is CA paging's
 * lockless occupancy probe (§III-C; a stale read is benign, the
 * subsequent allocSpecific re-validates under the zone lock). The
 * free-list linkage is plain: it is only touched under the owning
 * zone's lock. The owner fields are atomic fields accessed relaxed:
 * they are written between a buddy alloc and the matching free
 * (ordered by the zone lock handoff), but the LRU reclaim scanner
 * reads them from stale candidate handles without any lock — a torn
 * owner triple is benign because eviction re-validates the frame
 * against the owner's page table under the victim VMA's fault lock
 * before touching anything.
 *
 * Layout: the byte-sized fields are packed so a Frame is exactly one
 * 64-byte cache line (the mem_map base is 2 MiB aligned).
 */
struct Frame
{
    /** References held (0 while the frame sits in the buddy allocator). */
    AtomicField<std::uint32_t> refCount;
    /** Number of page-table mappings pointing at this frame. */
    AtomicField<std::uint32_t> mapCount;
    /** Owning process or file id (meaningful while ownerKind != None). */
    AtomicField<std::uint32_t> ownerId;

    /** Buddy order of the free block this frame heads (valid if freeHead). */
    std::uint8_t order;
    /** False for every frame inside a free buddy block. */
    AtomicField<bool> inUse;
    /** True only for the first frame of a free block on a free list. */
    bool freeHead;
    /** Reverse mapping: which kind of object owns this frame. */
    AtomicField<FrameOwner> ownerKind;

    /** Intrusive free-list linkage (heads only). */
    Pfn freeNext;
    Pfn freePrev;

    /** Owning gva (or file offset; meaningful while ownerKind != None). */
    AtomicField<Addr> ownerVaddr;

    // --- LRU reclaim state (reclaimEnabled kernels only) ---------------
    //
    // Mirrors the free-list idiom above: intrusive linkage on block
    // heads only, guarded by the owning zone's LRU lock. `referenced`
    // is the second-chance bit, set by the fault path outside any lock
    // (a lost update costs at worst one early eviction or one extra
    // rotation, both benign), hence atomic.

    /** Which LRU list the block headed here sits on. */
    enum class LruList : std::uint8_t { None, Inactive, Active };

    /** Intrusive LRU linkage (heads of claimed blocks only). */
    Pfn lruNext;
    Pfn lruPrev;
    /** Mapping order of the block this frame heads on an LRU list. */
    std::uint8_t lruOrder;
    LruList lruList;
    /** Second-chance bit: touched since the last LRU scan looked. */
    AtomicField<bool> referenced;
};

static_assert(std::is_trivially_default_constructible_v<Frame> &&
                  std::is_trivially_destructible_v<Frame>,
              "a zero-filled mem_map must be a valid Frame array");
static_assert(sizeof(Frame) == 64, "one Frame per cache line");
static_assert(FrameOwner{} == FrameOwner::None &&
                  Frame::LruList{} == Frame::LruList::None,
              "zero must encode the unowned, unlisted state");

/**
 * The mem_map: a flat array of Frame descriptors covering one physical
 * address space (host machine or a VM's guest-physical space).
 *
 * Backing: its own anonymous mapping, 2 MiB aligned and advised
 * MADV_HUGEPAGE, so the kernel backs it with transparent huge pages
 * (a few hundred faults instead of one per 4 KiB). The length is only
 * rounded up to a base page, so the unaligned tail gets base pages and
 * RSS does not grow. The whole array is prefaulted once at
 * construction (MADV_POPULATE_WRITE, or one touch per page where the
 * kernel refuses that advice): left lazy, first touches would land in
 * whichever phase first reaches a frame — the fault path, whose
 * populate rate is a headline metric. The OS zero-fills the pages,
 * which by the zero encoding is a fully free mem_map. Destruction is
 * one munmap.
 */
class FrameArray
{
  public:
    explicit FrameArray(std::uint64_t n_frames);
    ~FrameArray();

    FrameArray(const FrameArray &) = delete;
    FrameArray &operator=(const FrameArray &) = delete;

    Frame &
    operator[](Pfn pfn)
    {
        contig_assert(pfn < size_, "pfn %llu out of range",
                      static_cast<unsigned long long>(pfn));
        return frames_[pfn];
    }

    const Frame &
    operator[](Pfn pfn) const
    {
        contig_assert(pfn < size_, "pfn %llu out of range",
                      static_cast<unsigned long long>(pfn));
        return frames_[pfn];
    }

    std::uint64_t size() const { return size_; }

    /** Start of the array (2 MiB aligned). */
    const Frame *data() const { return frames_; }

  private:
    Frame *frames_ = nullptr;
    std::uint64_t size_ = 0;
    std::size_t mapBytes_ = 0;
};

} // namespace contig

#endif // CONTIG_PHYS_FRAME_HH
