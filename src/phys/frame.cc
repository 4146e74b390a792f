#include "phys/frame.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/align.hh"

// Linux 5.14 advice; older C libraries lack the constant.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace contig
{

FrameArray::FrameArray(std::uint64_t n_frames) : size_(n_frames)
{
    const std::uint64_t page =
        static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    mapBytes_ = alignUp(n_frames * sizeof(Frame), page);

    // Over-reserve by one huge page, then trim both ends so the array
    // starts on a 2 MiB boundary and ends at the next base page.
    const std::size_t reserve = mapBytes_ + kHugeSize;
    void *raw = mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        fatal("mem_map: mmap of %zu bytes failed: %s", reserve,
              std::strerror(errno));
    const auto lo = reinterpret_cast<std::uintptr_t>(raw);
    const auto start = alignUp(lo, kHugeSize);
    if (start > lo)
        munmap(raw, start - lo);
    const std::uintptr_t end = start + mapBytes_;
    if (lo + reserve > end)
        munmap(reinterpret_cast<void *>(end), lo + reserve - end);
    frames_ = reinterpret_cast<Frame *>(start);

    // Huge pages are a hint (THP may be off); the prefault is not.
    madvise(frames_, mapBytes_, MADV_HUGEPAGE);
    if (madvise(frames_, mapBytes_, MADV_POPULATE_WRITE) != 0) {
        auto *bytes = reinterpret_cast<volatile char *>(frames_);
        for (std::size_t off = 0; off < mapBytes_; off += page)
            bytes[off] = 0;
    }
}

FrameArray::~FrameArray()
{
    munmap(frames_, mapBytes_);
}

} // namespace contig
