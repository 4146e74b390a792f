#include "mm/process.hh"

#include "base/logging.hh"
#include "mm/kernel.hh"

namespace contig
{

Process::Process(Kernel &kernel, std::uint32_t pid, std::string name,
                 NodeId home_node)
    : kernel_(kernel), pid_(pid), name_(std::move(name)),
      homeNode_(home_node),
      as_([this] { return kernel_.allocKernelFrame(homeNode_); },
          [this](Pfn pfn) { kernel_.freeKernelFrame(pfn); },
          kernel.config().pageTableLevels)
{
}

Vma &
Process::mmap(std::uint64_t bytes)
{
    return kernel_.mmapAnon(*this, bytes);
}

Vma &
Process::mmapFile(std::uint32_t file_id, std::uint64_t bytes,
                  std::uint64_t file_offset_pages)
{
    return kernel_.mmapFile(*this, file_id, bytes, file_offset_pages);
}

void
Process::munmap(Vma &vma)
{
    kernel_.munmap(*this, vma);
}

void
Process::touch(Gva gva, Access access)
{
    kernel_.touch(*this, gva, access);
}

void
Process::touchRange(Gva gva, std::uint64_t bytes, Access access)
{
    FaultRequest span;
    span.proc = this;
    span.vpn = gva.pageNumber();
    // Every page whose base lies below gva + bytes is touched.
    span.pages = ((gva.value + bytes + kPageMask) >> kPageShift) - span.vpn;
    span.access = access;
    kernel_.faultEngine().handleRange(span, TouchNote::AllPages);
}

void
Process::noteTouched(Vma &vma, Vpn vpn)
{
    if (vma.markTouched(vpn - vma.start().pageNumber()))
        ++vma.touchedPages;
}

Process &
Process::fork(const std::string &child_name)
{
    Process &child = kernel_.createProcess(child_name, homeNode_);
    kernel_.forkInto(*this, child);
    return child;
}

std::uint64_t
Process::touchedPages() const
{
    std::uint64_t total = 0;
    as_.forEachVma([&](const Vma &vma) { total += vma.touchedPages; });
    return total;
}

std::uint64_t
Process::allocatedPages() const
{
    std::uint64_t total = 0;
    as_.forEachVma([&](const Vma &vma) { total += vma.allocatedPages; });
    return total;
}

} // namespace contig
