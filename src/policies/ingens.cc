#include "policies/ingens.hh"

#include <vector>

#include "base/align.hh"
#include "mm/kernel.hh"
#include "mm/migrate.hh"

namespace contig
{

IngensPolicy::IngensPolicy(const IngensConfig &cfg) : cfg_(cfg) {}

AllocResult
IngensPolicy::allocate(Kernel &kernel, Process &proc, Vma &vma, Vpn vpn,
                       unsigned order)
{
    (void)vma;
    (void)vpn;
    return buddyAlloc(kernel, order, proc.homeNode());
}

void
IngensPolicy::onTick(Kernel &kernel)
{
    // khugepaged-like scan: promote up to promotionsPerTick huge
    // regions whose 4 KiB utilization crosses the threshold.
    unsigned budget = cfg_.promotionsPerTick;
    const std::uint64_t huge_pages = pagesInOrder(kHugeOrder);
    const auto needed = static_cast<std::uint64_t>(
        cfg_.utilizationThreshold * huge_pages);

    kernel.forEachProcess([&](Process &proc) {
        if (budget == 0)
            return;
        proc.addressSpace().forEachVma([&](Vma &vma) {
            if (budget == 0 || vma.kind() == VmaKind::File)
                return;
            ++stats_.scans;
            const Vpn start =
                alignUp(vma.start().pageNumber(), huge_pages);
            const Vpn end = vma.start().pageNumber() + vma.pages();
            for (Vpn base = start; base + huge_pages <= end && budget > 0;
                 base += huge_pages) {
                // Skip regions already huge-mapped.
                auto m = proc.pageTable().lookup(base);
                if (m && m->order == kHugeOrder)
                    continue;
                if (vma.touchedBitmap.empty())
                    continue;
                const Vpn rel = base - vma.start().pageNumber();
                if (vma.touchedIn(rel, huge_pages) < needed)
                    continue;
                if (promoteHuge(kernel, proc, base)) {
                    ++stats_.promotions;
                    --budget;
                } else {
                    ++stats_.promotionFailures;
                }
            }
        });
    });
}

} // namespace contig
