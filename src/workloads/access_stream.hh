/**
 * @file
 * Chunked access-stream generator. The replay engine does not pull
 * accesses one at a time: AccessStream drains the workload's
 * steady-state generator into fixed-size contiguous MemAccess
 * buffers, so the consumer sees plain arrays. Each chunk is one
 * virtual Workload::fillAccesses call, whose loop inlines the
 * workload's generator (workloads.hh: every workload runs one private
 * generator from both nextAccess and fillAccesses).
 *
 * Determinism: the stream owns its own Rng seeded at construction and
 * produces exactly the sequence `wl.nextAccess(rng)` would — chunk
 * boundaries never change what is generated, only how it is batched.
 * When `total` is not a multiple of the chunk size the final chunk is
 * exactly the remainder (`total % chunk`), and a zero-length stream
 * returns 0 from the first next() without touching the workload
 * (tests/workloads/ctrace_test.cc pins both).
 *
 * captureTo() tees every generated chunk into a CtraceWriter — the
 * capture path of the trace frontend. The tee is downstream of
 * generation, so a captured run's simulated results are identical to
 * the same run without capture.
 */

#ifndef CONTIG_WORKLOADS_ACCESS_STREAM_HH
#define CONTIG_WORKLOADS_ACCESS_STREAM_HH

#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "workloads/access_source.hh"

namespace contig
{

class Workload;
class CtraceWriter;

class AccessStream : public AccessSource
{
  public:
    /** Default chunk: 4096 accesses (64 KiB of MemAccess, L2-sized). */
    static constexpr std::uint64_t kDefaultChunk = 4096;

    /**
     * Stream `total` accesses from `wl`, `chunk_accesses` at a time
     * (0 means kDefaultChunk). The final chunk may be short.
     */
    AccessStream(Workload &wl, std::uint64_t total, std::uint64_t seed,
                 std::uint64_t chunk_accesses = kDefaultChunk);

    /**
     * Generate the next chunk into the internal buffer. Returns its
     * size (0 when the stream is exhausted) and points `chunk` at the
     * buffer, which stays valid until the next call.
     */
    std::size_t next(const MemAccess *&chunk) override;

    /** Accesses generated so far. */
    std::uint64_t produced() const override { return produced_; }
    std::uint64_t total() const override { return total_; }
    std::uint64_t chunkAccesses() const override { return buf_.size(); }

    /**
     * Tee every subsequently generated chunk into `writer` (nullptr
     * detaches). The stream finishes the writer when it drains, so a
     * fully consumed stream leaves a sealed .ctrace behind; partial
     * consumption leaves finishing to the writer's owner.
     */
    void captureTo(CtraceWriter *writer) { writer_ = writer; }

  private:
    Workload &wl_;
    Rng rng_;
    std::uint64_t total_;
    std::uint64_t produced_ = 0;
    std::vector<MemAccess> buf_;
    CtraceWriter *writer_ = nullptr;
};

} // namespace contig

#endif // CONTIG_WORKLOADS_ACCESS_STREAM_HH
