/**
 * @file
 * Flat binary serialization for trace files and simulator
 * checkpoints. A Serializer appends little-endian primitives to a
 * growable byte buffer; a Deserializer reads them back with bounds
 * checking (fatal on a short or malformed buffer — snapshot files
 * come from disk and must fail loudly, never read garbage).
 *
 * Tagged sections (beginSection/endSection and the matching
 * expectSection) give snapshot blobs self-describing structure: a
 * section is a 32-bit tag plus a byte length, so a reader can verify
 * it is looking at the component it expects and a mismatched or
 * truncated snapshot names the section that broke instead of
 * decoding noise.
 *
 * crc32() is the IEEE 802.3 polynomial (slice-by-8 table-driven, no
 * external dependencies) used by both the .ctrace chunk index and the
 * checkpoint trailer. The .ctrace decoder checks every chunk with it,
 * so its speed bounds trace-fed replay.
 */

#ifndef CONTIG_BASE_SERIALIZE_HH
#define CONTIG_BASE_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace contig
{

/** CRC-32 (IEEE) over a byte range. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    void
    str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /**
     * Open a tagged section; returns a cookie for endSection. The
     * byte length is patched in when the section closes, so sections
     * nest naturally.
     */
    std::size_t beginSection(std::uint32_t tag);
    void endSection(std::size_t cookie);

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

class Deserializer
{
  public:
    /** The buffer must outlive the deserializer. */
    Deserializer(const void *data, std::size_t n,
                 std::string what = "snapshot")
        : p_(static_cast<const std::uint8_t *>(data)), n_(n),
          what_(std::move(what))
    {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    bool boolean() { return u8() != 0; }
    void bytes(void *out, std::size_t n);
    std::string str();

    /**
     * Read a section header and check its tag; returns the byte
     * offset just past the section (for sanity checks). Fatal when
     * the tag differs — the snapshot does not contain the component
     * the caller expects.
     */
    std::size_t expectSection(std::uint32_t tag, const char *name);

    std::size_t offset() const { return off_; }
    std::size_t remaining() const { return n_ - off_; }

  private:
    void need(std::size_t n) const;

    const std::uint8_t *p_;
    std::size_t n_;
    std::size_t off_ = 0;
    std::string what_;
};

/** Compact four-character section tags ("TLB0" and friends). */
constexpr std::uint32_t
sectionTag(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

} // namespace contig

#endif // CONTIG_BASE_SERIALIZE_HH
