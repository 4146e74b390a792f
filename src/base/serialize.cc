#include "base/serialize.hh"

#include <array>

#include "base/logging.hh"

namespace contig
{

namespace
{

/**
 * Slice-by-8 CRC tables for the reflected IEEE polynomial: kCrc[0] is
 * the classic byte table, and kCrc[k][b] is the CRC register after
 * byte b followed by k zero bytes, so one step folds 8 input bytes
 * with 8 independent lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr CrcTables kCrc = makeCrcTables();

/** Little-endian 32-bit load, assembled from bytes on any host. */
std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = c ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        c = kCrc[7][lo & 0xFF] ^ kCrc[6][(lo >> 8) & 0xFF] ^
            kCrc[5][(lo >> 16) & 0xFF] ^ kCrc[4][lo >> 24] ^
            kCrc[3][hi & 0xFF] ^ kCrc[2][(hi >> 8) & 0xFF] ^
            kCrc[1][(hi >> 16) & 0xFF] ^ kCrc[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = kCrc[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::size_t
Serializer::beginSection(std::uint32_t tag)
{
    u32(tag);
    const std::size_t cookie = buf_.size();
    u64(0); // length placeholder, patched by endSection
    return cookie;
}

void
Serializer::endSection(std::size_t cookie)
{
    const std::uint64_t len = buf_.size() - (cookie + 8);
    for (int i = 0; i < 8; ++i)
        buf_[cookie + i] = static_cast<std::uint8_t>(len >> (8 * i));
}

void
Deserializer::need(std::size_t n) const
{
    if (n_ - off_ < n)
        fatal("truncated %s: wanted %zu bytes at offset %zu, have %zu",
              what_.c_str(), n, off_, n_ - off_);
}

std::uint8_t
Deserializer::u8()
{
    need(1);
    return p_[off_++];
}

std::uint32_t
Deserializer::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p_[off_ + i]) << (8 * i);
    off_ += 4;
    return v;
}

std::uint64_t
Deserializer::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p_[off_ + i]) << (8 * i);
    off_ += 8;
    return v;
}

double
Deserializer::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

void
Deserializer::bytes(void *out, std::size_t n)
{
    need(n);
    std::memcpy(out, p_ + off_, n);
    off_ += n;
}

std::string
Deserializer::str()
{
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char *>(p_ + off_),
                  static_cast<std::size_t>(n));
    off_ += static_cast<std::size_t>(n);
    return s;
}

std::size_t
Deserializer::expectSection(std::uint32_t tag, const char *name)
{
    const std::uint32_t got = u32();
    if (got != tag)
        fatal("%s: expected section '%s' (tag 0x%08x), found tag 0x%08x"
              " at offset %zu",
              what_.c_str(), name, tag, got, off_ - 4);
    const std::uint64_t len = u64();
    need(static_cast<std::size_t>(len));
    return off_ + static_cast<std::size_t>(len);
}

} // namespace contig
