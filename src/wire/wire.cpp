#include "wire/wire.hpp"

#include <array>
#include <cstring>

namespace hhh::wire {

const char* to_string(WireError e) noexcept {
  switch (e) {
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kBadCrc: return "bad_crc";
    case WireError::kBadValue: return "bad_value";
    case WireError::kParamsMismatch: return "params_mismatch";
    case WireError::kUnsupportedEngine: return "unsupported_engine";
    case WireError::kTrailingBytes: return "trailing_bytes";
  }
  return "unknown";
}

WireFormatError::WireFormatError(WireError code, const std::string& detail)
    : std::runtime_error(std::string("wire: ") + to_string(code) + ": " + detail),
      code_(code) {}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void Writer::raw(const void* data, std::size_t len) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out_->insert(out_->end(), bytes, bytes + len);
}

void Reader::throw_truncated(std::size_t n) const {
  throw WireFormatError(WireError::kTruncated,
                        "need " + std::to_string(n) + " bytes, have " +
                            std::to_string(remaining()));
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  check(v <= 1, WireError::kBadValue, "boolean byte not 0/1");
  return v != 0;
}

std::uint64_t Reader::var_u64() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = u8();
    const std::uint64_t chunk = byte & 0x7F;
    check(shift != 63 || chunk <= 1, WireError::kBadValue, "varint exceeds 64 bits");
    v |= chunk << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw WireFormatError(WireError::kBadValue, "varint longer than 10 bytes");
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

void Reader::raw(void* dst, std::size_t len) {
  need(len);
  std::memcpy(dst, data_.data() + pos_, len);
  pos_ += len;
}

void Reader::skip(std::size_t len) {
  need(len);
  pos_ += len;
}

std::uint64_t Reader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (min_element_bytes > 0 &&
      n > static_cast<std::uint64_t>(remaining()) / min_element_bytes) {
    throw WireFormatError(WireError::kTruncated,
                          "declared count " + std::to_string(n) +
                              " exceeds remaining input");
  }
  return n;
}

namespace {

// Slice-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (; len >= 8; len -= 8, p += 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hhh::wire
