#include "core/level_aggregates.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <type_traits>
#include <utility>

#include "wire/codec.hpp"

namespace hhh {

namespace {

// ---------------------------------------------------------------------------
// Compact v6 level-map encoding (version-2-compatible payload flag).
//
// A naive v6 counter entry is 25 bytes (u64 hi, u64 lo, u8 len, u64 bytes);
// an exact_v6 snapshot of a large trace was 65.7 MB of mostly-redundant
// bytes: within one level map every key has the SAME prefix length, keys
// share long address prefixes (hierarchical traffic), and byte counters
// are usually small. The compact encoding sorts the level's keys and
// writes, per entry, only the suffix that differs from the previous key
// plus an LEB128 counter:
//
//   u64  count | kCompactCountFlag      (bit 63 = compact block follows)
//   u8   prefix length L (shared by every key in the map)
//   then `count` entries, keys in ascending (hi, lo) order:
//     u8   shared    leading address bytes identical to the previous key
//     raw  ceil(L/8) - shared address bytes (big-endian suffix)
//     var  counter value (LEB128)
//
// The flag keeps the payload inside wire version 2: this build's reader
// accepts both the legacy per-entry blocks (flag clear — every previously
// written v2 snapshot) and compact blocks; v1 payloads are IPv4-only and
// never reach the v6 path. A pre-compact build reading a compact block
// fails its count validation with a typed error, never UB — the standard
// forward-compatibility posture of the wire layer.
//
// The IPv4 encoding is untouched: its packed-u64 entries are the layout
// version-1 snapshots pin, and its maps are a quarter the bytes per entry
// to begin with.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kCompactCountFlag = 1ULL << 63;

/// One v6 level entry as the compact encoder sorts it: the canonical
/// address halves (the map's prefix length is shared) and the counter.
struct V6Entry {
  std::uint64_t hi;
  std::uint64_t lo;
  std::uint64_t bytes;
};

/// Below this many entries a comparison sort beats the radix passes'
/// fixed cost (a scratch array, and a 256-bucket histogram and a scatter
/// pass per varying address byte); measured crossover on a /128 level of
/// a CAIDA-like v6 window with four varying bytes.
constexpr std::size_t kRadixMinEntries = 1536;

/// Stable LSD radix sort: `digit(entry, d)` is the entry's d-th digit,
/// least significant first, each below `radix`. One pass histograms
/// every digit; each digit then takes one scatter into a scratch array
/// that lives only for the call.
template <typename T, typename DigitFn>
void lsd_radix_sort(std::vector<T>& entries, std::size_t num_digits, std::size_t radix,
                    DigitFn digit) {
  std::vector<std::size_t> offsets(num_digits * radix);
  for (const T& e : entries) {
    for (std::size_t d = 0; d < num_digits; ++d) ++offsets[d * radix + digit(e, d)];
  }
  std::vector<T> scratch(entries.size());
  for (std::size_t d = 0; d < num_digits; ++d) {
    std::size_t* const next = offsets.data() + d * radix;
    std::size_t sum = 0;
    for (std::size_t i = 0; i < radix; ++i) sum += std::exchange(next[i], sum);
    for (const T& e : entries) scratch[next[digit(e, d)]++] = e;
    entries.swap(scratch);
  }
}

/// Sort a level's entries by address, ascending. Distinct keys have one
/// sorted order, so the encoded bytes do not depend on the algorithm.
///
/// Large levels take an LSD radix sort over only the address bytes that
/// vary within the level: in a hierarchical level map the leading bytes
/// are mostly shared and every byte past the prefix length is zero, so a
/// /48 level of one /32 allocation sorts in two byte passes.
void sort_v6_entries(std::vector<V6Entry>& entries) {
  if (entries.size() < kRadixMinEntries) {
    std::sort(entries.begin(), entries.end(), [](const V6Entry& a, const V6Entry& b) {
      return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    });
    return;
  }
  std::uint64_t vary_hi = 0;
  std::uint64_t vary_lo = 0;
  for (const V6Entry& e : entries) {
    vary_hi |= e.hi ^ entries.front().hi;
    vary_lo |= e.lo ^ entries.front().lo;
  }
  // Digits least significant first: the low word's bytes, then the high
  // word's.
  struct Digit {
    bool low_word;
    unsigned shift;
  };
  std::array<Digit, 16> digits;
  std::size_t num_digits = 0;
  for (const bool low_word : {true, false}) {
    const std::uint64_t vary = low_word ? vary_lo : vary_hi;
    for (unsigned shift = 0; shift < 64; shift += 8) {
      if ((vary >> shift) & 0xFF) digits[num_digits++] = Digit{low_word, shift};
    }
  }
  lsd_radix_sort(entries, num_digits, 256, [&digits](const V6Entry& e, std::size_t d) {
    return static_cast<std::uint8_t>((digits[d].low_word ? e.lo : e.hi) >> digits[d].shift);
  });
}

/// One decoded compact v6 entry, tagged with its home bucket in the table
/// it is about to be inserted into.
struct DecodedEntry {
  std::uint64_t bucket;
  V6Domain::MapKey key;
  std::uint64_t value;
};

/// Sort `entries` by home bucket, every bucket below 2^bits, stably:
/// entries of one bucket keep their decode order, so the decoded layout
/// is a function of the frame alone.
void sort_by_bucket(std::vector<DecodedEntry>& entries, unsigned bits) {
  constexpr unsigned kMaxDigitBits = 11;
  const unsigned passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  if (entries.size() < 2) return;
  const unsigned digit_bits = (bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
  lsd_radix_sort(entries, passes, mask + 1, [=](const DecodedEntry& e, std::size_t d) {
    return (e.bucket >> (d * digit_bits)) & mask;
  });
}

/// Mirror Reader::count()'s cheap-allocation guard for counts that were
/// read raw (the flag bit lives in the count word).
void validate_count(const wire::Reader& r, std::uint64_t n, std::size_t min_element_bytes) {
  wire::check(n <= r.remaining() / min_element_bytes, wire::WireError::kTruncated,
              "declared count exceeds remaining input");
}

template <typename D>
void write_level_map(wire::Writer& w,
                     const typename BasicLevelAggregates<D>::Map& map,
                     [[maybe_unused]] unsigned level_len) {
  if constexpr (std::is_same_v<D, V6Domain>) {
    std::vector<V6Entry> entries;
    entries.reserve(map.size());
    map.for_each([&](const V6Domain::MapKey& key, const std::uint64_t& bytes) {
      assert(key.len == level_len);  // every key is generalized to its level
      entries.push_back(V6Entry{key.hi, key.lo, bytes});
    });
    sort_v6_entries(entries);
    w.u64(static_cast<std::uint64_t>(entries.size()) | kCompactCountFlag);
    w.u8(static_cast<std::uint8_t>(level_len));
    const std::size_t sig = (level_len + 7) / 8;
    // Worst case per entry: the shared byte, sig suffix bytes and a
    // 10-byte varint. Every suffix is written as two whole 64-bit words
    // (the 16 spare bytes cover the last one); the next field overwrites
    // whatever lies past the suffix.
    w.bulk(entries.size() * (sig + 11) + 16, [&entries, sig](std::uint8_t* p) {
      std::uint64_t prev_hi = 0;
      std::uint64_t prev_lo = 0;
      for (const V6Entry& e : entries) {
        const std::uint64_t diff = e.hi ^ prev_hi;
        const std::size_t common = diff != 0 ? std::countl_zero(diff) / 8
                                             : 8 + std::countl_zero(e.lo ^ prev_lo) / 8;
        const std::size_t shared = std::min(common, sig);
        *p++ = static_cast<std::uint8_t>(shared);
        // The address shifted left by the shared bytes, as two words.
        const unsigned bits = static_cast<unsigned>(8 * shared);
        std::uint64_t first = e.hi;
        std::uint64_t second = e.lo;
        if (bits >= 64) {
          first = bits == 128 ? 0 : e.lo << (bits - 64);
          second = 0;
        } else if (bits != 0) {
          first = (e.hi << bits) | (e.lo >> (64 - bits));
          second = e.lo << bits;
        }
        wire::store_be(p, first);
        wire::store_be(p + 8, second);
        p = wire::store_var_u64(p + (sig - shared), e.bytes);
        prev_hi = e.hi;
        prev_lo = e.lo;
      }
      return p;
    });
  } else {
    // IPv4: (packed u64 key, u64 counter) entries in map order, the
    // layout version-1 snapshots pin, filled into one span.
    w.u64(map.size());
    w.bulk(map.size() * 16, [&](std::uint8_t* p) {
      map.for_each([&](const V4Domain::MapKey& key, const std::uint64_t& bytes) {
        wire::store_le(p, key);
        wire::store_le(p + 8, bytes);
        p += 16;
      });
      return p;
    });
  }
}

/// A per-entry key as D::write_key lays it out, decoded from raw bytes.
template <typename D>
typename D::MapKey load_key(const std::uint8_t* p) {
  if constexpr (std::is_same_v<D, V6Domain>) {
    return V6Domain::MapKey{wire::load_le<std::uint64_t>(p),
                            wire::load_le<std::uint64_t>(p + 8), p[16]};
  } else {
    return wire::load_le<std::uint64_t>(p);
  }
}

template <typename D>
void read_level_map(wire::Reader& r, typename BasicLevelAggregates<D>::Map& map,
                    unsigned level_len) {
  using Map = typename BasicLevelAggregates<D>::Map;
  const std::uint64_t raw = r.u64();
  if constexpr (std::is_same_v<D, V6Domain>) {
    if (raw & kCompactCountFlag) {
      const std::uint64_t n = raw & ~kCompactCountFlag;
      validate_count(r, n, 2);  // 1 shared byte + >= 1 varint byte
      const unsigned len = r.u8();
      wire::check(len == level_len, wire::WireError::kBadValue,
                  "compact v6 block length does not match the hierarchy level");
      const unsigned sig = (len + 7) / 8;
      // Pre-size for the declared entry count (see the legacy path note).
      map = Map(std::max<std::size_t>(n * 2, 16));
      // Hot loop over the raw span with a local cursor: per-field Reader
      // calls (bounds check + call overhead per byte) would slow compact
      // decode against the legacy 25-byte entries; this keeps it one
      // bounds check per entry plus one per varint byte.
      const std::span<const std::uint8_t> rest = r.peek_rest();
      const std::uint8_t* p = rest.data();
      const std::uint8_t* const end = p + rest.size();
      std::uint8_t bytes[16] = {0};
      // Decode into scratch first, then insert in ascending bucket order:
      // delta decoding yields keys in *sorted* order, and inserting 128-bit
      // keys at hash-random buckets of a many-MB table is a cache miss per
      // entry — the bucket sort turns table writes sequential again (the
      // same trick as the legacy path, whose entries arrive in the source
      // map's bucket order for free).
      std::vector<DecodedEntry> decoded;
      decoded.reserve(n);
      const std::size_t mask = map.capacity() - 1;
      for (std::uint64_t i = 0; i < n; ++i) {
        wire::check(p < end, wire::WireError::kTruncated, "compact v6 block truncated");
        const unsigned shared = *p++;
        wire::check(shared <= sig, wire::WireError::kBadValue,
                    "compact v6 shared-prefix byte count exceeds key width");
        const std::size_t suffix = sig - shared;
        wire::check(static_cast<std::size_t>(end - p) > suffix,
                    wire::WireError::kTruncated, "compact v6 block truncated");
        std::memcpy(bytes + shared, p, suffix);
        p += suffix;
        const V6Domain::MapKey key{wire::load_be<std::uint64_t>(bytes),
                                   wire::load_be<std::uint64_t>(bytes + 8), len};
        wire::check(key == V6Domain::truncate(key, len), wire::WireError::kBadValue,
                    "compact v6 key has bits beyond its prefix length");
        // Inline LEB128 (same grammar as Reader::var_u64).
        std::uint64_t value = 0;
        unsigned shift = 0;
        for (;;) {
          wire::check(p < end, wire::WireError::kTruncated, "compact v6 block truncated");
          const std::uint8_t byte = *p++;
          wire::check(shift < 64 && (shift != 63 || (byte & 0x7F) <= 1),
                      wire::WireError::kBadValue, "varint exceeds 64 bits");
          value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
          if ((byte & 0x80) == 0) break;
          shift += 7;
        }
        decoded.push_back(
            DecodedEntry{typename D::Hash{}(key) & mask, key, value});
      }
      r.skip(static_cast<std::size_t>(p - rest.data()));
      sort_by_bucket(decoded, static_cast<unsigned>(std::countr_zero(map.capacity())));
      for (const DecodedEntry& e : decoded) {
        auto [v, inserted] = map.try_emplace(e.key);
        wire::check(inserted, wire::WireError::kBadValue,
                    "LevelAggregates duplicate key");
        *v = e.value;
      }
      return;
    }
  }
  // Legacy per-entry block (and the whole IPv4 path): fixed-width
  // (key, u64 counter) entries as D::write_key lays them out, so one
  // bounds check covers the block and a local cursor walks it. Entries
  // are inserted in frame order — the source map's bucket order — which
  // keeps table writes sequential and reproduces the decoded layout.
  constexpr std::size_t kKeyBytes = std::is_same_v<D, V6Domain> ? 17 : 8;
  constexpr std::size_t kEntryBytes = kKeyBytes + 8;
  const std::uint64_t n = raw;
  validate_count(r, n, kEntryBytes);
  // Pre-size for the declared entry count: inserting a large level map
  // into a default-capacity table would rehash O(log n) times and
  // dominate deserialization.
  map = Map(n * 2);
  const std::uint8_t* p = r.peek_rest().data();
  for (std::uint64_t i = 0; i < n; ++i, p += kEntryBytes) {
    const typename D::MapKey key = load_key<D>(p);
    wire::check(key == D::truncate(key, level_len), wire::WireError::kBadValue,
                "LevelAggregates key does not belong to its level");
    auto [v, inserted] = map.try_emplace(key);
    wire::check(inserted, wire::WireError::kBadValue, "LevelAggregates duplicate key");
    *v = wire::load_le<std::uint64_t>(p + kKeyBytes);
  }
  r.skip(static_cast<std::size_t>(n) * kEntryBytes);
}

}  // namespace

template <typename D>
void BasicLevelAggregates<D>::save_state(wire::Writer& w) const {
  wire::write_hierarchy(w, hierarchy_);
  w.u64(total_);
  for (std::size_t level = 0; level < maps_.size(); ++level) {
    write_level_map<D>(w, maps_[level], hierarchy_.length_at(level));
  }
}

template <typename D>
void BasicLevelAggregates<D>::read_counters(wire::Reader& r) {
  total_ = r.u64();
  for (std::size_t level = 0; level < maps_.size(); ++level) {
    read_level_map<D>(r, maps_[level], hierarchy_.length_at(level));
  }
}

template <typename D>
void BasicLevelAggregates<D>::load_state(wire::Reader& r) {
  wire::check(wire::read_hierarchy(r) == hierarchy_, wire::WireError::kParamsMismatch,
              "LevelAggregates hierarchy mismatch");
  read_counters(r);
}

template <typename D>
BasicLevelAggregates<D> BasicLevelAggregates<D>::deserialize(wire::Reader& r) {
  const Hierarchy hierarchy = wire::read_hierarchy(r);
  wire::check(hierarchy.family() == D::kFamily, wire::WireError::kParamsMismatch,
              "LevelAggregates address family mismatch");
  return deserialize_counters(hierarchy, r);
}

template class BasicLevelAggregates<V4Domain>;
template class BasicLevelAggregates<V6Domain>;

}  // namespace hhh
