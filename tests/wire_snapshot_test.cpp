// Wire-format robustness: corrupt, truncated or mismatched snapshot
// bytes must produce *typed* errors (wire::WireFormatError with the
// right code) — never UB, never a crash, never a silently wrong engine.
//
// The suite is fuzz-ish by construction: beyond the named corruption
// table it truncates a valid frame at every possible length and applies
// hundreds of seeded random mutations, asserting that nothing but
// WireFormatError ever escapes the decoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/exact_hhh.hpp"
#include "core/memento_hhh.hpp"
#include "core/rhhh.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_builder.hpp"
#include "util/bit.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "wire/codec.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

using wire::WireError;
using wire::WireFormatError;

std::vector<std::uint8_t> valid_frame() {
  ExactEngine engine(Hierarchy::byte_granularity());
  for (const auto& p : harness::TraceBuilder(7).compact_space().packets(2000)) {
    engine.add(p);
  }
  return wire::save_engine(engine);
}

WireError code_of(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)wire::load_engine(bytes);
  } catch (const WireFormatError& e) {
    return e.code();
  }
  ADD_FAILURE() << "decode unexpectedly succeeded";
  return WireError::kBadValue;
}

// ---------------------------------------------------------------- primitives

TEST(WirePrimitives, RoundTripEveryScalarType) {
  std::vector<std::uint8_t> buf;
  wire::Writer w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159265358979);
  w.boolean(true);
  w.str("hhh");

  wire::Reader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.14159265358979);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hhh");
  EXPECT_TRUE(r.done());
}

TEST(WirePrimitives, EncodingIsLittleEndianByConstruction) {
  std::vector<std::uint8_t> buf;
  wire::Writer w(buf);
  w.u32(0x11223344u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[1], 0x33);
  EXPECT_EQ(buf[2], 0x22);
  EXPECT_EQ(buf[3], 0x11);
}

TEST(WireSnapshot, RecycledFrameBufferIsReusedWithIdenticalBytes) {
  ExactEngine engine(Hierarchy::byte_granularity());
  for (const auto& p : harness::TraceBuilder(7).compact_space().packets(2000)) {
    engine.add(p);
  }
  std::vector<std::uint8_t> first = wire::save_engine(engine);
  const std::vector<std::uint8_t> copy = first;
  const std::uint8_t* const block = first.data();
  wire::recycle_frame(std::move(first));
  // The next frame on this thread is encoded into the recycled block.
  const std::vector<std::uint8_t> second = wire::save_engine(engine);
  EXPECT_EQ(second.data(), block);
  EXPECT_EQ(second, copy);
  // The spare is taken once: a further frame gets a block of its own.
  const std::vector<std::uint8_t> third = wire::save_engine(engine);
  EXPECT_NE(third.data(), block);
  EXPECT_EQ(third, copy);
}

TEST(WirePrimitives, ReaderThrowsTypedTruncationOnEveryAccessor) {
  std::vector<std::uint8_t> empty;
  wire::Reader r(empty);
  try {
    r.u64();
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kTruncated);
  }
}

TEST(WirePrimitives, CountRejectsImpossibleLengths) {
  // A corrupt 2^60 element count must throw, not drive a huge allocation.
  std::vector<std::uint8_t> buf;
  wire::Writer w(buf);
  w.u64(1ull << 60);
  wire::Reader r(buf);
  try {
    (void)r.count(8);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kTruncated);
  }
}

TEST(WirePrimitives, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(wire::crc32("123456789", 9), 0xCBF43926u);
}

/// Bit-at-a-time CRC-32 straight from the definition (reflected, poly
/// 0xEDB88320): the reference the table-driven crc32 must match.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

TEST(WirePrimitives, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..64 cover the byte tail alone, whole 8-byte steps and every
  // mix; start offsets 0..7 cover every alignment of the word loads.
  const std::vector<std::uint8_t> buf = seeded_bytes(64 + 8, 0xC3C0'0001);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(wire::crc32(buf.data() + offset, len), reference_crc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(WirePrimitives, Crc32MatchesBitwiseReferenceOnALargeBuffer) {
  const std::vector<std::uint8_t> buf = seeded_bytes(2 << 20, 0xC3C0'0002);
  EXPECT_EQ(wire::crc32(buf.data(), buf.size()), reference_crc32(buf.data(), buf.size()));
}

TEST(WirePrimitives, Crc32ChainsAcrossEverySplitPoint) {
  const std::vector<std::uint8_t> buf = seeded_bytes(100, 0xC3C0'0003);
  const std::uint32_t whole = wire::crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = wire::crc32(buf.data(), split);
    EXPECT_EQ(wire::crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

// ----------------------------------------------------- corruption table test

struct Corruption {
  const char* name;
  std::size_t offset;          // byte to clobber
  std::uint8_t value;          // value to write
  WireError expected;
};

TEST(WireSnapshotRobustness, NamedCorruptionsYieldTypedErrors) {
  const std::vector<std::uint8_t> good = valid_frame();
  ASSERT_NO_THROW((void)wire::load_engine(good));

  const std::vector<Corruption> table = {
      {"magic byte 0", 0, 'X', WireError::kBadMagic},
      {"magic byte 3", 3, 's', WireError::kBadMagic},
      {"version low byte", 4, 0xFF, WireError::kBadVersion},
      {"version high byte", 5, 0x7F, WireError::kBadVersion},
      {"kind -> unknown", 6, 0xEE, WireError::kBadValue},
      {"length grows past buffer", 9, 0xFF, WireError::kTruncated},
      {"payload bit rot", 20, 0xA5, WireError::kBadCrc},
      {"crc clobbered", 0xFFFF, 0x00, WireError::kBadCrc},  // offset fixed below
  };
  for (const Corruption& c : table) {
    std::vector<std::uint8_t> bad = good;
    const std::size_t offset = c.offset == 0xFFFF ? bad.size() - 1 : c.offset;
    // Guarantee the write actually changes the byte.
    bad[offset] = bad[offset] == c.value ? static_cast<std::uint8_t>(c.value ^ 0xA0)
                                         : c.value;
    EXPECT_EQ(code_of(bad), c.expected) << c.name;
  }
}

TEST(WireSnapshotRobustness, EveryTruncationLengthIsTyped) {
  const std::vector<std::uint8_t> good = valid_frame();
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<std::uint8_t> cut(good.begin(), good.begin() + len);
    try {
      (void)wire::load_engine(cut);
      ADD_FAILURE() << "decode of " << len << "-byte truncation succeeded";
    } catch (const WireFormatError& e) {
      // Cutting inside the CRC/payload region reads as a truncated frame;
      // nothing else may escape.
      EXPECT_TRUE(e.code() == WireError::kTruncated || e.code() == WireError::kBadCrc)
          << "truncation at " << len << " gave " << wire::to_string(e.code());
    }
  }
}

TEST(WireSnapshotRobustness, TrailingBytesAreRejectedStrictly) {
  std::vector<std::uint8_t> padded = valid_frame();
  padded.push_back(0x00);
  EXPECT_EQ(code_of(padded), WireError::kTrailingBytes);
}

TEST(WireSnapshotRobustness, RandomMutationSweepNeverEscapesTypedErrors) {
  const std::vector<std::uint8_t> good = valid_frame();
  harness::for_each_seed(0xF422'0001, 4, [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::uint8_t> bad = good;
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at = rng.below(bad.size());
        bad[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      try {
        // Success is allowed (a flip can cancel another); anything thrown
        // must be the typed error.
        (void)wire::load_engine(bad);
      } catch (const WireFormatError&) {
        // expected class
      }
    }
  });
}

TEST(WireSnapshotRobustness, CrcValidCraftedSizeParamsAreTypedNotAllocated) {
  // CRC-valid frames are still untrusted: a hand-crafted RHHH payload
  // declaring 2^60 counters per level must be rejected with a typed
  // kBadValue *before* any allocation — not escape as std::length_error
  // or attempt a multi-GB allocation (the collector decodes snapshots
  // from the network).
  std::vector<std::uint8_t> payload;
  wire::Writer w(payload);
  w.u8(5);  // hierarchy: byte granularity
  for (const std::uint8_t len : {32, 24, 16, 8, 0}) w.u8(len);
  w.u64(1ull << 60);  // counters_per_level: absurd
  w.boolean(false);
  w.u64(42);  // seed
  const auto frame = wire::build_frame(wire::SnapshotKind::kRhhhEngine, payload);
  try {
    (void)wire::load_engine(frame);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kBadValue);
  }
}

/// One (packed v4 key, byte count) level-map entry.
using V4Entry = std::pair<std::uint64_t, std::uint64_t>;

/// A CRC-valid kExactEngine frame over the byte-granularity v4 hierarchy
/// whose level maps carry `entries[level]`, with no check that the levels
/// agree with each other.
std::vector<std::uint8_t> hand_built_v4_exact_frame(
    const std::vector<std::vector<V4Entry>>& entries, std::uint64_t total_bytes) {
  std::vector<std::uint8_t> payload;
  wire::Writer w(payload);
  w.u8(static_cast<std::uint8_t>(AddressFamily::kIpv4));
  w.u8(5);
  for (const std::uint8_t len : {32, 24, 16, 8, 0}) w.u8(len);
  w.u64(total_bytes);
  for (const auto& level : entries) {
    w.u64(level.size());
    for (const auto& [key, count] : level) {
      w.u64(key);
      w.u64(count);
    }
  }
  return wire::build_frame(wire::SnapshotKind::kExactEngine, payload);
}

/// Same, with every key counting one byte.
std::vector<std::uint8_t> hand_built_v4_exact_frame(
    const std::vector<std::vector<std::uint64_t>>& keys) {
  std::vector<std::vector<V4Entry>> entries;
  for (const auto& level : keys) {
    entries.emplace_back();
    for (const std::uint64_t key : level) entries.back().emplace_back(key, 1);
  }
  return hand_built_v4_exact_frame(entries, 1);
}

TEST(WireSnapshotRobustness, LevelMapKeysMustBelongToTheirLevel) {
  const Ipv4Address addr = Ipv4Address::of(10, 1, 2, 3);
  auto key = [&](unsigned len) { return Ipv4Prefix(addr, len).key(); };
  const std::vector<std::vector<std::uint64_t>> good = {
      {key(32)}, {key(24)}, {key(16)}, {key(8)}, {key(0)}};
  ASSERT_NO_THROW((void)wire::load_engine(hand_built_v4_exact_frame(good)));

  // A /32 key in the /24 map.
  auto slash32_in_slash24 = good;
  slash32_in_slash24[1] = {key(32)};
  EXPECT_EQ(code_of(hand_built_v4_exact_frame(slash32_in_slash24)), WireError::kBadValue);

  // A key with host bits in the /16 map: 10.1.2.0 tagged /16.
  auto host_bits_in_slash16 = good;
  host_bits_in_slash16[2] = {(static_cast<std::uint64_t>(addr.bits() & 0xFFFFFF00u) << 8) | 16};
  EXPECT_EQ(code_of(hand_built_v4_exact_frame(host_bits_in_slash16)), WireError::kBadValue);

  // 10.1.2.3/32 in every level map.
  EXPECT_EQ(code_of(hand_built_v4_exact_frame(
                {{key(32)}, {key(32)}, {key(32)}, {key(32)}, {key(32)}})),
            WireError::kBadValue);
}

// Extraction trusts every level's counts. A frame that is well-formed
// but inconsistent (a parent below the sum of its children, or a parent
// with no children at all) must extract without wrapping a residual.
TEST(WireSnapshotRobustness, InconsistentLevelMapsExtractWithoutWrapping) {
  auto key = [](std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d,
                unsigned len) { return Ipv4Prefix(Ipv4Address::of(a, b, c, d), len).key(); };
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  auto extract_at = [](const std::vector<std::uint8_t>& frame, std::uint64_t threshold) {
    const auto engine = wire::load_engine(frame);
    return extract_hhh(dynamic_cast<const ExactEngine&>(*engine).aggregates(), threshold);
  };

  // Two 600-byte /32s under a /24 (and everything above) that claims 700:
  // the HHH children discount 1200 from 700, which saturates to 0.
  const HhhSet report = extract_at(hand_built_v4_exact_frame(
      {{{key(10, 1, 2, 1, 32), 600}, {key(10, 1, 2, 2, 32), 600}},
       {{key(10, 1, 2, 0, 24), 700}},
       {{key(10, 1, 0, 0, 16), 700}},
       {{key(10, 0, 0, 0, 8), 700}},
       {{key(0, 0, 0, 0, 0), 700}}},
      700),
      500);
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report.items()[0], (HhhItem{PrefixKey::parse("10.1.2.1/32").value(), 600, 600}));
  EXPECT_EQ(report.items()[1], (HhhItem{PrefixKey::parse("10.1.2.2/32").value(), 600, 600}));

  // Children whose counts sum to 2^64 saturate the discount instead of
  // wrapping it to 0 (which would report the /24 from its whole count).
  const std::uint64_t half = 1ull << 63;
  const HhhSet huge_report = extract_at(hand_built_v4_exact_frame(
      {{{key(10, 1, 2, 1, 32), half}, {key(10, 1, 2, 2, 32), half}},
       {{key(10, 1, 2, 0, 24), kMax}},
       {},
       {},
       {}},
      kMax),
      half);
  ASSERT_EQ(huge_report.size(), 2u);
  EXPECT_EQ(huge_report.items()[0].prefix.length(), 32u);
  EXPECT_EQ(huge_report.items()[1].prefix.length(), 32u);

  // A /24 with a large count and no /32 below it is reported from its own
  // count; its ancestors discount it like any HHH.
  const HhhSet orphan_report = extract_at(hand_built_v4_exact_frame(
      {{{key(10, 1, 2, 1, 32), 100}},
       {{key(10, 1, 2, 0, 24), 100}, {key(10, 9, 9, 0, 24), 5000}},
       {{key(10, 1, 0, 0, 16), 100}, {key(10, 9, 0, 0, 16), 5000}},
       {{key(10, 0, 0, 0, 8), 5100}},
       {{key(0, 0, 0, 0, 0), 5100}}},
      5100),
      2550);
  ASSERT_EQ(orphan_report.size(), 1u);
  EXPECT_EQ(orphan_report.items()[0],
            (HhhItem{PrefixKey::parse("10.9.9.0/24").value(), 5000, 5000}));
}

TEST(WireSnapshotRobustness, LegacyV6LevelMapKeysMustBelongToTheirLevel) {
  // The per-entry v6 block (count without the compact flag) that
  // pre-compact writers emitted: (u64 hi, u64 lo, u8 len, u64 bytes).
  const Hierarchy h = Hierarchy::v6_byte_granularity();
  auto frame = [&](std::size_t bad_level, std::uint64_t hi, unsigned len) {
    std::vector<std::uint8_t> payload;
    wire::Writer w(payload);
    wire::write_hierarchy(w, h);
    w.u64(1);
    const std::uint64_t addr = 0x2001'0db8'1234'5678ull;
    for (std::size_t level = 0; level < h.levels(); ++level) {
      const unsigned level_len = h.length_at(level);
      const bool bad = level == bad_level;
      w.u64(1);
      w.u64(bad ? hi : addr & prefix_mask64(level_len));
      w.u64(0);
      w.u8(static_cast<std::uint8_t>(bad ? len : level_len));
      w.u64(1);
    }
    return wire::build_frame(wire::SnapshotKind::kExactEngine, payload);
  };
  const std::size_t slash32 = h.level_of_length(32);
  ASSERT_NE(slash32, Hierarchy::npos);
  ASSERT_NO_THROW((void)wire::load_engine(frame(Hierarchy::npos, 0, 0)));
  // A /64 key in the /32 map, and a /32-tagged key with bits past /32.
  EXPECT_EQ(code_of(frame(slash32, 0x2001'0db8'0000'0000ull, 64)), WireError::kBadValue);
  EXPECT_EQ(code_of(frame(slash32, 0x2001'0db8'1234'0000ull, 32)), WireError::kBadValue);
}

// ------------------------------------------------------------- params checks

TEST(WireSnapshotRobustness, ParamsMismatchOnRestoreIsTyped) {
  ExactEngine byte_engine(Hierarchy::byte_granularity());
  byte_engine.add(harness::packet_at(0.0, Ipv4Address::of(1, 2, 3, 4), 100));
  const auto frame = wire::save_engine(byte_engine);

  ExactEngine bit_engine(Hierarchy::bit_granularity());
  try {
    wire::load_engine_into(frame, bit_engine);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kParamsMismatch);
  }
}

TEST(WireSnapshotRobustness, KindMismatchOnRestoreIsTyped) {
  RhhhEngine rhhh(RhhhEngine::Params{.counters_per_level = 64, .seed = 1});
  const auto frame = wire::save_engine(rhhh);
  ExactEngine exact(Hierarchy::byte_granularity());
  try {
    wire::load_engine_into(frame, exact);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kParamsMismatch);
  }
}

TEST(WireSnapshotRobustness, MergeAcrossConfigurationsThrowsInvalidArgument) {
  // Params mismatch *between* deserialized vantages surfaces through
  // merge_from's std::invalid_argument — the collector maps it to its
  // "incompatible snapshots" exit.
  auto a = std::make_unique<RhhhEngine>(
      RhhhEngine::Params{.counters_per_level = 64, .seed = 1});
  auto b = std::make_unique<RhhhEngine>(
      RhhhEngine::Params{.counters_per_level = 128, .seed = 1});
  auto a2 = wire::load_engine(wire::save_engine(*a));
  auto b2 = wire::load_engine(wire::save_engine(*b));
  EXPECT_THROW(a2->merge_from(*b2), std::invalid_argument);
}

// ------------------------------------------------------------- golden bytes

// Frames are a contract between builds: a vantage and a collector of
// different versions must agree on every byte. These digests were
// recorded from the reference encoder; any codec change that moves a
// byte fails here. The decoded-layout digest pins that a decode is a
// function of the frame alone: a v4 engine re-encodes its maps in that
// layout, and merges into a decoded engine insert in it. It no longer
// fixes any report: exact reports are in canonical (level, prefix) order
// whatever the layout, so the items digest pins counts and sets.

/// Endian-independent running digest of a sequence of 64-bit fields.
class Digest {
 public:
  void add(std::uint64_t v) { h_ = mix64(h_ + v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x601D'5EED;
};

/// Digest of a report: its totals, then every item's fields in item order.
std::uint64_t items_digest(const HhhSet& set) {
  Digest d;
  d.add(set.total_bytes);
  d.add(set.threshold_bytes);
  for (const HhhItem& item : set.items()) {
    d.add(static_cast<std::uint64_t>(item.prefix.family()));
    d.add(item.prefix.bits_hi());
    d.add(item.prefix.bits_lo());
    d.add(item.prefix.length());
    d.add(item.total_bytes);
    d.add(item.conditioned_bytes);
  }
  return d.value();
}

/// Digest of what a decoded engine holds, in its iteration order: every
/// level map's entries for the exact engines (their layout fixes the
/// order of any v4 re-encode or merge built from them), the re-encoded
/// frame for the others.
std::uint64_t decoded_digest(const HhhEngine& engine) {
  Digest d;
  auto walk = [&d](const auto& agg) {
    for (std::size_t level = 0; level < agg.hierarchy().levels(); ++level) {
      agg.for_each_at(level, [&d](const auto& key, std::uint64_t bytes) {
        if constexpr (std::is_integral_v<std::decay_t<decltype(key)>>) {
          d.add(key);
        } else {
          d.add(key.hi);
          d.add(key.lo);
          d.add(key.len);
        }
        d.add(bytes);
      });
    }
  };
  if (const auto* v4 = dynamic_cast<const ExactEngine*>(&engine)) {
    walk(v4->aggregates());
  } else if (const auto* v6 = dynamic_cast<const ExactV6Engine*>(&engine)) {
    walk(v6->aggregates());
  } else {
    const std::vector<std::uint8_t> frame = wire::save_engine(engine);
    d.add(xxhash64(frame.data(), frame.size()));
  }
  return d.value();
}

/// The seeded workload, with the low 64 address bits of v6 sources
/// replaced by a few interface ids per /64 when `iids` is set: keys that
/// then differ only past bit 64 exercise the compact encoder's low-word
/// radix digits and shared prefixes longer than 8 bytes.
std::vector<PacketRecord> golden_packets(double v6_fraction, bool iids) {
  std::vector<PacketRecord> packets =
      harness::TraceBuilder(0x601D'0013).v6_fraction(v6_fraction).packets(30000);
  if (iids) {
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const std::uint64_t hi = packets[i].src_hi();
      const std::uint64_t lo =
          (mix64(hi) & 0xFFFF'FFFF'0000'0000ull) | (mix64(i % 5) & 0xFFFF);
      packets[i].set_src(IpAddress::v6(hi, lo));
    }
  }
  return packets;
}

struct GoldenCase {
  const char* name;
  std::function<std::unique_ptr<HhhEngine>()> make;
  double v6_fraction;
  bool iids;
  std::uint64_t frame_bytes;
  std::uint64_t frame_digest;
  std::uint64_t decoded_digest;
  std::size_t items;
  std::uint64_t items_digest;
};

TEST(WireGolden, FramesAndDecodedLayoutArePinned) {
  const std::vector<GoldenCase> cases = {
      {"exact_v4_byte", [] { return make_exact_engine(Hierarchy::byte_granularity()); },
       0.0, false, 512107, 0x2E5F5F692835C3F2ull, 0xF41ADD09B8CD7E63ull, 78,
       0x50E00FB9C853AF2Eull},
      {"exact_v6_byte", [] { return make_exact_engine(Hierarchy::v6_byte_granularity()); },
       1.0, false, 1612498, 0xE978FAB89F058353ull, 0x0585B1DA38C00DFBull, 79,
       0xD8497A07976EE32Dull},
      {"exact_v6_byte_iids",
       [] { return make_exact_engine(Hierarchy::v6_byte_granularity()); }, 1.0, true,
       1652521, 0xB29C1CE40FF35FB1ull, 0x49348E302763011Bull, 79, 0xD8497A07976EE32Dull},
      {"exact_v6_nibble",
       [] { return make_exact_engine(Hierarchy::v6_nibble_granularity()); }, 1.0, false,
       3207501, 0xB6B70631BA91A202ull, 0x7E75F126151A4A07ull, 99, 0x234CA9DD3E22F412ull},
      {"rhhh",
       [] {
         return std::make_unique<RhhhEngine>(
             RhhhEngine::Params{.counters_per_level = 512, .seed = 42});
       },
       0.0, false, 57272, 0x3A635FA97611FA24ull, 0x9C473921C6316384ull, 82, 0xAFD2B3E93831DB03ull},
      {"memento",
       [] { return std::make_unique<MementoHhhDetector>(MementoHhhParams{}); }, 0.0, false,
       58415, 0xBEC966469452ECF7ull, 0xE2394C98BF062714ull, 75, 0xCD1BC44B0FF4C81Aull},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto engine = c.make();
    engine->add_batch(golden_packets(c.v6_fraction, c.iids));
    const std::vector<std::uint8_t> frame = wire::save_engine(*engine);
    const auto decoded = wire::load_engine(frame);
    const HhhSet report = decoded->extract(0.005);
    EXPECT_EQ(frame.size(), c.frame_bytes);
    EXPECT_EQ(xxhash64(frame.data(), frame.size()), c.frame_digest);
    EXPECT_EQ(decoded_digest(*decoded), c.decoded_digest);
    EXPECT_EQ(report.size(), c.items);
    EXPECT_EQ(items_digest(report), c.items_digest);
    if (engine->name() == "exact_v6") {
      // The compact v6 encoder sorts keys, so a decoded engine re-encodes
      // to the same frame whatever its map layout.
      EXPECT_EQ(wire::save_engine(*decoded), frame);
    }
  }
}

// ---------------------------------------------------------------- frame/file

TEST(WireSnapshotFraming, ConcatenatedFramesParseSequentially) {
  const std::vector<std::uint8_t> one = valid_frame();
  std::vector<std::uint8_t> stream = one;
  stream.insert(stream.end(), one.begin(), one.end());

  std::span<const std::uint8_t> rest(stream);
  int frames = 0;
  while (!rest.empty()) {
    const wire::FrameView view = wire::parse_frame(rest);
    EXPECT_EQ(view.kind, wire::SnapshotKind::kExactEngine);
    auto engine = wire::load_engine(view);
    EXPECT_GT(engine->total_bytes(), 0u);
    rest = rest.subspan(view.frame_size);
    ++frames;
  }
  EXPECT_EQ(frames, 2);
}

TEST(WireSnapshotFraming, FileRoundTripSurvivesRename) {
  const auto path = (std::filesystem::temp_directory_path() / "hhh_wire_test.snap").string();
  const std::vector<std::uint8_t> frame = valid_frame();
  wire::write_file(path, frame);
  EXPECT_EQ(wire::read_file(path), frame);
  std::filesystem::remove(path);
}

TEST(WireSnapshotFraming, MissingFileThrowsRuntimeError) {
  EXPECT_THROW((void)wire::read_file("/nonexistent/hhh/nope.snap"), std::runtime_error);
}

}  // namespace
}  // namespace hhh
