// The Memento sliding-window HHH detector's contract: sharp window
// expiry at frame granularity, query-at-any-instant accuracy bracketed
// against the exact sliding detector, merge semantics, snapshot
// round-trips, the HhhEngine surface, and bounded state.
#include "core/memento_hhh.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "harness/golden.hpp"
#include "trace/synthetic_trace.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
PrefixKey pfx(const char* s) { return *PrefixKey::parse(s); }

PacketRecord pkt(double t, Ipv4Address src, std::uint32_t bytes) {
  PacketRecord p;
  p.ts = TimePoint::from_seconds(t);
  p.set_src(src);
  p.ip_len = bytes;
  return p;
}

PacketRecord pkt6(double t, const char* src, std::uint32_t bytes) {
  PacketRecord p;
  p.ts = TimePoint::from_seconds(t);
  p.set_src(*IpAddress::parse(src));
  p.ip_len = bytes;
  return p;
}

TimePoint at(double t) { return TimePoint::from_seconds(t); }

bool contains(const HhhSet& set, const PrefixKey& p) {
  const auto prefixes = set.prefixes();
  return std::binary_search(prefixes.begin(), prefixes.end(), p);
}

TEST(MementoHhh, SteadyHeavySourceDetected) {
  MementoHhhDetector det({.window = Duration::seconds(10)});
  for (int i = 0; i < 4000; ++i) {
    det.add(pkt(i * 0.005, ip("10.1.2.3"), 700));
    det.add(pkt(i * 0.005, ip(i % 2 ? "50.0.0.1" : "60.0.0.1"), 300));
  }
  const auto result = det.query(at(20.0), 0.3);
  EXPECT_TRUE(contains(result, pfx("10.1.2.3/32")));
}

TEST(MementoHhh, SharpWindowExpiryAtFrameStep) {
  // W = 5 s in 5 frames of 1 s. Heavy traffic only in [0, 2): its last
  // frame (frame 1) stays inside the window through now < 7.0 and is
  // fully expired one frame step later — queries bracket the boundary.
  MementoHhhDetector det({.window = Duration::seconds(5), .frames = 5});
  for (int i = 0; i < 400; ++i) det.add(pkt(i * 0.005, ip("66.6.6.6"), 1000));
  for (int i = 0; i < 440; ++i) det.add(pkt(2.0 + i * 0.01, ip("50.0.0.1"), 200));

  const auto before = det.query(at(6.5), 0.3);
  EXPECT_TRUE(contains(before, pfx("66.6.6.6/32")));

  for (int i = 0; i < 100; ++i) det.add(pkt(6.5 + i * 0.01, ip("50.0.0.1"), 200));
  const auto after = det.query(at(7.5), 0.3);
  EXPECT_FALSE(contains(after, pfx("66.6.6.6/32")));
  EXPECT_TRUE(contains(after, pfx("50.0.0.1/32")));
}

TEST(MementoHhh, HierarchicalAggregation) {
  MementoHhhDetector det({.window = Duration::seconds(10)});
  // Four siblings, each ~12%: the /24 qualifies at 30%, the hosts do not.
  for (int i = 0; i < 3000; ++i) {
    const double t = i * 0.005;
    det.add(pkt(t, ip("10.1.2.1"), 120));
    det.add(pkt(t, ip("10.1.2.2"), 120));
    det.add(pkt(t, ip("10.1.2.3"), 120));
    det.add(pkt(t, ip("10.1.2.4"), 120));
    det.add(pkt(t, ip("99.0.0.1"), 520));
  }
  const auto result = det.query(at(15.0), 0.3);
  EXPECT_TRUE(contains(result, pfx("10.1.2.0/24")));
  EXPECT_FALSE(contains(result, pfx("10.1.2.1/32")));
}

TEST(MementoHhh, RecallAgainstExactSlidingWindow) {
  TraceConfig cfg;
  cfg.seed = 77;
  cfg.duration = Duration::seconds(40);
  cfg.background_pps = 2000.0;
  cfg.address_space.num_slash8 = 8;
  cfg.address_space.slash16_per_8 = 6;
  cfg.address_space.slash24_per_16 = 4;
  cfg.address_space.hosts_per_24 = 4;
  const auto packets = SyntheticTraceGenerator(cfg).generate_all();

  MementoHhhDetector det(
      {.window = Duration::seconds(10), .frames = 10, .counters_per_level = 1024});
  LevelAggregates trailing(Hierarchy::byte_granularity());
  for (const auto& p : packets) {
    det.add(p);
    if (p.ts >= at(30.0)) trailing.add(p.src(), p.ip_len);
  }
  const auto exact = extract_hhh_relative(trailing, 0.05);
  const auto approx = det.query(at(40.0), 0.05);
  const auto approx_prefixes = approx.prefixes();
  std::size_t recalled = 0;
  for (const auto& p : exact.prefixes()) {
    if (std::binary_search(approx_prefixes.begin(), approx_prefixes.end(), p)) ++recalled;
  }
  ASSERT_FALSE(exact.prefixes().empty());
  EXPECT_GE(static_cast<double>(recalled) / exact.prefixes().size(), 0.7);
}

TEST(MementoHhh, WindowTotalIsExactRegardlessOfSampling) {
  // Window totals come from the exact per-frame byte ring, not the
  // sampled level summaries: within the window they equal the true sum.
  MementoHhhDetector det({.window = Duration::seconds(10), .frames = 10});
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    det.add(pkt(5.0 + i * 0.0005, ip("10.0.0.1"), 100 + i % 7));
    sum += 100 + i % 7;
  }
  EXPECT_DOUBLE_EQ(det.window_total(at(7.5)), sum);
}

TEST(MementoHhh, AddBatchMatchesAddTotalsAndDetection) {
  // add_batch draws levels with the amortized two-halves scheme, so the
  // summaries are not byte-identical to add() — but window totals are
  // exact on both paths and both detect the same heavy source.
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 4000; ++i) {
    packets.push_back(pkt(i * 0.0025, ip("10.1.2.3"), 700));
    packets.push_back(pkt(i * 0.0025, ip(i % 2 ? "50.0.0.1" : "60.0.0.1"), 300));
  }
  MementoHhhDetector one({}), batched({});
  for (const auto& p : packets) one.add(p);
  batched.add_batch(packets);
  EXPECT_DOUBLE_EQ(one.window_total(at(10.0)), batched.window_total(at(10.0)));
  EXPECT_TRUE(contains(one.query(at(10.0), 0.3), pfx("10.1.2.3/32")));
  EXPECT_TRUE(contains(batched.query(at(10.0), 0.3), pfx("10.1.2.3/32")));
}

TEST(MementoHhh, MergeCombinesVantages) {
  const MementoHhhParams params{.window = Duration::seconds(10)};
  MementoHhhDetector a(params), b(params);
  for (int i = 0; i < 3000; ++i) {
    const double t = i * 0.003;
    a.add(pkt(t, ip("10.1.2.3"), 600));
    a.add(pkt(t, ip("50.0.0.1"), 400));
    b.add(pkt(t, ip("99.9.9.9"), 600));
    b.add(pkt(t, ip("60.0.0.1"), 400));
  }
  const double total_a = a.window_total(at(9.0));
  const double total_b = b.window_total(at(9.0));
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.window_total(at(9.0)), total_a + total_b);
  const auto merged = a.query(a.high_watermark(), 0.2);
  EXPECT_TRUE(contains(merged, pfx("10.1.2.3/32")));
  EXPECT_TRUE(contains(merged, pfx("99.9.9.9/32")));
}

TEST(MementoHhh, MergeRejectsMismatchedGeometry) {
  MementoHhhDetector base({.window = Duration::seconds(10)});
  MementoHhhDetector other_window({.window = Duration::seconds(5)});
  EXPECT_THROW(base.merge_from(other_window), std::invalid_argument);
  MementoHhhV6Detector v6({.hierarchy = Hierarchy::v6_byte_granularity()});
  EXPECT_THROW(base.merge_from(v6), std::invalid_argument);
}

TEST(MementoHhh, SnapshotRoundTripPreservesQueries) {
  MementoHhhDetector det({.window = Duration::seconds(10), .frames = 8});
  for (int i = 0; i < 5000; ++i) {
    det.add(pkt(i * 0.002, ip(i % 3 ? "10.1.2.3" : "50.0.0.1"), 400 + i % 11));
  }
  std::vector<std::uint8_t> payload;
  wire::Writer w(payload);
  det.save_state(w);

  wire::Reader r(payload);
  auto restored = deserialize_memento_detector(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored->name(), "memento");
  EXPECT_EQ(restored->high_watermark(), det.high_watermark());
  const TimePoint now = det.high_watermark();
  EXPECT_DOUBLE_EQ(restored->window_total(now), det.window_total(now));
  EXPECT_TRUE(harness::hhh_sets_equal(det.query(now, 0.1), restored->query(now, 0.1)));

  // load_state restores into an identically-configured detector...
  MementoHhhDetector twin({.window = Duration::seconds(10), .frames = 8});
  wire::Reader r2(payload);
  twin.load_state(r2);
  EXPECT_TRUE(harness::hhh_sets_equal(det.query(now, 0.1), twin.query(now, 0.1)));

  // ...and refuses a mismatched one.
  MementoHhhDetector wrong({.window = Duration::seconds(10), .frames = 4});
  wire::Reader r3(payload);
  EXPECT_THROW(wrong.load_state(r3), wire::WireFormatError);
}

TEST(MementoHhh, EngineSurfaceAnswersAtTheWatermark) {
  // As an HhhEngine the detector extracts the trailing window at its
  // newest frame, travels as a kMementoDetector frame, and resets empty.
  MementoHhhDetector det({.window = Duration::seconds(10), .frames = 8});
  for (int i = 0; i < 5000; ++i) {
    det.add(pkt(i * 0.003, ip(i % 3 ? "10.1.2.3" : "50.0.0.1"), 400 + i % 11));
  }
  const TimePoint now = det.high_watermark();
  EXPECT_EQ(det.total_bytes(), static_cast<std::uint64_t>(det.window_total(now)));
  EXPECT_TRUE(harness::hhh_sets_equal(det.extract(0.1), det.query(now, 0.1)));
  EXPECT_TRUE(det.mergeable());

  const auto frame = wire::save_engine(det);
  EXPECT_EQ(wire::parse_frame(frame).kind, wire::SnapshotKind::kMementoDetector);
  const auto loaded = wire::load_engine(frame);
  EXPECT_EQ(loaded->name(), "memento");
  EXPECT_TRUE(harness::hhh_sets_equal(loaded->extract(0.1), det.extract(0.1)));
  MementoHhhDetector twin({.window = Duration::seconds(10), .frames = 8});
  wire::load_engine_into(frame, twin);
  EXPECT_TRUE(harness::hhh_sets_equal(twin.extract(0.1), det.extract(0.1)));

  const std::size_t footprint = det.memory_bytes();
  det.reset();
  EXPECT_EQ(det.high_watermark(), TimePoint());
  EXPECT_EQ(det.total_bytes(), 0u);
  EXPECT_EQ(det.extract(0.1).size(), 0u);
  EXPECT_EQ(det.memory_bytes(), footprint);
}

TEST(MementoHhh, V6DetectorFindsHeavyPrefix) {
  MementoHhhV6Detector det({.hierarchy = Hierarchy::v6_byte_granularity(),
                            .window = Duration::seconds(10)});
  for (int i = 0; i < 4000; ++i) {
    const double t = i * 0.0025;
    det.add(pkt6(t, "2001:db8::1", 700));
    det.add(pkt6(t, i % 2 ? "fd00::1" : "fd00::2", 300));
  }
  EXPECT_EQ(det.name(), "memento_v6");
  const auto result = det.query(at(10.0), 0.3);
  EXPECT_TRUE(contains(result, pfx("2001:db8::1/128")));
  // v4 packets are ignored by the v6 detector.
  const double before = det.window_total(at(10.0));
  det.add(pkt(10.0, ip("10.0.0.1"), 100));
  EXPECT_DOUBLE_EQ(det.window_total(at(10.0)), before);
}

TEST(MementoHhh, BoundedMemoryUnderDistinctFlood) {
  MementoHhhDetector det(
      {.window = Duration::seconds(10), .frames = 8, .counters_per_level = 128});
  const std::size_t idle = det.memory_bytes();
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    det.add(pkt(i * 0.001, Ipv4Address(static_cast<std::uint32_t>(rng.next())), 100));
  }
  EXPECT_LT(det.memory_bytes(), 4u << 20);
  // Traffic-independent: the flood added no slots beyond the fixed arena.
  EXPECT_EQ(det.memory_bytes(), idle);
}

}  // namespace
}  // namespace hhh
