// MergeLedger — the shared epoch-merge behind hhh-collector and
// hhh-collectord. This suite pins the semantics both depend on: absolute
// thresholds converting to per-scope phis, local extraction BEFORE the
// merge (the paper's hidden-HHH reveal), compatibility grouping, ledger
// composition via absorb(), and the checkpoint save/restore round trip —
// for disjoint-window engines and Memento sliding detectors alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/hhh_types.hpp"
#include "core/memento_hhh.hpp"
#include "harness/trace_builder.hpp"
#include "net/hierarchy.hpp"
#include "service/merge.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh::service {
namespace {

PrefixKey prefix(const std::string& text) {
  const auto p = PrefixKey::parse(text);
  EXPECT_TRUE(p.has_value()) << text;
  return *p;
}

void feed(HhhEngine& engine, Ipv4Address src, std::uint32_t bytes_each,
          std::size_t packets) {
  for (std::size_t i = 0; i < packets; ++i) {
    engine.add(harness::packet_at(0.001 * static_cast<double>(i), src, bytes_each));
  }
}

std::unique_ptr<HhhEngine> v4_engine() {
  return make_exact_engine(Hierarchy::byte_granularity());
}

Scope engine_scope(std::unique_ptr<HhhEngine> engine, std::string label) {
  Scope scope;
  scope.label = std::move(label);
  scope.engine = std::move(engine);
  return scope;
}

bool set_contains(const HhhSet& set, const PrefixKey& p) { return set.contains(p); }

void expect_same_set(const HhhSet& got, const HhhSet& want) {
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.threshold_bytes, want.threshold_bytes);
  EXPECT_EQ(got.items(), want.items());
}

bool hidden_contains(const LedgerReport& report, const PrefixKey& p) {
  for (const auto& h : report.hidden) {
    if (h == p) return true;
  }
  return false;
}

// ------------------------------------------------------------- thresholds

TEST(Thresholds, RelativeModeUsesPhiAsIs) {
  const Thresholds t{.phi = 0.07, .threshold_bytes = 0.0};
  EXPECT_DOUBLE_EQ(t.scope_phi(1000.0), 0.07);
  EXPECT_DOUBLE_EQ(t.scope_phi(0.0), 0.07);
}

TEST(Thresholds, AbsoluteModeConvertsToAPerScopePhi) {
  const Thresholds t{.phi = 0.05, .threshold_bytes = 500.0};
  EXPECT_DOUBLE_EQ(t.scope_phi(2000.0), 0.25);   // T / total
  EXPECT_DOUBLE_EQ(t.scope_phi(400.0), 1.0);     // T above total clamps
  EXPECT_DOUBLE_EQ(t.scope_phi(0.0), 1.0);       // empty scope: nothing heavy
}

// ------------------------------------------------------------------- fold

TEST(MergeLedger, FoldExtractsTheScopeLocallyBeforeMerging) {
  // One heavy source (800 of 1000 bytes) must appear in fold()'s returned
  // local set; a light one (200) must not, at phi = 0.5.
  auto engine = v4_engine();
  feed(*engine, Ipv4Address::of(10, 0, 0, 1), 100, 8);
  feed(*engine, Ipv4Address::of(20, 0, 0, 1), 100, 2);

  MergeLedger ledger(Thresholds{.phi = 0.5});
  const HhhSet local = ledger.fold(engine_scope(std::move(engine), "v0"));
  EXPECT_EQ(local.total_bytes, 1000u);
  EXPECT_TRUE(set_contains(local, prefix("10.0.0.1/32")));
  EXPECT_FALSE(set_contains(local, prefix("20.0.0.1/32")));
  EXPECT_EQ(ledger.scopes_folded(), 1u);
  EXPECT_FALSE(ledger.empty());
}

TEST(MergeLedger, MergedGroupMatchesAnEngineThatSawBothStreams) {
  auto a = v4_engine();
  auto b = v4_engine();
  auto both = v4_engine();
  feed(*a, Ipv4Address::of(10, 0, 0, 1), 100, 5);
  feed(*b, Ipv4Address::of(10, 0, 0, 2), 100, 7);
  feed(*both, Ipv4Address::of(10, 0, 0, 1), 100, 5);
  feed(*both, Ipv4Address::of(10, 0, 0, 2), 100, 7);

  MergeLedger ledger(Thresholds{.phi = 0.1});
  ledger.fold(engine_scope(std::move(a), "a"));
  ledger.fold(engine_scope(std::move(b), "b"));
  const LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].key, "exact");
  expect_same_set(report.groups[0].merged, both->extract(0.1));
}

TEST(MergeLedger, HiddenHhhIsHeavyGloballyButLightAtEveryVantage) {
  // The paper's reveal, in absolute-threshold mode with T = 1000 B:
  // 10.0.0.1 sends 600 B through each of two vantages — under T at both,
  // 1200 B >= T merged. Each vantage also has its own genuine local heavy
  // hitter so the local extractions are nonempty.
  auto v1 = v4_engine();
  feed(*v1, Ipv4Address::of(10, 0, 0, 1), 100, 6);
  feed(*v1, Ipv4Address::of(20, 0, 0, 1), 100, 20);
  auto v2 = v4_engine();
  feed(*v2, Ipv4Address::of(10, 0, 0, 1), 100, 6);
  feed(*v2, Ipv4Address::of(30, 0, 0, 1), 100, 20);

  MergeLedger ledger(Thresholds{.threshold_bytes = 1000.0});
  const HhhSet local1 = ledger.fold(engine_scope(std::move(v1), "v1"));
  const HhhSet local2 = ledger.fold(engine_scope(std::move(v2), "v2"));
  EXPECT_FALSE(set_contains(local1, prefix("10.0.0.1/32")));
  EXPECT_FALSE(set_contains(local2, prefix("10.0.0.1/32")));
  EXPECT_TRUE(set_contains(local1, prefix("20.0.0.1/32")));
  EXPECT_TRUE(set_contains(local2, prefix("30.0.0.1/32")));

  LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_TRUE(set_contains(report.groups[0].merged, prefix("10.0.0.1/32")));
  EXPECT_TRUE(hidden_contains(report, prefix("10.0.0.1/32")));
  // The locally reported heavies are merged but not hidden.
  EXPECT_FALSE(hidden_contains(report, prefix("20.0.0.1/32")));
  EXPECT_FALSE(hidden_contains(report, prefix("30.0.0.1/32")));
}

TEST(MergeLedger, MixedFamiliesFormSeparateGroups) {
  auto v4 = v4_engine();
  feed(*v4, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  auto v6 = make_exact_engine(Hierarchy::v6_byte_granularity());
  PacketRecord p;
  p.ts = TimePoint();
  p.ip_len = 100;
  p.set_src(IpAddress::v6(0x2001'0db8'0000'0000ULL, 1));
  for (int i = 0; i < 10; ++i) v6->add(p);

  MergeLedger ledger;
  ledger.fold(engine_scope(std::move(v4), "v4"));
  ledger.fold(engine_scope(std::move(v6), "v6"));
  const LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.groups[0].key, "exact");      // first-folded order
  EXPECT_EQ(report.groups[1].key, "exact_v6");
  EXPECT_EQ(report.scopes_folded, 2u);
}

TEST(MergeLedger, IncompatibleHierarchiesInOneGroupThrow) {
  auto byte = v4_engine();
  feed(*byte, Ipv4Address::of(10, 0, 0, 1), 100, 1);
  auto bit = make_exact_engine(Hierarchy::bit_granularity());
  feed(*bit, Ipv4Address::of(10, 0, 0, 1), 100, 1);

  MergeLedger ledger;
  ledger.fold(engine_scope(std::move(byte), "byte"));
  EXPECT_THROW(ledger.fold(engine_scope(std::move(bit), "bit")),
               std::invalid_argument);
}

// ---------------------------------------------------------- decode_scope

TEST(DecodeScope, RoundTripsAnEngineFrame) {
  auto engine = v4_engine();
  feed(*engine, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  const auto bytes = wire::save_engine(*engine);
  const auto frame = wire::parse_frame(bytes);

  Scope scope = decode_scope(frame, "vantage0");
  ASSERT_NE(scope.engine, nullptr);
  EXPECT_EQ(scope.label, "vantage0");
  EXPECT_EQ(scope.engine->total_bytes(), engine->total_bytes());
  expect_same_set(scope.engine->extract(0.1), engine->extract(0.1));
}

TEST(DecodeScope, RefusesStreamProtocolFrames) {
  // Stream-protocol frames and the retired WCSS detector kind hold no
  // vantage state: both decode paths refuse them with a typed error.
  for (const wire::SnapshotKind kind :
       {wire::SnapshotKind::kStreamBye, wire::SnapshotKind::kWcssDetector}) {
    const auto bytes =
        wire::build_frame(kind, std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0, 0, 0});
    const auto frame = wire::parse_frame(bytes);
    try {
      decode_scope(frame, "x");
      FAIL() << "expected WireFormatError for " << wire::to_string(kind);
    } catch (const wire::WireFormatError& e) {
      EXPECT_EQ(e.code(), wire::WireError::kUnsupportedEngine) << wire::to_string(kind);
    }
    try {
      wire::load_engine(bytes);
      FAIL() << "expected WireFormatError for " << wire::to_string(kind);
    } catch (const wire::WireFormatError& e) {
      EXPECT_EQ(e.code(), wire::WireError::kUnsupportedEngine) << wire::to_string(kind);
    }
  }
}

// ----------------------------------------------------------- composition

TEST(MergeLedger, AbsorbMatchesDirectFoldingAndKeepsTheReveal) {
  const auto make_v1 = [] {
    auto e = v4_engine();
    feed(*e, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*e, Ipv4Address::of(20, 0, 0, 1), 100, 20);
    return e;
  };
  const auto make_v2 = [] {
    auto e = v4_engine();
    feed(*e, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*e, Ipv4Address::of(30, 0, 0, 1), 100, 20);
    return e;
  };
  const Thresholds t{.threshold_bytes = 1000.0};

  MergeLedger direct(t);
  direct.fold(engine_scope(make_v1(), "v1"));
  direct.fold(engine_scope(make_v2(), "v2"));

  // The daemon's shape: each epoch folds into its own ledger, and the
  // cumulative ledger absorbs them. The absorbed merged sets must not
  // enter the locally-seen union, or the reveal would vanish.
  MergeLedger epoch1(t);
  epoch1.fold(engine_scope(make_v1(), "v1"));
  MergeLedger epoch2(t);
  epoch2.fold(engine_scope(make_v2(), "v2"));
  MergeLedger cumulative(t);
  cumulative.absorb(std::move(epoch1));
  cumulative.absorb(std::move(epoch2));

  LedgerReport direct_report = direct.report();
  LedgerReport absorbed_report = cumulative.report();
  ASSERT_EQ(absorbed_report.groups.size(), 1u);
  expect_same_set(absorbed_report.groups[0].merged, direct_report.groups[0].merged);
  EXPECT_EQ(absorbed_report.hidden, direct_report.hidden);
  EXPECT_TRUE(hidden_contains(absorbed_report, prefix("10.0.0.1/32")));
  EXPECT_EQ(absorbed_report.scopes_folded, 2u);
}

TEST(MergeLedger, SaveLoadRoundTripsGroupsAndTheLocallySeenUnion) {
  MergeLedger ledger(Thresholds{.threshold_bytes = 1000.0});
  {
    auto v1 = v4_engine();
    feed(*v1, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*v1, Ipv4Address::of(20, 0, 0, 1), 100, 20);
    ledger.fold(engine_scope(std::move(v1), "v1"));
    auto v2 = v4_engine();
    feed(*v2, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*v2, Ipv4Address::of(30, 0, 0, 1), 100, 20);
    ledger.fold(engine_scope(std::move(v2), "v2"));
  }
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  ledger.save_state(w);

  MergeLedger restored(Thresholds{.threshold_bytes = 1000.0});
  wire::Reader r(bytes);
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.scopes_folded(), 2u);

  LedgerReport before = ledger.report();
  LedgerReport after = restored.report();
  ASSERT_EQ(after.groups.size(), before.groups.size());
  expect_same_set(after.groups[0].merged, before.groups[0].merged);
  EXPECT_EQ(after.hidden, before.hidden);  // the seen-locally union survived
  EXPECT_TRUE(hidden_contains(after, prefix("10.0.0.1/32")));
}

TEST(MergeLedger, SavedGroupFramesAreTheCollectorsInputFormat) {
  MergeLedger ledger;
  auto a = v4_engine();
  feed(*a, Ipv4Address::of(10, 0, 0, 1), 100, 5);
  auto b = v4_engine();
  feed(*b, Ipv4Address::of(10, 0, 0, 2), 100, 7);
  ledger.fold(engine_scope(std::move(a), "a"));
  ledger.fold(engine_scope(std::move(b), "b"));

  const auto frames = ledger.save_group_frames();
  ASSERT_EQ(frames.size(), 1u);
  // Each frame is self-delimiting and decodes back into a merged scope.
  const auto view = wire::parse_frame(frames[0]);
  Scope merged = decode_scope(view, "merged");
  ASSERT_NE(merged.engine, nullptr);
  EXPECT_EQ(merged.engine->total_bytes(), 1200u);
}

// ------------------------------------------------------ Memento scopes

const MementoHhhParams kMementoParams{.window = Duration::seconds(4),
                                      .frames = 8,
                                      .counters_per_level = 256};

// A Memento vantage fed `seconds` of its own stream; identical arguments
// build identical detectors (the stream and the sampler are seeded).
std::unique_ptr<MementoDetector> memento_vantage(std::uint64_t seed, double seconds) {
  MementoHhhParams params = kMementoParams;
  params.seed = seed;
  auto det = std::make_unique<MementoHhhDetector>(params);
  det->add_batch(harness::TraceBuilder(seed).compact_space().duration_seconds(seconds).all());
  return det;
}

TEST(MergeLedger, FoldsMementoScopesLikeAnInProcessMerge) {
  // The vantages stop at different instants and the older one is folded
  // first, so the merged head must move to the newer watermark.
  const auto make_a = [] { return memento_vantage(0x3E3E'1001, 7.0); };
  const auto make_b = [] { return memento_vantage(0x3E3E'1002, 9.0); };
  auto ref_a = make_a();
  auto ref_b = make_b();
  const TimePoint newest = ref_b->high_watermark();
  ASSERT_GT(newest, ref_a->high_watermark());
  const Thresholds t{.threshold_bytes =
                         0.03 * (ref_a->window_total(ref_a->high_watermark()) +
                                 ref_b->window_total(ref_b->high_watermark()))};
  const auto local_of = [&t](const MementoDetector& det) {
    const TimePoint now = det.high_watermark();
    return det.query(now, t.scope_phi(det.window_total(now)));
  };

  MergeLedger direct(t);
  expect_same_set(direct.fold(engine_scope(make_a(), "a")), local_of(*ref_a));
  expect_same_set(direct.fold(engine_scope(make_b(), "b")), local_of(*ref_b));

  const HhhSet local_a = local_of(*ref_a);
  const HhhSet local_b = local_of(*ref_b);
  ref_a->merge_from(*ref_b);
  const HhhSet merged = ref_a->query(newest, t.scope_phi(ref_a->window_total(newest)));

  const LedgerReport report = direct.report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].key, "memento");
  expect_same_set(report.groups[0].merged, merged);
  PrefixUnion seen;
  seen.add(local_a.prefixes());
  seen.add(local_b.prefixes());
  EXPECT_EQ(report.hidden, prefix_difference(merged.prefixes(), seen.values()));

  // The daemon's shape: per-epoch ledgers absorbed into a cumulative one.
  MergeLedger epoch1(t);
  epoch1.fold(engine_scope(make_a(), "a"));
  MergeLedger epoch2(t);
  epoch2.fold(engine_scope(make_b(), "b"));
  MergeLedger cumulative(t);
  cumulative.absorb(std::move(epoch1));
  cumulative.absorb(std::move(epoch2));
  const LedgerReport absorbed = cumulative.report();
  ASSERT_EQ(absorbed.groups.size(), 1u);
  expect_same_set(absorbed.groups[0].merged, report.groups[0].merged);
  EXPECT_EQ(absorbed.hidden, report.hidden);

  // The checkpoint round trip restores the merged head at its watermark.
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  direct.save_state(w);
  MergeLedger restored(t);
  wire::Reader r(bytes);
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  const LedgerReport after = restored.report();
  ASSERT_EQ(after.groups.size(), 1u);
  EXPECT_EQ(after.groups[0].key, "memento");
  expect_same_set(after.groups[0].merged, report.groups[0].merged);
  EXPECT_EQ(after.hidden, report.hidden);
  EXPECT_EQ(after.scopes_folded, 2u);
}

}  // namespace
}  // namespace hhh::service
