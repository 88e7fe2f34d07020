// The benchmark's own tests: the span self-time arithmetic on a
// hand-built tree, and negative controls showing that each correctness
// check fails when its input is perturbed.
#include <gtest/gtest.h>

#include <functional>

#include "checks.hpp"
#include "core/engine.hpp"
#include "core/rhhh.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_router.hpp"
#include "spans.hpp"
#include "trace/synthetic_trace.hpp"
#include "wire/snapshot.hpp"
#include "workload_common.hpp"

namespace perfbench {
namespace {

using namespace hhh;

Span span(const char* name, std::int64_t start, std::int64_t end, std::int32_t parent,
          std::int64_t window = -1) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.window = window;
  return s;
}

TEST(SpanArithmetic, SelfTimeSubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans = {
      span("root", 0, 100, -1),   // 0
      span("a", 10, 40, 0),       // 1
      span("a1", 15, 25, 1),      // 2
      span("b", 50, 90, 0),       // 3
      span("b1", 60, 70, 3),      // 4: overlaps b2; the union counts once
      span("b2", 65, 80, 3),      // 5
      span("c", 95, 120, 0),      // 6: runs past its parent; clipped to 5
  };
  EXPECT_EQ(self_times(spans),
            (std::vector<std::int64_t>{100 - 30 - 40 - 5, 30 - 10, 10, 40 - 20, 10, 15, 25}));
}

TEST(SpanArithmetic, AggregateAndCoverageOnANestedTree) {
  SpanLog log("t");
  log.set_thread_bounds(0, 200);
  log.add(span("pipeline.run", 10, 110, -1));
  log.add(span("core.ingest", 20, 50, 0, 7));
  log.add(span("core.extract", 60, 80, 0, 7));
  log.add(span("wire.encode", 65, 75, 2, 7));
  log.add(span("pipeline.query", 120, 190, -1, 3));
  const auto stats = aggregate({log});
  EXPECT_EQ(stats.at("pipeline.run").self_ns, 100 - 30 - 20);
  EXPECT_EQ(stats.at("core.extract").self_ns, 10);
  EXPECT_EQ(stats.at("core.extract").durations, (std::vector<std::int64_t>{20}));
  EXPECT_EQ(stats.at("core.ingest").self_by_window.at(7), 30);
  // The roots cover 100 + 70 of the thread's 200.
  EXPECT_DOUBLE_EQ(coverage(log), 170.0 / 200.0);
}

TEST(SpanArithmetic, LiveSpansNestAndTagTheirParent) {
  SpanLog log("live");
  {
    ThreadTrace trace(&log);
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner", 4); }
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].window, 4);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  EXPECT_EQ(active_log(), nullptr);
}

TEST(Quantiles, InterpolateBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0);
  obs::Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(100);  // bucket [64, 128)
  EXPECT_GT(hist_quantile(h.snapshot(), 0.5), 64.0);
  EXPECT_LT(hist_quantile(h.snapshot(), 0.5), 128.0);
}

std::vector<PacketRecord> small_day(int day, double v6_fraction = 0.0) {
  TraceConfig config = TraceConfig::caida_like_day(day, Duration::seconds(20), 600.0);
  config.v6_fraction = v6_fraction;
  return SyntheticTraceGenerator(config).generate_all();
}

/// True when `check` reports a failure or raises.
bool fails(const std::function<std::string()>& check) {
  try {
    return !check().empty();
  } catch (const std::exception&) {
    return true;
  }
}

TEST(NegativeControl, DroppingOnePacketFromTheReferenceFailsTheShardedCheck) {
  const auto packets = small_day(3);
  const Duration window = Duration::seconds(5);
  pipeline::PipelineConfig config;
  config.phi = 0.05;
  config.flush_open_window = true;
  config.metrics = false;
  pipeline::Pipeline pipe(pipeline::make_vector_source(packets),
                          pipeline::make_engine_stage(pipeline::route_shards(
                              {.shards = 2},
                              [](std::size_t) {
                                return make_exact_engine(Hierarchy::byte_granularity());
                              })),
                          pipeline::make_disjoint_policy(window), config);
  auto& sharded = pipe.add_sink(std::make_unique<pipeline::CollectSink>());
  pipe.run();

  const auto reference = replay_exact(pipeline::make_vector_source(packets),
                                      Hierarchy::byte_granularity(), window, 0.05);
  ASSERT_EQ(reference.size(), 4u);
  EXPECT_EQ(count_window_mismatches(sharded.reports(), reference), 0u);

  auto dropped = packets;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(dropped.size() / 2));
  const auto short_reference = replay_exact(pipeline::make_vector_source(dropped),
                                            Hierarchy::byte_granularity(), window, 0.05);
  EXPECT_EQ(count_window_mismatches(sharded.reports(), short_reference), 1u);
}

struct FleetFixture {
  service::Thresholds thresholds{.phi = 0.05, .threshold_bytes = 0.0};
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint64_t> totals;
  EpochRecord epoch;

  FleetFixture() {
    const auto packets = small_day(5);
    std::vector<RhhhEngine> engines;
    for (int v = 0; v < 2; ++v) engines.emplace_back(RhhhEngine::Params{.counters_per_level = 256});
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      engines[i % 2].add(packets[i]);
      bytes += packets[i].ip_len;
    }
    thresholds.threshold_bytes = 0.04 * static_cast<double>(bytes);
    // The collector's side: fold both frames in arrival order.
    service::MergeLedger ledger(thresholds);
    for (int v = 0; v < 2; ++v) {
      frames.push_back(wire::save_engine(engines[static_cast<std::size_t>(v)]));
      totals.push_back(engines[static_cast<std::size_t>(v)].total_bytes());
      const std::string name = "vantage" + std::to_string(v);
      ledger.fold(service::decode_scope(wire::parse_frame(frames.back()), name));
      epoch.arrival.push_back(name);
    }
    epoch.complete = true;
    epoch.report = ledger.report();
  }

  std::vector<VantageFrame> vantage_frames() const {
    return {{"vantage0", frames[0], totals[0]}, {"vantage1", frames[1], totals[1]}};
  }
};

TEST(NegativeControl, PerturbingOneFrameByteFailsTheEpochCheck) {
  FleetFixture f;
  EXPECT_EQ(check_epoch(f.epoch, f.vantage_frames(), f.thresholds), "");
  for (const std::size_t at : {std::size_t{20}, f.frames[1].size() / 2, f.frames[1].size() - 1}) {
    FleetFixture g;
    g.frames[1][at] ^= 0x01;
    EXPECT_TRUE(fails([&] { return check_epoch(g.epoch, g.vantage_frames(), g.thresholds); }))
        << "byte " << at;
  }
}

TEST(NegativeControl, EpochCheckCatchesIncompleteEpochsAndWrongTotals) {
  FleetFixture f;
  f.epoch.complete = false;
  EXPECT_NE(check_epoch(f.epoch, f.vantage_frames(), f.thresholds), "");
  FleetFixture g;
  g.totals[0] += 1;
  EXPECT_NE(check_epoch(g.epoch, g.vantage_frames(), g.thresholds), "");
}

TEST(NegativeControl, PerturbingOneRetainedFrameByteFailsTheQueryCheck) {
  const auto packets = small_day(9, 1.0);
  pipeline::PipelineConfig config;
  config.phi = 0.05;
  config.flush_open_window = true;
  config.metrics = false;
  pipeline::FrameRing ring(8);
  pipeline::Pipeline pipe(pipeline::make_vector_source(packets),
                          pipeline::make_engine_stage(
                              make_exact_engine(Hierarchy::v6_byte_granularity())),
                          pipeline::make_disjoint_policy(Duration::seconds(5)), config);
  pipe.add_sink(pipeline::make_frame_ring_sink(&ring));
  std::vector<std::uint64_t> totals;
  pipe.add_sink(pipeline::make_callback_sink(
      [&](const WindowReport& r) { totals.push_back(r.hhhs.total_bytes); }));
  pipe.run();
  ASSERT_GE(ring.size(), 3u);

  const auto& frames = ring.frames();
  const TimePoint t1 = frames[1].start;
  const TimePoint t2 = frames[2].end;
  const auto got = ring.query_interval(t1, t2, 0.05);
  const auto selected = ring.frames_in(t1, t2);
  ASSERT_EQ(selected.size(), 2u);
  const std::uint64_t covered = totals[1] + totals[2];
  EXPECT_EQ(check_query(got, selected, 0.05, covered), "");
  EXPECT_NE(check_query(got, selected, 0.05, covered + 1), "");

  std::vector<pipeline::RetainedFrame> copies = {*selected[0], *selected[1]};
  copies[1].frame[copies[1].frame.size() / 2] ^= 0x40;
  const std::vector<const pipeline::RetainedFrame*> perturbed = {&copies[0], &copies[1]};
  EXPECT_TRUE(fails([&] { return check_query(got, perturbed, 0.05, covered); }));
}

}  // namespace
}  // namespace perfbench
