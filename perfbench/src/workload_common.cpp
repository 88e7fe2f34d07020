#include "workload_common.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "checks.hpp"
#include "net/pcap.hpp"
#include "util/simd.hpp"
#include "wire/snapshot.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxFailureReasons = 8;

}  // namespace

std::size_t PassGrouped::size() const {
  std::size_t n = 0;
  for (const auto& p : passes) n += p.size();
  return n;
}

double PassGrouped::blocked_quantile(double q) const {
  std::vector<std::vector<double>> blocks;
  std::vector<double> block;
  for (const auto& p : passes) {
    block.insert(block.end(), p.begin(), p.end());
    if (block.size() >= kMinSamples) blocks.push_back(std::exchange(block, {}));
  }
  if (!block.empty()) {
    if (blocks.empty()) {
      blocks.push_back(std::move(block));
    } else {
      blocks.back().insert(blocks.back().end(), block.begin(), block.end());
    }
  }
  std::vector<double> per_block;
  for (const auto& b : blocks) per_block.push_back(quantile(b, q));
  return quantile(per_block, 0.5);
}

void Collected::check(const std::string& reason) {
  ++attempted;
  if (!reason.empty()) fail(reason);
}

void Collected::fail(const std::string& reason) {
  ++failed;
  if (failures.size() < kMaxFailureReasons) failures.push_back(reason);
}

void drive_passes(const Options& opt, Collected& c,
                  const std::function<PassSamples(std::size_t, bool)>& pass) {
  const std::int64_t start = now_ns();
  for (std::size_t index = 0;; ++index) {
    const bool warmup = index == 0;
    const bool traced = opt.trace && !warmup && index % 2 == 1;
    // Start every pass from the same footing: hand the heap memory that
    // set-up and earlier passes freed back to the kernel, so the pass's
    // peak RSS is what it needs rather than what the allocator kept.
    malloc_trim(0);
    reset_peak_rss();
    PassSamples s;
    try {
      s = pass(index, traced);
    } catch (const std::exception& e) {
      c.check(std::string("pass raised: ") + e.what());
      return;
    }
    if (!warmup) {
      const double wall_s = static_cast<double>(s.wall_ns) * 1e-9;
      if (wall_s > 0.0) c.pass_pps.push_back(static_cast<double>(s.packets) / wall_s);
      c.packets += static_cast<double>(s.packets);
      c.close_ms.add(s.close_ms);
      c.reveal_ms.add(s.reveal_ms);
      c.query_ms.add(s.query_ms);
      c.peak_rss_mb.push_back(s.peak_rss_mb);
      (traced ? c.traced_wall_s : c.untraced_wall_s).push_back(wall_s);
      if (traced) c.traced.push_back(std::move(s));
    }
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed >= kRunCapSeconds) return;
    if (elapsed < opt.seconds) continue;
    if (opt.trace) {
      // Per-layer percentiles come from the traced passes alone.
      std::size_t closes = 0;
      for (const PassSamples& t : c.traced) closes += t.close_ms.size();
      if (closes < kMinSamples || c.untraced_wall_s.empty()) continue;
    } else if (c.close_ms.size() < kMinSamples || c.reveal_ms.size() < kMinSamples ||
               c.query_ms.size() < kMinSamples) {
      continue;
    }
    return;
  }
}

std::vector<AskedQuery> run_queries(const hhh::pipeline::FrameRing& ring, const QueryPlan& plan,
                                    std::mt19937_64& rng, PassSamples& out,
                                    std::int64_t id_base) {
  const auto& frames = ring.frames();
  std::vector<AskedQuery> asked;
  if (frames.size() < plan.span_windows) return asked;
  asked.reserve(plan.queries);
  // Every start position equally often, from a seeded offset: the mix of
  // heavy and light windows the queries cover is the same in every run.
  const std::size_t positions = frames.size() - plan.span_windows + 1;
  const std::size_t offset = rng() % positions;
  for (std::size_t q = 0; q < plan.queries; ++q) {
    const std::size_t i = (offset + q) % positions;
    AskedQuery a{frames[i].start, frames[i + plan.span_windows - 1].end, {},
                 id_base + static_cast<std::int64_t>(q)};
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span("pipeline.query", a.id);
      a.got = ring.query_interval(a.t1, a.t2, plan.phi);
    }
    out.query_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    asked.push_back(std::move(a));
  }
  return asked;
}

void check_queries(const hhh::pipeline::FrameRing& ring, const std::vector<std::uint64_t>& totals,
                   const std::vector<AskedQuery>& asked, double phi, Collected& c) {
  if (asked.empty()) c.check("no interval query could be asked");
  for (const AskedQuery& a : asked) {
    try {
      std::vector<const hhh::pipeline::RetainedFrame*> selected;
      {
        ScopedSpan span("pipeline.query_select", a.id);
        selected = ring.frames_in(a.t1, a.t2);
      }
      std::uint64_t covered = 0;
      for (const auto* f : selected) covered += f->index < totals.size() ? totals[f->index] : 0;
      c.check(check_query(a.got, selected, phi, covered, a.id));
    } catch (const std::exception& e) {
      c.check(std::string("query check raised: ") + e.what());
    }
  }
}

void replay_stream_ledger(const hhh::pipeline::FrameRing& ring,
                          const std::vector<std::uint64_t>& totals,
                          const hhh::service::Thresholds& thresholds, Collected& c) {
  try {
    hhh::service::MergeLedger ledger(thresholds);
    std::uint64_t expected = 0;
    for (const auto& f : ring.frames()) {
      const auto id = static_cast<std::int64_t>(f.index);
      hhh::service::Scope scope;
      {
        ScopedSpan span("wire.decode", id);
        scope = hhh::service::decode_scope(hhh::wire::parse_frame(f.frame), "vantage");
      }
      ScopedSpan span("service.fold", id);
      ledger.fold(std::move(scope));
      expected += f.index < totals.size() ? totals[f.index] : 0;
    }
    hhh::service::LedgerReport report;
    {
      ScopedSpan span("service.report");
      report = ledger.report();
    }
    if (report.groups.size() != 1 || report.groups[0].merged.total_bytes != expected) {
      c.check("stream ledger total differs from the windows' totals");
    } else {
      c.check({});
    }
  } catch (const std::exception& e) {
    c.check(std::string("stream ledger replay raised: ") + e.what());
  }
}

ScratchFile::ScratchFile(const Options& opt, const std::string& name)
    : path_(opt.scratch + "/" + std::to_string(::getpid()) + "-" + name) {}

ScratchFile::~ScratchFile() {
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

void write_pcap(hhh::SyntheticTraceGenerator generator, const std::string& path, Collected& c) {
  const std::int64_t t0 = now_ns();
  const std::vector<hhh::PacketRecord> packets = generator.generate_all();
  const std::int64_t t1 = now_ns();
  {
    hhh::PcapWriter writer(path);
    for (const hhh::PacketRecord& p : packets) writer.write(p);
    writer.flush();
  }
  c.generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  c.extra["trace.pcap_write_s"].push_back(static_cast<double>(now_ns() - t1) * 1e-9);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string host_json() {
  std::string cpu = "unknown";
  {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(line.find_first_not_of(' ', colon + 1));
        break;
      }
    }
  }
  std::string escaped;
  for (const char ch : cpu) {
    if (ch == '"' || ch == '\\') escaped += '\\';
    escaped += ch;
  }
  std::ostringstream os;
  os << "{\"host\": {\"cpu\": \"" << escaped << "\", \"hardware_threads\": "
     << std::thread::hardware_concurrency() << ", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"simd\": \""
     << (hhh::simd::have_avx2() ? "avx2" : "scalar") << "\", \"hhh_no_simd\": "
     << (std::getenv("HHH_NO_SIMD") != nullptr ? "true" : "false") << "}}";
  return os.str();
}

double hist_quantile(const hhh::obs::Histogram::Snapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const auto n = static_cast<double>(h.buckets[b]);
    if (n > 0.0 && seen + n >= rank) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (b - 1));
      const double hi = b == 0 ? 0.0 : 2.0 * lo;
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return 0.0;
}

std::vector<const hhh::obs::MetricSample*> find_samples(const hhh::obs::MetricsSnapshot& snap,
                                                        const std::string& name) {
  std::vector<const hhh::obs::MetricSample*> out;
  for (const auto& s : snap.samples) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
