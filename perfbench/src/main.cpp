// perfbench — the end-to-end HHH benchmark program.
//
//   perfbench --workload fleet_v4|v6_interval|vantage_v4|vantage_sharded --seed N
//             --seconds S --trace 0|1 [--scratch DIR]
//
// Prints a host line, a detail line and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Sockets and captures go
// under --scratch (default .bench_run, relative to the working
// directory), which is created if missing.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--scratch") {
      opt.scratch = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet_v4|v6_interval|vantage_v4|vantage_sharded --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  void (*run)(const perfbench::Options&, perfbench::Collected&) = nullptr;
  if (opt.workload == "fleet_v4") run = perfbench::run_fleet_v4;
  if (opt.workload == "vantage_v4") run = perfbench::run_vantage_v4;
  if (opt.workload == "vantage_sharded") run = perfbench::run_vantage_sharded;
  if (opt.workload == "v6_interval") run = perfbench::run_v6_interval;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(opt.scratch);

  perfbench::Collected c;
  try {
    run(opt, c);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) perfbench::check_trace_coverage(c);
  std::cout << perfbench::host_json() << '\n'
            << perfbench::detail_json(opt, c) << '\n'
            << perfbench::result_json(opt, c) << std::endl;
  return 0;
}
