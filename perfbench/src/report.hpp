/// \file
/// Turning a run's samples into the benchmark's output lines.
#pragma once

#include <string>

#include "workload_common.hpp"

namespace perfbench {

/// Check that every traced thread's layer self times, summed over the
/// traced passes, come within ±5% of its summed wall time; each thread
/// counts as one attempted operation.
void check_trace_coverage(Collected& c);

/// The result line: {"correct", "attempted", "failed", "metrics"}, with
/// the end-to-end metrics, or with `--trace 1` the per-layer ones.
std::string result_json(const Options& opt, const Collected& c);

/// The detail line printed before it: sample counts, figures of layers
/// only some workloads have, and the first failure reasons.
std::string detail_json(const Options& opt, const Collected& c);

}  // namespace perfbench
