/// \file
/// The benchmark's workloads. Each runs set-up, its passes and its
/// correctness checks into a Collected (workload_common.hpp); report.hpp
/// turns that into metrics. Why each workload exists is in
/// perfbench/README.md.
#pragma once

#include "workload_common.hpp"

namespace perfbench {

/// Two rhhh vantages, flow-hash split of one CAIDA-like v4 day, shipping
/// every window over a Unix socket to an in-process CollectorService.
void run_fleet_v4(const Options& opt, Collected& c);

/// One long-lived vantage reading a ddos_carpet pcap capture into one
/// unsharded exact engine.
void run_vantage_v4(const Options& opt, Collected& c);

/// The same vantage with the engine behind route_shards with 2 shards.
void run_vantage_sharded(const Options& opt, Collected& c);

/// One exact_v6 vantage over a pure-v6 day retaining every window frame
/// in a FrameRing, then interval queries over the retained frames.
void run_v6_interval(const Options& opt, Collected& c);

}  // namespace perfbench
