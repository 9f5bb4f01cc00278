// The benchmark's workloads on XCV1000, driven only through the program's
// public calls and timed from outside.
//
//   session_service  jrload's SessionStream replayed through one
//                    RoutingService by one load-generator thread
//   session_direct   the same stream, same per-slot order, on one
//                    jroute::Router on one thread
//   long_service     waves of long point-to-point routes through the
//                    service, each wave routed, inspected, torn down
//
// run() prints a human-readable report, then one JSON line holding the
// end-to-end metrics (trace off) or the per-layer metrics (trace on).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Service planning threads; 0 picks the budgeted default (see README).
  unsigned planThreads = 0;
};

/// Returns the process exit code: 0 when every check passed.
int run(const Args& args, std::chrono::steady_clock::time_point start);

/// True when `name` is one of the workloads above.
bool knownWorkload(const std::string& name);

}  // namespace perfbench
