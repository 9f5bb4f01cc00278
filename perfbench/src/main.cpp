// perfbench_run: one benchmark run of one workload.
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//                 [--plan-threads N]
//
// Prints a report and, as its last line, one JSON object with the
// metrics. Exit code 0 when every correctness check passed, 1 when one
// failed, 2 on bad arguments.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

// Taken during static initialisation, before main(): set-up time counts
// from just after the dynamic loader, the earliest point the program sees.
const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload session_service|"
               "session_direct|long_service --seed N --seconds S "
               "--trace 0|1 [--plan-threads N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      args.trace = std::strtol(v, &end, 10) != 0;
    } else if (a == "--plan-threads") {
      args.planThreads = static_cast<unsigned>(std::strtoul(v, &end, 10));
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (!perfbench::knownWorkload(args.workload) || args.seconds <= 0) {
    return usage();
  }
  try {
    return perfbench::run(args, kStart);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}
