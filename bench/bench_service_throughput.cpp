// Routing-service throughput: batched concurrent engine vs serialized
// baseline.
//
// Workload: round-trip waves over tile-disjoint point-to-point pairs on
// XCV300 — the case the service's parallel planning phase is built for.
// Each wave routes every pair, settles, then unroutes every pair, so a
// request total far beyond the fabric's concurrent-net capacity can be
// driven through the engine (the old fixed 42-request workload measured
// little more than startup). The serialized baseline is the raw
// single-threaded Router issuing the same waves in order; the service
// run has P producer threads, each owning the pairs congruent to its
// index, submitting async requests into the batched engine and settling
// between the route and unroute halves of a wave (an unroute must never
// share a batch with the route that created its net). Reported per
// mode: requests/second and p50/p99 submit-to-resolve latency, as a
// table and as one JSON line per mode.
//
// With JROUTE_DRC_PARANOID=1 in the environment both modes run the static
// analyzer as they go — the service after every engine batch (its
// ServiceOptions default picks the env var up), the serialized baseline
// after every operation (the per-txn analogue, bitstream decode skipped
// just like the txn hook) — so the delta against a plain run is the price
// of the oracle. The mode is echoed in the table header and JSON.
//
//   ./bench_service_throughput [producers] [reps] [--requests N]
#include <cstring>
#include <future>
#include <thread>

#include "analysis/drc.h"
#include "arch/wires.h"
#include "bench/bench_util.h"
#include "check/lockcheck.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "service/service.h"

using namespace xcvsim;
using jrbench::JsonWriter;
using jroute::EndPoint;
using jroute::Pin;

namespace {

struct Req {
  Pin src;
  Pin sink;
};

/// Tile-disjoint p2p pairs: one per cell of a coarse grid, spaced so
/// that margin-expanded bounding boxes never overlap.
std::vector<Req> makeDisjointWork(const Graph& g) {
  const DeviceSpec& dev = g.device();
  std::vector<Req> work;
  for (int r = 2; r + 1 < dev.rows - 1; r += 5) {
    for (int c = 4; c + 2 < dev.cols - 1; c += 6) {
      work.push_back({Pin(r, c, S1_YQ), Pin(r + 1, c + 2, clbIn(2))});
    }
  }
  return work;
}

struct RunResult {
  double seconds = 0;
  std::vector<double> latenciesMs;
  uint64_t accepted = 0;
  uint64_t parallel = 0;
};

/// Both modes route maze-only: with templates on, a short p2p route costs
/// microseconds and queue/handoff overhead dominates; the maze makes each
/// request expensive enough that the parallel planning phase is what's
/// being measured (and it is the engine both modes share).
jroute::RouterOptions mazeOnly() {
  jroute::RouterOptions r;
  r.templateFirst = false;
  return r;
}

RunResult runSerialized(Fabric& fabric, const std::vector<Req>& work,
                        uint64_t waves) {
  fabric.clear();
  jroute::Router router(fabric, mazeOnly());
  const bool paranoid = jrdrc::paranoidEnabled();
  auto check = [&](const char* what) {
    jrdrc::DrcInput in;
    in.fabric = &fabric;
    in.router = &router;
    in.checkBitstream = false;  // same policy as the per-txn hook
    jrdrc::enforce(in, what);
  };
  RunResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t w = 0; w < waves; ++w) {
    for (const Req& rq : work) {
      const auto s0 = std::chrono::steady_clock::now();
      router.route(EndPoint(rq.src), EndPoint(rq.sink));
      if (paranoid) check("serialized route");
      const auto s1 = std::chrono::steady_clock::now();
      res.latenciesMs.push_back(
          std::chrono::duration<double, std::milli>(s1 - s0).count());
      ++res.accepted;
    }
    for (const Req& rq : work) {
      const auto s0 = std::chrono::steady_clock::now();
      router.unroute(EndPoint(rq.src));
      if (paranoid) check("serialized unroute");
      const auto s1 = std::chrono::steady_clock::now();
      res.latenciesMs.push_back(
          std::chrono::duration<double, std::milli>(s1 - s0).count());
      ++res.accepted;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  return res;
}

RunResult runService(Fabric& fabric, const std::vector<Req>& work,
                     uint64_t waves, unsigned producers) {
  fabric.clear();
  jrsvc::ServiceOptions opts;
  opts.batchSize = 64;
  opts.router = mazeOnly();
  jrsvc::RoutingService svc(fabric, opts);
  std::vector<jrsvc::Session> sessions;
  for (unsigned p = 0; p < producers; ++p) {
    sessions.push_back(svc.openSession());
  }

  struct Pending {
    std::future<jrsvc::RouteResult> fut;
    std::chrono::steady_clock::time_point submitted;
  };
  std::vector<RunResult> lanes(producers);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      // Producer p owns the pairs congruent to p. Each wave routes them
      // all, settles, unroutes them all, settles — the settle keeps an
      // unroute out of the batch still carrying its net's route, and the
      // per-future .get() timestamps give a tight per-request
      // submit-to-resolve upper bound.
      RunResult& lane = lanes[p];
      std::vector<Pending> pending;
      auto settle = [&] {
        for (Pending& item : pending) {
          const jrsvc::RouteResult r = item.fut.get();
          if (r.ok()) {
            ++lane.accepted;
            if (r.routedInParallel) ++lane.parallel;
          }
          lane.latenciesMs.push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - item.submitted)
                  .count());
        }
        pending.clear();
      };
      for (uint64_t w = 0; w < waves; ++w) {
        for (size_t i = p; i < work.size(); i += producers) {
          Pending item;
          item.submitted = std::chrono::steady_clock::now();
          item.fut = sessions[p].routeAsync(EndPoint(work[i].src),
                                            EndPoint(work[i].sink));
          pending.push_back(std::move(item));
        }
        settle();
        for (size_t i = p; i < work.size(); i += producers) {
          Pending item;
          item.submitted = std::chrono::steady_clock::now();
          item.fut = sessions[p].unrouteAsync(EndPoint(work[i].src));
          pending.push_back(std::move(item));
        }
        settle();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult res;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (RunResult& lane : lanes) {
    res.accepted += lane.accepted;
    res.parallel += lane.parallel;
    res.latenciesMs.insert(res.latenciesMs.end(), lane.latenciesMs.begin(),
                           lane.latenciesMs.end());
  }
  svc.stop();
  return res;
}

void report(const char* mode, const RunResult& r, size_t reqs,
            unsigned producers) {
  const double reqPerSec = static_cast<double>(reqs) / r.seconds;
  std::printf("%-12s %8.3fs  %9.1f req/s  p50 %7.3fms  p99 %7.3fms"
              "  accepted %zu/%zu  parallel %llu\n",
              mode, r.seconds, reqPerSec,
              jrbench::percentile(r.latenciesMs, 50),
              jrbench::percentile(r.latenciesMs, 99),
              static_cast<size_t>(r.accepted), reqs,
              static_cast<unsigned long long>(r.parallel));
  JsonWriter j;
  j.kv("bench", std::string("service_throughput"))
      .kv("mode", std::string(mode))
      .kv("workload", std::string("roundtrip"))
      .kv("producers", static_cast<uint64_t>(producers))
      .kv("requests", static_cast<uint64_t>(reqs))
      .kv("seconds", r.seconds)
      .kv("req_per_sec", reqPerSec)
      .kv("p50_ms", jrbench::percentile(r.latenciesMs, 50))
      .kv("p99_ms", jrbench::percentile(r.latenciesMs, 99))
      .kv("accepted", r.accepted)
      .kv("parallel_planned", r.parallel)
      .kv("drc_paranoid", static_cast<uint64_t>(jrdrc::paranoidEnabled()))
      // Armed vs disarmed records measure the lock-order checker's
      // overhead on the same workload (budget: <3% disarmed).
      .kv("lockcheck",
          static_cast<uint64_t>(jrcheck::activeChecker().armed() ? 1 : 0))
      // E20's paired records measure the profiler the same way (budget:
      // <1% disarmed, <5% armed).
      .kv("prof", static_cast<uint64_t>(jrprof::armed() ? 1 : 0))
      // E16 compares this build against -DJROUTE_NO_TELEMETRY: the flag
      // tells the two record populations apart in BENCH_service.json.
      .kv("telemetry", static_cast<uint64_t>(jrobs::compiledIn() ? 1 : 0));
  // Enqueue-to-resolve percentiles from the engine's own histogram
  // (cumulative over the service reps; absent for the serialized
  // baseline and under JROUTE_NO_TELEMETRY).
  const jrobs::MetricsSnapshot snap = jrobs::registry().snapshot();
  if (const jrobs::MetricSample* h = snap.find("service.request.latency_us");
      std::string(mode) == "service" && h != nullptr && h->count > 0) {
    j.kv("hist_p50_us", h->p50).kv("hist_p95_us", h->p95).kv("hist_p99_us",
                                                             h->p99);
  }
  std::printf("%s\n", j.str());
  jrbench::appendRunRecord(j);
}

}  // namespace

int main(int argc, char** argv) {
  // Honors JROUTE_LOCKCHECK / JROUTE_PROF so bench_record.sh can measure
  // checker-armed and profiler-armed vs disarmed throughput on the
  // identical workload.
  jrcheck::maybeArmFromEnv();
  jrprof::maybeArmFromEnv();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  unsigned producers = std::min(4u, hw);
  int reps = 3;
  uint64_t requests = 10000;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (positional == 0) {
      producers = static_cast<unsigned>(std::atoi(argv[i]));
      ++positional;
    } else if (positional == 1) {
      reps = std::atoi(argv[i]);
      ++positional;
    } else {
      std::fprintf(stderr,
                   "usage: bench_service_throughput [producers] [reps] "
                   "[--requests N]\n");
      return 2;
    }
  }
  if (producers == 0) producers = 1;
  if (reps < 1) reps = 1;
  if (requests < 1) requests = 1;

  jrbench::Device& dev = jrbench::sharedDevice(xcv300());
  const std::vector<Req> work = makeDisjointWork(dev.graph);
  // Waves of route-all + unroute-all, rounded up to cover the request
  // budget; both modes issue exactly the same operation sequence.
  const uint64_t perWave = 2 * static_cast<uint64_t>(work.size());
  const uint64_t waves = std::max<uint64_t>(1, (requests + perWave - 1) / perWave);
  const uint64_t totalReqs = waves * perWave;
  std::printf("service throughput: %llu round-trip requests (%llu waves x "
              "%zu disjoint p2p pairs) on %s, %u producer(s), %u core(s), "
              "DRC paranoid %s, lockcheck %s, prof %s\n\n",
              static_cast<unsigned long long>(totalReqs),
              static_cast<unsigned long long>(waves), work.size(),
              std::string(xcv300().name).c_str(), producers, hw,
              jrdrc::paranoidEnabled() ? "on" : "off",
              jrcheck::activeChecker().armed() ? "armed" : "off",
              jrprof::armed() ? "armed" : "off");

  RunResult bestSerial, bestSvc;
  for (int rep = 0; rep < reps; ++rep) {
    RunResult s = runSerialized(dev.fabric, work, waves);
    if (rep == 0 || s.seconds < bestSerial.seconds) bestSerial = std::move(s);
    RunResult v = runService(dev.fabric, work, waves, producers);
    if (rep == 0 || v.seconds < bestSvc.seconds) bestSvc = std::move(v);
  }

  report("serialized", bestSerial, static_cast<size_t>(totalReqs), 1);
  report("service", bestSvc, static_cast<size_t>(totalReqs), producers);
  std::printf("\nspeedup: %.2fx\n", bestSerial.seconds / bestSvc.seconds);
  return 0;
}
