// Tests for request-lifecycle spans, the SLO burn-rate monitor, and the
// session-stream workload: telescoping (segments sum to the end-to-end
// latency exactly), one span fold per resolved request under
// concurrency, window arithmetic at the edges of the bucket ring,
// breach rising-edge semantics with flight-recorder bundles, and
// byte-identical streams for a fixed seed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/wires.h"
#include "json_validator.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/spans.h"
#include "service/service.h"
#include "workload/session_stream.h"

namespace jrobs {
namespace {

using jroute::EndPoint;
using jroute::Pin;
using jrtest::validJson;
using xcvsim::clbIn;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::PipTable;
using xcvsim::S0_YQ;
using xcvsim::S1_YQ;

const Graph& testGraph() {
  static Graph g{xcvsim::xcv50()};
  return g;
}
const PipTable& testTable() {
  static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
  return t;
}

// --- Span telescoping --------------------------------------------------------

#ifndef JROUTE_NO_TELEMETRY

/// Build a span with explicit nanosecond stamps (index = SpanStage).
RequestSpan spanWith(std::initializer_list<uint64_t> ns) {
  RequestSpan s;
  size_t i = 0;
  for (const uint64_t v : ns) s.ns[i++] = v;
  return s;
}

TEST(ObsSpanTest, FoldTelescopesOrderedStampsExactly) {
  spanAggregator().reset();
  // 1us, 3us, 10us, 11us, 20us, 26us, 30us -> segments 2,7,1,9,6,4.
  const RequestSpan s = spanWith(
      {1000, 3000, 10000, 11000, 20000, 26000, 30000});
  const SpanRecord rec =
      spanAggregator().fold(s, 1, 1, "p2p", "accepted", true);
  const std::array<uint64_t, kNumSpanSegments> want{2, 7, 1, 9, 6, 4};
  EXPECT_EQ(rec.segUs, want);
  EXPECT_EQ(rec.e2eUs, 29u);  // == (30000 - 1000) / 1000, no drift
  uint64_t sum = 0;
  for (const uint64_t seg : rec.segUs) sum += seg;
  EXPECT_EQ(sum, rec.e2eUs);
  EXPECT_EQ(spanAggregator().count(), 1u);
}

TEST(ObsSpanTest, MissingAndReorderedStampsClampToZeroLengthSegments) {
  spanAggregator().reset();
  // Plan stamps missing (zeros) and the arbitration stamp earlier than
  // batch close: every segment must stay non-negative and the telescope
  // must still sum to reply - enqueue.
  const RequestSpan s =
      spanWith({5000, 9000, 0, 0, 7000, 12000, 15000});
  const SpanRecord rec =
      spanAggregator().fold(s, 2, 1, "unroute", "accepted", false);
  uint64_t sum = 0;
  for (const uint64_t seg : rec.segUs) sum += seg;
  EXPECT_EQ(sum, rec.e2eUs);
  EXPECT_EQ(rec.e2eUs, 10u);  // (15000 - 5000) / 1000
  EXPECT_EQ(rec.segUs[1], 0u);  // batch_linger: plan stamps missing
  EXPECT_EQ(rec.segUs[3], 0u);  // arbitration: reordered, clamped
}

TEST(ObsSpanTest, NeverEnqueuedSpanFoldsAsZero) {
  spanAggregator().reset();
  RequestSpan s;  // all zero: the request never entered the service
  const SpanRecord rec =
      spanAggregator().fold(s, 3, 1, "p2p", "overloaded", false);
  EXPECT_EQ(rec.e2eUs, 0u);
  for (const uint64_t seg : rec.segUs) EXPECT_EQ(seg, 0u);
}

TEST(ObsSpanTest, ResetZeroesCountsAndRings) {
  spanAggregator().reset();
  const RequestSpan s = spanWith({1000, 2000, 3000, 4000, 5000, 6000, 7000});
  spanAggregator().fold(s, 4, 1, "p2p", "accepted", false);
  ASSERT_GE(spanAggregator().count(), 1u);
  ASSERT_FALSE(spanAggregator().recentRecords().empty());
  spanAggregator().reset();
  EXPECT_EQ(spanAggregator().count(), 0u);
  EXPECT_TRUE(spanAggregator().recentRecords().empty());
  EXPECT_EQ(spanAggregator().report().requests, 0u);
}

TEST(ObsSpanTest, RecordAndAttributionJsonAreValid) {
  spanAggregator().reset();
  const RequestSpan s = spanWith({1000, 2000, 3000, 4000, 5000, 6000, 7000});
  const SpanRecord rec =
      spanAggregator().fold(s, 5, 2, "fanout", "contention", true);
  EXPECT_TRUE(validJson(rec.json())) << rec.json();
  const SpanAttribution attr = spanAggregator().report();
  EXPECT_TRUE(validJson(attr.json())) << attr.json();
  EXPECT_NE(attr.json().find("\"spans\""), std::string::npos);
}

#endif  // JROUTE_NO_TELEMETRY

TEST(ObsSpanServiceTest, ServiceSpansTelescopeAndCoverRejections) {
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  spanAggregator().reset();
  Fabric fabric(testGraph(), testTable());
  jrsvc::ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  jrsvc::RoutingService svc(fabric, opts);
  jrsvc::Session alice = svc.openSession();
  jrsvc::Session bob = svc.openSession();

  auto ok = alice.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                             EndPoint(Pin(4, 5, clbIn(2))));
  auto stolen = bob.unrouteAsync(EndPoint(Pin(3, 3, S1_YQ)));
  svc.pumpOnce();
  svc.pumpOnce();
  ASSERT_TRUE(ok.get().ok());
  ASSERT_EQ(stolen.get().reason, jrsvc::Reject::kNotOwner);

  // Both the accepted and the rejected request folded exactly one span,
  // and every record telescopes: segments sum to the e2e latency.
  EXPECT_EQ(spanAggregator().count(), 2u);
  const std::vector<SpanRecord> recs = spanAggregator().recentRecords();
  ASSERT_EQ(recs.size(), 2u);
  std::set<std::string> results;
  for (const SpanRecord& r : recs) {
    uint64_t sum = 0;
    for (const uint64_t seg : r.segUs) sum += seg;
    EXPECT_EQ(sum, r.e2eUs) << r.json();
    EXPECT_GT(r.e2eUs, 0u) << r.json();
    results.insert(r.result);
  }
  EXPECT_TRUE(results.count("accepted")) << "accepted span missing";
  EXPECT_EQ(results.size(), 2u) << "rejected span missing";
  svc.stop();
}

TEST(ObsSpanConcurrencyTest, ExactlyOneSpanFoldPerResolvedRequest) {
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  spanAggregator().reset();
  Fabric fabric(testGraph(), testTable());
  jrsvc::ServiceOptions opts;
  opts.queueCapacity = 4096;  // nothing sheds as kOverloaded
  jrsvc::RoutingService svc(fabric, opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&svc, t] {
      jrsvc::Session s = svc.openSession();
      std::vector<std::future<jrsvc::RouteResult>> futs;
      // Route + unroute a thread-private pin repeatedly, waiting each
      // future so per-net ordering holds; four threads keep the engine's
      // fold path concurrent the whole time.
      const Pin src(3 + t * 3, 4, S0_YQ);
      const Pin sink(3 + t * 3, 6, clbIn(1));
      for (int i = 0; i < kPerThread / 2; ++i) {
        futs.push_back(s.routeAsync(EndPoint(src), EndPoint(sink)));
        futs.back().wait();
        futs.push_back(s.unrouteAsync(EndPoint(src)));
        futs.back().wait();
      }
      for (auto& f : futs) f.get();
    });
  }
  for (auto& p : producers) p.join();
  svc.stop();
  EXPECT_EQ(spanAggregator().count(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

// --- SLO config parsing ------------------------------------------------------

TEST(ObsSloTest, ConfigParseAcceptsAndRejects) {
  SloConfig cfg;
  std::string err;
  ASSERT_TRUE(
      SloConfig::parse("latency_us=5000,target=0.999,burn=8", &cfg, &err));
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.latencyUs, 5000u);
  EXPECT_DOUBLE_EQ(cfg.target, 0.999);
  EXPECT_DOUBLE_EQ(cfg.burnAlert, 8.0);

  ASSERT_TRUE(SloConfig::parse("latency_us=100", &cfg, &err));
  EXPECT_DOUBLE_EQ(cfg.target, 0.999);  // defaults survive a sparse spec

  EXPECT_FALSE(SloConfig::parse("", &cfg, &err));
  EXPECT_FALSE(SloConfig::parse("target=0.9", &cfg, &err));  // no latency_us
  EXPECT_FALSE(SloConfig::parse("latency_us=0", &cfg, &err));
  EXPECT_FALSE(SloConfig::parse("latency_us=abc", &cfg, &err));
  EXPECT_FALSE(SloConfig::parse("latency_us=100,target=1.5", &cfg, &err));
  EXPECT_FALSE(SloConfig::parse("latency_us=100,target=0", &cfg, &err));
  EXPECT_FALSE(SloConfig::parse("latency_us=100,burn=-1", &cfg, &err));
  EXPECT_FALSE(SloConfig::parse("latency_us=100,bogus=1", &cfg, &err));
  EXPECT_FALSE(SloConfig::parse("latency_us", &cfg, &err));
  EXPECT_FALSE(err.empty());
}

// --- SLO window arithmetic ---------------------------------------------------

class ObsSloWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
    SloConfig cfg;
    cfg.enabled = true;
    cfg.latencyUs = 1000;
    cfg.target = 0.9;    // budget 0.1
    cfg.burnAlert = 99;  // high: these tests exercise windows, not breaches
    sloMonitor().configure(cfg);
  }
  void TearDown() override { sloMonitor().configure(SloConfig{}); }
};

TEST_F(ObsSloWindowTest, WindowsIncludeExactlyTheTrailingSeconds) {
  // Second 100: 8 good, 2 bad -> bad fraction 0.2, burn 0.2/0.1 = 2.
  for (int i = 0; i < 8; ++i) sloMonitor().observe(500, true, 100);
  sloMonitor().observe(5000, true, 100);   // too slow: bad
  sloMonitor().observe(500, false, 100);   // rejected: bad
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(1, 100), 2.0);
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(1, 101), 0.0);  // not in window
  // Trailing-window inclusivity: second 100 is inside [100-9, 109] but
  // outside [101, 110].
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(10, 109), 2.0);
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(10, 110), 0.0);
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(60, 159), 2.0);
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(60, 160), 0.0);

  const SloReport rep = sloMonitor().report(100);
  ASSERT_EQ(rep.windows.size(), 3u);
  EXPECT_EQ(rep.windows[0].total, 10u);
  EXPECT_EQ(rep.windows[0].good, 8u);
  EXPECT_EQ(rep.observed, 10u);
  EXPECT_EQ(rep.good, 8u);
  EXPECT_TRUE(validJson(rep.json())) << rep.json();
}

TEST_F(ObsSloWindowTest, WindowsClampAtSecondZero) {
  sloMonitor().observe(5000, true, 0);  // bad, in the very first second
  // A 10s window ending at second 5 reaches back past zero; the negative
  // seconds contribute nothing instead of wrapping the ring.
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(10, 5), 10.0);  // 1 bad / 1 total
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(10, 10), 0.0);
}

TEST_F(ObsSloWindowTest, RingRecyclingRetagsBucketsAndIgnoresStaleTags) {
  sloMonitor().observe(500, true, 100);
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(1, 100), 0.0);
  ASSERT_EQ(sloMonitor().report(100).windows[0].total, 1u);
  // Second 228 maps to the same bucket (ring of 128): the bucket is
  // recycled for the new second...
  sloMonitor().observe(5000, true, 228);
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(1, 228), 10.0);
  EXPECT_EQ(sloMonitor().report(228).windows[0].total, 1u);
  // ...and the old second's samples are gone, not misattributed.
  EXPECT_EQ(sloMonitor().report(100).windows[0].total, 0u);
}

TEST_F(ObsSloWindowTest, DisabledMonitorObservesNothing) {
  sloMonitor().configure(SloConfig{});  // enabled = false
  sloMonitor().observe(500, true, 100);
  EXPECT_EQ(sloMonitor().report(100).observed, 0u);
  EXPECT_DOUBLE_EQ(sloMonitor().burnRate(1, 100), 0.0);
}

// --- SLO breach semantics ----------------------------------------------------

TEST(ObsSloBreachTest, BreachFiresOnRisingEdgeWithSpanBundle) {
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "jr_slo_breach_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  flightRecorder().arm(dir.string());

  spanAggregator().reset();
#ifndef JROUTE_NO_TELEMETRY
  // Give the breach bundle a worst-offender span to embed.
  RequestSpan slow;
  slow.ns = {1000, 2000, 3000, 4000, 5000, 6000, 9001000};
  spanAggregator().fold(slow, 77, 9, "p2p", "accepted", false);
#endif

  SloConfig cfg;
  cfg.enabled = true;
  cfg.latencyUs = 100;
  cfg.target = 0.5;   // budget 0.5
  cfg.burnAlert = 1.5;
  sloMonitor().configure(cfg);

  // All-bad second 50: burn 1/0.5 = 2 on both windows -> one breach on
  // the rising edge, and staying bad must not re-fire.
  for (int i = 0; i < 5; ++i) sloMonitor().observe(5000, true, 50);
  EXPECT_EQ(sloMonitor().breachCount(), 1u);
  for (int i = 0; i < 5; ++i) sloMonitor().observe(5000, true, 51);
  EXPECT_EQ(sloMonitor().breachCount(), 1u);

  // Recover: good-only seconds push the bad ones out of the 10s window.
  for (int64_t sec = 52; sec <= 62; ++sec) {
    for (int i = 0; i < 5; ++i) sloMonitor().observe(10, true, sec);
  }
  EXPECT_EQ(sloMonitor().breachCount(), 1u);
  // A fresh excursion far from the recovery window is a new rising edge.
  sloMonitor().observe(5000, true, 300);
  EXPECT_EQ(sloMonitor().breachCount(), 2u);

  flightRecorder().disarm();
  sloMonitor().configure(SloConfig{});

  // The bundles carry the SLO report and the worst offenders' spans.
  size_t bundles = 0;
  for (const auto& ent : fs::directory_iterator(dir)) {
    if (ent.path().string().find(kSloBreach) == std::string::npos) continue;
    ++bundles;
    std::ifstream is(ent.path());
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_TRUE(validJson(ss.str())) << ent.path();
    EXPECT_NE(ss.str().find("\"slo\":"), std::string::npos);
    EXPECT_NE(ss.str().find("\"worst\":"), std::string::npos);
    EXPECT_NE(ss.str().find("\"request_id\":77"), std::string::npos)
        << "worst-offender span not embedded";
  }
  EXPECT_EQ(bundles, 2u);
  fs::remove_all(dir);
}

// --- Session streams ---------------------------------------------------------

TEST(SessionStreamTest, ByteIdenticalForFixedSeedDivergesAcrossSeeds) {
  workload::SessionStreamOptions opts;
  opts.sessions = 12;
  opts.slotsPerSession = 4;
  opts.seed = 42;
  auto render = [](workload::SessionStream& s, size_t n) {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      out += workload::SessionStream::describe(s.next());
      out += "\n";
    }
    return out;
  };
  workload::SessionStream a(xcvsim::xcv50(), opts);
  workload::SessionStream b(xcvsim::xcv50(), opts);
  const std::string ra = render(a, 3000);
  EXPECT_EQ(ra, render(b, 3000));

  opts.seed = 43;
  workload::SessionStream c(xcvsim::xcv50(), opts);
  EXPECT_NE(ra, render(c, 3000));
}

TEST(SessionStreamTest, SlotStateMachineNeverDoubleRoutesOrBlindUnroutes) {
  workload::SessionStreamOptions opts;
  opts.sessions = 8;
  opts.slotsPerSession = 3;
  workload::SessionStream stream(xcvsim::xcv50(), opts);
  std::set<std::pair<uint32_t, uint32_t>> routed;
  for (int i = 0; i < 5000; ++i) {
    const workload::StreamEvent e = stream.next();
    const std::pair<uint32_t, uint32_t> key{e.session, e.slot};
    switch (e.op) {
      case workload::StreamOp::kP2P:
      case workload::StreamOp::kFanout:
      case workload::StreamOp::kBus:
        EXPECT_FALSE(routed.count(key)) << "route of a routed slot";
        ASSERT_FALSE(e.srcs.empty());
        ASSERT_FALSE(e.sinks.empty());
        routed.insert(key);
        break;
      case workload::StreamOp::kUnroute:
        EXPECT_TRUE(routed.count(key)) << "unroute of an unrouted slot";
        routed.erase(key);
        break;
      case workload::StreamOp::kReconnect:
        EXPECT_TRUE(routed.count(key)) << "reconnect of an unrouted slot";
        ASSERT_EQ(e.srcs.size(), 1u);
        ASSERT_EQ(e.sinks.size(), 1u);
        break;
    }
  }
  EXPECT_EQ(stream.produced(), 5000u);
}

TEST(SessionStreamTest, SlotsNeverSharePins) {
  workload::SessionStreamOptions opts;
  opts.sessions = 16;
  opts.slotsPerSession = 4;
  workload::SessionStream stream(xcvsim::xcv50(), opts);
  // Round-robin guarantees every session appears within one lap; a few
  // laps cover every slot with overwhelming probability, and distinct
  // describe() pins across all route events imply disjoint placements.
  std::set<std::string> seen;
  size_t routes = 0;
  for (int i = 0; i < 4000; ++i) {
    const workload::StreamEvent e = stream.next();
    if (e.op == workload::StreamOp::kUnroute ||
        e.op == workload::StreamOp::kReconnect) {
      continue;
    }
    ++routes;
    for (const jroute::Pin& p : e.srcs) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "s%d,%d,%u", p.rc.row, p.rc.col,
                    static_cast<unsigned>(p.wire));
      // A slot re-routes after unroute, so dedupe per slot, not globally:
      // key by slot identity + pin.
      char key[64];
      std::snprintf(key, sizeof key, "%u/%u:%s", e.session, e.slot, buf);
      seen.insert(key);
    }
  }
  EXPECT_GT(routes, 100u);

  // The real disjointness proof: collect every slot's pins once via a
  // fresh stream's first lap and assert global uniqueness.
  workload::SessionStream fresh(xcvsim::xcv50(), opts);
  std::set<std::string> pins;
  std::set<std::pair<uint32_t, uint32_t>> covered;
  const size_t slots =
      static_cast<size_t>(opts.sessions) * opts.slotsPerSession;
  for (int i = 0; i < 20000 && covered.size() < slots; ++i) {
    const workload::StreamEvent e = fresh.next();
    if (e.op == workload::StreamOp::kUnroute ||
        e.op == workload::StreamOp::kReconnect) {
      continue;
    }
    if (!covered.insert({e.session, e.slot}).second) continue;
    for (const jroute::Pin& p : e.srcs) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%d,%d,%u", p.rc.row, p.rc.col,
                    static_cast<unsigned>(p.wire));
      EXPECT_TRUE(pins.insert(buf).second) << "shared source pin " << buf;
    }
  }
}

TEST(SessionStreamTest, TooSmallDeviceIsRejected) {
  workload::SessionStreamOptions opts;
  opts.radius = 12;  // 2*12+1 exceeds the XCV50's 16 rows
  EXPECT_THROW(workload::SessionStream(xcvsim::xcv50(), opts),
               xcvsim::ArgumentError);
}

}  // namespace
}  // namespace jrobs
