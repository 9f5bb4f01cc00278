// Observability PR tests: per-net provenance, congestion heatmaps, and
// the anomaly flight recorder.
//
// Three layers are covered. (1) The pure data layer — NetProvenance
// renderers, the bounded ProvenanceStore, Heatmap ASCII/JSON — is tested
// with exact golden strings: jrsh `why` and `heatmap json` print these
// verbatim, so their format is contract, not incident. (2) The service
// wiring — every net committed through the engine leaves exactly one
// record, updated on extension and forgotten on unroute — including a
// multi-threaded submission test that tier-1 runs under TSAN ("Obs" in
// the suite names keeps these inside the sanitizer ctest filters).
// (3) The flight recorder — a forced contention rejection must dump a
// self-contained JSON bundle that round-trips the RFC 8259 validator.
// Everything degrades per the JROUTE_NO_TELEMETRY contract: stores and
// grids go empty, renderers keep working, nothing crashes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/congestion.h"
#include "arch/wires.h"
#include "json_validator.h"
#include "obs/flightrec.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "service/service.h"

namespace jrsvc {
namespace {

using jrobs::CongestionGrid;
using jrobs::FlightRecorder;
using jrobs::Heatmap;
using jrobs::NetProvenance;
using jrobs::ProvenanceStore;
using jroute::EndPoint;
using jroute::Pin;
using jrtest::validJson;
using xcvsim::clbIn;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::kInvalidNode;
using xcvsim::NodeId;
using xcvsim::PipTable;
using xcvsim::S0_Y;
using xcvsim::S0_YQ;
using xcvsim::S0F1;
using xcvsim::S1_YQ;

// --- Renderers: golden output ----------------------------------------------
// jrsh prints these verbatim; the exact strings are the interface.

NetProvenance sampleRecord() {
  NetProvenance rec;
  rec.netSource = 1234;
  rec.netName = "net_7";
  rec.requestId = 42;
  rec.sessionId = 3;
  rec.op = "p2p";
  rec.algorithm = "template";
  rec.selector = "mixed";
  rec.parallel = true;
  rec.pips = 6;
  rec.sinks = 1;
  rec.searchVisits = 44;
  rec.claimRetries = 0;
  rec.latencyUs = 120;
  rec.txn = "committed";
  rec.drc = "pass";
  rec.updates = 1;
  rec.seq = 9;
  return rec;
}

TEST(ObsProvenanceGolden, WhyTextRendersExactly) {
  EXPECT_EQ(sampleRecord().text(),
            "net net_7 (source node 1234)\n"
            "  request   #42 session 3 op p2p\n"
            "  algorithm template (parallel plan), selector mixed\n"
            "  effort    44 nodes visited, 0 claim retries\n"
            "  result    6 pips across 1 sink(s), latency 120 us\n"
            "  outcome   txn committed, drc pass, updated 1x (seq 9)\n");

  // The serialized / never-updated variant drops its optional clauses.
  NetProvenance plain = sampleRecord();
  plain.parallel = false;
  plain.updates = 0;
  EXPECT_NE(
      plain.text().find("  algorithm template (serialized), selector mixed\n"),
      std::string::npos);
  EXPECT_EQ(plain.text().find("updated"), std::string::npos);
}

TEST(ObsProvenanceGolden, JsonRendersExactlyAndValidates) {
  const std::string json = sampleRecord().json();
  EXPECT_EQ(json,
            "{\"net_source\":1234,\"net_name\":\"net_7\",\"request_id\":42,"
            "\"session_id\":3,\"op\":\"p2p\",\"algorithm\":\"template\","
            "\"selector\":\"mixed\",\"parallel\":true,\"pips\":6,"
            "\"sinks\":1,\"search_visits\":44,"
            "\"claim_retries\":0,\"latency_us\":120,\"txn\":\"committed\","
            "\"drc\":\"pass\",\"updates\":1,\"seq\":9}");
  EXPECT_TRUE(validJson(json));
}

TEST(ObsHeatmapGolden, AsciiAndJsonRenderExactly) {
  Heatmap h;
  h.title = "t";
  h.gridRows = 2;
  h.gridCols = 3;
  h.cellRows = 4;
  h.cellCols = 4;
  h.values = {0, 1, 2, 0, 0, 4};
  EXPECT_EQ(h.maxValue(), 4u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.ascii(),
            "t (2x3 cells of 4x4 tiles, max=4, total=7)\n"
            "   .-\n"
            "    #\n"
            "  legend: ' '=0 '@'<=4\n");
  const std::string json = h.json();
  EXPECT_EQ(json,
            "{\"heatmap\":{\"title\":\"t\",\"grid_rows\":2,\"grid_cols\":3,"
            "\"cell_rows\":4,\"cell_cols\":4,\"max\":4,\"total\":7,"
            "\"cells\":[[0,1,2],[0,0,4]]}}");
  EXPECT_TRUE(validJson(json));
}

TEST(ObsProvenanceGolden, AlgorithmClassification) {
  using jrobs::classifyAlgorithm;
  EXPECT_STREQ(classifyAlgorithm(0, 0, 0), "reuse");
  EXPECT_STREQ(classifyAlgorithm(2, 0, 0), "template");
  EXPECT_STREQ(classifyAlgorithm(0, 0, 3), "shape-hint");
  EXPECT_STREQ(classifyAlgorithm(0, 1, 0), "maze");
  EXPECT_STREQ(classifyAlgorithm(1, 1, 0), "mixed");
  EXPECT_STREQ(classifyAlgorithm(0, 1, 1), "mixed");
}

// --- ProvenanceStore --------------------------------------------------------

TEST(ObsProvenanceStore, RecordFindLastForget) {
  ProvenanceStore store(8);
  NetProvenance a;
  a.netSource = 10;
  a.netName = "a";
  NetProvenance b;
  b.netSource = 20;
  b.netName = "b";
  store.record(a);
  store.record(b);
  EXPECT_TRUE(validJson(store.json()));
  if (!jrobs::compiledIn()) {
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.find(10).has_value());
    EXPECT_FALSE(store.last().has_value());
    return;
  }
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.find(10).has_value());
  EXPECT_EQ(store.find(10)->netName, "a");
  EXPECT_EQ(store.find(10)->seq, 1u);  // the store stamps commit order
  ASSERT_TRUE(store.last().has_value());
  EXPECT_EQ(store.last()->netName, "b");
  store.forget(10);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.find(10).has_value());
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.json(), "{\"provenance\":[]}");
}

TEST(ObsProvenanceStore, ReRecordMergesAndBumpsUpdates) {
  if (!jrobs::compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  ProvenanceStore store(8);
  NetProvenance rec;
  rec.netSource = 10;
  rec.op = "p2p";
  store.record(rec);
  rec.op = "fanout";  // a later request extends the same net
  store.record(rec);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.find(10).has_value());
  EXPECT_EQ(store.find(10)->op, "fanout");  // new request's view wins...
  EXPECT_EQ(store.find(10)->updates, 1u);   // ...with the history counted
  EXPECT_EQ(store.find(10)->seq, 2u);
}

TEST(ObsProvenanceStore, BoundedEvictionIsOldestFirst) {
  if (!jrobs::compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  ProvenanceStore store(2);
  for (uint64_t src : {10u, 20u, 30u}) {
    NetProvenance rec;
    rec.netSource = src;
    store.record(rec);
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.find(10).has_value());  // oldest commit evicted
  EXPECT_TRUE(store.find(20).has_value());
  EXPECT_TRUE(store.find(30).has_value());
}

// --- CongestionGrid ---------------------------------------------------------

TEST(ObsCongestionGrid, AccumulatesResetsAndReconfigures) {
  CongestionGrid grid;
  EXPECT_FALSE(grid.configured());
  grid.add(0, 0);  // pre-configure adds are dropped, not UB
  grid.configure(16, 24, 4, 4);
  if (!jrobs::compiledIn()) {
    EXPECT_FALSE(grid.configured());
    EXPECT_TRUE(grid.snapshot("x").values.empty());
    return;
  }
  ASSERT_TRUE(grid.configured());
  grid.add(0, 0);
  grid.add(3, 3);    // same 4x4 cell as (0,0)
  grid.add(4, 0);    // next cell row
  grid.add(15, 23, 5);
  grid.add(-1, 0);   // out of range: ignored
  grid.add(16, 0);
  const Heatmap snap = grid.snapshot("claims");
  EXPECT_EQ(snap.gridRows, 4);
  EXPECT_EQ(snap.gridCols, 6);
  EXPECT_EQ(snap.at(0, 0), 2u);
  EXPECT_EQ(snap.at(1, 0), 1u);
  EXPECT_EQ(snap.at(3, 5), 5u);
  EXPECT_EQ(snap.total(), 8u);
  EXPECT_TRUE(validJson(snap.json()));

  grid.reset();
  EXPECT_EQ(grid.snapshot("claims").total(), 0u);

  // Same geometry re-configure zeroes; a new geometry swaps the array.
  grid.add(0, 0);
  grid.configure(16, 24, 4, 4);
  EXPECT_EQ(grid.snapshot("claims").total(), 0u);
  grid.configure(8, 8, 2, 2);
  const Heatmap re = grid.snapshot("claims");
  EXPECT_EQ(re.gridRows, 4);
  EXPECT_EQ(re.gridCols, 4);
  EXPECT_EQ(re.total(), 0u);
}

// --- Service wiring ---------------------------------------------------------

class ObsServiceTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }

  ObsServiceTest() : fabric_(graph(), table()) {
    jrobs::provenance().clear();  // the store is process-global
  }

  Fabric fabric_;
};

TEST_F(ObsServiceTest, CommittedNetsLeaveOneRecordUpdatedAndForgotten) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();

  auto routed = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                             EndPoint(Pin(4, 5, clbIn(2))));
  svc.pumpOnce();
  const RouteResult res = routed.get();
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.netSource, kInvalidNode);

  if (!jrobs::compiledIn()) {
    EXPECT_FALSE(jrobs::provenance().find(res.netSource).has_value());
    return;
  }

  auto rec = jrobs::provenance().find(res.netSource);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->netSource, res.netSource);
  EXPECT_GT(rec->requestId, 0u);
  EXPECT_EQ(rec->sessionId, s.id());
  EXPECT_EQ(rec->op, "p2p");
  EXPECT_EQ(rec->txn, "committed");
  EXPECT_GT(rec->pips, 0u);
  EXPECT_EQ(rec->sinks, 1u);
  EXPECT_EQ(rec->updates, 0u);
  const std::set<std::string> algos{"template", "shape-hint", "maze", "mixed",
                                    "reuse"};
  EXPECT_TRUE(algos.count(rec->algorithm)) << rec->algorithm;
  EXPECT_TRUE(validJson(rec->json()));
  ASSERT_TRUE(jrobs::provenance().last().has_value());
  EXPECT_EQ(jrobs::provenance().last()->netSource, res.netSource);

  // Extending the net replaces the record (exactly one per net) and
  // bumps `updates`; the newest request's view wins.
  auto grew = s.fanoutAsync(EndPoint(Pin(3, 3, S1_YQ)),
                            {EndPoint(Pin(5, 6, clbIn(3)))});
  svc.pumpOnce();
  ASSERT_TRUE(grew.get().ok());
  rec = jrobs::provenance().find(res.netSource);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->op, "fanout");
  EXPECT_EQ(rec->updates, 1u);

  // Unrouting forgets: `why` on a freed net must not explain stale state.
  auto freed = s.unrouteAsync(EndPoint(Pin(3, 3, S1_YQ)));
  svc.pumpOnce();
  ASSERT_TRUE(freed.get().ok());
  EXPECT_FALSE(jrobs::provenance().find(res.netSource).has_value());
}

TEST_F(ObsServiceTest, OccupancyHeatmapMatchesFabricUsage) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  auto routed = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                             EndPoint(Pin(4, 5, clbIn(2))));
  svc.pumpOnce();
  ASSERT_TRUE(routed.get().ok());

  // Occupancy is a fabric read, not telemetry: it works in both build
  // modes and its total is exactly the number of in-use nodes.
  const Heatmap occ = svc.occupancy();
  EXPECT_EQ(occ.gridRows, 4);  // xcv50: 16x24 tiles in 4x4 cells
  EXPECT_EQ(occ.gridCols, 6);
  EXPECT_EQ(occ.total(), fabric_.usedNodeCount());
  EXPECT_GT(occ.total(), 0u);
  EXPECT_TRUE(validJson(occ.json()));

  const Heatmap conflicts = svc.claimConflicts();
  EXPECT_TRUE(validJson(conflicts.json()));
  if (jrobs::compiledIn()) {
    EXPECT_EQ(conflicts.gridRows, 4);
    EXPECT_EQ(conflicts.gridCols, 6);
  }
}

TEST_F(ObsServiceTest, ConcurrentSubmissionsLeaveExactlyOneRecordPerNet) {
  // The TSAN target: client threads race the engine thread and the
  // parallel planners; afterwards every committed net has exactly one
  // provenance record and every rejected request left none.
  ServiceOptions opts;
  opts.planThreads = 2;
  RoutingService svc(fabric_, opts);

  constexpr int kThreads = 4;
  constexpr int kReqs = 6;
  std::vector<Session> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(svc.openSession());

  std::vector<std::vector<std::future<RouteResult>>> futs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ti = static_cast<size_t>(t);
      for (int i = 0; i < kReqs; ++i) {
        const int row = 2 + 3 * t;
        const int col = 2 + 3 * i;
        futs[ti].push_back(
            sessions[ti].routeAsync(EndPoint(Pin(row, col, S1_YQ)),
                                    EndPoint(Pin(row + 1, col + 1, clbIn(1)))));
      }
    });
  }
  // Two deliberately conflicting requests racing for the same sink:
  // exactly one can win, and the loser's rollback must leave no record.
  auto war0 = sessions[0].routeAsync(EndPoint(Pin(14, 21, S0_Y)),
                                     EndPoint(Pin(15, 22, S0F1)));
  auto war1 = sessions[1].routeAsync(EndPoint(Pin(14, 22, S1_YQ)),
                                     EndPoint(Pin(15, 22, S0F1)));
  for (std::thread& th : threads) th.join();

  std::set<NodeId> committed;
  std::vector<NodeId> rejectedSources;
  for (size_t t = 0; t < kThreads; ++t) {
    for (auto& f : futs[t]) {
      const RouteResult r = f.get();
      ASSERT_TRUE(r.ok()) << r.detail;  // disjoint tiles: all must land
      committed.insert(r.netSource);
    }
  }
  const RouteResult w0 = war0.get();
  const RouteResult w1 = war1.get();
  EXPECT_EQ((w0.ok() ? 1 : 0) + (w1.ok() ? 1 : 0), 1)
      << w0.detail << " / " << w1.detail;
  if (w0.ok()) {
    committed.insert(w0.netSource);
    rejectedSources.push_back(graph().nodeAt({14, 22}, S1_YQ));
  } else {
    committed.insert(w1.netSource);
    rejectedSources.push_back(graph().nodeAt({14, 21}, S0_Y));
  }
  ASSERT_EQ(committed.size(), static_cast<size_t>(kThreads * kReqs + 1));

  if (!jrobs::compiledIn()) return;
  for (const NodeId src : committed) {
    auto rec = jrobs::provenance().find(src);
    ASSERT_TRUE(rec.has_value()) << "net source " << src;
    EXPECT_EQ(rec->netSource, src);
    EXPECT_EQ(rec->op, "p2p");
    EXPECT_EQ(rec->txn, "committed");
    EXPECT_EQ(rec->updates, 0u);  // one committing request per net
  }
  for (const NodeId src : rejectedSources) {
    EXPECT_FALSE(jrobs::provenance().find(src).has_value());
    EXPECT_FALSE(fabric_.isUsed(src));  // rollback left no residue either
  }
  EXPECT_EQ(jrobs::provenance().size(), committed.size());
}

// --- Flight recorder --------------------------------------------------------

std::string freshDumpDir(const char* leaf) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream is(p);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(ObsFlightRecorder, DisarmedAnomaliesAreCountedButNotDumped) {
  FlightRecorder& fr = jrobs::flightRecorder();
  fr.disarm();
  const uint64_t before = fr.anomalyCount();
  EXPECT_EQ(fr.anomaly("test-disarmed", "nothing to see"), "");
  if (jrobs::compiledIn()) {
    EXPECT_EQ(fr.anomalyCount(), before + 1);
  }
}

TEST(ObsFlightRecorder, ArmedAnomalyDumpsSelfContainedBundle) {
  if (!jrobs::compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  FlightRecorder& fr = jrobs::flightRecorder();
  const std::string dir = freshDumpDir("jr_flightrec_direct");
  fr.arm(dir);
  fr.note("test", "step", 7, 8);
  const std::string path =
      fr.anomaly("test-kind", "forced by test", "{\"x\":1}");
  fr.disarm();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(std::filesystem::path(path).parent_path().string(), dir);

  const std::string bundle = slurp(path);
  EXPECT_TRUE(validJson(bundle)) << bundle.substr(0, 400);
  EXPECT_NE(bundle.find("\"kind\":\"test-kind\""), std::string::npos);
  EXPECT_NE(bundle.find("\"detail\":\"forced by test\""), std::string::npos);
  EXPECT_NE(bundle.find("\"name\":\"step\""), std::string::npos);  // the ring
  EXPECT_NE(bundle.find("\"extra\":{\"x\":1}"), std::string::npos);
  EXPECT_NE(bundle.find("\"metrics\":{"), std::string::npos);

  fr.clear();
  EXPECT_EQ(fr.eventCount(), 0u);
}

TEST(ObsFlightRecorder, PerThreadRingsMergeIntoOneTimeOrderedView) {
  if (!jrobs::compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  FlightRecorder& fr = jrobs::flightRecorder();
  fr.clear();
  constexpr int kThreads = 4;
  constexpr int kNotes = 25;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fr, t] {
      for (int i = 0; i < kNotes; ++i) {
        fr.note("test", "mt-note", static_cast<uint64_t>(t),
                static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  // Each writer filled its own ring: nothing below capacity is dropped,
  // and eventCount sums across every thread's ring.
  EXPECT_EQ(fr.eventCount(), static_cast<size_t>(kThreads * kNotes));

  // A bundle merges the rings into one chronologically sorted event list.
  const std::string dir = freshDumpDir("jr_flightrec_mt");
  fr.arm(dir);
  const std::string path = fr.anomaly("test-mt", "per-thread merge");
  fr.disarm();
  ASSERT_FALSE(path.empty());
  const std::string bundle = slurp(path);
  EXPECT_TRUE(validJson(bundle)) << bundle.substr(0, 400);
  const size_t evStart = bundle.find("\"events\":[");
  const size_t evEnd = bundle.find("],\"extra\"");
  ASSERT_NE(evStart, std::string::npos);
  ASSERT_NE(evEnd, std::string::npos);
  const std::string events = bundle.substr(evStart, evEnd - evStart);
  size_t seen = 0;
  for (size_t pos = events.find("\"name\":\"mt-note\"");
       pos != std::string::npos;
       pos = events.find("\"name\":\"mt-note\"", pos + 1)) {
    ++seen;
  }
  EXPECT_EQ(seen, static_cast<size_t>(kThreads * kNotes));
  uint64_t prevTs = 0;
  for (size_t pos = events.find("\"ts_ns\":"); pos != std::string::npos;
       pos = events.find("\"ts_ns\":", pos + 1)) {
    const uint64_t ts = std::stoull(events.substr(pos + 8));
    EXPECT_GE(ts, prevTs) << "events not time-sorted";
    prevTs = ts;
  }
  fr.clear();
  EXPECT_EQ(fr.eventCount(), 0u);
}

TEST_F(ObsServiceTest, ContentionRejectionDumpsFlightRecorderBundle) {
  // The acceptance path: forced fabric contention through the real
  // engine must produce a bundle that validates and embeds the holding
  // net's provenance.
  if (!jrobs::compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  FlightRecorder& fr = jrobs::flightRecorder();
  const std::string dir = freshDumpDir("jr_flightrec_service");
  fr.arm(dir);

  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  auto holder = s.routeAsync(EndPoint(Pin(3, 3, S0_Y)),
                             EndPoint(Pin(5, 5, S0F1)));
  svc.pumpOnce();
  ASSERT_TRUE(holder.get().ok());
  auto loser = s.routeAsync(EndPoint(Pin(3, 4, S1_YQ)),
                            EndPoint(Pin(5, 5, S0F1)));  // sink is taken
  svc.pumpOnce();
  const RouteResult rej = loser.get();
  fr.disarm();
  ASSERT_FALSE(rej.ok());
  EXPECT_EQ(rej.reason, Reject::kContention);

  std::vector<std::filesystem::path> bundles;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    bundles.push_back(e.path());
  }
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_NE(bundles[0].filename().string().find("contention"),
            std::string::npos);
  const std::string bundle = slurp(bundles[0]);
  EXPECT_TRUE(validJson(bundle)) << bundle.substr(0, 400);
  EXPECT_NE(bundle.find("\"kind\":\"contention\""), std::string::npos);
  EXPECT_NE(bundle.find("\"events\":["), std::string::npos);
  EXPECT_NE(bundle.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(bundle.find("\"request_id\""), std::string::npos);
  // The bundle explains the *other* party: the winning net's record.
  EXPECT_NE(bundle.find("\"provenance\":{\"net_source\""), std::string::npos);
}

}  // namespace
}  // namespace jrsvc
