// The concurrent routing service: sessions, transactional nets, and a
// batched request engine.
//
// The paper frames JRoute as a run-time API driven by live applications
// (BoardScope debug, RTP core replacement). This layer makes that
// multi-client: requests from any number of threads enter a bounded MPSC
// queue, and a single engine thread drains them in batches. Within a
// batch, requests whose tile bounding boxes are disjoint are planned in
// parallel by a worker pool against a frozen fabric — per-node claim
// flags (ClaimMap) arbitrate wires between concurrent planners — then the
// plans are committed serially under transactional journaling. Requests
// that genuinely conflict (overlapping regions, unroutes, lost claim
// races, plan/commit failures) run on the serialized path, which is
// authoritative. These two phases are the engine's only planning path;
// jrplan's claim footprints are offline analysis, and only its region
// grid reaches the engine, as the claim map's shard layout. A batch
// closes as soon as its first drain returns. Backpressure is
// structural: a full queue rejects with kOverloaded, and per-request
// deadlines shed stale work before it costs routing effort.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/drc.h"
#include "common/sync.h"
#include "core/router.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "service/claim_map.h"
#include "service/planner.h"
#include "service/queue.h"
#include "service/request.h"
#include "service/session.h"

namespace jrsvc {

struct ServiceOptions {
  /// Request queue capacity; a full queue rejects with kOverloaded.
  size_t queueCapacity = 1024;
  /// Maximum requests drained per batch.
  size_t batchSize = 64;
  /// Planning threads including the engine itself; 0 = use
  /// std::thread::hardware_concurrency().
  unsigned planThreads = 0;
  /// Manual mode: no engine thread; the owner drives pumpOnce(). Used by
  /// deterministic tests (backpressure, deadlines).
  bool manualPump = false;
  /// How long an idle engine waits for the first request of a batch.
  std::chrono::milliseconds drainWait{100};
  /// Run the full static DRC (src/analysis) after every processed batch —
  /// the quiescent point where all txns have committed or rolled back and
  /// every planning claim must be released — and throw JRouteError on any
  /// violation. Defaults to the JROUTE_DRC_PARANOID environment variable,
  /// so the whole test suite and bench_service_throughput can be run with
  /// the analyzer continuously cross-checking the concurrent engine.
  /// Costly (O(fabric) per batch); a violation escaping the engine thread
  /// terminates the process, which is the point of paranoid mode.
  bool drcParanoid = jrdrc::paranoidEnabled();
  /// Inert; kept only because perfbench/src/workloads.cpp assigns it.
  bool planParanoid = false;
  /// Options for the underlying router and the parallel planners.
  jroute::RouterOptions router{};
};

class RoutingService {
 public:
  explicit RoutingService(xcvsim::Fabric& fabric, ServiceOptions opts = {});
  ~RoutingService();

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  // --- Sessions ----------------------------------------------------------------

  Session openSession();

  /// Unroute every net the session still owns (when `unrouteOwned`) and
  /// forget the session. The handle becomes invalid.
  void closeSession(Session& session, bool unrouteOwned = true);

  // --- Requests ----------------------------------------------------------------

  /// Enqueue one request. Sessions call this through their sugar methods;
  /// it is public for custom drivers. Never blocks: a full queue resolves
  /// the future immediately with Rejected{kOverloaded}.
  std::future<RouteResult> submit(Op op, uint64_t sessionId,
                                  std::vector<jroute::EndPoint> sources,
                                  std::vector<jroute::EndPoint> sinks,
                                  Clock::time_point deadline = {});

  /// Manual-pump mode: drain and process at most one batch on the calling
  /// thread. Returns the number of requests processed.
  size_t pumpOnce();

  /// Run `fn` with exclusive access to the underlying router — for
  /// queries (trace, reports), core placement, and configuration while
  /// the engine is live. Nets created inside `fn` are not session-owned.
  /// Do not submit-and-wait from inside `fn` (the engine would deadlock
  /// against you).
  void withRouter(const std::function<void(jroute::Router&)>& fn);

  /// Stop accepting requests, drain the queue, join engine and workers.
  /// Idempotent; the destructor calls it.
  void stop();

  // --- Introspection -----------------------------------------------------------

  /// Run the static DRC over the service's full state — fabric, router
  /// connection memory, session-ownership table, and claim map — with the
  /// engine excluded (takes the fabric lock). `includeBitstream` adds the
  /// O(config) frame-decode cross-check.
  jrdrc::DrcReport runDrc(bool includeBitstream = true);

  ServiceStats stats() const;

  /// Point-in-time copy of the process-wide telemetry registry (router,
  /// service, txn, and DRC metrics), with the service's live gauges
  /// (queue depth, per-region occupancy and claim conflicts, lockcheck
  /// and SLO state, jrprof health — service.prof.{armed,locks,batches,
  /// sampler_ticks}) refreshed first. The profiler's data metrics
  /// (sync.<lock>.*, service.batch.*) are recorded live by jrprof and
  /// appear in the snapshot whenever it has been armed. Safe to call
  /// while the engine runs (briefly takes the fabric lock to read
  /// occupancy consistently).
  jrobs::MetricsSnapshot snapshotMetrics() const;

  /// Per-region count of in-use fabric nodes, consistent under the
  /// fabric lock (jrsh `heatmap`). Works in both telemetry build modes.
  jrobs::Heatmap occupancy(int cellRows = 4, int cellCols = 4) const;

  /// Per-region claim-conflict counts accumulated by the parallel
  /// planners since start/reset (jrsh `heatmap conflicts`). Empty cells
  /// with JROUTE_NO_TELEMETRY.
  jrobs::Heatmap claimConflicts() const;

  size_t queueDepth() const { return queue_.size(); }
  std::vector<NodeId> netsOf(uint64_t sessionId) const;
  const xcvsim::Fabric& fabric() const { return *fabric_; }

 private:
  struct PlanJob {
    Request* req = nullptr;
    uint32_t owner = 0;
    Plan plan;
  };
  /// Shared state of one parallel planning phase.
  struct PlanPhase {
    std::vector<PlanJob>* jobs = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> workersDone{0};
  };
  /// Tile-space bounding box used for the disjointness partition.
  struct Box {
    int r0 = 1 << 20, c0 = 1 << 20, r1 = -(1 << 20), c1 = -(1 << 20);
    void add(xcvsim::RowCol rc);
    void expand(int margin);
    bool intersects(const Box& o) const;
  };

  void engineLoop();
  void workerLoop();
  void runJobs(PlanPhase& phase, Planner& planner);
  void processBatch(std::vector<Request>& reqs) JR_REQUIRES(fabricMu_);
  /// Resolve + ownership/validity precheck shared by both phases. Returns
  /// a rejection, or nullopt with the request's bounding box in `box`.
  std::optional<RouteResult> precheckRoute(const Request& req, Box& box)
      JR_REQUIRES(fabricMu_);
  /// Commit a found plan. False = fall back to the serialized path.
  bool commitPlan(Request& req, PlanJob& job, RouteResult& out)
      JR_REQUIRES(fabricMu_);
  RouteResult executeSerial(Request& req) JR_REQUIRES(fabricMu_);
  RouteResult executeUnroute(Request& req) JR_REQUIRES(fabricMu_);
  /// Run `jobs` through the worker pool and commit the found plans.
  /// Failures (plan not found, commit rollback) are appended to `serial`
  /// for the serialized path unless authoritative.
  void planAndCommit(std::vector<PlanJob>& jobs,
                     std::vector<Request*>& serial) JR_REQUIRES(fabricMu_);
  /// DrcInput over the full service state; caller must hold fabricMu_ (or
  /// otherwise exclude the engine). The ownership snapshot is written into
  /// `ownersStorage`, which must outlive the returned input.
  jrdrc::DrcInput drcInput(
      bool includeBitstream,
      std::vector<std::pair<NodeId, uint64_t>>& ownersStorage) const
      JR_REQUIRES(fabricMu_);
  /// Free the whole net driven from `source` (must be a net source node)
  /// through Router::unrouteNet, then drop its provenance record.
  void unrouteNode(NodeId source) JR_REQUIRES(fabricMu_);
  void registerNet(NodeId source, uint64_t sessionId);
  void finish(Request& req, RouteResult res);
  /// Record provenance for every net the request just committed.
  /// `netSources` are the nets' source nodes; counters describe the whole
  /// request (shared by its nets). Call after txn commit, under fabricMu_.
  void recordProvenance(const Request& req, bool parallel,
                        const std::vector<NodeId>& netSources,
                        const std::vector<size_t>& pipsPerNet,
                        uint64_t templateHits, uint64_t shapeReuseHits,
                        uint64_t mazeRuns, uint64_t visits,
                        uint64_t claimRetries, const char* selector)
      JR_REQUIRES(fabricMu_);
  /// Refresh fabric.region.* / service.claim.region.* gauges. Caller
  /// must hold fabricMu_.
  void publishCongestionGauges() const JR_REQUIRES(fabricMu_);

  xcvsim::Fabric* fabric_;
  ServiceOptions opts_;
  jroute::Router router_;
  ClaimMap claims_;
  BoundedQueue<Request> queue_;

  // Lock hierarchy (outermost first; DESIGN.md §15, enforced at run time
  // by jrcheck when armed):
  //   service.fabric -> { service.work, service.owner, service.queue,
  //                       obs.* }
  //   service.work, service.owner: leaves (take nothing underneath).
  // Serializes fabric mutation and exclusive access (withRouter) against
  // batch processing. Mutable: const introspection (snapshotMetrics,
  // occupancy) must exclude the engine too.
  mutable jrsync::Mutex fabricMu_{"service.fabric"};

  // Net ownership registry: net source node -> owning session.
  mutable jrsync::Mutex ownerMu_{"service.owner"};
  std::unordered_map<NodeId, uint64_t> netOwner_ JR_GUARDED_BY(ownerMu_);

  // Parallel planning pool. The engine participates, so `workers_` holds
  // planThreads - 1 threads.
  std::vector<std::thread> workers_;
  std::unique_ptr<Planner> enginePlanner_;
  jrsync::Mutex workMu_{"service.work"};
  std::condition_variable_any workCv_, doneCv_;
  uint64_t workGen_ JR_GUARDED_BY(workMu_) = 0;
  PlanPhase* phase_ JR_GUARDED_BY(workMu_) = nullptr;
  bool shutdownWorkers_ JR_GUARDED_BY(workMu_) = false;

  std::thread engine_;
  std::atomic<uint64_t> nextRequestId_{1};
  std::atomic<uint64_t> nextSessionId_{1};
  bool stopped_ = false;

  struct AtomicStats {
    std::atomic<uint64_t> submitted{0}, accepted{0}, rejected{0},
        overloaded{0}, deadlineExpired{0}, contention{0}, unroutable{0},
        batches{0}, parallelPlanned{0}, serialRouted{0}, planFallbacks{0},
        claimRetries{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace jrsvc
