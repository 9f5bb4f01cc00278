#include "service/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "analysis/congestion.h"
#include "check/lockcheck.h"
#include "common/error.h"
#include "obs/flightrec.h"
#include "obs/prof.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "service/txn.h"

namespace jrsvc {

using jroute::EndPoint;
using jroute::Pin;
using xcvsim::ArgumentError;
using xcvsim::ContentionError;
using xcvsim::JRouteError;
using xcvsim::kInvalidNet;
using xcvsim::kInvalidNode;
using xcvsim::NetId;
using xcvsim::RowCol;
using xcvsim::UnroutableError;

const char* opName(Op op) {
  switch (op) {
    case Op::kRouteP2P: return "p2p";
    case Op::kRouteFanout: return "fanout";
    case Op::kRouteBus: return "bus";
    case Op::kUnroute: return "unroute";
  }
  return "?";
}

const char* rejectName(Reject r) {
  switch (r) {
    case Reject::kNone: return "none";
    case Reject::kContention: return "contention";
    case Reject::kUnroutable: return "unroutable";
    case Reject::kOverloaded: return "overloaded";
    case Reject::kDeadlineExpired: return "deadline-expired";
    case Reject::kNotOwner: return "not-owner";
    case Reject::kBadArgument: return "bad-argument";
    case Reject::kShutdown: return "shutdown";
  }
  return "?";
}

namespace {

/// Margin (tiles) added around each request's bounding box when deciding
/// tile-disjointness for the parallel phase. Claims make correctness
/// independent of this value; it only tunes how often plans collide.
constexpr int kDisjointMargin = 1;

RouteResult accepted(NodeId netSource, bool parallel) {
  RouteResult r;
  r.outcome = Outcome::kAccepted;
  r.reason = Reject::kNone;
  r.netSource = netSource;
  r.routedInParallel = parallel;
  return r;
}

RouteResult rejected(Reject reason, std::string detail) {
  RouteResult r;
  r.outcome = Outcome::kRejected;
  r.reason = reason;
  r.detail = std::move(detail);
  return r;
}

/// Engine telemetry (registry mirror of AtomicStats plus the
/// distributions AtomicStats cannot hold). One resolution per process.
struct EngineMetrics {
  jrobs::Counter& accepted = jrobs::registry().counter("service.accepted");
  jrobs::Counter& rejected = jrobs::registry().counter("service.rejected");
  jrobs::Counter& overloaded =
      jrobs::registry().counter("service.rejected.overloaded");
  jrobs::Counter& deadline =
      jrobs::registry().counter("service.rejected.deadline");
  jrobs::Counter& contention =
      jrobs::registry().counter("service.rejected.contention");
  jrobs::Counter& unroutable =
      jrobs::registry().counter("service.rejected.unroutable");
  jrobs::Counter& batches = jrobs::registry().counter("service.batches");
  jrobs::Counter& parallelPlanned =
      jrobs::registry().counter("service.parallel_planned");
  jrobs::Counter& serialRouted =
      jrobs::registry().counter("service.serial_routed");
  jrobs::Counter& planFallbacks =
      jrobs::registry().counter("service.plan_fallbacks");
  jrobs::Counter& claimRetries =
      jrobs::registry().counter("service.plan.claim_retries");
  jrobs::Gauge& queueDepth =
      jrobs::registry().gauge("service.queue.depth");
  jrobs::Histogram& batchSize =
      jrobs::registry().histogram("service.batch.size");
  jrobs::Histogram& requestLatencyUs =
      jrobs::registry().histogram("service.request.latency_us");
  jrobs::Histogram& batchDrcUs =
      jrobs::registry().histogram("service.batch.drc_us");
};

EngineMetrics& metrics() {
  static EngineMetrics m;
  return m;
}

// Batch-profile collection (jrprof). processBatch points these at its
// stack vectors for the duration of one batch; finish() — always called
// on the same engine thread for batch requests — appends the folded
// span. Submit-path rejections run on producer threads, where the
// pointers are null, and are correctly excluded: they never entered the
// batch.
thread_local std::vector<jrprof::BatchRequestSample>* t_batchSamples =
    nullptr;
thread_local std::vector<jrobs::SpanRecord>* t_batchSpans = nullptr;

}  // namespace

// --- Box ------------------------------------------------------------------------

void RoutingService::Box::add(RowCol rc) {
  r0 = std::min<int>(r0, rc.row);
  c0 = std::min<int>(c0, rc.col);
  r1 = std::max<int>(r1, rc.row);
  c1 = std::max<int>(c1, rc.col);
}

void RoutingService::Box::expand(int margin) {
  r0 -= margin;
  c0 -= margin;
  r1 += margin;
  c1 += margin;
}

bool RoutingService::Box::intersects(const Box& o) const {
  return r0 <= o.r1 && o.r0 <= r1 && c0 <= o.c1 && o.c0 <= c1;
}

// --- Lifecycle --------------------------------------------------------------------

RoutingService::RoutingService(xcvsim::Fabric& fabric, ServiceOptions opts)
    : fabric_(&fabric),
      opts_(opts),
      router_(fabric, opts.router),
      claims_(fabric.graph(), jrplan::RegionGrid(fabric.graph().device())),
      queue_(opts.queueCapacity) {
  // Lock-order checking opts in via JROUTE_LOCKCHECK, contention
  // profiling via JROUTE_PROF — both before the engine or any worker
  // takes its first instrumented lock.
  jrcheck::maybeArmFromEnv();
  jrprof::maybeArmFromEnv();
  // Spatial claim-conflict accounting (jrsh `heatmap conflicts`): same
  // device geometry, same cells, across every service on this fabric.
  const auto& dev = fabric.graph().device();
  jrobs::claimConflictGrid().configure(dev.rows, dev.cols);
  unsigned planThreads = opts_.planThreads != 0
                             ? opts_.planThreads
                             : std::max(1u, std::thread::hardware_concurrency());
  enginePlanner_ =
      std::make_unique<Planner>(*fabric_, claims_, opts_.router);
  for (unsigned i = 1; i < planThreads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  if (!opts_.manualPump) {
    engine_ = std::thread([this] { engineLoop(); });
  }
}

RoutingService::~RoutingService() { stop(); }

void RoutingService::stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  if (engine_.joinable()) {
    engine_.join();
  } else {
    // Manual-pump mode: drain whatever is still queued.
    while (pumpOnce() > 0) {
    }
  }
  {
    jrsync::MutexLock lk(workMu_);
    shutdownWorkers_ = true;
  }
  workCv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

// --- Sessions ---------------------------------------------------------------------

Session RoutingService::openSession() {
  return Session(*this, nextSessionId_.fetch_add(1));
}

void RoutingService::closeSession(Session& session, bool unrouteOwned) {
  if (!session.valid()) return;
  const uint64_t id = session.id();
  if (unrouteOwned) {
    std::vector<NodeId> owned = netsOf(id);
    jrsync::MutexLock lk(fabricMu_);
    for (const NodeId src : owned) {
      if (fabric_->isUsed(src)) unrouteNode(src);
    }
  }
  {
    jrsync::MutexLock lk(ownerMu_);
    std::erase_if(netOwner_,
                  [&](const auto& kv) { return kv.second == id; });
  }
  session.svc_ = nullptr;
  session.id_ = 0;
}

std::vector<NodeId> RoutingService::netsOf(uint64_t sessionId) const {
  jrsync::MutexLock lk(ownerMu_);
  std::vector<NodeId> out;
  for (const auto& [src, owner] : netOwner_) {
    if (owner == sessionId) out.push_back(src);
  }
  return out;
}

void RoutingService::registerNet(NodeId source, uint64_t sessionId) {
  jrsync::MutexLock lk(ownerMu_);
  netOwner_[source] = sessionId;
}

// --- Submission -------------------------------------------------------------------

std::future<RouteResult> RoutingService::submit(
    Op op, uint64_t sessionId, std::vector<EndPoint> sources,
    std::vector<EndPoint> sinks, Clock::time_point deadline) {
  Request req;
  req.op = op;
  req.id = nextRequestId_.fetch_add(1);
  req.sessionId = sessionId;
  req.sources = std::move(sources);
  req.sinks = std::move(sinks);
  req.deadline = deadline;
  req.enqueued = Clock::now();
  req.span.stamp(jrobs::SpanStage::kEnqueue);
  std::future<RouteResult> fut = req.promise.get_future();
  stats_.submitted.fetch_add(1);
  if (!queue_.tryPush(std::move(req))) {
    // tryPush does not consume the request on failure.
    const bool closed = queue_.closed();
    if (!closed) {
      stats_.overloaded.fetch_add(1);
      metrics().overloaded.add();
    }
    stats_.rejected.fetch_add(1);
    metrics().rejected.add();
    req.promise.set_value(rejected(
        closed ? Reject::kShutdown : Reject::kOverloaded,
        closed ? "service stopped" : "request queue at capacity"));
  }
  return fut;
}

void RoutingService::withRouter(
    const std::function<void(jroute::Router&)>& fn) {
  jrsync::MutexLock lk(fabricMu_);
  fn(router_);
}

// --- Engine -----------------------------------------------------------------------

void RoutingService::engineLoop() {
  std::vector<Request> batch;
  while (true) {
    batch.clear();
    {
      // Stage beacon: everything up to the fabric lock is queue time.
      jrprof::StageScope stage(jrprof::Stage::kQueue);
      queue_.drain(batch, opts_.batchSize, opts_.drainWait);
      if (batch.empty()) {
        if (queue_.closed() && queue_.size() == 0) return;
        continue;
      }
      for (Request& req : batch) {
        req.span.stamp(jrobs::SpanStage::kBatchClose);
      }
    }
    jrsync::MutexLock lk(fabricMu_);
    processBatch(batch);
  }
}

size_t RoutingService::pumpOnce() {
  std::vector<Request> batch;
  queue_.drain(batch, opts_.batchSize, std::chrono::milliseconds(0));
  if (batch.empty()) return 0;
  for (Request& req : batch) {
    req.span.stamp(jrobs::SpanStage::kBatchClose);
  }
  jrsync::MutexLock lk(fabricMu_);
  processBatch(batch);
  return batch.size();
}

void RoutingService::finish(Request& req, RouteResult res) {
  EngineMetrics& m = metrics();
  // Fold the lifecycle span first: the record rides along in any
  // anomaly bundle this resolution fires, and the SLO monitor judges
  // the request by the span's end-to-end time (identical by
  // construction to the sum of its segments).
  req.span.stamp(jrobs::SpanStage::kReply);
  const jrobs::SpanRecord srec = jrobs::spanAggregator().fold(
      req.span, req.id, req.sessionId, opName(req.op),
      res.ok() ? "accepted" : rejectName(res.reason), res.routedInParallel);
  jrobs::sloMonitor().observe(srec.e2eUs, res.ok());
  if (t_batchSamples != nullptr) {
    t_batchSamples->push_back(jrprof::BatchRequestSample{
        srec.segUs[2], srec.segUs[3], srec.segUs[4],
        res.routedInParallel});
    t_batchSpans->push_back(srec);
  }
  if (res.ok()) {
    stats_.accepted.fetch_add(1);
    m.accepted.add();
  } else {
    stats_.rejected.fetch_add(1);
    m.rejected.add();
    switch (res.reason) {
      case Reject::kContention:
        stats_.contention.fetch_add(1);
        m.contention.add();
        break;
      case Reject::kUnroutable:
        stats_.unroutable.fetch_add(1);
        m.unroutable.add();
        break;
      case Reject::kDeadlineExpired:
        stats_.deadlineExpired.fetch_add(1);
        m.deadline.add();
        break;
      default: break;
    }
    if (res.reason == Reject::kContention ||
        res.reason == Reject::kDeadlineExpired) {
      // Post-mortem hook. Counters are always bumped inside anomaly();
      // the bundle context is only assembled when a dump will be written.
      jrobs::FlightRecorder& fr = jrobs::flightRecorder();
      const char* kind =
          res.reason == Reject::kContention ? "contention" : "deadline";
      fr.note("service", kind, req.id, res.contendedNode);
      std::string extra;
      if (fr.armed()) {
        extra = "{\"request_id\":" + std::to_string(req.id) +
                ",\"session_id\":" + std::to_string(req.sessionId) +
                ",\"op\":\"" + opName(req.op) + "\",\"provenance\":";
        // The most useful context for a contention dump is the record of
        // the net that already holds the contested wire.
        std::optional<jrobs::NetProvenance> holder;
        if (res.contendedNode != kInvalidNode &&
            fabric_->isUsed(res.contendedNode)) {
          holder = jrobs::provenance().find(
              fabric_->netSource(fabric_->netOf(res.contendedNode)));
        }
        extra += holder ? holder->json() : "null";
        extra += ",\"span\":" + srec.json();
        extra += "}";
      }
      fr.anomaly(kind, res.detail, extra);
    }
  }
  if (req.enqueued != Clock::time_point{}) {
    m.requestLatencyUs.record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - req.enqueued)
            .count()));
  }
  req.promise.set_value(std::move(res));
}

std::optional<RouteResult> RoutingService::precheckRoute(const Request& req,
                                                         Box& box) {
  const xcvsim::Graph& g = fabric_->graph();
  if (req.sources.empty() || req.sinks.empty()) {
    return rejected(Reject::kBadArgument, "no endpoints");
  }
  if (req.op == Op::kRouteBus && req.sources.size() != req.sinks.size()) {
    return rejected(Reject::kBadArgument, "bus width mismatch");
  }
  const size_t numNets = req.op == Op::kRouteBus ? req.sources.size() : 1;
  for (size_t i = 0; i < numNets; ++i) {
    const auto pins = req.sources[i].resolve();
    if (pins.empty()) {
      return rejected(Reject::kBadArgument, "source has no bound pins");
    }
    for (const Pin& p : pins) box.add(p.rc);
    const NodeId n = g.nodeAt(pins.front().rc, pins.front().wire);
    if (n == kInvalidNode) {
      return rejected(Reject::kBadArgument, "source pin names no wire");
    }
    if (fabric_->isUsed(n)) {
      // Extending an existing net requires owning it.
      const NodeId netSrc = fabric_->netSource(fabric_->netOf(n));
      jrsync::MutexLock lk(ownerMu_);
      const auto it = netOwner_.find(netSrc);
      if (it == netOwner_.end() || it->second != req.sessionId) {
        return rejected(Reject::kNotOwner,
                        "net '" + fabric_->netName(fabric_->netOf(n)) +
                            "' is not owned by this session");
      }
    }
  }
  for (const EndPoint& ep : req.sinks) {
    for (const Pin& p : ep.resolve()) box.add(p.rc);
  }
  return std::nullopt;
}

void RoutingService::processBatch(std::vector<Request>& reqs) {
  JR_TRACE_SCOPE("service", "batch");
  stats_.batches.fetch_add(1);
  metrics().batches.add();
  metrics().batchSize.record(reqs.size());
  jrobs::flightRecorder().note("service", "batch", reqs.size(), queue_.size());
  metrics().queueDepth.set(static_cast<int64_t>(queue_.size()));
  const auto now = Clock::now();

  // Batch critical-path profiling (jrprof): collect every resolution's
  // folded span via finish(), time the batch wall, and fold the profile
  // into service.batch.* after the serialized phase.
  const bool profiling = jrprof::armed() && jrobs::compiledIn();
  const uint64_t profT0 =
      profiling ? jrobs::Tracer::instance().nowNs() : 0;
  std::vector<jrprof::BatchRequestSample> profSamples;
  std::vector<jrobs::SpanRecord> profSpans;
  if (profiling) {
    profSamples.reserve(reqs.size());
    profSpans.reserve(reqs.size());
    t_batchSamples = &profSamples;
    t_batchSpans = &profSpans;
  }

  std::vector<PlanJob> jobs;
  std::vector<Request*> serial;
  std::vector<Box> taken;
  jobs.reserve(reqs.size());
  {
    jrprof::StageScope stage(jrprof::Stage::kArbitrate);
    for (Request& req : reqs) {
      if (req.hasDeadline() && now > req.deadline) {
        finish(req, rejected(Reject::kDeadlineExpired,
                             "expired before execution"));
        continue;
      }
      if (!req.isRoute()) {
        serial.push_back(&req);
        continue;
      }
      Box box;
      if (auto rej = precheckRoute(req, box)) {
        finish(req, std::move(*rej));
        continue;
      }
      box.expand(kDisjointMargin);
      const bool overlaps =
          std::any_of(taken.begin(), taken.end(),
                      [&](const Box& b) { return b.intersects(box); });
      if (overlaps) {
        serial.push_back(&req);
      } else {
        taken.push_back(box);
        PlanJob job;
        job.req = &req;
        job.owner = static_cast<uint32_t>(req.id % 0xFFFFFFFFu) + 1;
        jobs.push_back(std::move(job));
      }
    }
  }

  planAndCommit(jobs, serial);

  // Serialized phase: conflicting, fallen-back, and unroute requests, in
  // arrival order, against the post-commit fabric.
  if (!serial.empty()) {
    JR_TRACE_SCOPE("service", "serial");
    jrprof::StageScope stage(jrprof::Stage::kCommit);
    for (Request* req : serial) {
      finish(*req, executeSerial(*req));
    }
  }

  if (profiling) {
    t_batchSamples = nullptr;
    t_batchSpans = nullptr;
    const uint64_t wallUs =
        (jrobs::Tracer::instance().nowNs() - profT0) / 1000;
    const jrprof::BatchProfile bp = jrprof::profileBatch(
        profSamples, wallUs,
        static_cast<unsigned>(workers_.size()) + 1);
    if (jrprof::recordBatch(bp)) {
      // New-worst low-efficiency batch: bundle its profile and worst
      // spans so the page names the requests that serialized it.
      std::sort(profSpans.begin(), profSpans.end(),
                [](const jrobs::SpanRecord& a, const jrobs::SpanRecord& b) {
                  return a.e2eUs > b.e2eUs;
                });
      std::string extra = "{\"batch\":" + bp.json() + ",\"spans\":[";
      const size_t worst = std::min<size_t>(profSpans.size(), 3);
      for (size_t i = 0; i < worst; ++i) {
        if (i > 0) extra += ",";
        extra += profSpans[i].json();
      }
      extra += "]}";
      jrobs::flightRecorder().anomaly(
          jrprof::kLowEfficiency,
          "batch parallel efficiency " +
              std::to_string(static_cast<int>(bp.efficiency * 100.0)) +
              "% across " + std::to_string(bp.requests) + " requests",
          extra);
    }
  }

  // Paranoid oracle: the batch is quiescent — every txn has committed or
  // rolled back and every planning claim must have been released — so the
  // full static rule set must hold. The per-batch pass includes the
  // bitstream decode the per-txn checks skip.
  if (opts_.drcParanoid) {
    JR_TRACE_SCOPE("service", "drc.batch");
    jrprof::StageScope stage(jrprof::Stage::kCommit);
    const uint64_t t0 = jrobs::Tracer::instance().nowNs();
    std::vector<std::pair<NodeId, uint64_t>> owners;
    jrdrc::enforce(drcInput(/*includeBitstream=*/true, owners), "batch");
    metrics().batchDrcUs.record(
        (jrobs::Tracer::instance().nowNs() - t0) / 1000);
  }
}

void RoutingService::planAndCommit(std::vector<PlanJob>& jobs,
                                   std::vector<Request*>& serial) {
  if (jobs.empty()) return;
  {
    // Parallel phase: fabric frozen, workers + engine plan concurrently.
    JR_TRACE_SCOPE("service", "plan.parallel");
    jrprof::StageScope planStage(jrprof::Stage::kPlan);
    PlanPhase phase;
    phase.jobs = &jobs;
    const size_t numWorkers = workers_.size();
    if (numWorkers > 0) {
      {
        jrsync::MutexLock lk(workMu_);
        phase_ = &phase;
        ++workGen_;
      }
      workCv_.notify_all();
    }
    runJobs(phase, *enginePlanner_);
    if (numWorkers > 0) {
      jrsync::MutexLock lk(workMu_);
      doneCv_.wait(workMu_, [&]() JR_REQUIRES(workMu_) {
        return phase.workersDone.load(std::memory_order_acquire) ==
               numWorkers;
      });
      phase_ = nullptr;
    }
  }

  // Commit phase: apply plans serially, in submission order.
  JR_TRACE_SCOPE("service", "commit");
  jrprof::StageScope commitStage(jrprof::Stage::kCommit);
  for (PlanJob& job : jobs) {
    stats_.claimRetries.fetch_add(job.plan.retries);
    metrics().claimRetries.add(job.plan.retries);
    job.req->span.stamp(jrobs::SpanStage::kArbitration);
    if (job.plan.found) {
      RouteResult res;
      if (commitPlan(*job.req, job, res)) {
        claims_.releaseAll(job.plan.claimed, job.owner);
        finish(*job.req, std::move(res));
        continue;
      }
    }
    claims_.releaseAll(job.plan.claimed, job.owner);
    if (job.plan.authoritative) {
      RouteResult rej = rejected(job.plan.reason, job.plan.detail);
      rej.contendedNode = job.plan.contendedNode;
      finish(*job.req, std::move(rej));
    } else {
      stats_.planFallbacks.fetch_add(1);
      metrics().planFallbacks.add();
      serial.push_back(job.req);
    }
  }
}

void RoutingService::workerLoop() {
  Planner planner(*fabric_, claims_, opts_.router);
  uint64_t seen = 0;
  while (true) {
    PlanPhase* phase = nullptr;
    {
      jrsync::MutexLock lk(workMu_);
      workCv_.wait(workMu_, [&]() JR_REQUIRES(workMu_) {
        return shutdownWorkers_ || workGen_ != seen;
      });
      if (shutdownWorkers_) return;
      seen = workGen_;
      phase = phase_;
    }
    if (phase != nullptr) runJobs(*phase, planner);
    {
      jrsync::MutexLock lk(workMu_);
      if (phase != nullptr) {
        phase->workersDone.fetch_add(1, std::memory_order_release);
      }
    }
    doneCv_.notify_all();
  }
}

void RoutingService::runJobs(PlanPhase& phase, Planner& planner) {
  jrprof::StageScope stage(jrprof::Stage::kPlan);
  while (true) {
    const size_t i = phase.next.fetch_add(1);
    if (i >= phase.jobs->size()) return;
    PlanJob& job = (*phase.jobs)[i];
    // The planning thread owns this request's span until the engine
    // observes workersDone (release/acquire), so the cross-thread
    // stamps are ordered like the plan itself.
    job.req->span.stamp(jrobs::SpanStage::kPlanStart);
    job.plan = planner.plan(job.owner, *job.req);
    job.req->span.stamp(jrobs::SpanStage::kPlanEnd);
  }
}

// --- Commit and serialized execution ---------------------------------------------

bool RoutingService::commitPlan(Request& req, PlanJob& job,
                                RouteResult& out) {
  RouteTxn txn(router_);
  NodeId firstSrc = kInvalidNode;
  try {
    std::vector<NodeId> newlyOwned;
    std::vector<NodeId> netSources;
    std::vector<size_t> pipsPerNet;
    for (const PlannedNet& pn : job.plan.nets) {
      NetId net = pn.existing;
      if (net == kInvalidNet) {
        net = txn.ensureNet(EndPoint(pn.srcPin),
                            "s" + std::to_string(req.sessionId) + ":" +
                                fabric_->graph().nodeName(pn.srcNode));
        newlyOwned.push_back(pn.srcNode);
      }
      txn.commitChain(pn.edges, net);
      netSources.push_back(pn.srcNode);
      pipsPerNet.push_back(pn.edges.size());
      if (firstSrc == kInvalidNode) firstSrc = pn.srcNode;
    }
    txn.commit();
    req.span.stamp(jrobs::SpanStage::kCommit);
    for (const NodeId src : newlyOwned) registerNet(src, req.sessionId);
    recordProvenance(req, /*parallel=*/true, netSources, pipsPerNet,
                     job.plan.templateHits,
                     job.plan.shapeReuseHits, job.plan.mazeRuns,
                     job.plan.visits, job.plan.retries,
                     jrobs::classifySelector(job.plan.selTemplate,
                                             job.plan.selLongLine,
                                             job.plan.selMaze));
    stats_.parallelPlanned.fetch_add(1);
    metrics().parallelPlanned.add();
    out = accepted(firstSrc, /*parallel=*/true);
    return true;
  } catch (const JRouteError& e) {
    // A plan that does not apply cleanly (should be rare: claims make
    // plans disjoint) is retried on the authoritative serialized path.
    txn.rollback();
    jrobs::flightRecorder().anomaly(
        "rollback", std::string("parallel plan failed to apply: ") + e.what(),
        "{\"request_id\":" + std::to_string(req.id) + "}");
    return false;
  }
}

RouteResult RoutingService::executeSerial(Request& req) {
  if (req.hasDeadline() && Clock::now() > req.deadline) {
    return rejected(Reject::kDeadlineExpired, "expired before execution");
  }
  if (req.op == Op::kUnroute) return executeUnroute(req);

  // Serialized execution re-stamps plan/arbitration/commit: after a
  // parallel fallback these overwrite the abandoned attempt's stamps,
  // so the span attributes the time the authoritative path spent.
  req.span.stamp(jrobs::SpanStage::kPlanStart);

  // The fabric may have changed since the batch was classified; re-check.
  Box box;
  if (auto rej = precheckRoute(req, box)) return std::move(*rej);

  const xcvsim::Graph& g = fabric_->graph();
  RouteTxn txn(router_);
  // Per-request search-effort deltas for provenance: the router's
  // cumulative counters bracket this txn (the engine serializes fabric
  // access, so no other request advances them in between).
  const jroute::RouteStats before = router_.stats();
  try {
    const size_t numNets = req.op == Op::kRouteBus ? req.sources.size() : 1;
    std::vector<NodeId> srcNodes;
    std::vector<NodeId> newlyOwned;
    for (size_t i = 0; i < numNets; ++i) {
      const Pin p = req.sources[i].resolve().front();
      const NodeId n = g.nodeAt(p.rc, p.wire);
      srcNodes.push_back(n);
      if (!fabric_->isUsed(n)) {
        txn.ensureNet(req.sources[i], "s" + std::to_string(req.sessionId) +
                                          ":" + g.nodeName(n));
        newlyOwned.push_back(n);
      }
    }
    if (req.op == Op::kRouteBus) {
      txn.routeBus(req.sources, req.sinks);
    } else {
      txn.route(req.sources.front(), req.sinks);
    }
    // The journal dies with commit(); count each net's staged PIPs first.
    std::vector<size_t> pipsPerNet;
    pipsPerNet.reserve(srcNodes.size());
    for (const NodeId src : srcNodes) {
      pipsPerNet.push_back(
          fabric_->isUsed(src) ? txn.stagedPipsFor(fabric_->netOf(src)) : 0);
    }
    req.span.stamp(jrobs::SpanStage::kPlanEnd);
    req.span.stamp(jrobs::SpanStage::kArbitration);
    txn.commit();
    req.span.stamp(jrobs::SpanStage::kCommit);
    for (const NodeId src : newlyOwned) registerNet(src, req.sessionId);
    const jroute::RouteStats after = router_.stats();
    recordProvenance(req, /*parallel=*/false, srcNodes, pipsPerNet,
                     after.templateHits - before.templateHits,
                     after.shapeReuseHits - before.shapeReuseHits,
                     after.mazeRuns - before.mazeRuns,
                     (after.templateVisits - before.templateVisits) +
                         (after.mazeVisits - before.mazeVisits),
                     /*claimRetries=*/0,
                     jrobs::classifySelector(
                         after.selTemplate - before.selTemplate,
                         after.selLongLine - before.selLongLine,
                         after.selMaze - before.selMaze));
    stats_.serialRouted.fetch_add(1);
    metrics().serialRouted.add();
    return accepted(srcNodes.front(), /*parallel=*/false);
  } catch (const ContentionError& e) {
    txn.rollback();
    RouteResult rej = rejected(Reject::kContention, e.what());
    rej.contendedNode = e.node();
    return rej;
  } catch (const UnroutableError& e) {
    txn.rollback();
    return rejected(Reject::kUnroutable, e.what());
  } catch (const JRouteError& e) {
    txn.rollback();
    return rejected(Reject::kBadArgument, e.what());
  }
}

RouteResult RoutingService::executeUnroute(Request& req) {
  const xcvsim::Graph& g = fabric_->graph();
  if (req.sources.empty()) {
    return rejected(Reject::kBadArgument, "no source to unroute");
  }
  const auto pins = req.sources.front().resolve();
  if (pins.empty()) {
    return rejected(Reject::kBadArgument, "source has no bound pins");
  }
  const NodeId n = g.nodeAt(pins.front().rc, pins.front().wire);
  if (n == kInvalidNode) {
    return rejected(Reject::kBadArgument, "source pin names no wire");
  }
  if (!fabric_->isUsed(n)) {
    return rejected(Reject::kBadArgument,
                    g.nodeName(n) + " is not routed");
  }
  const NetId net = fabric_->netOf(n);
  const NodeId netSrc = fabric_->netSource(net);
  {
    jrsync::MutexLock lk(ownerMu_);
    const auto it = netOwner_.find(netSrc);
    if (it == netOwner_.end() || it->second != req.sessionId) {
      return rejected(Reject::kNotOwner,
                      "net '" + fabric_->netName(net) +
                          "' is not owned by this session");
    }
  }
  unrouteNode(netSrc);
  req.span.stamp(jrobs::SpanStage::kCommit);
  {
    jrsync::MutexLock lk(ownerMu_);
    netOwner_.erase(netSrc);
  }
  stats_.serialRouted.fetch_add(1);
  metrics().serialRouted.add();
  return accepted(netSrc, /*parallel=*/false);
}

void RoutingService::unrouteNode(NodeId source) {
  const NetId net = router_.unrouteNet(source);
  // The net is gone; its provenance record goes with it ("rolled-back or
  // unrouted nets have none").
  jrobs::provenance().forget(source);
  jrobs::flightRecorder().note("service", "unroute", source, net);
}

void RoutingService::recordProvenance(
    const Request& req, bool parallel,
    const std::vector<NodeId>& netSources,
    const std::vector<size_t>& pipsPerNet, uint64_t templateHits,
    uint64_t shapeReuseHits, uint64_t mazeRuns, uint64_t visits,
    uint64_t claimRetries, const char* selector) {
  if (!jrobs::compiledIn()) return;  // compile-time: the stub build pays 0
  uint64_t latencyUs = 0;
  if (req.enqueued != Clock::time_point{}) {
    latencyUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - req.enqueued)
            .count());
  }
  const char* algo =
      jrobs::classifyAlgorithm(templateHits, mazeRuns, shapeReuseHits);
  // Bus bits are one net per source/sink pair; p2p/fanout put every sink
  // on the single net.
  const uint64_t sinksPerNet =
      req.op == Op::kRouteBus ? 1 : static_cast<uint64_t>(req.sinks.size());
  for (size_t i = 0; i < netSources.size(); ++i) {
    const NodeId src = netSources[i];
    jrobs::NetProvenance rec;
    rec.netSource = src;
    if (fabric_->isUsed(src)) rec.netName = fabric_->netName(fabric_->netOf(src));
    rec.requestId = req.id;
    rec.sessionId = req.sessionId;
    rec.op = opName(req.op);
    rec.algorithm = algo;
    rec.selector = selector;
    rec.parallel = parallel;
    rec.pips = i < pipsPerNet.size() ? pipsPerNet[i] : 0;
    rec.sinks = sinksPerNet;
    rec.searchVisits = visits;
    rec.claimRetries = claimRetries;
    rec.latencyUs = latencyUs;
    rec.txn = "committed";
    // The committing txn ran the paranoid rule set and did not throw.
    rec.drc = jrdrc::paranoidEnabled() ? "pass" : "unchecked";
    jrobs::provenance().record(std::move(rec));
    jrobs::flightRecorder().note("service", "commit", req.id, src);
  }
}

jrdrc::DrcInput RoutingService::drcInput(
    bool includeBitstream,
    std::vector<std::pair<NodeId, uint64_t>>& ownersStorage) const {
  jrdrc::DrcInput in;
  in.fabric = fabric_;
  in.router = &router_;
  in.claimOwner = [this](NodeId n) { return claims_.ownerOf(n); };
  in.checkBitstream = includeBitstream;
  {
    jrsync::MutexLock lk(ownerMu_);
    ownersStorage.assign(netOwner_.begin(), netOwner_.end());
  }
  in.netOwners = &ownersStorage;
  return in;
}

jrdrc::DrcReport RoutingService::runDrc(bool includeBitstream) {
  jrsync::MutexLock lk(fabricMu_);
  std::vector<std::pair<NodeId, uint64_t>> owners;
  return jrdrc::runDrc(drcInput(includeBitstream, owners));
}

jrobs::MetricsSnapshot RoutingService::snapshotMetrics() const {
  metrics().queueDepth.set(static_cast<int64_t>(queue_.size()));
  if (jrobs::compiledIn()) {
    {
      jrsync::MutexLock lk(fabricMu_);
      publishCongestionGauges();
    }
    // Concurrency-checker health: mostly zeros when disarmed, the live
    // acquisition/edge/finding counts when JROUTE_LOCKCHECK armed it.
    jrcheck::Checker& chk = jrcheck::activeChecker();
    const jrcheck::CheckStats cs = chk.statsSnapshot();
    jrobs::registry().gauge("service.lockcheck.armed").set(chk.armed() ? 1 : 0);
    jrobs::registry()
        .gauge("service.lockcheck.locks")
        .set(static_cast<int64_t>(cs.locksRegistered));
    jrobs::registry()
        .gauge("service.lockcheck.acquires")
        .set(static_cast<int64_t>(cs.acquires));
    jrobs::registry()
        .gauge("service.lockcheck.order_edges")
        .set(static_cast<int64_t>(cs.orderEdges));
    jrobs::registry()
        .gauge("service.lockcheck.findings")
        .set(static_cast<int64_t>(cs.findings));
    jrobs::registry()
        .gauge("service.lockcheck.perturbations")
        .set(static_cast<int64_t>(cs.perturbations));
    // SLO state as gauges, so one `stats` snapshot carries objective,
    // rolling burn rates (x1000 — gauges are integers), and breaches.
    const jrobs::SloReport slo = jrobs::sloMonitor().report();
    jrobs::registry().gauge("service.slo.enabled").set(slo.config.enabled);
    jrobs::registry()
        .gauge("service.slo.latency_objective_us")
        .set(static_cast<int64_t>(slo.config.latencyUs));
    jrobs::registry()
        .gauge("service.slo.target_ppm")
        .set(static_cast<int64_t>(slo.config.target * 1e6));
    jrobs::registry()
        .gauge("service.slo.observed")
        .set(static_cast<int64_t>(slo.observed));
    jrobs::registry()
        .gauge("service.slo.good")
        .set(static_cast<int64_t>(slo.good));
    jrobs::registry()
        .gauge("service.slo.breaches")
        .set(static_cast<int64_t>(slo.breaches));
    for (const jrobs::SloWindow& w : slo.windows) {
      jrobs::registry()
          .gauge("service.slo.burn_" + std::to_string(w.seconds) +
                 "s_milli")
          .set(static_cast<int64_t>(w.burn * 1000.0));
    }
    // Profiler health: armed flag, locks with profiled acquisitions,
    // batches profiled, sampler progress. The data itself lives in the
    // sync.<name>.* and service.batch.* metrics jrprof records.
    const jrprof::ProfReport prof = jrprof::report();
    jrobs::registry().gauge("service.prof.armed").set(prof.armed ? 1 : 0);
    jrobs::registry()
        .gauge("service.prof.locks")
        .set(static_cast<int64_t>(prof.locks.locks.size()));
    jrobs::registry()
        .gauge("service.prof.batches")
        .set(static_cast<int64_t>(prof.batches));
    jrobs::registry()
        .gauge("service.prof.sampler_ticks")
        .set(static_cast<int64_t>(prof.stages.ticks));
  }
  return jrobs::registry().snapshot();
}

void RoutingService::publishCongestionGauges() const {
  // Per-region congestion gauges, named by grid cell. Gauge registration
  // is idempotent and the cell count is small (a few dozen), so the
  // registry holds one gauge per region after the first snapshot.
  const jrobs::Heatmap occ = jrdrc::occupancyHeatmap(*fabric_);
  for (int r = 0; r < occ.gridRows; ++r) {
    for (int c = 0; c < occ.gridCols; ++c) {
      jrobs::registry()
          .gauge("fabric.region.r" + std::to_string(r) + "c" +
                 std::to_string(c) + ".occupancy")
          .set(static_cast<int64_t>(occ.at(r, c)));
    }
  }
  const jrobs::Heatmap conf = jrobs::claimConflictGrid().snapshot("");
  for (int r = 0; r < conf.gridRows; ++r) {
    for (int c = 0; c < conf.gridCols; ++c) {
      jrobs::registry()
          .gauge("service.claim.region.r" + std::to_string(r) + "c" +
                 std::to_string(c) + ".conflicts")
          .set(static_cast<int64_t>(conf.at(r, c)));
    }
  }
}

jrobs::Heatmap RoutingService::occupancy(int cellRows, int cellCols) const {
  jrsync::MutexLock lk(fabricMu_);
  return jrdrc::occupancyHeatmap(*fabric_, cellRows, cellCols);
}

jrobs::Heatmap RoutingService::claimConflicts() const {
  return jrobs::claimConflictGrid().snapshot("claim conflicts");
}

ServiceStats RoutingService::stats() const {
  ServiceStats s;
  s.submitted = stats_.submitted.load();
  s.accepted = stats_.accepted.load();
  s.rejected = stats_.rejected.load();
  s.overloaded = stats_.overloaded.load();
  s.deadlineExpired = stats_.deadlineExpired.load();
  s.contention = stats_.contention.load();
  s.unroutable = stats_.unroutable.load();
  s.batches = stats_.batches.load();
  s.parallelPlanned = stats_.parallelPlanned.load();
  s.serialRouted = stats_.serialRouted.load();
  s.planFallbacks = stats_.planFallbacks.load();
  s.claimRetries = stats_.claimRetries.load();
  return s;
}

}  // namespace jrsvc
