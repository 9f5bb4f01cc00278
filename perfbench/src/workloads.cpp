#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arch/device.h"
#include "arch/patterns.h"
#include "arch/wires.h"
#include "bitstream/pip_table.h"
#include "checks.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/router.h"
#include "fabric/fabric.h"
#include "lookahead/lookahead.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/spans.h"
#include "probe.h"
#include "rrg/graph.h"
#include "service/service.h"
#include "workload/session_stream.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using jroute::EndPoint;
using jroute::Pin;
using workload::StreamEvent;
using workload::StreamOp;
using xcvsim::NodeId;

// --- Workload constants (README "Workloads") ---------------------------------

constexpr const char* kDevice = "XCV1000";
// Session mix: jrload's SessionStream defaults.
constexpr int kSessions = 100;
constexpr int kSlotsPerSession = 6;
constexpr int kRadius = 4;
/// Stream events per round. Each round replays a fresh stream (new slot
/// placements) and ends at a quiescent point, where it is checked and
/// torn down, so a run averages over many placements of the same mix.
constexpr size_t kRoundEvents = 40000;
/// Warm-up: this many events of a fixed-seed stream, then a full teardown.
constexpr size_t kWarmEvents = 20000;
constexpr uint64_t kWarmSeed = 0x5741524d5550ULL;
/// Route quality is read at the end of the first this-many rounds, so it
/// is a pure function of the seed on the serialized router.
constexpr int kQualityRounds = 6;
// Long routes.
constexpr int kLongSessions = 16;
constexpr int kWaveSize = 400;
constexpr int kMinDisp = 24;  // manhattan tiles; templateMaxDistance is 16
constexpr int kMaxDisp = 80;
constexpr int kWarmWaves = 2;
constexpr int kWavesPerWindow = 10;
constexpr int kQualityWaves = 10;
// Raw latency samples: buffers are allocated and touched at set-up, so the
// resident set does not grow with throughput.
constexpr size_t kSampleCap = size_t{1} << 22;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double usBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- Raw samples -------------------------------------------------------------

enum Kind : uint8_t {
  kP2P,
  kFanout,
  kBus,
  kReconnectRoute,  // the route half of a reconnect
  kUnroute,
  kReconnect,  // a whole reconnect: unroute, then route
  kSubmit,     // the *Async call itself
};

class Samples {
 public:
  Samples() : us_(kSampleCap), kind_(kSampleCap) {}

  void add(Kind k, double us) {
    if (n_ == us_.size()) {
      ++dropped_;
      return;
    }
    us_[n_] = static_cast<float>(us);
    kind_[n_] = k;
    ++n_;
  }
  std::vector<double> of(std::initializer_list<Kind> kinds) const {
    return of(kinds, 0, n_);
  }
  /// The samples of `kinds` among those added at positions [begin, end).
  std::vector<double> of(std::initializer_list<Kind> kinds, size_t begin,
                         size_t end) const {
    std::vector<double> out;
    for (size_t i = begin; i < end; ++i) {
      for (Kind k : kinds) {
        if (kind_[i] == k) {
          out.push_back(us_[i]);
          break;
        }
      }
    }
    return out;
  }
  size_t dropped() const { return dropped_; }
  size_t size() const { return n_; }

 private:
  std::vector<float> us_;
  std::vector<uint8_t> kind_;
  size_t n_ = 0;
  size_t dropped_ = 0;
};

/// Nearest-rank quantile; 0 for an empty set.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

/// Median, the mean of the middle two for an even count; 0 when empty.
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// --- Completion stamper --------------------------------------------------------
//
// Service latency runs from the submit call to the moment the future
// becomes ready, not to whenever the load generator next looks. This thread
// waits on every future in submit order and stamps it as it resolves.

struct StampItem {
  std::shared_future<jrsvc::RouteResult> fut;
  Clock::time_point submitted;
  Clock::time_point origin;  // reconnect: when its unroute was submitted
  Kind kind = kP2P;
  bool record = false;
};

class Stamper {
 public:
  explicit Stamper(Samples& out) : out_(&out), thread_([this] { loop(); }) {}
  ~Stamper() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Stamper(const Stamper&) = delete;
  Stamper& operator=(const Stamper&) = delete;

  void push(StampItem item) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(item));
      ++pushed_;
      wake = sleeping_;
    }
    if (wake) cv_.notify_one();
  }
  /// Wait until every pushed item is stamped (the samples are then safe to
  /// read from the calling thread).
  void drain() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_.wait(lk, [&] { return done_ == pushed_; });
  }

 private:
  void loop() {
    std::deque<StampItem> batch;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        sleeping_ = true;
        cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        sleeping_ = false;
        if (queue_.empty()) return;
        batch.swap(queue_);
      }
      for (StampItem& it : batch) {
        it.fut.wait();
        const Clock::time_point t = Clock::now();
        if (it.record) {
          out_->add(it.kind, usBetween(it.submitted, t));
          if (it.kind == kReconnectRoute) {
            out_->add(kReconnect, usBetween(it.origin, t));
          }
        }
      }
      const size_t n = batch.size();
      batch.clear();
      std::lock_guard<std::mutex> lk(mu_);
      done_ += n;
      if (done_ == pushed_) idle_.notify_all();
    }
  }

  Samples* out_;
  std::mutex mu_;
  std::condition_variable cv_, idle_;
  std::deque<StampItem> queue_;
  uint64_t pushed_ = 0, done_ = 0;
  bool sleeping_ = false;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// --- Device bring-up -------------------------------------------------------------

struct Device {
  std::unique_ptr<xcvsim::Graph> graph;
  std::unique_ptr<xcvsim::PipTable> table;
  std::unique_ptr<xcvsim::Fabric> fabric;
  const jrla::Lookahead* lookahead = nullptr;
  double archS = 0, graphS = 0, pipS = 0, fabricS = 0, lookaheadS = 0;
};

Device bringUp(bool trace) {
  Device d;
  const xcvsim::DeviceSpec& spec = xcvsim::deviceByName(kDevice);
  if (trace) {
    // The Graph builds its own ArchDb; a standalone one is timed only in
    // the traced run so the timed set-up does no extra work.
    const Clock::time_point t = Clock::now();
    const xcvsim::ArchDb arch(spec);
    d.archS = since(t);
  }
  Clock::time_point t = Clock::now();
  d.graph = std::make_unique<xcvsim::Graph>(spec);
  d.graphS = since(t);
  t = Clock::now();
  d.table = std::make_unique<xcvsim::PipTable>(d.graph->arch());
  d.pipS = since(t);
  t = Clock::now();
  d.fabric = std::make_unique<xcvsim::Fabric>(*d.graph, *d.table);
  d.fabricS = since(t);
  t = Clock::now();
  d.lookahead = &jrla::Lookahead::forGraph(*d.graph);
  d.lookaheadS = since(t);
  return d;
}

// --- Run bookkeeping ---------------------------------------------------------------

/// One measured window: a session round, or kWavesPerWindow long-route
/// waves. Its figures are raw; the host probe is read right after it.
struct Window {
  double seconds = 0;
  uint64_t requests = 0;
  size_t firstSample = 0, endSample = 0;  // its latency samples in `lat`
  double probeMs = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Requests one stream event expands to at the service interface (the way
/// jrload counts them).
uint64_t requestsOf(const StreamEvent& e) {
  switch (e.op) {
    case StreamOp::kUnroute: return e.srcs.size();
    case StreamOp::kReconnect: return 2;
    default: return 1;
  }
}

struct RunState {
  explicit RunState(const Args& a) : args(a) {}

  const Args& args;
  Device dev;
  Samples lat;  // request latencies (stamper thread while a round runs)
  Samples aux;  // submit-call times (load-generator thread)
  Expected exp;
  uint64_t attempted = 0, failed = 0;
  double timedS = 0;
  uint64_t timedRequests = 0;
  std::vector<Window> windows;
  Quality quality;
  size_t pipsOnPeak = 0, liveNetsPeak = 0;
  int checkpoints = 0, fullChecks = 0;
  HostProbe probe;  // sampled at every full checkpoint
  bool correct = true;
  std::string firstError;
  std::string firstReject;
  double warmupS = 0, routerBuildS = 0, serviceBuildS = 0, setupS = 0;
  double checkS = 0;

  NodeId node(const Pin& p) const { return dev.graph->nodeAt(p.rc, p.wire); }
  std::vector<NodeId> nodes(const std::vector<Pin>& pins) const {
    std::vector<NodeId> out;
    for (const Pin& p : pins) out.push_back(node(p));
    return out;
  }
  void noteFailure(const std::string& what) {
    ++failed;
    if (firstReject.empty()) firstReject = what;
  }

  /// A quiescent point: nothing in flight. `full` adds the two O(fabric)
  /// scans; `quality` adds this point to the route-quality figures.
  void checkpoint(bool full, bool addQuality) {
    const Clock::time_point t = Clock::now();
    const xcvsim::Fabric& f = *dev.fabric;
    CheckResult r;
    checkConnectivity(f, exp, r);
    if (full) {
      checkContention(f, r);
      checkBitstreamTotal(f, r);
      ++fullChecks;
      probe.sample();
    }
    pipsOnPeak = std::max(pipsOnPeak, f.onEdgeCount());
    liveNetsPeak = std::max(liveNetsPeak, f.liveNetCount());
    if (addQuality) {
      quality.connections += r.quality.connections;
      quality.wireNodes += r.quality.wireNodes;
      quality.delayPsSum += r.quality.delayPsSum;
    }
    noteChecked(r, t);
  }

  /// After a full teardown (end of warm-up, end of the workload) both PIP
  /// totals must be 0.
  void tearDownCheck() {
    const Clock::time_point t = Clock::now();
    ++fullChecks;
    noteChecked(checkTornDown(*dev.fabric, exp), t);
    exp.torn.clear();
  }

  void noteChecked(const CheckResult& r, Clock::time_point started) {
    ++checkpoints;
    if (!r.ok && correct) {
      correct = false;
      firstError = r.error;
    }
    checkS += since(started);
  }
};

// --- Session mix ---------------------------------------------------------------------

workload::SessionStreamOptions streamOptions(uint64_t seed) {
  workload::SessionStreamOptions o;
  o.sessions = kSessions;
  o.slotsPerSession = kSlotsPerSession;
  o.radius = kRadius;
  o.seed = seed;
  return o;
}

/// Updates the expected state after an accepted route of `ev`'s sources.
void expectRouted(RunState& st, const StreamEvent& ev) {
  if (ev.op == StreamOp::kBus) {
    for (size_t i = 0; i < ev.srcs.size(); ++i) {
      st.exp.connect(st.node(ev.srcs[i]), {st.node(ev.sinks[i])});
    }
  } else {
    st.exp.connect(st.node(ev.srcs[0]), st.nodes(ev.sinks));
  }
}

Kind routeKind(StreamOp op) {
  switch (op) {
    case StreamOp::kFanout: return kFanout;
    case StreamOp::kBus: return kBus;
    case StreamOp::kReconnect: return kReconnectRoute;
    default: return kP2P;
  }
}

/// The serialized baseline: each event is one or two Router calls on this
/// thread, timed around the call.
class DirectDriver {
 public:
  explicit DirectDriver(RunState& st) : st_(st) {
    const Clock::time_point t = Clock::now();
    router_ = std::make_unique<jroute::Router>(*st.dev.fabric);
    st.routerBuildS = since(t);
  }

  jroute::Router& router() { return *router_; }

  void replay(const std::vector<StreamEvent>& events, bool record) {
    for (const StreamEvent& ev : events) {
      st_.attempted += requestsOf(ev);
      switch (ev.op) {
        case StreamOp::kUnroute:
          for (const Pin& src : ev.srcs) unroute(src, record);
          break;
        case StreamOp::kReconnect: {
          const Clock::time_point t0 = Clock::now();
          unroute(ev.srcs[0], record);
          route(ev, record);
          if (record) st_.lat.add(kReconnect, usBetween(t0, Clock::now()));
          break;
        }
        default:
          route(ev, record);
      }
    }
  }

  /// Unroute every net the workload holds.
  void tearDownAll(bool record) {
    std::vector<NodeId> srcs;
    for (const auto& [src, sinks] : st_.exp.conns) srcs.push_back(src);
    std::sort(srcs.begin(), srcs.end());
    for (NodeId src : srcs) {
      const xcvsim::NodeInfo info = st_.dev.graph->info(src);
      ++st_.attempted;
      unroute(Pin(info.tile, info.local), record);
    }
  }

 private:
  void route(const StreamEvent& ev, bool record) {
    std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
    const Clock::time_point t0 = Clock::now();
    try {
      switch (ev.op) {
        case StreamOp::kFanout:
          router_->route(EndPoint(ev.srcs[0]),
                         std::span<const EndPoint>(sinks));
          break;
        case StreamOp::kBus: {
          std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
          router_->route(std::span<const EndPoint>(srcs),
                         std::span<const EndPoint>(sinks));
          break;
        }
        default:
          router_->route(EndPoint(ev.srcs[0]), sinks[0]);
      }
    } catch (const xcvsim::JRouteError& e) {
      st_.noteFailure(std::string("route: ") + e.what());
      // A failed multi-sink call may leave bits routed: clear the slot so
      // the expected state stays exact.
      for (const Pin& src : ev.srcs) {
        const NodeId n = st_.node(src);
        if (st_.dev.fabric->isUsed(n)) {
          try {
            router_->unroute(EndPoint(src));
          } catch (const xcvsim::JRouteError&) {
          }
        }
        st_.exp.tearDown(n);
      }
      return;
    }
    if (record) st_.lat.add(routeKind(ev.op), usBetween(t0, Clock::now()));
    expectRouted(st_, ev);
  }

  void unroute(const Pin& src, bool record) {
    const Clock::time_point t0 = Clock::now();
    try {
      router_->unroute(EndPoint(src));
    } catch (const xcvsim::JRouteError& e) {
      st_.noteFailure(std::string("unroute: ") + e.what());
      return;
    }
    if (record) st_.lat.add(kUnroute, usBetween(t0, Clock::now()));
    st_.exp.tearDown(st_.node(src));
  }

  RunState& st_;
  std::unique_ptr<jroute::Router> router_;
};

jrsvc::ServiceOptions serviceOptions(unsigned planThreads) {
  jrsvc::ServiceOptions o;
  o.queueCapacity = 8192;  // as jrload; the closed loop never fills it
  o.planThreads = planThreads;
  o.drcParanoid = false;
  o.planParanoid = false;
  return o;
}

/// One RoutingService, its sessions, and the completion stamper. The load
/// generator is the calling thread.
class ServiceDriver {
 public:
  ServiceDriver(RunState& st, unsigned planThreads, int sessions)
      : st_(st), stamper_(st.lat) {
    const Clock::time_point t = Clock::now();
    svc_ = std::make_unique<jrsvc::RoutingService>(
        *st.dev.fabric, serviceOptions(planThreads));
    for (int s = 0; s < sessions; ++s) {
      sessions_.push_back(svc_->openSession());
    }
    st.serviceBuildS = since(t);
  }
  ~ServiceDriver() { svc_->stop(); }
  ServiceDriver(const ServiceDriver&) = delete;
  ServiceDriver& operator=(const ServiceDriver&) = delete;

  jrsvc::RoutingService& service() { return *svc_; }

  /// Replay stream events as one closed-loop client per slot. A slot issues
  /// its next step once its previous step has settled, so per-slot order
  /// holds as in jrload, and a reconnect's route waits for its unroute to
  /// commit. The other slots keep going meanwhile: the generator blocks
  /// only on the slot that has waited longest.
  void replay(const std::vector<StreamEvent>& events, bool record) {
    std::unordered_map<uint64_t, SlotRun> slots;
    std::deque<SlotRun*> inFlight;  // in the order their steps were issued
    for (const StreamEvent& ev : events) {
      st_.attempted += requestsOf(ev);
      SlotRun& run = slots[(static_cast<uint64_t>(ev.session) << 32) | ev.slot];
      if (run.steps.empty()) inFlight.push_back(&run);
      run.steps.push_back({&ev, false});
      if (ev.op == StreamOp::kReconnect) run.steps.push_back({&ev, true});
    }
    for (SlotRun* run : inFlight) issue(*run, record);
    while (!inFlight.empty()) {
      SlotRun* run = inFlight.front();
      inFlight.pop_front();
      settle(run->pending);
      if (run->next < run->steps.size()) {
        issue(*run, record);
        inFlight.push_back(run);
      }
    }
    stamper_.drain();
  }

  /// Route (source, sink) pairs as one wave, spread over the sessions, and
  /// settle them all.
  void routeWave(const std::vector<std::pair<Pin, Pin>>& reqs, bool record) {
    std::vector<Pending> wave;
    wave.reserve(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      StreamEvent ev;
      ev.op = StreamOp::kP2P;
      ev.srcs = {reqs[i].first};
      ev.sinks = {reqs[i].second};
      ++st_.attempted;
      submitRoute(wave, ev, i % sessions_.size(), record, {});
    }
    settle(wave);
    stamper_.drain();
  }

  /// Unroute every net the workload holds, each from its owning session.
  void tearDownAll(bool record) {
    std::vector<NodeId> srcs;
    for (const auto& [src, sinks] : st_.exp.conns) srcs.push_back(src);
    std::sort(srcs.begin(), srcs.end());
    std::vector<Pending> all;
    for (NodeId src : srcs) {
      const xcvsim::NodeInfo info = st_.dev.graph->info(src);
      ++st_.attempted;
      submitUnroute(all, Pin(info.tile, info.local), owner_.at(src), record);
    }
    settle(all);
    stamper_.drain();
  }

 private:
  struct Pending {
    std::shared_future<jrsvc::RouteResult> fut;
    StreamEvent ev;  // kUnroute: srcs[0] is the net torn down
    size_t session = 0;
  };

  /// One slot's events, as steps: a reconnect is its unroute, then (the
  /// `reroute` step) its route.
  struct Step {
    const StreamEvent* ev;
    bool reroute;
  };
  struct SlotRun {
    std::vector<Step> steps;
    size_t next = 0;
    std::vector<Pending> pending;
    Clock::time_point origin;  // when the current reconnect began
  };

  void issue(SlotRun& run, bool record) {
    const Step step = run.steps[run.next++];
    const StreamEvent& ev = *step.ev;
    switch (ev.op) {
      case StreamOp::kUnroute:
        for (const Pin& src : ev.srcs) {
          submitUnroute(run.pending, src, ev.session, record);
        }
        break;
      case StreamOp::kReconnect:
        if (step.reroute) {
          submitRoute(run.pending, ev, ev.session, record, run.origin);
        } else {
          run.origin = Clock::now();
          submitUnroute(run.pending, ev.srcs[0], ev.session, record);
        }
        break;
      default:
        submitRoute(run.pending, ev, ev.session, record, {});
    }
  }

  void submitRoute(std::vector<Pending>& slot, const StreamEvent& ev,
                   size_t session, bool record, Clock::time_point origin) {
    jrsvc::Session& s = sessions_[session];
    std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
    const Clock::time_point t0 = Clock::now();
    std::future<jrsvc::RouteResult> f;
    switch (ev.op) {
      case StreamOp::kFanout:
        f = s.fanoutAsync(EndPoint(ev.srcs[0]), std::move(sinks));
        break;
      case StreamOp::kBus:
        f = s.busAsync(std::vector<EndPoint>(ev.srcs.begin(), ev.srcs.end()),
                       std::move(sinks));
        break;
      default:
        f = s.routeAsync(EndPoint(ev.srcs[0]), sinks[0]);
    }
    const Clock::time_point t1 = Clock::now();
    if (record) st_.aux.add(kSubmit, usBetween(t0, t1));
    std::shared_future<jrsvc::RouteResult> sf = f.share();
    stamper_.push({sf, t0, origin, routeKind(ev.op), record});
    slot.push_back({std::move(sf), ev, session});
  }

  void submitUnroute(std::vector<Pending>& slot, const Pin& src,
                     size_t session, bool record) {
    const Clock::time_point t0 = Clock::now();
    std::shared_future<jrsvc::RouteResult> f =
        sessions_[session].unrouteAsync(EndPoint(src)).share();
    const Clock::time_point t1 = Clock::now();
    if (record) st_.aux.add(kSubmit, usBetween(t0, t1));
    stamper_.push({f, t0, {}, kUnroute, record});
    StreamEvent ev;
    ev.op = StreamOp::kUnroute;
    ev.srcs = {src};
    slot.push_back({std::move(f), std::move(ev), session});
  }

  void settle(std::vector<Pending>& slot) {
    for (Pending& p : slot) {
      const jrsvc::RouteResult& r = p.fut.get();
      const bool unroute = p.ev.op == StreamOp::kUnroute;
      if (!r.ok()) {
        st_.noteFailure(std::string(unroute ? "unroute" : "route") +
                        " rejected: " + jrsvc::rejectName(r.reason) + " " +
                        r.detail);
        continue;
      }
      if (unroute) {
        st_.exp.tearDown(st_.node(p.ev.srcs[0]));
      } else {
        expectRouted(st_, p.ev);
        for (const Pin& src : p.ev.srcs) owner_[st_.node(src)] = p.session;
      }
    }
    slot.clear();
  }

  RunState& st_;
  Stamper stamper_;
  std::unique_ptr<jrsvc::RoutingService> svc_;
  std::vector<jrsvc::Session> sessions_;
  /// Session that routed each live source (its owner in the service).
  std::unordered_map<NodeId, size_t> owner_;
};

// --- Long routes ---------------------------------------------------------------------

using Wave = std::vector<std::pair<Pin, Pin>>;

/// One wave of point-to-point requests whose manhattan displacement lies in
/// [kMinDisp, kMaxDisp], on pins unique within the wave.
Wave makeWave(const xcvsim::DeviceSpec& dev, xcvsim::Rng& rng) {
  std::unordered_set<uint64_t> used;
  auto key = [](const Pin& p) {
    return (static_cast<uint64_t>(static_cast<uint16_t>(p.rc.row)) << 32) |
           (static_cast<uint64_t>(static_cast<uint16_t>(p.rc.col)) << 16) |
           p.wire;
  };
  Wave wave;
  while (static_cast<int>(wave.size()) < kWaveSize) {
    const int r0 = rng.intIn(1, dev.rows - 2);
    const int c0 = rng.intIn(1, dev.cols - 2);
    const int d = rng.intIn(kMinDisp, kMaxDisp);
    const int dr = rng.intIn(0, d);
    const int r1 = r0 + (rng.chance(0.5) ? dr : -dr);
    const int c1 = c0 + (rng.chance(0.5) ? d - dr : dr - d);
    if (r1 < 1 || r1 > dev.rows - 2 || c1 < 1 || c1 > dev.cols - 2) continue;
    const Pin src(r0, c0, xcvsim::sliceOut(rng.intIn(0, xcvsim::kSliceOutputs - 1)));
    const Pin sink(r1, c1, xcvsim::clbIn(xcvsim::nonClockPin(
                               rng.intIn(0, xcvsim::kClbInputs - 3))));
    if (used.count(key(src)) != 0 || used.count(key(sink)) != 0) continue;
    used.insert(key(src));
    used.insert(key(sink));
    wave.emplace_back(src, sink);
  }
  return wave;
}

// --- Per-layer readings (traced run only) ----------------------------------------

struct ServiceReadings {
  jrsvc::ServiceStats stats;
  jrobs::MetricsSnapshot metrics;
  jroute::RouteStats router;
  size_t onPips = 0;  // on PIPs in the fabric
};

ServiceReadings readService(ServiceDriver& drv) {
  ServiceReadings r;
  r.stats = drv.service().stats();
  r.metrics = drv.service().snapshotMetrics();
  drv.service().withRouter(
      [&](jroute::Router& router) {
        r.router = router.stats();
        r.onPips = router.fabric().onEdgeCount();
      });
  return r;
}

double counterDelta(const ServiceReadings& a, const ServiceReadings& b,
                    const char* name) {
  const jrobs::MetricSample* x = a.metrics.find(name);
  const jrobs::MetricSample* y = b.metrics.find(name);
  const double va = x ? static_cast<double>(x->value) : 0.0;
  const double vb = y ? static_cast<double>(y->value) : 0.0;
  return vb - va;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void addRouterStats(std::vector<Metric>& m, const jroute::RouteStats& a,
                    const jroute::RouteStats& b) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  m.push_back({"router.template_hit_ratio",
               ratio(d(a.templateHits, b.templateHits),
                     d(a.templateAttempts, b.templateAttempts)),
               "ratio"});
  m.push_back({"router.sel_template", d(a.selTemplate, b.selTemplate), "count"});
  m.push_back({"router.sel_longline", d(a.selLongLine, b.selLongLine), "count"});
  m.push_back({"router.sel_maze", d(a.selMaze, b.selMaze), "count"});
  m.push_back({"router.maze_runs", d(a.mazeRuns, b.mazeRuns), "count"});
  m.push_back({"router.maze_visits_per_run",
               ratio(d(a.mazeVisits, b.mazeVisits), d(a.mazeRuns, b.mazeRuns)),
               "nodes"});
  m.push_back({"router.pips_on", d(a.pipsTurnedOn, b.pipsTurnedOn), "count"});
  m.push_back({"router.pips_off", d(a.pipsTurnedOff, b.pipsTurnedOff), "count"});
}

/// The service's router sees only serialized routes and commits; the
/// parallel planners share the search code, so selection, template and
/// maze figures come from the registry counters every search bumps. The
/// engine frees unrouted nets on the fabric directly, so PIPs turned off
/// are the PIPs turned on less the change in on PIPs over the phase.
void addServiceRouterStats(std::vector<Metric>& m, const ServiceReadings& a,
                           const ServiceReadings& b) {
  const double mazeRuns = counterDelta(a, b, "router.maze.runs");
  m.push_back({"router.template_hit_ratio",
               ratio(counterDelta(a, b, "router.template.hits"),
                     counterDelta(a, b, "router.template.walks")),
               "ratio"});
  m.push_back({"router.sel_template",
               counterDelta(a, b, "router.lookahead.select.template"), "count"});
  m.push_back({"router.sel_longline",
               counterDelta(a, b, "router.lookahead.select.long_line"),
               "count"});
  m.push_back({"router.sel_maze",
               counterDelta(a, b, "router.lookahead.select.maze"), "count"});
  m.push_back({"router.maze_runs", mazeRuns, "count"});
  m.push_back({"router.maze_visits_per_run",
               ratio(counterDelta(a, b, "router.maze.visits"), mazeRuns),
               "nodes"});
  m.push_back({"router.pips_on",
               static_cast<double>(b.router.pipsTurnedOn - a.router.pipsTurnedOn),
               "count"});
  const double on =
      static_cast<double>(b.router.pipsTurnedOn - a.router.pipsTurnedOn);
  m.push_back({"router.pips_off",
               on - (static_cast<double>(b.onPips) -
                     static_cast<double>(a.onPips)),
               "count"});
}

void addServiceStats(std::vector<Metric>& m, const ServiceReadings& a,
                     const ServiceReadings& b) {
  const jrsvc::ServiceStats& x = a.stats;
  const jrsvc::ServiceStats& y = b.stats;
  auto d = [](uint64_t p, uint64_t q) { return static_cast<double>(q - p); };
  const double batches = d(x.batches, y.batches);
  const double parallel = d(x.parallelPlanned, y.parallelPlanned);
  const double serial = d(x.serialRouted, y.serialRouted);
  m.push_back({"service.batches", batches, "count"});
  m.push_back({"service.batch_size_mean",
               ratio(d(x.submitted, y.submitted), batches), "requests"});
  m.push_back({"service.parallel_share", ratio(parallel, parallel + serial),
               "ratio"});
  m.push_back({"service.plan_fallbacks", d(x.planFallbacks, y.planFallbacks),
               "count"});
  m.push_back({"service.claim_retries", d(x.claimRetries, y.claimRetries),
               "count"});
}

void addSpanTotals(std::vector<Metric>& m, bool present) {
  const jrobs::SpanAttribution spans = jrobs::spanAggregator().report();
  for (const auto& seg : spans.segments) {
    m.push_back({std::string("service.span.") + seg.name + "_ms",
                 present ? static_cast<double>(seg.totalUs) / 1e3 : 0.0,
                 "ms"});
  }
}

void addLockTimes(std::vector<Metric>& m, bool present) {
  double hold = 0, wait = 0;
  if (present) {
    for (const jrprof::LockStat& l : jrprof::lockReport().locks) {
      if (l.name != "service.fabric") continue;
      hold += static_cast<double>(l.holdUs) / 1e6;
      wait += static_cast<double>(l.waitUs) / 1e6;
    }
  }
  m.push_back({"service.fabric_lock_hold_s", hold, "s"});
  m.push_back({"service.fabric_lock_wait_s", wait, "s"});
}

// --- Output ----------------------------------------------------------------------------

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

void printResult(const RunState& st, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              st.correct ? "true" : "false",
              static_cast<unsigned long long>(st.attempted),
              static_cast<unsigned long long>(st.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Raw figures of the measured phase, before scaling to the reference
/// host speed. Each is the median over the measured windows of that
/// window's figure, so a window the host stalled moves it little.
struct Timed {
  double throughputRps = 0, p50Us = 0, p99Us = 0;
  size_t routeSamples = 0;
};

Timed timedFigures(const RunState& st) {
  std::vector<double> rps, p50, p99;
  size_t samples = 0;
  for (const Window& w : st.windows) {
    const std::vector<double> routes = st.lat.of(
        {kP2P, kFanout, kBus, kReconnectRoute}, w.firstSample, w.endSample);
    rps.push_back(ratio(static_cast<double>(w.requests), w.seconds));
    p50.push_back(quantile(routes, 0.50));
    p99.push_back(quantile(routes, 0.99));
    samples += routes.size();
  }
  return {median(rps), median(p50), median(p99), samples};
}

/// The metrics shared by every workload. Throughput and latency are scaled
/// to the reference host speed (probe.h); set-up time is as measured.
void addEndToEnd(std::vector<Metric>& m, const RunState& st) {
  const Timed raw = timedFigures(st);
  const double scale = st.probe.speedScale();
  m.push_back({"setup_s", st.setupS, "s"});
  m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  m.push_back({"throughput_rps", raw.throughputRps * scale, "requests/s"});
  m.push_back({"route_latency_p50_us", raw.p50Us / scale, "us"});
  m.push_back({"route_latency_p99_us", raw.p99Us / scale, "us"});
  m.push_back({"wire_nodes_per_conn",
               ratio(static_cast<double>(st.quality.wireNodes),
                     static_cast<double>(st.quality.connections)),
               "segments"});
  m.push_back({"delay_ps_per_conn",
               ratio(st.quality.delayPsSum,
                     static_cast<double>(st.quality.connections)),
               "ps"});
}

void addBringUp(std::vector<Metric>& m, const RunState& st) {
  const Device& d = st.dev;
  m.push_back({"arch.db_build_s", d.archS, "s"});
  m.push_back({"rrg.graph_build_s", d.graphS, "s"});
  m.push_back({"bitstream.pip_table_build_s", d.pipS, "s"});
  m.push_back({"fabric.build_s", d.fabricS, "s"});
  m.push_back({"lookahead.build_s", d.lookaheadS, "s"});
  m.push_back({"router.build_s", st.routerBuildS, "s"});
  m.push_back({"service.build_s", st.serviceBuildS, "s"});
  m.push_back({"setup.warmup_s", st.warmupS, "s"});
  m.push_back({"rrg.nodes", static_cast<double>(d.graph->numNodes()), "count"});
  m.push_back({"rrg.edges", static_cast<double>(d.graph->numEdges()), "count"});
  m.push_back({"rrg.graph_mb",
               static_cast<double>(d.graph->memoryBytes()) / 1e6, "MB"});
  m.push_back({"bitstream.pip_slots",
               static_cast<double>(d.table->numPipSlots()), "count"});
  m.push_back({"lookahead.table_mb",
               static_cast<double>(d.lookahead->stats().tableBytes) / 1e6,
               "MB"});
}

/// Median call time per kind, as `<layer>.<kind>_us`.
void addKindMedians(std::vector<Metric>& m, const RunState& st,
                    const char* layer, bool present) {
  const std::pair<const char*, Kind> kinds[] = {
      {"p2p", kP2P}, {"fanout", kFanout}, {"bus", kBus},
      {"unroute", kUnroute}};
  for (const auto& [name, k] : kinds) {
    m.push_back({std::string(layer) + "." + name + "_us",
                 present ? quantile(st.lat.of({k}), 0.5) : 0.0, "us"});
  }
  m.push_back({std::string(layer) + ".reconnect_us",
               present ? quantile(st.lat.of({kReconnect}), 0.5) : 0.0, "us"});
}

/// Throughput of the traced run (against the untraced runs: the tracing
/// overhead) and the measured request count the count metrics are over.
void addTraceTotals(std::vector<Metric>& m, const RunState& st) {
  const Timed raw = timedFigures(st);
  m.push_back({"trace.throughput_rps", raw.throughputRps, "requests/s"});
  m.push_back({"trace.requests", static_cast<double>(st.timedRequests),
               "requests"});
  m.push_back({"trace.route_latency_p50_us", raw.p50Us, "us"});
  m.push_back({"trace.route_latency_p99_us", raw.p99Us, "us"});
  m.push_back({"host.probe_ms", st.probe.readingMs(), "ms"});
}

void printSummary(const RunState& st) {
  const Timed raw = timedFigures(st);
  std::printf(
      "%s seed %llu: %llu requests in %.3f s measured, %zu route samples, "
      "%llu attempted, %llu failed, %d checkpoints (%d full, %.2f s), "
      "setup %.3f s\n"
      "raw: %.1f req/s, route p50 %.2f us, p99 %.2f us; host probe %.3f ms "
      "over %zu samples (reference %.1f ms, scale %.4f)\n",
      st.args.workload.c_str(), static_cast<unsigned long long>(st.args.seed),
      static_cast<unsigned long long>(st.timedRequests), st.timedS,
      raw.routeSamples, static_cast<unsigned long long>(st.attempted),
      static_cast<unsigned long long>(st.failed), st.checkpoints,
      st.fullChecks, st.checkS, st.setupS, raw.throughputRps, raw.p50Us,
      raw.p99Us, st.probe.readingMs(), st.probe.samples(),
      HostProbe::kReferenceMs, st.probe.speedScale());
  if (!st.firstReject.empty()) {
    std::printf("first failure: %s\n", st.firstReject.c_str());
  }
  if (st.lat.dropped() + st.aux.dropped() > 0) {
    std::printf("warning: %zu samples past the buffer were not kept\n",
                st.lat.dropped() + st.aux.dropped());
  }
  for (size_t i = 0; i < st.windows.size(); ++i) {
    const Window& w = st.windows[i];
    const std::vector<double> r = st.lat.of(
        {kP2P, kFanout, kBus, kReconnectRoute}, w.firstSample, w.endSample);
    std::printf("window %zu: %.1f req/s p50 %.2f p99 %.2f probe %.3f\n", i,
                ratio(static_cast<double>(w.requests), w.seconds),
                quantile(r, 0.5), quantile(r, 0.99), w.probeMs);
  }
  if (!st.correct) std::printf("CHECK FAILED: %s\n", st.firstError.c_str());
}

/// Service planning threads (the engine included). The load generator and
/// the completion thread take two cores; engine and workers get the rest,
/// at most 2, so the process never has more busy threads than cores.
unsigned planThreadsFor(const Args& args) {
  if (args.planThreads != 0) return args.planThreads;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp(cores > 2 ? cores - 2 : 1u, 1u, 2u);
}

// --- Workloads ------------------------------------------------------------------------

/// Prints the report and the result line; returns the exit code.
int finish(RunState& st, const std::vector<Metric>& layers) {
  printSummary(st);
  if (st.args.trace) {
    printResult(st, layers);
  } else {
    std::vector<Metric> m;
    addEndToEnd(m, st);
    printResult(st, m);
  }
  return st.correct ? 0 : 1;
}

/// The session workloads' set-up ends with the warm-up stream replayed and
/// torn down; the measured phase is whole rounds of the seeded stream.
template <typename Driver>
void warmUpSessions(RunState& st, Driver& drv, Clock::time_point start) {
  workload::SessionStream warm(st.dev.graph->device(),
                               streamOptions(kWarmSeed));
  const Clock::time_point t = Clock::now();
  drv.replay(warm.take(kWarmEvents), false);
  drv.tearDownAll(false);
  st.warmupS = since(t);
  st.setupS = since(start);
  st.tearDownCheck();
  st.probe.sample();
}

/// Seed of a round's stream: a pure function of the run's seed.
uint64_t roundSeed(uint64_t seed, int round) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(round) + 1;
}

template <typename Driver>
void measureSessions(RunState& st, Driver& drv) {
  for (int round = 0; round < kQualityRounds || st.timedS < st.args.seconds;
       ++round) {
    workload::SessionStream stream(
        st.dev.graph->device(), streamOptions(roundSeed(st.args.seed, round)));
    const std::vector<StreamEvent> events = stream.take(kRoundEvents);
    Window w;
    for (const StreamEvent& ev : events) w.requests += requestsOf(ev);
    w.firstSample = st.lat.size();
    const Clock::time_point t0 = Clock::now();
    drv.replay(events, true);
    w.seconds = since(t0);
    w.endSample = st.lat.size();
    st.timedS += w.seconds;
    st.timedRequests += w.requests;
    st.checkpoint(true, round < kQualityRounds);
    w.probeMs = st.probe.lastMs();
    st.windows.push_back(w);
    drv.tearDownAll(false);
    st.checkpoint(false, false);
    st.exp.torn.clear();
    st.probe.sample();  // a second reading per round steadies the median
  }
}

void addFabricPeaks(std::vector<Metric>& m, const RunState& st) {
  m.push_back({"fabric.pips_on_peak", static_cast<double>(st.pipsOnPeak),
               "count"});
  m.push_back({"fabric.live_nets_peak", static_cast<double>(st.liveNetsPeak),
               "count"});
}

int runSessionDirect(RunState& st, Clock::time_point start) {
  st.dev = bringUp(st.args.trace);
  DirectDriver drv(st);
  warmUpSessions(st, drv, start);

  const jroute::RouteStats before = drv.router().stats();
  measureSessions(st, drv);
  const jroute::RouteStats after = drv.router().stats();
  st.tearDownCheck();
  if (!st.args.trace) return finish(st, {});

  std::vector<Metric> m;
  addBringUp(m, st);
  addKindMedians(m, st, "router", true);
  addRouterStats(m, before, after);
  m.push_back({"service.submit_us", 0.0, "us"});
  addKindMedians(m, st, "service", false);
  const ServiceReadings none;
  addServiceStats(m, none, none);
  addSpanTotals(m, false);
  addFabricPeaks(m, st);
  addLockTimes(m, false);
  addTraceTotals(m, st);
  return finish(st, m);
}

void armTracing() {
  jrobs::spanAggregator().reset();
  jrprof::resetAll();
  jrprof::arm();
}

/// Traced runs only: arm the profiler and read the service's stats.
ServiceReadings startLayerReadings(RunState& st, ServiceDriver& drv) {
  if (!st.args.trace) return {};
  armTracing();
  return readService(drv);
}

std::vector<Metric> serviceLayerMetrics(const RunState& st,
                                        const ServiceReadings& before,
                                        const ServiceReadings& after) {
  std::vector<Metric> m;
  if (!st.args.trace) return m;
  addBringUp(m, st);
  addKindMedians(m, st, "router", false);
  addServiceRouterStats(m, before, after);
  m.push_back(
      {"service.submit_us", quantile(st.aux.of({kSubmit}), 0.5), "us"});
  addKindMedians(m, st, "service", true);
  addServiceStats(m, before, after);
  addSpanTotals(m, true);
  addFabricPeaks(m, st);
  addLockTimes(m, true);
  addTraceTotals(m, st);
  return m;
}

int runSessionService(RunState& st, Clock::time_point start) {
  st.dev = bringUp(st.args.trace);
  ServiceDriver drv(st, planThreadsFor(st.args), kSessions);
  warmUpSessions(st, drv, start);

  const ServiceReadings before = startLayerReadings(st, drv);
  measureSessions(st, drv);
  const ServiceReadings after = st.args.trace ? readService(drv)
                                              : ServiceReadings{};
  st.tearDownCheck();
  return finish(st, serviceLayerMetrics(st, before, after));
}

int runLongService(RunState& st, Clock::time_point start) {
  st.dev = bringUp(st.args.trace);
  const xcvsim::DeviceSpec& dev = st.dev.graph->device();
  xcvsim::Rng warmRng(kWarmSeed);
  xcvsim::Rng rng(st.args.seed);
  ServiceDriver drv(st, planThreadsFor(st.args), kLongSessions);
  const Clock::time_point tw = Clock::now();
  for (int w = 0; w < kWarmWaves; ++w) {
    drv.routeWave(makeWave(dev, warmRng), false);
    drv.tearDownAll(false);
  }
  st.warmupS = since(tw);
  st.setupS = since(start);
  st.tearDownCheck();
  st.probe.sample();

  const ServiceReadings before = startLayerReadings(st, drv);
  // Whole windows of kWavesPerWindow waves; the last wave of each gets the
  // full checks and the host probe.
  for (int wave = 0; wave % kWavesPerWindow != 0 || wave < kQualityWaves ||
                     st.timedS < st.args.seconds;
       ++wave) {
    if (wave % kWavesPerWindow == 0) {
      st.windows.emplace_back();
      st.windows.back().firstSample = st.lat.size();
    }
    Window& w = st.windows.back();
    const bool last = wave % kWavesPerWindow == kWavesPerWindow - 1;
    const Wave reqs = makeWave(dev, rng);
    Clock::time_point t0 = Clock::now();
    drv.routeWave(reqs, true);
    double s = since(t0);
    const uint64_t routed = st.exp.conns.size();
    st.checkpoint(last, wave < kQualityWaves);
    if (last) w.probeMs = st.probe.lastMs();
    t0 = Clock::now();
    drv.tearDownAll(true);
    s += since(t0);
    w.seconds += s;
    w.requests += reqs.size() + routed;
    w.endSample = st.lat.size();
    st.timedS += s;
    st.timedRequests += reqs.size() + routed;
    st.checkpoint(false, false);
    st.exp.torn.clear();
  }
  const ServiceReadings after = st.args.trace ? readService(drv)
                                              : ServiceReadings{};
  st.tearDownCheck();
  return finish(st, serviceLayerMetrics(st, before, after));
}

}  // namespace

bool knownWorkload(const std::string& name) {
  return name == "session_service" || name == "session_direct" ||
         name == "long_service";
}

int run(const Args& args, Clock::time_point start) {
  RunState st(args);
  std::printf("perfbench: %s on %s, seed %llu, %.0f s, trace %d\n",
              args.workload.c_str(), kDevice,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "session_direct") return runSessionDirect(st, start);
  if (args.workload == "session_service") return runSessionService(st, start);
  return runLongService(st, start);
}

}  // namespace perfbench
