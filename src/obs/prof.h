// jrprof: lock-contention & batch critical-path profiler.
//
// Spans (obs/spans.h) attribute one request's milliseconds to engine
// stages; the metrics registry counts events. Neither answers the
// question the ROADMAP's scaling item actually asks: when the parallel
// path loses to the serialized one, *which mutex* is the engine waiting
// on, and how much of a batch's wall time is genuinely parallel work?
// jrprof is the evidence layer for that tuning: three coordinated views
// over the same run, armable together and disarmed to a single relaxed
// load per lock operation (the same fast-path discipline as jrcheck).
//
//   1. Lock contention. Every jrsync::Mutex is already a named,
//      registry-backed lock (common/sync.h, shared with jrcheck via
//      jrcheck::slotOf). Armed, the lock() hook classifies each
//      acquisition exactly — a speculative try_lock that succeeds is
//      uncontended; one that fails times the blocking wait — and the
//      unlock() hook closes the hold interval through a per-thread held
//      stack. Per-name counters and log-bucket histograms are published
//      as sync.<name>.{acquires,contended,wait_us,hold_us} and summed
//      into the top-contenders report (jrsh `prof top`).
//
//   2. Batch critical path. The service engine feeds each completed
//      batch's folded spans into profileBatch(), a pure function
//      computing plan work, the critical path (longest parallel plan +
//      the serialized tail), parallel efficiency
//      (Σ plan work ÷ (batch wall × plan threads)) and the
//      arbitration-serialization share; recordBatch() publishes
//      service.batch.* histograms and the engine raises a
//      kLowEfficiency flight-recorder anomaly when a batch sets a new
//      efficiency low under the threshold.
//
//   3. Stage sampling. Engine and worker threads publish a one-byte
//      atomic stage beacon (idle/queue/plan/arbitrate/commit); arming
//      starts a ~1 kHz sampler thread that accumulates per-stage wall
//      attribution — a cooperative profiler needing no signals or
//      unwinding — and mirrors the counts into Chrome-trace counter
//      events ("C" phase) when the tracer is capturing.
//
// Arming: jrsh `prof arm`, programmatic arm()/disarm(), or
// JROUTE_PROF=1 via maybeArmFromEnv() (picked up by the service, jrsh,
// jrload, and the benches at startup). reset() — wired into jrsh
// `stats reset` — zeroes lock stats, batch aggregates, and sampler
// counts without touching the arming state.
//
// With JROUTE_NO_TELEMETRY the hooks still link (common/sync.h calls
// them unconditionally when armed) but arm() is a no-op, so the armed
// paths are unreachable and reports render empty; call sites never
// #ifdef.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/spans.h"

namespace jrprof {

// ---------------------------------------------------------------------------
// Arming

/// Arm all three views (lock hooks, batch recording, stage sampler).
/// Idempotent. No-op under JROUTE_NO_TELEMETRY.
void arm();

/// Disarm and stop the sampler thread (joins it). Accumulated data stays
/// reportable until reset().
void disarm();

/// Arm from JROUTE_PROF=1. Idempotent; called by the routing service,
/// jrsh, jrload, and the benches at startup.
void maybeArmFromEnv();

/// Zero lock stats, batch aggregates, and sampler counts (jrsh `stats
/// reset`). The sync.* / service.batch.* registry metrics live in the
/// metrics registry and are reset with it; arming state is untouched.
void resetAll();

// ---------------------------------------------------------------------------
// View 1: lock contention

/// Aggregated stats for one lock *name* (same-named mutexes — e.g. two
/// services' "service.fabric" — merge, matching the registry metrics).
struct LockStat {
  std::string name;
  uint64_t acquires = 0;
  uint64_t contended = 0;
  uint64_t waitUs = 0;  ///< summed blocking wait (exact, from ns)
  uint64_t holdUs = 0;  ///< summed hold time (exact, from ns)
  uint64_t waitMaxUs = 0;
  double contendedShare = 0.0;  ///< contended / acquires
};

/// The top-contenders view: every profiled lock, sorted by total wait
/// time descending (the order the ROADMAP work should attack them in).
struct LockContentionReport {
  bool armed = false;
  std::vector<LockStat> locks;

  /// Aligned table of the top `k` contenders (jrsh `prof top`).
  std::string text(size_t k = 10) const;
  /// {"locks":[{...},...]} fragment used by ProfReport::json().
  std::string json() const;
};

/// Test seams: drive the per-slot accumulation with an injected clock.
/// `slot` is a jrcheck registry slot (jrcheck::registerLock for
/// synthetic ones). These bypass the per-thread held stack.
void noteAcquire(uint32_t slot, uint64_t waitNs, bool contended);
void noteRelease(uint32_t slot, uint64_t holdNs);

LockContentionReport lockReport();

// ---------------------------------------------------------------------------
// View 2: batch critical path

/// One resolved request's contribution to its batch, in microseconds
/// (the folded span segments; see sampleFromSpan).
struct BatchRequestSample {
  uint64_t planUs = 0;
  uint64_t arbitrationUs = 0;
  uint64_t commitUs = 0;
  bool parallel = false;  ///< resolved on the parallel plan path
};

/// Telescope a stamped span into a batch sample with the same monotone
/// clamp SpanAggregator::fold applies, so batch arithmetic and the span
/// report agree to the microsecond.
BatchRequestSample sampleFromSpan(const jrobs::RequestSpan& span,
                                  bool parallel);

/// One batch's computed profile. All times in microseconds.
struct BatchProfile {
  uint64_t requests = 0;
  unsigned planThreads = 1;
  uint64_t wallUs = 0;        ///< batch close -> last resolve
  uint64_t planWorkUs = 0;    ///< Σ plan segments, parallel and serial
  uint64_t maxPlanUs = 0;     ///< longest parallel plan
  uint64_t commitUs = 0;      ///< Σ commit segments (always serialized)
  uint64_t serialWorkUs = 0;  ///< Σ plan segments of serialized requests
  /// maxPlanUs + commitUs + serialWorkUs: the model's shortest possible
  /// batch wall time with infinite planners.
  uint64_t criticalPathUs = 0;
  /// planWorkUs / (wallUs * planThreads); 1.0 = every planner busy for
  /// the whole batch.
  double efficiency = 0.0;
  /// (commitUs + serialWorkUs) / wallUs, clamped to [0,1]: the share of
  /// the batch the engine spent in its serialized tail.
  double serialShare = 0.0;

  std::string json() const;
};

/// Pure computation — the telescoping test drives this directly.
BatchProfile profileBatch(const std::vector<BatchRequestSample>& reqs,
                          uint64_t wallUs, unsigned planThreads);

/// Publish a batch profile into the service.batch.* histograms and the
/// profiler's batch aggregate. Returns true when this batch sets a new
/// efficiency minimum below kLowEfficiencyThreshold with at least
/// kLowEfficiencyMinRequests requests — the engine's cue to raise the
/// kLowEfficiency flight-recorder anomaly for *this* batch.
bool recordBatch(const BatchProfile& p);

/// Flight-recorder anomaly kind for a new-worst low-efficiency batch.
inline constexpr const char* kLowEfficiency = "low-efficiency";
/// recordBatch flags batches under this efficiency...
inline constexpr double kLowEfficiencyThreshold = 0.25;
/// ...but only once they are big enough for efficiency to mean anything.
inline constexpr uint64_t kLowEfficiencyMinRequests = 8;

// ---------------------------------------------------------------------------
// View 3: cooperative stage sampler

/// What an engine thread is doing right now, published via its beacon.
/// kIdle doubles as "no beacon" for threads that never set one.
enum class Stage : uint8_t {
  kIdle = 0,
  kQueue,      // draining the MPSC queue
  kPlan,       // parallel plan phase (engine and workers)
  kArbitrate,  // batch classification & claim arbitration
  kCommit,     // serialized tail: commit loop, serial path, batch DRC
};

inline constexpr size_t kNumStages = 5;
const char* stageName(size_t i);

/// One thread's published stage: a single relaxed byte store to set.
class StageBeacon {
 public:
  void set(Stage s) {
    v_.store(static_cast<uint8_t>(s), std::memory_order_relaxed);
  }
  Stage get() const {
    return static_cast<Stage>(v_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint8_t> v_{0};
};

/// The calling thread's beacon, registered with the sampler on first
/// use (leaked at thread exit, like the tracer's rings — the sampler
/// may still read it). Threads that exit mid-run are expected to leave
/// their beacon at kIdle.
StageBeacon& threadBeacon();

/// RAII stage publication, armed-gated: disarmed it is one relaxed load
/// and a never-taken branch, armed it sets the stage and restores the
/// previous one on scope exit.
class StageScope {
 public:
  explicit StageScope(Stage s) {
    if (!armed()) return;
    b_ = &threadBeacon();
    prev_ = b_->get();
    b_->set(s);
  }
  ~StageScope() {
    if (b_ != nullptr) b_->set(prev_);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageBeacon* b_ = nullptr;
  Stage prev_ = Stage::kIdle;
};

/// Per-stage wall attribution accumulated by the sampler.
struct StageReport {
  uint64_t samples = 0;    ///< total beacon observations
  uint64_t ticks = 0;      ///< sampler wakeups
  uint64_t periodUs = 0;   ///< nominal sampling period
  uint64_t perStage[kNumStages] = {};  ///< observations per stage

  /// Share of non-idle observations attributed to stage `i`.
  double share(size_t i) const;
  std::string text() const;
  std::string json() const;
};

/// The armable ~1 kHz sampler. One instance per process.
class StageSampler {
 public:
  static StageSampler& instance();

  /// Walk every registered beacon once, accumulating one observation
  /// per beacon (and a tick). The sampler thread calls this ~1000x/s;
  /// tests call it directly for deterministic attribution.
  void sampleOnce();

  StageReport report() const;
  void reset();

  /// Nominal sampling period (1 kHz).
  static constexpr uint64_t kPeriodUs = 1000;

 private:
  StageSampler();
  ~StageSampler() = delete;  // process-lifetime singleton

  struct Impl;
  Impl* impl_;

  friend void arm();
  friend void disarm();
  friend StageBeacon& threadBeacon();
  void startThread();
  void stopThread();
};

// ---------------------------------------------------------------------------
// Combined report (jrsh `prof`)

struct ProfReport {
  bool armed = false;
  LockContentionReport locks;
  StageReport stages;
  uint64_t batches = 0;  ///< batches profiled since arm/reset

  /// Full human-readable report (jrsh `prof`).
  std::string text() const;
  /// Top-contenders table only (jrsh `prof top`).
  std::string topText() const;
  /// Single JSON object (jrsh `prof json`, jrload --prof-json).
  std::string json() const;
};

ProfReport report();

}  // namespace jrprof
