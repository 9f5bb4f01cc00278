// Request/response vocabulary of the routing service.
//
// The paper's API surfaces failures as exceptions (contention, section
// 3.4; unroutable, section 3.1). A service shared by concurrent clients
// cannot let one client's exception unwind another's thread, so every
// submission resolves to a RouteResult: accepted, or rejected with a
// machine-readable reason (contention, unroutable, overloaded, deadline
// expired, not the owner, ...). Rejection is always clean — a rejected
// request leaves the fabric bit-identical to its pre-request state.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/endpoint.h"
#include "obs/spans.h"

namespace jrsvc {

using Clock = std::chrono::steady_clock;

/// What a request asks the engine to do.
enum class Op : uint8_t {
  kRouteP2P,     // sources[0] -> sinks[0]
  kRouteFanout,  // sources[0] -> every sink
  kRouteBus,     // sources[i] -> sinks[i]
  kUnroute,      // free the net driven from sources[0]
};

enum class Outcome : uint8_t { kAccepted, kRejected };

enum class Reject : uint8_t {
  kNone,             // accepted
  kContention,       // a needed wire belongs to another net (section 3.4)
  kUnroutable,       // no unused resource combination exists
  kOverloaded,       // request queue at capacity (backpressure)
  kDeadlineExpired,  // missed its deadline before execution
  kNotOwner,         // session tried to touch a net it does not own
  kBadArgument,      // unresolvable pin/port, width mismatch, ...
  kShutdown,         // service stopped
};

const char* rejectName(Reject r);
const char* opName(Op op);

struct RouteResult {
  Outcome outcome = Outcome::kRejected;
  Reject reason = Reject::kShutdown;
  std::string detail;
  /// Source node of the routed net (for later unroute/trace); only set for
  /// accepted route operations.
  xcvsim::NodeId netSource = xcvsim::kInvalidNode;
  /// True when the request was planned in the parallel phase (as opposed
  /// to the serialized conflict path).
  bool routedInParallel = false;
  /// For kContention rejections: the contested segment, when known (the
  /// flight recorder uses it to attach the owning net's provenance).
  xcvsim::NodeId contendedNode = xcvsim::kInvalidNode;

  bool ok() const { return outcome == Outcome::kAccepted; }
};

/// One queued unit of work. Owned by the queue, then by the engine; the
/// submitting client holds the matching future.
struct Request {
  Op op = Op::kRouteP2P;
  uint64_t id = 0;
  uint64_t sessionId = 0;
  std::vector<jroute::EndPoint> sources;
  std::vector<jroute::EndPoint> sinks;
  /// Absolute deadline; default-constructed time_point means none.
  Clock::time_point deadline{};
  /// Stamped by RoutingService::submit; the engine measures
  /// enqueue-to-resolution latency from it (service.request.latency_us).
  Clock::time_point enqueued{};
  /// Lifecycle stamps (enqueue, batch close, plan, arbitration, commit,
  /// reply); folded into the span aggregator when the request resolves.
  jrobs::RequestSpan span;
  std::promise<RouteResult> promise;

  bool hasDeadline() const { return deadline != Clock::time_point{}; }
  bool isRoute() const { return op != Op::kUnroute; }
};

/// Monotonic service counters (queried with RoutingService::stats()).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t overloaded = 0;  // shed at submit time, never queued
  uint64_t deadlineExpired = 0;
  uint64_t contention = 0;
  uint64_t unroutable = 0;
  uint64_t batches = 0;
  uint64_t parallelPlanned = 0;  // requests committed from the parallel phase
  uint64_t serialRouted = 0;     // requests routed on the serialized path
  uint64_t planFallbacks = 0;    // parallel plans that fell back to serial
  uint64_t claimRetries = 0;     // searches re-run after losing a claim race
};

}  // namespace jrsvc
