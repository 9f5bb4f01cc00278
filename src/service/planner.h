// Concurrent route planning against a frozen fabric.
//
// During a batch's parallel phase the engine freezes the fabric (no
// commits happen until every planner is done), and one Planner per worker
// thread computes edge chains for its requests using the same two engines
// as the serial router — the predefined-template library and the weighted
// maze — both of which only *read* fabric state. Wire arbitration between
// concurrent planners goes through the ClaimMap: every node a plan wants
// is claimed with a CAS, a lost race blocks the node and re-runs the
// search, and a plan that cannot converge falls back to the engine's
// serialized path, which is authoritative.
#pragma once

#include <string>
#include <vector>

#include "router/search.h"
#include "service/claim_map.h"
#include "service/request.h"

namespace jrsvc {

using xcvsim::EdgeId;
using xcvsim::NetId;

/// One net a plan wants to create or extend.
struct PlannedNet {
  /// Pin addressing the net source (for commit-time ensureNet).
  jroute::Pin srcPin;
  NodeId srcNode = xcvsim::kInvalidNode;
  /// Net to extend; kInvalidNet means commit creates a fresh net.
  NetId existing = xcvsim::kInvalidNet;
  /// Edge chains in commit order (concatenated, source-side first).
  std::vector<EdgeId> edges;
};

struct Plan {
  bool found = false;
  /// True when the failure is final (bad pin, sink held by another net):
  /// the serialized path would fail identically, so the engine rejects
  /// without retrying.
  bool authoritative = false;
  Reject reason = Reject::kNone;
  std::string detail;
  std::vector<PlannedNet> nets;
  /// Every node claimed on behalf of this plan (released by the engine
  /// after commit or abandonment).
  std::vector<NodeId> claimed;
  /// Searches re-run after losing a claim race (stats).
  uint64_t retries = 0;
  /// Per-request search effort, mirrored into the committed nets'
  /// provenance records (obs/provenance.h).
  uint64_t templateHits = 0;
  uint64_t shapeReuseHits = 0;
  uint64_t mazeRuns = 0;
  uint64_t visits = 0;
  /// Subset of templateHits satisfied by a long-line composition.
  uint64_t longTemplateHits = 0;
  /// Strategy-selector decisions made while planning this request.
  uint64_t selTemplate = 0;
  uint64_t selLongLine = 0;
  uint64_t selMaze = 0;
  /// For contention failures: the contested segment, when known.
  NodeId contendedNode = xcvsim::kInvalidNode;
};

class Planner {
 public:
  /// `opts` is copied; its claimFilter is pointed at the shared claim map.
  Planner(const xcvsim::Fabric& fabric, ClaimMap& claims,
          jroute::RouterOptions opts);

  /// Plan `req` with claim owner id `owner` (request id + 1). Never
  /// touches fabric state.
  Plan plan(uint32_t owner, const Request& req);

 private:
  /// `hint`/`shapeOut` carry bus regularity between bits of one request,
  /// mirroring Router::routeSink: bit 0 exports its template shape via
  /// `shapeOut`, later bits try `hint` before the library and the maze.
  bool planNet(uint32_t owner, Plan& plan, const jroute::EndPoint& source,
               const std::vector<jroute::Pin>& sinkPins,
               const std::vector<xcvsim::TemplateValue>* hint = nullptr,
               std::vector<xcvsim::TemplateValue>* shapeOut = nullptr);
  bool planSink(uint32_t owner, Plan& plan, PlannedNet& net,
                const jroute::Pin& srcPin, const jroute::Pin& sinkPin,
                std::vector<NodeId>& treeNodes, bool tryTemplates,
                const std::vector<xcvsim::TemplateValue>* hint = nullptr,
                std::vector<xcvsim::TemplateValue>* shapeOut = nullptr);
  /// Claim `owner` on every target node of `chain`; on a lost race,
  /// releases this call's acquisitions and returns false.
  bool claimChain(uint32_t owner, Plan& plan, std::span<const EdgeId> chain);

  const xcvsim::Fabric* fabric_;
  ClaimMap* claims_;
  ClaimView view_;
  jroute::RouterOptions opts_;
  jroute::MazeRouter maze_;
};

}  // namespace jrsvc
