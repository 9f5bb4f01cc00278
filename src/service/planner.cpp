#include "service/planner.h"

#include <algorithm>

#include "arch/wires.h"
#include "core/router.h"
#include "fabric/trace.h"
#include "lookahead/lookahead.h"
#include "router/path_engine.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/template_engine.h"
#include "router/template_lib.h"

namespace jrsvc {

using jroute::EndPoint;
using jroute::Pin;
using xcvsim::kInvalidNet;
using xcvsim::kInvalidNode;
using xcvsim::manhattan;
using xcvsim::TemplateValue;
using xcvsim::WireKind;
using xcvsim::wireKind;

namespace {

constexpr int kMaxClaimRetries = 4;

struct PlannerMetrics {
  jrobs::Counter& claimConflicts =
      jrobs::registry().counter("service.plan.claim_conflicts");
  jrobs::Counter& shapeReuseHits =
      jrobs::registry().counter("service.plan.shape_reuse_hits");
};

PlannerMetrics& plannerMetrics() {
  static PlannerMetrics m;
  return m;
}

std::string pinName(const xcvsim::Graph& g, const Pin& p) {
  const NodeId n = g.nodeAt(p.rc, p.wire);
  if (n != kInvalidNode) return g.nodeName(n);
  return "R" + std::to_string(p.rc.row) + "C" + std::to_string(p.rc.col) +
         ".wire" + std::to_string(p.wire);
}

/// A lost claim race at node `n`: count it, and locate it on the
/// conflict heatmap (jrsh `heatmap conflicts`).
void claimConflictAt(const xcvsim::Graph& g, NodeId n) {
  plannerMetrics().claimConflicts.add();
  const xcvsim::RowCol rc = g.positionOf(n);
  jrobs::claimConflictGrid().add(rc.row, rc.col);
}

}  // namespace

Planner::Planner(const xcvsim::Fabric& fabric, ClaimMap& claims,
                 jroute::RouterOptions opts)
    : fabric_(&fabric),
      claims_(&claims),
      view_(claims),
      opts_(opts),
      maze_(fabric.graph()) {
  opts_.claimFilter = &view_;
  // Same per-device table as the serial router: immutable, shared across
  // every planner thread.
  if (opts_.useLookahead && opts_.lookahead == nullptr) {
    opts_.lookahead = &jrla::Lookahead::forGraph(fabric.graph());
  }
}

Plan Planner::plan(uint32_t owner, const Request& req) {
  JR_TRACE_SCOPE("service", "plan");
  Plan plan;
  const auto fail = [&](Reject reason, std::string detail,
                        bool authoritative) -> Plan& {
    plan.found = false;
    plan.reason = reason;
    plan.detail = std::move(detail);
    plan.authoritative = authoritative;
    return plan;
  };

  if (req.op == Op::kUnroute) {
    // Unroutes mutate an existing net; they are always serialized.
    return fail(Reject::kNone, "unroute is serial-only", false);
  }
  if (req.sources.empty() || req.sinks.empty()) {
    return fail(Reject::kBadArgument, "no endpoints", true);
  }

  if (req.op == Op::kRouteBus) {
    if (req.sources.size() != req.sinks.size()) {
      return fail(Reject::kBadArgument, "bus width mismatch", true);
    }
    // Bus regularity (same policy as the serial router): bit 0 is planned
    // first and exports its template shape; later bits of this request try
    // that shape before consulting the library or the maze. All bits of
    // one bus request run on this planner, so the hand-off is sequential
    // even inside the batch's parallel phase.
    std::vector<TemplateValue> shape, nextShape;
    for (size_t i = 0; i < req.sources.size(); ++i) {
      const auto sinkPins = req.sinks[i].resolve();
      if (!planNet(owner, plan, req.sources[i], sinkPins,
                   shape.empty() ? nullptr : &shape, &nextShape)) {
        return plan;
      }
      shape = nextShape;  // maze-shaped bits clear the hint, like the router
    }
  } else {
    // P2P and fanout: one source, every sink pin on the same net.
    std::vector<Pin> sinkPins;
    for (const EndPoint& ep : req.sinks) {
      for (const Pin& p : ep.resolve()) sinkPins.push_back(p);
    }
    if (!planNet(owner, plan, req.sources.front(), sinkPins)) return plan;
  }
  plan.found = true;
  return plan;
}

bool Planner::planNet(uint32_t owner, Plan& plan, const EndPoint& source,
                      const std::vector<Pin>& sinkPins,
                      const std::vector<TemplateValue>* hint,
                      std::vector<TemplateValue>* shapeOut) {
  const xcvsim::Graph& g = fabric_->graph();
  const auto fail = [&](Reject reason, std::string detail,
                        bool authoritative) {
    plan.reason = reason;
    plan.detail = std::move(detail);
    plan.authoritative = authoritative;
    return false;
  };

  const auto srcPins = source.resolve();
  if (srcPins.empty()) return fail(Reject::kBadArgument, "source has no pins", true);
  if (sinkPins.empty()) return fail(Reject::kBadArgument, "no sink pins", true);
  const Pin srcPin = srcPins.front();
  const NodeId srcNode = g.nodeAt(srcPin.rc, srcPin.wire);
  if (srcNode == kInvalidNode) {
    return fail(Reject::kBadArgument, "no such wire: " + pinName(g, srcPin),
                true);
  }

  PlannedNet net;
  net.srcPin = srcPin;
  net.srcNode = srcNode;
  std::vector<NodeId> treeNodes{srcNode};
  bool fresh = true;
  if (fabric_->isUsed(srcNode)) {
    // Extending a committed net: seed the search with its whole tree.
    // (Session ownership was already checked by the engine.)
    net.existing = fabric_->netOf(srcNode);
    for (const xcvsim::TraceHop& hop : traceForward(*fabric_, srcNode)) {
      treeNodes.push_back(hop.to);
    }
    fresh = treeNodes.size() == 1;
  } else {
    if (!jroute::canDriveNet(g, srcNode)) {
      return fail(Reject::kBadArgument,
                  "wire " + g.nodeName(srcNode) + " cannot drive a net", true);
    }
    if (!claims_->claim(srcNode, owner)) {
      // Another in-flight request wants the same source; let the
      // serialized path decide who wins.
      claimConflictAt(g, srcNode);
      plan.contendedNode = srcNode;
      return fail(Reject::kContention,
                  "source " + g.nodeName(srcNode) + " claimed concurrently",
                  false);
    }
    plan.claimed.push_back(srcNode);
  }

  // Nearest sink first, reusing the growing tree — same policy as the
  // serial router. The bus shape hint applies to every sink; only the
  // first sink's chain is exported as the next bit's shape.
  std::vector<Pin> ordered = sinkPins;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const Pin& a, const Pin& b) {
                     return manhattan(srcPin.rc, a.rc) <
                            manhattan(srcPin.rc, b.rc);
                   });
  if (shapeOut) shapeOut->clear();
  bool first = fresh;
  for (const Pin& sp : ordered) {
    if (!planSink(owner, plan, net, srcPin, sp, treeNodes, first, hint,
                  first ? shapeOut : nullptr)) {
      return false;
    }
    first = false;
  }
  plan.nets.push_back(std::move(net));
  return true;
}

bool Planner::planSink(uint32_t owner, Plan& plan, PlannedNet& net,
                       const Pin& srcPin, const Pin& sinkPin,
                       std::vector<NodeId>& treeNodes, bool tryTemplates,
                       const std::vector<TemplateValue>* hint,
                       std::vector<TemplateValue>* shapeOut) {
  const xcvsim::Graph& g = fabric_->graph();
  const auto fail = [&](Reject reason, std::string detail,
                        bool authoritative) {
    plan.reason = reason;
    plan.detail = std::move(detail);
    plan.authoritative = authoritative;
    return false;
  };

  const NodeId sinkNode = g.nodeAt(sinkPin.rc, sinkPin.wire);
  if (sinkNode == kInvalidNode) {
    return fail(Reject::kBadArgument, "no such wire: " + pinName(g, sinkPin),
                true);
  }
  if (fabric_->isUsed(sinkNode)) {
    if (net.existing != kInvalidNet && fabric_->netOf(sinkNode) == net.existing) {
      return true;  // already connected — idempotent reuse
    }
    plan.contendedNode = sinkNode;
    return fail(Reject::kContention,
                "sink " + g.nodeName(sinkNode) + " is in use by another net",
                true);
  }
  const uint32_t sinkOwner = claims_->ownerOf(sinkNode);
  if (sinkOwner != 0 && sinkOwner != owner) {
    claimConflictAt(g, sinkNode);
    plan.contendedNode = sinkNode;
    return fail(Reject::kContention,
                "sink " + g.nodeName(sinkNode) + " claimed concurrently",
                false);
  }

  // Selected once per sink (the choice is claim-independent); claim-race
  // retries below re-search under the same strategy.
  jroute::StrategyChoice choice;
  if (tryTemplates) {
    choice = jroute::selectStrategy(g, net.srcNode, sinkNode, opts_);
    switch (choice.strategy) {
      case jroute::Strategy::kTemplate: ++plan.selTemplate; break;
      case jroute::Strategy::kLongLine: ++plan.selLongLine; break;
      case jroute::Strategy::kMaze: ++plan.selMaze; break;
    }
  }

  const NetId searchNet =
      net.existing != kInvalidNet ? net.existing : kInvalidNet;
  for (int attempt = 0; attempt < kMaxClaimRetries; ++attempt) {
    std::vector<EdgeId> chain;
    bool found = false;
    bool viaMaze = false;
    // Bus regularity: try the previous bit's shape first.
    if (hint && !hint->empty()) {
      const jroute::TemplateResult res =
          followTemplate(*fabric_, net.srcNode, *hint, sinkNode,
                         xcvsim::kInvalidLocalWire, opts_);
      plan.visits += res.visited;
      if (res.found) {
        plannerMetrics().shapeReuseHits.add();
        ++plan.shapeReuseHits;
        chain = res.edges;
        found = true;
      }
    }
    if (!found && tryTemplates &&
        choice.strategy != jroute::Strategy::kMaze) {
      const bool srcIsOutput = wireKind(srcPin.wire) == WireKind::SliceOut;
      const bool dstIsInput = wireKind(sinkPin.wire) == WireKind::ClbIn;
      const bool longLine = choice.strategy == jroute::Strategy::kLongLine;
      const auto tmpls =
          longLine ? jroute::longTemplatesFor(fabric_->graph().device(),
                                              srcPin.rc, sinkPin.rc,
                                              srcIsOutput, dstIsInput)
                   : jroute::templatesFor(fabric_->graph().device(),
                                          srcPin.rc, sinkPin.rc, srcIsOutput,
                                          dstIsInput);
      for (const auto& tmpl : tmpls) {
        const jroute::TemplateResult res =
            followTemplate(*fabric_, net.srcNode, tmpl, sinkNode,
                           xcvsim::kInvalidLocalWire, opts_);
        plan.visits += res.visited;
        if (res.found) {
          ++plan.templateHits;
          if (longLine) ++plan.longTemplateHits;
          chain = res.edges;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      const jroute::SearchResult res =
          maze_.route(*fabric_, searchNet, treeNodes, sinkNode, opts_);
      ++plan.mazeRuns;
      plan.visits += res.visited;
      if (!res.found) {
        // Possibly starved by concurrent claims; the serialized retry is
        // authoritative for true unroutability.
        return fail(Reject::kUnroutable,
                    "no path: " + pinName(g, srcPin) + " -> " +
                        pinName(g, sinkPin),
                    false);
      }
      chain = res.edges;
      viaMaze = true;
    }
    if (!claimChain(owner, plan, chain)) {
      ++plan.retries;
      continue;  // lost a race; contested nodes are now blocked, re-search
    }
    if (shapeOut) {
      // Like the serial router: template-shaped routes make good hints
      // for the next bus bit; meandering maze paths are not propagated.
      shapeOut->clear();
      if (!viaMaze) {
        for (const EdgeId e : chain) {
          shapeOut->push_back(g.templateValueOf(g.edge(e).to, g.edge(e)));
        }
      }
    }
    for (const EdgeId e : chain) treeNodes.push_back(g.edge(e).to);
    net.edges.insert(net.edges.end(), chain.begin(), chain.end());
    return true;
  }
  return fail(Reject::kContention, "claim races exhausted", false);
}

bool Planner::claimChain(uint32_t owner, Plan& plan,
                         std::span<const EdgeId> chain) {
  const xcvsim::Graph& g = fabric_->graph();
  std::vector<NodeId> acquired;
  acquired.reserve(chain.size());
  for (const EdgeId e : chain) {
    const NodeId v = g.edge(e).to;
    if (claims_->ownerOf(v) == owner) continue;  // already ours (tree node)
    if (!claims_->claim(v, owner)) {
      claimConflictAt(g, v);
      plan.contendedNode = v;
      claims_->releaseAll(acquired, owner);
      return false;
    }
    acquired.push_back(v);
  }
  plan.claimed.insert(plan.claimed.end(), acquired.begin(), acquired.end());
  return true;
}

}  // namespace jrsvc
