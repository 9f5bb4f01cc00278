#include "plan/footprint.h"

#include <algorithm>
#include <cstdlib>

#include "common/types.h"
#include "fabric/fabric.h"
#include "fabric/trace.h"
#include "lookahead/lookahead.h"
#include "router/template_lib.h"

namespace jrplan {

using xcvsim::kInvalidNode;
using xcvsim::manhattan;
using xcvsim::NodeKind;
using xcvsim::TemplateValue;

const char* specOpName(SpecOp op) {
  switch (op) {
    case SpecOp::kP2P: return "p2p";
    case SpecOp::kFanout: return "fanout";
    case SpecOp::kBus: return "bus";
    case SpecOp::kUnroute: return "unroute";
    case SpecOp::kReconnect: return "reconnect";
  }
  return "?";
}

void Footprint::addTileRect(RowCol a, RowCol b) {
  const int r0 = std::max(0, static_cast<int>(std::min(a.row, b.row)));
  const int r1 =
      std::min(grid_.rows() - 1, static_cast<int>(std::max(a.row, b.row)));
  const int c0 = std::max(0, static_cast<int>(std::min(a.col, b.col)));
  const int c1 =
      std::min(grid_.cols() - 1, static_cast<int>(std::max(a.col, b.col)));
  if (r0 > r1 || c0 > c1) return;
  // Stepping by the cell pitch hits every covered cell as long as the
  // rectangle's far edges are visited too.
  auto sampled = [](int lo, int hi) {
    std::vector<int> v;
    for (int x = lo; x < hi; x += RegionGrid::kCellTiles) v.push_back(x);
    v.push_back(hi);
    return v;
  };
  for (int r : sampled(r0, r1)) {
    for (int c : sampled(c0, c1)) {
      addTile(RowCol{static_cast<int16_t>(r), static_cast<int16_t>(c)});
    }
  }
}

bool Footprint::intersects(const Footprint& other) const {
  const size_t n = std::min(bits_.size(), other.bits_.size());
  for (size_t i = 0; i < n; ++i) {
    if (bits_[i] & other.bits_[i]) return true;
  }
  return false;
}

void Footprint::unite(const Footprint& other) {
  if (bits_.size() < other.bits_.size()) bits_.resize(other.bits_.size());
  for (size_t i = 0; i < other.bits_.size(); ++i) bits_[i] |= other.bits_[i];
  sound_ = sound_ && other.sound_;
}

size_t Footprint::cellCount() const {
  size_t n = 0;
  for (uint64_t w : bits_) n += static_cast<size_t>(__builtin_popcountll(w));
  return n;
}

std::vector<int> Footprint::cells() const {
  std::vector<int> out;
  for (size_t i = 0; i < bits_.size(); ++i) {
    uint64_t w = bits_[i];
    while (w) {
      const int bit = __builtin_ctzll(w);
      out.push_back(static_cast<int>(i * 64) + bit);
      w &= w - 1;
    }
  }
  return out;
}

FootprintExtractor::FootprintExtractor(const Graph& g,
                                       const xcvsim::Fabric& fabric,
                                       jroute::RouterOptions opts)
    : g_(&g), fabric_(&fabric), opts_(opts), grid_(g.device()) {
  hooks_.templates = [this](RowCol from, RowCol to) {
    return jroute::templatesFor(g_->device(), from, to, true, true);
  };
  hooks_.longTemplates = [this](RowCol from, RowCol to) {
    return jroute::longTemplatesFor(g_->device(), from, to, true, true);
  };
  hooks_.netNodes = [this](NodeId src) {
    std::vector<NodeId> nodes{src};
    for (const xcvsim::TraceHop& hop : xcvsim::traceForward(*fabric_, src)) {
      nodes.push_back(hop.to);
    }
    return nodes;
  };
  // A long line's representative position is its strip midpoint, which
  // can lie far outside a route's bbox. Index those cells once so any
  // pair that could plausibly ride a long can fold them in cheaply.
  longRowCells_.resize(static_cast<size_t>(grid_.rows()));
  longColCells_.resize(static_cast<size_t>(grid_.cols()));
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const NodeKind kind = g.info(n).kind;
    if (kind != NodeKind::LongH && kind != NodeKind::LongV) continue;
    const RowCol pos = g.positionOf(n);
    const int cell = grid_.cellOf(pos);
    auto& cells = kind == NodeKind::LongH
                      ? longRowCells_[static_cast<size_t>(pos.row)]
                      : longColCells_[static_cast<size_t>(pos.col)];
    if (std::find(cells.begin(), cells.end(), cell) == cells.end()) {
      cells.push_back(cell);
    }
  }
}

void FootprintExtractor::addTemplateWalk(
    Footprint& fp, RowCol from,
    const std::vector<TemplateValue>& tmpl) const {
  // Walk the nominal tile path, marking every tile a step spans: a hex
  // segment's representative position is its midpoint (±3 tiles in), so
  // marking only step endpoints would leave the hex node outside the
  // footprint.
  int r = from.row;
  int c = from.col;
  fp.addTile(from);
  for (TemplateValue v : tmpl) {
    const int dr = xcvsim::templateDRow(v);
    const int dc = xcvsim::templateDCol(v);
    const int steps = std::abs(dr) + std::abs(dc);
    const int sr = dr > 0 ? 1 : (dr < 0 ? -1 : 0);
    const int sc = dc > 0 ? 1 : (dc < 0 ? -1 : 0);
    for (int i = 0; i < steps; ++i) {
      r += sr;
      c += sc;
      fp.addTile(RowCol{static_cast<int16_t>(r), static_cast<int16_t>(c)});
    }
  }
}

void FootprintExtractor::addRoutePair(Footprint& fp, Pin src, Pin sink) const {
  const NodeId srcNode = g_->nodeAt(src.rc, src.wire);
  const NodeId sinkNode = g_->nodeAt(sink.rc, sink.wire);
  if (srcNode == kInvalidNode || sinkNode == kInvalidNode) {
    fp.markUnsound();
    return;
  }
  // Unreachable per the admissible lookahead bound: no plan can exist,
  // so no finite footprint bounds it — leave it to arbitration, which
  // rejects it authoritatively.
  const jrla::Lookahead& la = jrla::Lookahead::forGraph(*g_);
  if (la.estimate(srcNode, sinkNode, jrla::Lookahead::Mode::kFull) >=
      jrla::Lookahead::kUnreachable) {
    fp.markUnsound();
    return;
  }

  // Anchor tiles: source, sink, and — when the source already drives a
  // net — every node of the existing tree, since a new chain may branch
  // from any of them.
  RowCol lo = src.rc;
  RowCol hi = src.rc;
  auto fold = [&lo, &hi](RowCol rc) {
    lo.row = std::min(lo.row, rc.row);
    lo.col = std::min(lo.col, rc.col);
    hi.row = std::max(hi.row, rc.row);
    hi.col = std::max(hi.col, rc.col);
  };
  fold(sink.rc);
  if (fabric_->isUsed(srcNode)) {
    for (NodeId n : hooks_.netNodes(srcNode)) fold(g_->positionOf(n));
  }

  const int margin = hooks_.corridorMargin;
  const RowCol boxLo{static_cast<int16_t>(lo.row - margin),
                     static_cast<int16_t>(lo.col - margin)};
  const RowCol boxHi{static_cast<int16_t>(hi.row + margin),
                     static_cast<int16_t>(hi.col + margin)};
  fp.addTileRect(boxLo, boxHi);

  // Template nominal paths (the exact wires a template-eligible route
  // claims, modulo the walker's per-tile wiggle the corridor absorbs).
  for (const auto& tmpl : hooks_.templates(src.rc, sink.rc)) {
    addTemplateWalk(fp, src.rc, tmpl);
  }
  const auto longTmpls = hooks_.longTemplates(src.rc, sink.rc);
  for (const auto& tmpl : longTmpls) addTemplateWalk(fp, src.rc, tmpl);

  // Long-line strips. Beyond template range the maze and the long-line
  // composer both consider longs; a composition template at moderate
  // distance does too. Either way the long node's midpoint cell must be
  // in the footprint even though it is far outside the corridor.
  const bool longsPlausible =
      opts_.useLongLines && (!longTmpls.empty() ||
                             manhattan(src.rc, sink.rc) >
                                 opts_.templateMaxDistance);
  if (longsPlausible) {
    const int r0 = std::max(0, static_cast<int>(boxLo.row));
    const int r1 = std::min(grid_.rows() - 1, static_cast<int>(boxHi.row));
    for (int r = r0; r <= r1; ++r) {
      for (int cell : longRowCells_[static_cast<size_t>(r)]) fp.addCell(cell);
    }
    const int c0 = std::max(0, static_cast<int>(boxLo.col));
    const int c1 = std::min(grid_.cols() - 1, static_cast<int>(boxHi.col));
    for (int c = c0; c <= c1; ++c) {
      for (int cell : longColCells_[static_cast<size_t>(c)]) fp.addCell(cell);
    }
  }
}

void FootprintExtractor::addNet(Footprint& fp, Pin src) const {
  const NodeId srcNode = g_->nodeAt(src.rc, src.wire);
  if (srcNode == kInvalidNode || !fabric_->isUsed(srcNode)) {
    // Unrouting a net that does not exist: the request will be rejected
    // (and the linter flags it), but no footprint can bound it.
    fp.markUnsound();
    return;
  }
  for (NodeId n : hooks_.netNodes(srcNode)) fp.addTile(g_->positionOf(n));
}

Footprint FootprintExtractor::extract(const RouteSpec& spec) const {
  Footprint fp(grid_);
  if (spec.srcs.empty()) {
    fp.markUnsound();
    return fp;
  }
  switch (spec.op) {
    case SpecOp::kP2P:
    case SpecOp::kFanout:
      if (spec.sinks.empty()) fp.markUnsound();
      for (const Pin& sink : spec.sinks) addRoutePair(fp, spec.srcs[0], sink);
      break;
    case SpecOp::kBus: {
      if (spec.srcs.size() != spec.sinks.size()) fp.markUnsound();
      const size_t n = std::min(spec.srcs.size(), spec.sinks.size());
      for (size_t i = 0; i < n; ++i) {
        addRoutePair(fp, spec.srcs[i], spec.sinks[i]);
      }
      break;
    }
    case SpecOp::kUnroute:
      for (const Pin& src : spec.srcs) addNet(fp, src);
      break;
    case SpecOp::kReconnect:
      if (spec.sinks.empty()) {
        fp.markUnsound();
        break;
      }
      addNet(fp, spec.srcs[0]);
      addRoutePair(fp, spec.srcs[0], spec.sinks[0]);
      break;
  }
  return fp;
}

Footprint FootprintExtractor::extractPair(Pin src, Pin sink) const {
  Footprint fp(grid_);
  addRoutePair(fp, src, sink);
  return fp;
}

}  // namespace jrplan
