#include "checks.h"

#include <string>

#include "fabric/timing.h"

namespace perfbench {

using xcvsim::EdgeId;
using xcvsim::Graph;
using xcvsim::kInvalidNet;

namespace {

void fail(CheckResult& r, std::string msg) {
  if (r.ok) r.error = msg;
  r.ok = false;
  if (r.errors.size() < 16) r.errors.push_back(std::move(msg));
}

}  // namespace

void checkConnectivity(const Fabric& f, const Expected& exp,
                       CheckResult& r) {
  const Graph& g = f.graph();
  std::vector<NodeId> stack;
  std::unordered_set<NodeId> seen;
  for (const auto& [src, sinks] : exp.conns) {
    seen.clear();
    stack.assign(1, src);
    seen.insert(src);
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (const xcvsim::Edge& e : g.out(n)) {
        if (!f.edgeOn(g.edgeIdOf(n, e))) continue;
        if (seen.insert(e.to).second) stack.push_back(e.to);
      }
    }
    size_t reached = 0;
    for (NodeId s : sinks) {
      if (seen.count(s) != 0) {
        ++reached;
      } else {
        fail(r, "connectivity: " + g.nodeName(src) + " does not reach " +
                    g.nodeName(s));
      }
    }
    r.quality.connections += sinks.size();
    r.quality.wireNodes += seen.size() - 1 - reached;
    const xcvsim::NetTiming t = xcvsim::computeNetTiming(f, src);
    for (NodeId s : sinks) {
      for (const xcvsim::SinkDelay& d : t.sinks) {
        if (d.sink == s) {
          r.quality.delayPsSum += static_cast<double>(d.delay);
          break;
        }
      }
    }
  }
  r.liveNets = f.liveNetCount();
  if (r.liveNets != exp.conns.size()) {
    fail(r, "connectivity: fabric holds " + std::to_string(r.liveNets) +
                " live nets, workload expects " +
                std::to_string(exp.conns.size()));
  }
  for (NodeId src : exp.torn) {
    for (const xcvsim::Edge& e : g.out(src)) {
      if (f.edgeOn(g.edgeIdOf(src, e))) {
        fail(r, "connectivity: torn-down source " + g.nodeName(src) +
                    " still drives " + g.nodeName(e.to));
        break;
      }
    }
  }
}

void checkContention(const Fabric& f, CheckResult& r) {
  const Graph& g = f.graph();
  size_t on = 0;
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    int drivers = 0;
    for (EdgeId e : g.in(n)) {
      if (!f.edgeOn(e)) continue;
      ++on;
      ++drivers;
      const auto net = f.netOf(n);
      if (net == kInvalidNet || f.netOf(g.edgeSource(e)) != net) {
        fail(r, "contention: on PIP " + g.nodeName(g.edgeSource(e)) +
                    " -> " + g.nodeName(n) + " joins two nets");
      }
    }
    if (drivers > 1) {
      fail(r, "contention: " + g.nodeName(n) + " has " +
                  std::to_string(drivers) + " on incoming PIPs");
    }
  }
  r.onPipsScan = on;
}

void checkBitstreamTotal(const Fabric& f, CheckResult& r) {
  const xcvsim::Bitstream& bits = f.jbits().bitstream();
  const int slots = bits.table().numPipSlots();
  const xcvsim::DeviceSpec& dev = bits.device();
  size_t set = 0;
  for (int row = 0; row < dev.rows; ++row) {
    for (int col = 0; col < dev.cols; ++col) {
      const xcvsim::RowCol rc{static_cast<int16_t>(row),
                              static_cast<int16_t>(col)};
      for (int s = 0; s < slots; ++s) set += bits.getSlot(rc, s) ? 1 : 0;
    }
  }
  r.onPipsBits = set;
  if (r.onPipsBits != r.onPipsScan) {
    fail(r, "totals: " + std::to_string(r.onPipsScan) +
                " on PIPs by edge scan, " + std::to_string(r.onPipsBits) +
                " PIP bits set in the bitstream");
  }
}

CheckResult checkAll(const Fabric& f, const Expected& exp) {
  CheckResult r;
  checkConnectivity(f, exp, r);
  checkContention(f, r);
  checkBitstreamTotal(f, r);
  return r;
}

CheckResult checkTornDown(const Fabric& f, const Expected& exp) {
  CheckResult r = checkAll(f, exp);
  if (!exp.conns.empty()) fail(r, "teardown: the workload still holds nets");
  if (r.onPipsScan != 0 || r.onPipsBits != 0) {
    fail(r, "teardown: " + std::to_string(r.onPipsScan) + " on PIPs and " +
                std::to_string(r.onPipsBits) +
                " PIP bits left after a full teardown");
  }
  return r;
}

}  // namespace perfbench
