// perfbench_selftest: every correctness check of the benchmark passes on a
// correctly routed fabric and fails once its expectation is broken or a bit
// is corrupted. Runs on XCV50 in about a second; exit code = failures.
#include <cstdio>
#include <string>
#include <vector>

#include "arch/device.h"
#include "arch/wires.h"
#include "bitstream/pip_table.h"
#include "checks.h"
#include "core/router.h"
#include "fabric/fabric.h"
#include "rrg/graph.h"

namespace {

using jroute::EndPoint;
using jroute::Pin;
using perfbench::CheckResult;
using perfbench::Expected;
using xcvsim::EdgeId;
using xcvsim::NodeId;

int failures = 0;

void expect(bool cond, const std::string& what, const CheckResult& r) {
  std::printf("%s  %s%s%s\n", cond ? "ok  " : "FAIL", what.c_str(),
              r.error.empty() ? "" : "  -- ", r.error.c_str());
  if (!cond) ++failures;
}

bool mentions(const CheckResult& r, const char* text) {
  for (const std::string& e : r.errors) {
    if (e.find(text) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main() {
  const xcvsim::Graph g(xcvsim::xcv50());
  const xcvsim::PipTable table(g.arch());
  xcvsim::Fabric fabric(g, table);
  jroute::Router router(fabric);
  auto node = [&](const Pin& p) { return g.nodeAt(p.rc, p.wire); };

  // Two p2p nets and one fanout net, recorded as the workload would.
  Expected exp;
  const Pin a(3, 3, xcvsim::S1_YQ), aSink(4, 7, xcvsim::clbIn(3));
  const Pin b(8, 12, xcvsim::S0_X), bSink(11, 10, xcvsim::clbIn(5));
  const Pin c(6, 18, xcvsim::S0_YQ);
  const std::vector<Pin> cSinks = {Pin(6, 20, xcvsim::clbIn(1)),
                                   Pin(9, 17, xcvsim::clbIn(2)),
                                   Pin(3, 19, xcvsim::clbIn(4))};
  router.route(EndPoint(a), EndPoint(aSink));
  router.route(EndPoint(b), EndPoint(bSink));
  const std::vector<EndPoint> cEnds(cSinks.begin(), cSinks.end());
  router.route(EndPoint(c), std::span<const EndPoint>(cEnds));
  exp.connect(node(a), {node(aSink)});
  exp.connect(node(b), {node(bSink)});
  exp.connect(node(c), {node(cSinks[0]), node(cSinks[1]), node(cSinks[2])});

  CheckResult r = perfbench::checkAll(fabric, exp);
  expect(r.ok && r.quality.connections == 5 && r.onPipsScan > 0,
         "all checks pass on a correctly routed fabric", r);

  // Connectivity: a sink the workload believes connected but is not.
  {
    Expected wrong = exp;
    wrong.conns[node(a)].push_back(node(Pin(5, 5, xcvsim::clbIn(6))));
    r = perfbench::checkAll(fabric, wrong);
    expect(mentions(r, "does not reach"), "connectivity: unreached sink fails",
           r);
  }
  // Connectivity: the fabric holds a net the workload does not know of.
  {
    Expected wrong = exp;
    wrong.conns.erase(node(b));
    r = perfbench::checkAll(fabric, wrong);
    expect(mentions(r, "live nets"), "connectivity: unexpected net fails", r);
  }
  // Connectivity: a source the workload tore down still drives a PIP.
  {
    Expected wrong = exp;
    wrong.torn.insert(node(c));
    r = perfbench::checkAll(fabric, wrong);
    expect(mentions(r, "torn-down source"),
           "connectivity: live torn-down source fails", r);
  }

  // No contention: a second on PIP into an already driven node.
  const NodeId driven = node(aSink);
  const EdgeId driver = fabric.driverOf(driven);
  EdgeId second = xcvsim::kInvalidEdge;
  for (EdgeId e : g.in(driven)) {
    if (e != driver) {
      second = e;
      break;
    }
  }
  {
    xcvsim::FabricMutator(fabric).setEdgeOnBit(second, true);
    r = perfbench::checkAll(fabric, exp);
    xcvsim::FabricMutator(fabric).setEdgeOnBit(second, false);
    expect(mentions(r, "on incoming PIPs"),
           "contention: two drivers on one node fails", r);
  }
  // No contention: an on PIP from a net into a free node.
  {
    EdgeId stray = xcvsim::kInvalidEdge;
    for (const xcvsim::Edge& e : g.out(node(a))) {
      if (!fabric.isUsed(e.to)) {
        stray = g.edgeIdOf(node(a), e);
        break;
      }
    }
    xcvsim::FabricMutator(fabric).setEdgeOnBit(stray, true);
    r = perfbench::checkAll(fabric, exp);
    xcvsim::FabricMutator(fabric).setEdgeOnBit(stray, false);
    expect(mentions(r, "joins two nets"),
           "contention: PIP into another net fails", r);
  }

  // Totals: one corrupted configuration bit.
  {
    xcvsim::Bitstream& bits = fabric.jbits().bitstream();
    const xcvsim::RowCol rc{2, 2};
    int slot = 0;
    while (bits.getSlot(rc, slot)) ++slot;
    bits.setSlot(rc, slot, true);
    r = perfbench::checkAll(fabric, exp);
    bits.setSlot(rc, slot, false);
    expect(mentions(r, "PIP bits set"), "totals: corrupted bit fails", r);
  }

  r = perfbench::checkAll(fabric, exp);
  expect(r.ok, "all checks pass again once the faults are undone", r);

  // Teardown: both totals 0 after unrouting everything, and not before.
  r = perfbench::checkTornDown(fabric, exp);
  expect(mentions(r, "teardown"), "teardown: live nets fail the 0 totals", r);
  for (const Pin& src : {a, b, c}) {
    router.unroute(EndPoint(src));
    exp.tearDown(node(src));
  }
  r = perfbench::checkTornDown(fabric, exp);
  expect(r.ok && r.onPipsScan == 0 && r.onPipsBits == 0,
         "teardown: empty fabric passes with both totals 0", r);
  {
    xcvsim::Bitstream& bits = fabric.jbits().bitstream();
    bits.setSlot({5, 5}, 0, true);
    r = perfbench::checkTornDown(fabric, exp);
    bits.setSlot({5, 5}, 0, false);
    expect(mentions(r, "PIP bits"), "teardown: a stray bit fails", r);
  }

  std::printf("%d failure(s)\n", failures);
  return failures;
}
