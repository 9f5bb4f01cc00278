// Independent correctness checks over a quiescent fabric.
//
// Each check recomputes its verdict from raw state -- the on-bits of the
// fabric's PIPs, the graph's adjacency, the configuration bitstream --
// against what the workload itself says it connected. None of them calls
// the router, the service or the program's own analyzers (DRC, verify).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fabric/fabric.h"

namespace perfbench {

using xcvsim::Fabric;
using xcvsim::NodeId;

/// What the workload believes is on the fabric, kept by the workload from
/// its own inputs and the accept/reject result of every request.
struct Expected {
  /// Net source node -> sink nodes it must reach.
  std::unordered_map<NodeId, std::vector<NodeId>> conns;
  /// Sources the workload tore down (and has not routed again).
  std::unordered_set<NodeId> torn;

  void connect(NodeId src, std::vector<NodeId> sinks) {
    torn.erase(src);
    conns[src] = std::move(sinks);
  }
  void tearDown(NodeId src) {
    conns.erase(src);
    torn.insert(src);
  }
};

/// Route quality of the expected connections, read from the fabric.
struct Quality {
  size_t connections = 0;  ///< source -> sink pairs
  size_t wireNodes = 0;    ///< net nodes other than sources and sinks
  double delayPsSum = 0;   ///< summed source -> sink arrival times
};

struct CheckResult {
  bool ok = true;
  std::string error;                ///< first failure, empty when ok
  std::vector<std::string> errors;  ///< the first few failures
  Quality quality;
  size_t onPipsScan = 0;  ///< on PIPs found by scanning every edge
  size_t onPipsBits = 0;  ///< PIP bits set in the bitstream
  size_t liveNets = 0;
};

/// Connectivity: a BFS over on PIPs from each expected source reaches all
/// of its sinks, the fabric holds exactly one live net per expected
/// source, and no torn-down source drives an on PIP. Fills `quality`.
void checkConnectivity(const Fabric& f, const Expected& exp, CheckResult& r);

/// No contention (paper section 3.4): no node has two on incoming PIPs and
/// every on PIP joins two nodes of the same net. Also counts the on PIPs.
void checkContention(const Fabric& f, CheckResult& r);

/// PIP bits set in the configuration bitstream, read slot by slot through
/// the PIP table, must equal the on PIPs counted by checkContention.
void checkBitstreamTotal(const Fabric& f, CheckResult& r);

/// All three checks.
CheckResult checkAll(const Fabric& f, const Expected& exp);

/// All three checks after a full teardown, which must also leave both PIP
/// totals at 0.
CheckResult checkTornDown(const Fabric& f, const Expected& exp);

}  // namespace perfbench
