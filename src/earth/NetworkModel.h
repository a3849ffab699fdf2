//===- NetworkModel.h - Pluggable interconnect model for earthsim ---------===//
//
// Part of the earthcc project.
//
// The machine model's network layer. Every latency an engine charges for
// crossing the interconnect — remote reads/writes/blkmovs, atomics, fiber
// migration — flows through one interface, transferDone(), so the AST
// walker and the bytecode engine share a single source of truth for the
// arithmetic and the topology is a pluggable run-time choice:
//
//   ideal    — the paper's EARTH-MANNA abstraction: a constant NetDelay per
//              crossing, no contention. Bit-identical to the historical
//              inline arithmetic; the engine-equivalence sweep pins it.
//   bus      — one shared medium serializing every transfer (FIFO occupancy
//              in simulated time).
//   mesh2d   — 2-D grid, dimension-ordered routing, hop latency plus
//              per-link FIFO bandwidth queues.
//   torus2d  — mesh2d with wraparound rings (shortest direction).
//   fattree  — arity-4 tree whose uplinks double in bandwidth per level.
//
// Every link runs on the machine's one calibration (earth/CostModel.h): a
// routed hop costs RoutedHopNs and a word costs PerWord, the bus crossing
// costs NetDelay. Unlike the engine knob, the topology CHANGES simulated
// results, so it is request-key material (driver/Request.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_EARTH_NETWORKMODEL_H
#define EARTHCC_EARTH_NETWORKMODEL_H

#include "earth/CostModel.h"
#include "support/CommProfiler.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace earthcc {

/// Interconnect shape of the simulated machine.
enum class Topology { Ideal, Bus, Mesh2D, Torus2D, FatTree };

/// Hard ceiling on --nodes: keeps per-pair matrices and link tables at a
/// sane size (1024 nodes = 8 MiB of pair counters) and turns typo-sized
/// requests into a diagnostic instead of an allocation storm.
inline constexpr unsigned MaxSimNodes = 1024;

const char *topologyName(Topology T);
const char *topologyChoices(); // "ideal|bus|mesh2d|torus2d|fattree"
bool parseTopology(std::string_view V, Topology &Out);

/// Per-hop link latency of the routed topologies (mesh2d, torus2d, fattree)
/// in simulated ns; the bus charges a full NetDelay per crossing instead.
inline constexpr double RoutedHopNs = 450.0;

/// Timing of one split-phase SU transaction as computed by
/// NetworkModel::transaction().
struct NetTransaction {
  double SuStart; ///< Remote SU begins servicing the request.
  double SuEnd;   ///< Remote SU done (its FIFO clock advances to here).
  double DoneAt;  ///< Reply back at the requesting node.
};

/// Abstract interconnect. Owns the per-node SU FIFO clocks (previously a
/// member of each engine) plus whatever per-link state the topology needs.
/// All state advances in *simulated* time only; models are deterministic.
class NetworkModel {
public:
  virtual ~NetworkModel();

  Topology topology() const { return Topo; }
  unsigned numNodes() const { return static_cast<unsigned>(SUClock.size()); }

  /// When a message of \p Words payload words injected at \p From at
  /// simulated time \p IssueTime is fully delivered at \p To. Mutates link
  /// occupancy state, so calls must be made in the engine's event order.
  virtual double transferDone(unsigned From, unsigned To, uint64_t Words,
                              double IssueTime) = 0;

  /// One full split-phase remote transaction: request travels From -> To
  /// (\p FwdWords payload), the target SU services it FIFO (\p Service plus
  /// PerWord * \p ExtraWords), and the reply travels back (\p BackWords).
  /// THE single source of truth for the latency arithmetic both engines
  /// used to duplicate inline.
  NetTransaction transaction(double IssueEnd, unsigned From, unsigned To,
                             double Service, double ExtraWords,
                             uint64_t FwdWords, uint64_t BackWords) {
    double Arrival = transferDone(From, To, FwdWords, IssueEnd);
    double SuStart = std::max(SUClock[To], Arrival);
    double SuEnd = SuStart + Service + EarthMannaCosts.PerWord * ExtraWords;
    SUClock[To] = SuEnd;
    double DoneAt = transferDone(To, From, BackWords, SuEnd);
    return {SuStart, SuEnd, DoneAt};
  }

  /// Per-link occupancy statistics (empty for the ideal network, which has
  /// no links to contend for).
  virtual std::vector<NetLinkStats> linkStats() const { return {}; }

  /// The directed link indices a transfer From -> To traverses, in order
  /// (empty for the ideal network). Pure — exposed so conservation tests
  /// can re-route the pair matrix over a fresh identical model. It collects
  /// the same route walk transferDone() makes in place.
  virtual std::vector<unsigned> route(unsigned /*From*/,
                                      unsigned /*To*/) const {
    return {};
  }

  /// NumNodes x NumNodes matrix (row = source) of payload words injected,
  /// or nullptr for the ideal network.
  virtual const std::vector<uint64_t> *transferWords() const {
    return nullptr;
  }

protected:
  NetworkModel(Topology Topo, unsigned NumNodes)
      : Topo(Topo), SUClock(NumNodes, 0.0) {}

  Topology Topo;
  std::vector<double> SUClock; ///< Per-node SU FIFO clock (simulated ns).
};

/// Builds the model for \p Topo over \p NumNodes nodes.
std::unique_ptr<NetworkModel> createNetworkModel(Topology Topo,
                                                 unsigned NumNodes);

} // namespace earthcc

#endif // EARTHCC_EARTH_NETWORKMODEL_H
