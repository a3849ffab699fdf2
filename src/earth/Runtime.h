//===- Runtime.h - Simulated EARTH machine state ----------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional state of the simulated EARTH-MANNA machine: a global
/// address space over per-node local memories, runtime values, dynamic
/// operation counters, and machine configuration. Timing lives in the
/// machine both engines run on (interp/Machine.h: EU clocks, the event
/// queue, operation costs) and in earth/NetworkModel.h (SU clocks, links);
/// this file is pure state. The machine's costs are not configuration: every
/// run uses the one calibration in earth/CostModel.h (EarthMannaCosts).
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_EARTH_RUNTIME_H
#define EARTHCC_EARTH_RUNTIME_H

#include "earth/CostModel.h"
#include "earth/NetworkModel.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace earthcc {

class TraceSink;
class CommProfiler;

/// A word address in the global address space: (node, word offset).
struct GlobalAddr {
  int32_t Node = -1;
  uint32_t Offset = 0;

  bool isNull() const { return Node < 0; }
  friend bool operator==(GlobalAddr A, GlobalAddr B) {
    return A.Node == B.Node && A.Offset == B.Offset;
  }
  std::string str() const {
    if (isNull())
      return "null";
    return "n" + std::to_string(Node) + ":" + std::to_string(Offset);
  }
};

/// A dynamically-typed runtime value (one machine word): a one-byte kind
/// and a union of the three payloads, 16 bytes in all, so frame images,
/// heap words and bytecode constants stay small. Only the field the kind
/// selects carries meaning. A read that does not check the kind first goes
/// through asInt(), which returns 0 for any other kind: the value the
/// inactive fields held when each payload had storage of its own, which
/// programs observe (a double main exits 0; IR built directly that negates
/// a pointer yields 0, though the frontend rejects `-p`).
struct RtValue {
  enum class Kind : uint8_t { Undef, Int, Dbl, Ptr } K = Kind::Undef;
  union {
    int64_t I;
    double D;
    GlobalAddr P;
  };

  RtValue() : I(0) {}

  static RtValue undef() { return RtValue(); }
  static RtValue makeInt(int64_t V) {
    RtValue R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static RtValue makeDbl(double V) {
    RtValue R;
    R.K = Kind::Dbl;
    R.D = V;
    return R;
  }
  static RtValue makePtr(GlobalAddr A) {
    RtValue R;
    R.K = Kind::Ptr;
    R.P = A;
    return R;
  }

  /// The integer field, or 0 when the value is not an integer.
  int64_t asInt() const { return K == Kind::Int ? I : 0; }

  bool isUndef() const { return K == Kind::Undef; }

  /// Truthiness for conditions: nonzero / non-null.
  bool truthy() const {
    switch (K) {
    case Kind::Undef:
      return false;
    case Kind::Int:
      return I != 0;
    case Kind::Dbl:
      return D != 0.0;
    case Kind::Ptr:
      return !P.isNull();
    }
    return false;
  }

  std::string str() const {
    switch (K) {
    case Kind::Undef:
      return "<undef>";
    case Kind::Int:
      return std::to_string(I);
    case Kind::Dbl: {
      std::string S = std::to_string(D);
      return S;
    }
    case Kind::Ptr:
      return P.str();
    }
    return "<bad>";
  }
};
static_assert(sizeof(RtValue) == 16, "RtValue is a kind byte plus one word");

/// Dynamic counts of EARTH runtime operations, as the paper's Figure 10
/// reports them: read-data, write-data and blkmov operations.
struct OpCounters {
  uint64_t ReadData = 0;
  uint64_t WriteData = 0;
  uint64_t BlkMov = 0;
  uint64_t Atomic = 0;
  uint64_t WordsMoved = 0;   ///< Total words crossing the network.
  uint64_t LocalFallbacks = 0; ///< Remote primitives that hit local memory.
  uint64_t Spawns = 0;
  uint64_t CtxSwitches = 0;

  uint64_t total() const { return ReadData + WriteData + BlkMov; }
};

/// Which execution engine runs the simulation. Both produce bit-identical
/// simulated results (time, counters, traces, errors); they differ only in
/// host-side speed. Bytecode lowers each function once to a flat register
/// bytecode (see interp/Bytecode.h) and is the default; AST walks the
/// statement tree directly and remains as the reference implementation.
enum class ExecEngine { AST, Bytecode };

/// Machine configuration.
struct MachineConfig {
  unsigned NumNodes = 1;
  /// Interconnect topology (see earth/NetworkModel.h). Ideal is the paper's
  /// constant-latency EARTH-MANNA network and the default. Unlike the
  /// Engine knob this CHANGES simulated results, so it is request-key
  /// material in driver/Request.cpp.
  Topology Topo = Topology::Ideal;
  /// Execution engine selection (see ExecEngine). Purely a host-performance
  /// choice; simulated results do not depend on it.
  ExecEngine Engine = ExecEngine::Bytecode;
  /// Sequential mode: every access is a plain local access (no EARTH
  /// primitives at all) — the paper's "Sequential C" baseline.
  bool SequentialMode = false;
  uint64_t MaxSteps = 500'000'000; ///< Interpreter fuel.
  /// EU scheduling quantum in interpreter steps. EARTH threads are fine
  /// grained (split at every remote operation), so a coarse fiber must not
  /// monopolize its node's EU; after this many steps a fiber re-enters the
  /// ready queue behind same-time peers. 0 disables preemption.
  unsigned EUQuantum = 64;
  /// Observability: when set, the interpreter emits a structured event for
  /// every split-phase read/write, blkmov, SU service slice, EU fiber
  /// slice, and sync-slot signal (node- and cycle-attributed). Non-owning;
  /// null means tracing off and costs nothing on the hot path.
  TraceSink *Trace = nullptr;
  /// Per-site communication profiling: when set, both engines accumulate
  /// message counts, words moved, latency histograms and a per-node traffic
  /// matrix keyed by CommSites ids (simulated clock, so the profile is
  /// engine-invariant). Non-owning; null means profiling off
  /// and costs one branch per comm operation.
  CommProfiler *Profiler = nullptr;

  /// The nodes the machine runs on: a sequential run is one node.
  unsigned nodes() const { return SequentialMode ? 1 : NumNodes; }
};

/// Per-node memory plus allocation; the aggregate is the global address
/// space.
class EarthMemory {
public:
  explicit EarthMemory(unsigned NumNodes) : Heaps(NumNodes) {
    // Offset 0 is reserved so that a valid address is never (n, 0) — it
    // keeps "null" distinguishable in diagnostics.
    for (auto &H : Heaps)
      H.resize(1);
  }

  unsigned numNodes() const { return static_cast<unsigned>(Heaps.size()); }

  GlobalAddr allocate(unsigned Node, unsigned Words) {
    assert(Node < Heaps.size() && "allocation on nonexistent node");
    assert(Words > 0 && "zero-sized allocation");
    GlobalAddr A;
    A.Node = static_cast<int32_t>(Node);
    A.Offset = static_cast<uint32_t>(Heaps[Node].size());
    Heaps[Node].resize(Heaps[Node].size() + Words);
    return A;
  }

  bool valid(GlobalAddr A, unsigned Words = 1) const {
    return !A.isNull() && static_cast<size_t>(A.Node) < Heaps.size() &&
           A.Offset + Words <= Heaps[A.Node].size();
  }

  RtValue &word(GlobalAddr A) {
    assert(valid(A) && "bad address");
    return Heaps[A.Node][A.Offset];
  }
  const RtValue &word(GlobalAddr A) const {
    assert(valid(A) && "bad address");
    return Heaps[A.Node][A.Offset];
  }

  /// Total words allocated on \p Node (for distribution diagnostics).
  size_t allocatedWords(unsigned Node) const { return Heaps[Node].size(); }

private:
  std::vector<std::vector<RtValue>> Heaps;
};

} // namespace earthcc

#endif // EARTHCC_EARTH_RUNTIME_H
