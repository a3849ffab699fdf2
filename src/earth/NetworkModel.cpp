//===- NetworkModel.cpp - Pluggable interconnect model for earthsim -------===//
//
// Part of the earthcc project.
//
// Topology implementations. The routed models (bus, mesh2d, torus2d,
// fattree) share one store-and-forward core: a transfer occupies each link
// of its route in order, each link is a FIFO server in simulated time
// (`FreeAt` clock), and occupancy is HopNs + Words * WordNs per link (from
// the machine's calibration: RoutedHopNs, or NetDelay for the bus, and
// PerWord, halved per fat-tree level). Each
// topology defines its routing once, as a walk that visits the route's
// links in place: transferDone() applies a hop at every link it visits, and
// route() collects the same walk for the conservation tests. A transfer
// therefore allocates nothing, and no per-pair route table exists (at
// MaxSimNodes one would hold tens of MiB of link indices). The per-link
// `Busy` ring tracks departures that have not yet drained so peak queue
// depth is observable; `PairWords` records every injected transfer for the
// conservation tests (per-link words summed over routes must equal the
// re-routed pair matrix).
//
//===----------------------------------------------------------------------===//

#include "earth/NetworkModel.h"

#include <cassert>
#include <cmath>
#include <string>

namespace earthcc {

NetworkModel::~NetworkModel() = default;

const char *topologyName(Topology T) {
  switch (T) {
  case Topology::Ideal:
    return "ideal";
  case Topology::Bus:
    return "bus";
  case Topology::Mesh2D:
    return "mesh2d";
  case Topology::Torus2D:
    return "torus2d";
  case Topology::FatTree:
    return "fattree";
  }
  return "?";
}

const char *topologyChoices() { return "ideal|bus|mesh2d|torus2d|fattree"; }

bool parseTopology(std::string_view V, Topology &Out) {
  if (V == "ideal")
    Out = Topology::Ideal;
  else if (V == "bus")
    Out = Topology::Bus;
  else if (V == "mesh2d")
    Out = Topology::Mesh2D;
  else if (V == "torus2d")
    Out = Topology::Torus2D;
  else if (V == "fattree")
    Out = Topology::FatTree;
  else
    return false;
  return true;
}

namespace {

/// The paper's EARTH-MANNA abstraction: every crossing costs exactly
/// NetDelay, independent of load. transaction() then reproduces the
/// historical inline arithmetic bit for bit:
///   Arrival = IssueEnd + NetDelay
///   SuEnd   = max(SUClock[To], Arrival) + Service + PerWord * Extra
///   DoneAt  = SuEnd + NetDelay
class IdealNetwork final : public NetworkModel {
public:
  explicit IdealNetwork(unsigned NumNodes)
      : NetworkModel(Topology::Ideal, NumNodes) {}

  double transferDone(unsigned, unsigned, uint64_t, double IssueTime) override {
    return IssueTime + EarthMannaCosts.NetDelay;
  }
};

/// The departure times of the transfers still occupying one link, oldest
/// first. A ring buffer: pops from the front and pushes at the back in
/// exactly the order a deque would, grows by doubling and never shrinks, so
/// a hop allocates nothing once the ring has reached the link's peak depth.
class DepartureRing {
public:
  bool empty() const { return Count == 0; }
  unsigned size() const { return Count; }
  double front() const { return Buf[Head]; }
  void pop_front() {
    Head = (Head + 1) & Mask;
    --Count;
  }
  void push_back(double T) {
    if (Count == Buf.size())
      grow();
    Buf[(Head + Count) & Mask] = T;
    ++Count;
  }

private:
  void grow() {
    std::vector<double> Bigger(std::max<size_t>(8, Buf.size() * 2));
    for (unsigned I = 0; I != Count; ++I)
      Bigger[I] = Buf[(Head + I) & Mask];
    Buf = std::move(Bigger);
    Mask = static_cast<unsigned>(Buf.size() - 1);
    Head = 0;
  }

  std::vector<double> Buf; ///< Capacity is 0 or a power of two.
  unsigned Mask = 0;
  unsigned Head = 0;
  unsigned Count = 0;
};

/// Shared store-and-forward state for every topology with real links.
class RoutedNetwork : public NetworkModel {
public:
  RoutedNetwork(Topology Topo, unsigned NumNodes)
      : NetworkModel(Topo, NumNodes),
        PairWords(size_t(NumNodes) * NumNodes, 0) {}

  std::vector<NetLinkStats> linkStats() const override {
    std::vector<NetLinkStats> Out;
    Out.reserve(Links.size());
    for (const Link &L : Links)
      Out.push_back({L.Name, L.Msgs, L.Words, L.BusyNs, L.MaxDepth});
    return Out;
  }

  const std::vector<uint64_t> *transferWords() const override {
    return &PairWords;
  }

protected:
  struct Link {
    std::string Name;
    double HopNs = 0.0;
    double WordNs = 0.0;
    double FreeAt = 0.0;
    uint64_t Msgs = 0;
    uint64_t Words = 0;
    double BusyNs = 0.0;
    unsigned MaxDepth = 0;
    DepartureRing Busy; ///< Departure times not yet in the past.
  };

  unsigned addLink(std::string Name, double HopNs, double WordNs) {
    Link L;
    L.Name = std::move(Name);
    L.HopNs = HopNs;
    L.WordNs = WordNs;
    Links.push_back(std::move(L));
    return static_cast<unsigned>(Links.size() - 1);
  }

  /// A \p Words-word transfer crosses link \p Idx, reaching it at \p T;
  /// returns when it has left the link.
  double hop(unsigned Idx, uint64_t Words, double T) {
    Link &L = Links[Idx];
    // Drain transfers that have already left the link by time T, then
    // queue behind whatever is still occupying it (FIFO in simulated
    // time — this is where contention serializes).
    while (!L.Busy.empty() && L.Busy.front() <= T)
      L.Busy.pop_front();
    double Depart = std::max(T, L.FreeAt);
    double Hold = L.HopNs + L.WordNs * static_cast<double>(Words);
    L.FreeAt = Depart + Hold;
    L.Busy.push_back(L.FreeAt);
    L.MaxDepth = std::max(L.MaxDepth, L.Busy.size());
    ++L.Msgs;
    L.Words += Words;
    L.BusyNs += Hold;
    return Depart + Hold;
  }

  std::vector<Link> Links;
  std::vector<uint64_t> PairWords;
};

/// transferDone() and route() of topology \p Shape, both from its one
/// routing definition: `Shape::walk(From, To, Visit)` calls `Visit(Idx)` for
/// each link index of the route From -> To (From != To), in order, without
/// materializing the route.
template <typename Shape> class Routed : public RoutedNetwork {
public:
  using RoutedNetwork::RoutedNetwork;

  double transferDone(unsigned From, unsigned To, uint64_t Words,
                      double IssueTime) final {
    if (From == To) // local delivery never touches the network
      return IssueTime;
    PairWords[size_t(From) * numNodes() + To] += Words;
    double T = IssueTime;
    static_cast<const Shape *>(this)->walk(
        From, To, [&](unsigned Idx) { T = hop(Idx, Words, T); });
    return T;
  }

  std::vector<unsigned> route(unsigned From, unsigned To) const final {
    std::vector<unsigned> Out;
    if (From != To)
      static_cast<const Shape *>(this)->walk(
          From, To, [&](unsigned Idx) { Out.push_back(Idx); });
    return Out;
  }
};

/// One shared medium: every remote transfer serializes through the same
/// link. Its hop is the full NetDelay (one "hop" spans the machine), so an
/// uncontended bus behaves exactly like the ideal network plus bandwidth.
class BusNetwork final : public Routed<BusNetwork> {
public:
  explicit BusNetwork(unsigned NumNodes) : Routed(Topology::Bus, NumNodes) {
    addLink("bus", EarthMannaCosts.NetDelay, EarthMannaCosts.PerWord);
  }

  template <typename Visit> void walk(unsigned, unsigned, Visit &&V) const {
    V(0u);
  }
};

/// 2-D grid (mesh) or rings (torus) over a Side x Rows arrangement where
/// Side = ceil(sqrt(N)) and the last row may be partial. Node n sits at
/// (x, y) = (n % Side, n / Side). Dimension-ordered routing; the order is
/// X-then-Y when y1 <= y2 and Y-then-X otherwise, which provably keeps
/// every intermediate node inside the (possibly partial) grid.
class GridNetwork final : public Routed<GridNetwork> {
public:
  GridNetwork(Topology Topo, unsigned NumNodes)
      : Routed(Topo, NumNodes), Wrap(Topo == Topology::Torus2D),
        Side(gridSide(NumNodes)), Rows((NumNodes + Side - 1) / Side) {
    // Directed link n -> m for every neighboring pair; the torus adds the
    // wraparound edges of each full-length ring (a 2-ring's wrap edge would
    // duplicate the direct one, so it is skipped).
    auto Key = [this](unsigned A, unsigned B) {
      return size_t(A) * numNodes() + B;
    };
    LinkAt.assign(size_t(numNodes()) * numNodes(), -1);
    auto Connect = [&](unsigned A, unsigned B) {
      if (LinkAt[Key(A, B)] >= 0)
        return;
      LinkAt[Key(A, B)] = static_cast<int>(
          addLink("n" + std::to_string(A) + "->" + std::to_string(B),
                  RoutedHopNs, EarthMannaCosts.PerWord));
    };
    for (unsigned N = 0; N != numNodes(); ++N) {
      unsigned X = N % Side, Y = N / Side;
      unsigned RowLen = rowLen(Y), ColLen = colLen(X);
      if (X + 1 < RowLen) {
        Connect(N, N + 1);
        Connect(N + 1, N);
      }
      if (Y + 1 < ColLen) {
        Connect(N, N + Side);
        Connect(N + Side, N);
      }
      if (Wrap && X == 0 && RowLen > 2) {
        Connect(N, N + RowLen - 1);
        Connect(N + RowLen - 1, N);
      }
      if (Wrap && Y == 0 && ColLen > 2) {
        Connect(N, N + (ColLen - 1) * Side);
        Connect(N + (ColLen - 1) * Side, N);
      }
    }
  }

  template <typename Visit>
  void walk(unsigned From, unsigned To, Visit &&V) const {
    unsigned Y1 = From / Side;
    unsigned X2 = To % Side, Y2 = To / Side;
    unsigned Cur = From;
    auto Step = [&](unsigned Next) {
      int L = LinkAt[size_t(Cur) * numNodes() + Next];
      assert(L >= 0 && "route stepped over a missing link");
      V(static_cast<unsigned>(L));
      Cur = Next;
    };
    auto WalkX = [&](unsigned TargetX) {
      unsigned Y = Cur / Side;
      unsigned L = rowLen(Y);
      while (Cur % Side != TargetX)
        Step(Y * Side + ringStep(Cur % Side, TargetX, L));
    };
    auto WalkY = [&](unsigned TargetY) {
      unsigned X = Cur % Side;
      unsigned L = colLen(X);
      while (Cur / Side != TargetY)
        Step(ringStep(Cur / Side, TargetY, L) * Side + X);
    };
    // The corner (X2, Y1) exists whenever Y1 <= Y2 (its id is bounded by
    // To's), and (X1, Y2) exists otherwise — pick the order accordingly.
    if (Y1 <= Y2) {
      WalkX(X2);
      WalkY(Y2);
    } else {
      WalkY(Y2);
      WalkX(X2);
    }
  }

private:
  static unsigned gridSide(unsigned N) {
    unsigned S = static_cast<unsigned>(std::ceil(std::sqrt(double(N))));
    return std::max(1u, S);
  }
  /// Length of row \p Y (the last row may be partial).
  unsigned rowLen(unsigned Y) const {
    return std::min(Side, numNodes() - Y * Side);
  }
  /// Height of column \p X (short by one when the last row stops before X).
  unsigned colLen(unsigned X) const {
    return Rows - (X >= rowLen(Rows - 1) ? 1 : 0);
  }
  /// Next coordinate from \p Cur toward \p Target on a line (mesh) or ring
  /// (torus) of length \p Len; the torus takes the shorter way around,
  /// breaking ties toward increasing coordinates.
  unsigned ringStep(unsigned Cur, unsigned Target, unsigned Len) const {
    if (!Wrap || Len <= 2)
      return Target > Cur ? Cur + 1 : Cur - 1;
    unsigned Fwd = (Target + Len - Cur) % Len;
    unsigned Bwd = (Cur + Len - Target) % Len;
    if (Fwd <= Bwd)
      return (Cur + 1) % Len;
    return (Cur + Len - 1) % Len;
  }

  bool Wrap;
  unsigned Side;
  unsigned Rows;
  std::vector<int> LinkAt; ///< Directed neighbor link index, -1 if absent.
};

/// Arity-4 fat tree: leaves are the nodes; the switch above leaf n at
/// level l is n / 4^l. A transfer climbs up-links to the lowest common
/// ancestor, then descends down-links. Each level's links halve the per-word
/// cost (double the bandwidth) relative to the one below — the "fat" part.
class FatTreeNetwork final : public Routed<FatTreeNetwork> {
public:
  explicit FatTreeNetwork(unsigned NumNodes)
      : Routed(Topology::FatTree, NumNodes) {
    unsigned Entities = NumNodes; // entities at the level below the switches
    for (unsigned Level = 1; Entities > 1; ++Level) {
      double LevelWordNs = EarthMannaCosts.PerWord / double(1u << (Level - 1));
      UpBase.push_back(static_cast<unsigned>(Links.size()));
      for (unsigned Child = 0; Child != Entities; ++Child)
        addLink("up" + std::to_string(Level) + "." + std::to_string(Child),
                RoutedHopNs, LevelWordNs);
      DownBase.push_back(static_cast<unsigned>(Links.size()));
      for (unsigned Child = 0; Child != Entities; ++Child)
        addLink("dn" + std::to_string(Level) + "." + std::to_string(Child),
                RoutedHopNs, LevelWordNs);
      Entities = (Entities + 3) / 4;
    }
  }

  template <typename Visit>
  void walk(unsigned From, unsigned To, Visit &&V) const {
    // Lowest common ancestor level: smallest l with From/4^l == To/4^l.
    unsigned Lca = 0;
    for (unsigned A = From, B = To; A != B; A >>= 2, B >>= 2)
      ++Lca;
    for (unsigned L = 1; L <= Lca; ++L)
      V(UpBase[L - 1] + (From >> (2 * (L - 1))));
    for (unsigned L = Lca; L >= 1; --L)
      V(DownBase[L - 1] + (To >> (2 * (L - 1))));
  }

private:
  std::vector<unsigned> UpBase;   ///< First up-link index per level.
  std::vector<unsigned> DownBase; ///< First down-link index per level.
};

} // namespace

std::unique_ptr<NetworkModel> createNetworkModel(Topology Topo,
                                                 unsigned NumNodes) {
  switch (Topo) {
  case Topology::Ideal:
    return std::make_unique<IdealNetwork>(NumNodes);
  case Topology::Bus:
    return std::make_unique<BusNetwork>(NumNodes);
  case Topology::Mesh2D:
  case Topology::Torus2D:
    return std::make_unique<GridNetwork>(Topo, NumNodes);
  case Topology::FatTree:
    return std::make_unique<FatTreeNetwork>(NumNodes);
  }
  return std::make_unique<IdealNetwork>(NumNodes);
}

} // namespace earthcc
