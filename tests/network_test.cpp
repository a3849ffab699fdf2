//===- network_test.cpp - NetworkModel topologies and conservation --------===//
//
// Part of the earthcc project.
//
// The pluggable interconnect layer (earth/NetworkModel.h): parsing and
// diagnostics, the ideal model's equivalence to the historical
// constant-latency arithmetic, and — for every routed topology — traffic
// conservation: the words each link carried must equal the pair matrix of
// injected transfers pushed through route(), and the profiler's network
// view must agree with its per-site totals. A golden
// pins every link's statistics of one real workload per routed topology;
// after an intentional change to the network model, regenerate it with
//
//   EARTHCC_REGEN_GOLDEN=1 ./build/tests/network_test
//
//===----------------------------------------------------------------------===//

#include "driver/ProfileReport.h"
#include "earth/NetworkModel.h"
#include "support/CommProfiler.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>

#ifndef EARTHCC_GOLDEN_DIR
#error "EARTHCC_GOLDEN_DIR must point at tests/golden"
#endif

using namespace earthcc;

namespace {

std::string goldenPath() {
  return std::string(EARTHCC_GOLDEN_DIR) + "/network_links.json";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(NetworkParseTest, NamesRoundTrip) {
  for (Topology T : {Topology::Ideal, Topology::Bus, Topology::Mesh2D,
                     Topology::Torus2D, Topology::FatTree}) {
    Topology Out = Topology::Ideal;
    EXPECT_TRUE(parseTopology(topologyName(T), Out)) << topologyName(T);
    EXPECT_EQ(Out, T);
    // Every name is listed in the choices string the diagnostics print.
    EXPECT_NE(std::string(topologyChoices()).find(topologyName(T)),
              std::string::npos);
  }
  Topology T = Topology::Ideal;
  EXPECT_FALSE(parseTopology("hypercube", T));
  EXPECT_FALSE(parseTopology("", T));
}

TEST(IdealNetworkTest, MatchesHistoricalArithmetic) {
  const CostModel &C = EarthMannaCosts;
  auto Net = createNetworkModel(Topology::Ideal, 4);
  EXPECT_EQ(Net->topology(), Topology::Ideal);
  EXPECT_EQ(Net->numNodes(), 4u);
  // Constant latency, load- and size-independent.
  EXPECT_DOUBLE_EQ(Net->transferDone(0, 1, 0, 1000.0), 1000.0 + C.NetDelay);
  EXPECT_DOUBLE_EQ(Net->transferDone(3, 2, 999, 1000.0), 1000.0 + C.NetDelay);
  // No links, no pair matrix: the profiler's json stays in the v1 shape.
  EXPECT_TRUE(Net->linkStats().empty());
  EXPECT_EQ(Net->transferWords(), nullptr);
  EXPECT_TRUE(Net->route(0, 1).empty());
  // transaction() reproduces the engines' historical inline formula.
  NetTransaction Tx = Net->transaction(2000.0, 0, 1, C.SUReadService, 0.0,
                                       /*FwdWords=*/0, /*BackWords=*/1);
  double Arrival = 2000.0 + C.NetDelay;
  EXPECT_DOUBLE_EQ(Tx.SuStart, Arrival); // idle SU starts at arrival
  EXPECT_DOUBLE_EQ(Tx.SuEnd, Arrival + C.SUReadService);
  EXPECT_DOUBLE_EQ(Tx.DoneAt, Tx.SuEnd + C.NetDelay);
  // The SU FIFO serializes: a second transaction arriving earlier than the
  // first one's service end queues behind it.
  NetTransaction Tx2 = Net->transaction(2000.0, 2, 1, C.SUReadService, 0.0,
                                        0, 1);
  EXPECT_DOUBLE_EQ(Tx2.SuStart, Tx.SuEnd);
}

TEST(RoutedNetworkTest, BusSerializesTransfers) {
  const CostModel &C = EarthMannaCosts;
  auto Net = createNetworkModel(Topology::Bus, 4);
  // First transfer: departs immediately, holds the bus NetDelay + 2 words.
  double D1 = Net->transferDone(0, 1, 2, 1000.0);
  EXPECT_DOUBLE_EQ(D1, 1000.0 + C.NetDelay + 2 * C.PerWord);
  // Second transfer issued during the first one's occupancy queues.
  double D2 = Net->transferDone(2, 3, 2, 1000.0);
  EXPECT_DOUBLE_EQ(D2, D1 + C.NetDelay + 2 * C.PerWord);
  // Local delivery never touches the bus.
  EXPECT_DOUBLE_EQ(Net->transferDone(1, 1, 50, 5000.0), 5000.0);
  std::vector<NetLinkStats> Links = Net->linkStats();
  ASSERT_EQ(Links.size(), 1u);
  EXPECT_EQ(Links[0].Name, "bus");
  EXPECT_EQ(Links[0].Msgs, 2u);
  EXPECT_EQ(Links[0].Words, 4u);
  EXPECT_EQ(Links[0].MaxQueueDepth, 2u);
}

TEST(RoutedNetworkTest, GridRoutesAreMinimal) {
  // 2x2 mesh: opposite corners are 2 hops apart.
  auto Mesh = createNetworkModel(Topology::Mesh2D, 4);
  EXPECT_EQ(Mesh->route(0, 3).size(), 2u);
  EXPECT_EQ(Mesh->route(0, 1).size(), 1u);
  EXPECT_TRUE(Mesh->route(2, 2).empty());
  // 4x4 mesh: 0 -> 15 is a 6-hop manhattan walk; the torus wraps it in 2.
  auto Mesh16 = createNetworkModel(Topology::Mesh2D, 16);
  EXPECT_EQ(Mesh16->route(0, 15).size(), 6u);
  auto Torus16 = createNetworkModel(Topology::Torus2D, 16);
  EXPECT_EQ(Torus16->route(0, 15).size(), 2u);
  EXPECT_EQ(Torus16->route(0, 3).size(), 1u); // wraparound beats 3 forward
}

TEST(RoutedNetworkTest, FatTreeRoutesClimbToLca) {
  auto Net = createNetworkModel(Topology::FatTree, 16);
  // Siblings under one level-1 switch: one up, one down.
  EXPECT_EQ(Net->route(0, 3).size(), 2u);
  // Different level-1 switches: climb to the root and back.
  EXPECT_EQ(Net->route(0, 15).size(), 4u);
}

// The core conservation property: for every routed topology and machine
// size (including non-square and non-power-of-4 node counts), the per-link
// word totals must equal the injected pair matrix pushed through route().
TEST(RoutedNetworkTest, TrafficConservation) {
  for (Topology Topo : {Topology::Bus, Topology::Mesh2D, Topology::Torus2D,
                        Topology::FatTree}) {
    for (unsigned N : {2u, 4u, 7u, 16u}) {
      auto Net = createNetworkModel(Topo, N);
      std::vector<uint64_t> ExpectWords(size_t(N) * N, 0);
      std::vector<uint64_t> ExpectMsgs(size_t(N) * N, 0);
      // Deterministic pseudo-random transfer pattern (LCG).
      uint64_t Seed = 12345;
      double T = 0.0;
      for (int I = 0; I != 500; ++I) {
        Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
        unsigned From = (Seed >> 33) % N;
        unsigned To = (Seed >> 13) % N;
        uint64_t Words = (Seed >> 50) % 9;
        T += 100.0;
        double Done = Net->transferDone(From, To, Words, T);
        EXPECT_GE(Done, T);
        if (From != To) {
          ExpectWords[size_t(From) * N + To] += Words;
          ExpectMsgs[size_t(From) * N + To] += 1;
        }
      }
      std::string What = std::string(topologyName(Topo)) + "/" +
                         std::to_string(N) + "n";
      // Injected pair matrix == what the model recorded.
      const std::vector<uint64_t> *PW = Net->transferWords();
      ASSERT_NE(PW, nullptr) << What;
      EXPECT_EQ(*PW, ExpectWords) << What;
      // Push the pair matrix through route() and compare per link: every
      // word injected for (From, To) crosses exactly the links of its
      // route, and nothing else.
      std::vector<NetLinkStats> Links = Net->linkStats();
      std::vector<uint64_t> LinkWords(Links.size(), 0);
      std::vector<uint64_t> LinkMsgs(Links.size(), 0);
      for (unsigned From = 0; From != N; ++From)
        for (unsigned To = 0; To != N; ++To)
          for (unsigned L : Net->route(From, To)) {
            ASSERT_LT(L, Links.size()) << What;
            LinkWords[L] += ExpectWords[size_t(From) * N + To];
            LinkMsgs[L] += ExpectMsgs[size_t(From) * N + To];
          }
      for (size_t L = 0; L != Links.size(); ++L) {
        EXPECT_EQ(Links[L].Words, LinkWords[L])
            << What << " link " << Links[L].Name;
        EXPECT_EQ(Links[L].Msgs, LinkMsgs[L])
            << What << " link " << Links[L].Name;
      }
    }
  }
}

// End-to-end conservation through a real workload: the profiler's network
// pair matrix must total exactly the remote words its per-site rows and its
// traffic matrix record, and the per-link totals must re-derive from the
// pair matrix over a fresh identical model's routes.
TEST(NetworkIntegrationTest, ProfilerConservation) {
  const Workload *W = findWorkload("power");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->smallSource());
  ASSERT_TRUE(CR.OK) << CR.Messages;

  MachineConfig MC = workloadMachine(RunMode::Optimized, 4);
  MC.Topo = Topology::Torus2D;
  CommProfiler Prof;
  MC.Profiler = &Prof;
  RunResult R = P.run(*CR.M, MC);
  ASSERT_TRUE(R.OK) << R.Error;

  EXPECT_EQ(Prof.netTopology(), "torus2d");
  EXPECT_FALSE(Prof.netLinks().empty());
  EXPECT_DOUBLE_EQ(Prof.netEndTimeNs(), R.TimeNs);
  ASSERT_EQ(Prof.netPairWords().size(), size_t(16));

  // Total words injected into the network == total remote words across the
  // profiler's traffic matrix == total remote words across its site rows.
  // (recordLocal never reaches the network, and both sides count a read's
  // payload once.)
  uint64_t NetTotal = std::accumulate(Prof.netPairWords().begin(),
                                      Prof.netPairWords().end(), uint64_t(0));
  uint64_t TrafficTotal = 0;
  for (unsigned F = 0; F != 4; ++F)
    for (unsigned T = 0; T != 4; ++T)
      TrafficTotal += Prof.trafficWords(F, T);
  uint64_t SiteTotal = 0;
  for (unsigned S = 0; S != Prof.numSites(); ++S)
    SiteTotal += Prof.site(S).Words;
  EXPECT_GT(NetTotal, 0u);
  EXPECT_EQ(NetTotal, TrafficTotal);
  EXPECT_EQ(NetTotal, SiteTotal);

  // Per-link words re-derive from the pair matrix over a fresh identical
  // model (route() is a pure function of the topology).
  auto Fresh = createNetworkModel(Topology::Torus2D, 4);
  std::vector<uint64_t> LinkWords(Prof.netLinks().size(), 0);
  for (unsigned F = 0; F != 4; ++F)
    for (unsigned T = 0; T != 4; ++T)
      for (unsigned L : Fresh->route(F, T)) {
        ASSERT_LT(L, LinkWords.size());
        LinkWords[L] += Prof.netPairWords()[size_t(F) * 4 + T];
      }
  for (size_t L = 0; L != Prof.netLinks().size(); ++L)
    EXPECT_EQ(Prof.netLinks()[L].Words, LinkWords[L])
        << "link " << Prof.netLinks()[L].Name;

  // The profiler carries the network view on a routed topology...
  EXPECT_EQ(Prof.netTopology(), "torus2d");
  EXPECT_FALSE(Prof.netLinks().empty());

  // ...and stays in the historical shape at ideal (same run, same profiler
  // instance reused — beginRun clears the network view).
  MachineConfig Ideal = workloadMachine(RunMode::Optimized, 4);
  Ideal.Profiler = &Prof;
  RunResult RI = P.run(*CR.M, Ideal);
  ASSERT_TRUE(RI.OK) << RI.Error;
  EXPECT_TRUE(Prof.netLinks().empty());
  EXPECT_EQ(Prof.netTopology(), "ideal");

  // Contention is real: the same program takes strictly longer on the bus
  // than on the ideal network.
  MachineConfig Bus = workloadMachine(RunMode::Optimized, 4);
  Bus.Topo = Topology::Bus;
  RunResult RB = P.run(*CR.M, Bus);
  ASSERT_TRUE(RB.OK) << RB.Error;
  EXPECT_GT(RB.TimeNs, RI.TimeNs);
}

// Per-link statistics of a real run, pinned: optimized tsp at 16 nodes on
// every routed topology, as `earthcc --workload tsp --nodes 16 --topology T
// --profile=json` reports them. The golden holds each run's time_ns and the
// profile's "network" block (every link's msgs, words, busy_ns, utilization
// and max_queue_depth), one link per line. Engine traffic issues transfers
// out of time order (a reply leg leaves at its future SU completion), which
// the synthetic patterns above never do, so this is what pins the link
// queues' drain order.
TEST(NetworkGoldenTest, TspLinkStatistics) {
  const Workload *W = findWorkload("tsp");
  ASSERT_NE(W, nullptr);
  Pipeline P(workloadOptions(RunMode::Optimized));
  CompileResult CR = P.compile(W->Source);
  ASSERT_TRUE(CR.OK) << CR.Messages;

  const Topology Topos[] = {Topology::Bus, Topology::Mesh2D,
                            Topology::Torus2D, Topology::FatTree};
  std::string Text = "{\n";
  for (size_t T = 0; T != std::size(Topos); ++T) {
    MachineConfig MC = workloadMachine(RunMode::Optimized, 16);
    MC.Topo = Topos[T];
    CommProfiler Prof;
    MC.Profiler = &Prof;
    RunResult R = P.run(*CR.M, MC);
    ASSERT_TRUE(R.OK) << topologyName(Topos[T]) << ": " << R.Error;
    json::Value Profile;
    std::string Err;
    ASSERT_TRUE(json::parse(profileReportJson(*CR.M, Prof, nullptr), Profile,
                            Err))
        << Err;
    const json::Value *Net = Profile.find("network");
    ASSERT_NE(Net, nullptr) << topologyName(Topos[T]);
    const json::Value *Links = Net->find("links");
    ASSERT_NE(Links, nullptr) << topologyName(Topos[T]);
    Text += "\"" + std::string(topologyName(Topos[T])) +
            "\":{\"time_ns\":" + json::Value::number(R.TimeNs).str() +
            ",\"network\":{\"topology\":" + Net->find("topology")->str() +
            ",\"end_ns\":" + Net->find("end_ns")->str() + ",\"links\":[\n";
    for (size_t L = 0; L != Links->items().size(); ++L)
      Text += Links->items()[L].str() +
              (L + 1 != Links->items().size() ? ",\n" : "\n");
    Text += std::string("]}}") + (T + 1 != std::size(Topos) ? ",\n" : "\n");
  }
  Text += "}\n";

  if (std::getenv("EARTHCC_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath());
    ASSERT_TRUE(Out) << "cannot write " << goldenPath();
    Out << Text;
    GTEST_SKIP() << "regenerated " << goldenPath();
  }
  std::string Golden = readFile(goldenPath());
  ASSERT_FALSE(Golden.empty())
      << "missing golden file " << goldenPath()
      << " (regenerate with EARTHCC_REGEN_GOLDEN=1)";
  EXPECT_EQ(Text, Golden)
      << "link statistics diverged from the golden; if the network model "
         "changed intentionally, regenerate with EARTHCC_REGEN_GOLDEN=1";
}
