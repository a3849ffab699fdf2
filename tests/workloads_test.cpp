//===- workloads_test.cpp - The Olden benchmark suite, end to end ----------===//
//
// Part of the earthcc project.
//
// Parameterized integration tests over all five Olden benchmarks: the
// sequential, simple and optimized versions must compute identical
// checksums at every machine size; the optimization must never increase
// the number of remote operations; runs must be deterministic.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

using namespace earthcc;

namespace {

class WorkloadTest : public ::testing::TestWithParam<std::string> {
protected:
  const Workload &workload() const {
    const Workload *W = findWorkload(GetParam());
    EXPECT_NE(W, nullptr);
    return *W;
  }
};

TEST_P(WorkloadTest, SequentialBaselineRuns) {
  RunResult R = runWorkload(workload(), RunMode::Sequential, 1);
  ASSERT_TRUE(R.OK) << R.Error;
  // The sequential baseline performs no EARTH operations at all.
  EXPECT_EQ(R.Counters.total(), 0u);
  EXPECT_EQ(R.Counters.Atomic, 0u);
}

TEST_P(WorkloadTest, ChecksumsAgreeAcrossAllConfigurations) {
  RunResult Seq = runWorkload(workload(), RunMode::Sequential, 1);
  ASSERT_TRUE(Seq.OK) << Seq.Error;
  for (unsigned Nodes : {1u, 2u, 4u, 8u}) {
    RunResult S = runWorkload(workload(), RunMode::Simple, Nodes);
    RunResult O = runWorkload(workload(), RunMode::Optimized, Nodes);
    ASSERT_TRUE(S.OK) << Nodes << " nodes: " << S.Error;
    ASSERT_TRUE(O.OK) << Nodes << " nodes: " << O.Error;
    EXPECT_EQ(S.ExitValue.I, Seq.ExitValue.I) << Nodes << " nodes (simple)";
    EXPECT_EQ(O.ExitValue.I, Seq.ExitValue.I)
        << Nodes << " nodes (optimized)";
  }
}

TEST_P(WorkloadTest, OptimizationNeverAddsCommunication) {
  RunResult S = runWorkload(workload(), RunMode::Simple, 4);
  RunResult O = runWorkload(workload(), RunMode::Optimized, 4);
  ASSERT_TRUE(S.OK && O.OK) << S.Error << O.Error;
  EXPECT_LT(O.Counters.total(), S.Counters.total())
      << "optimization must reduce total remote operations";
  EXPECT_LE(O.Counters.ReadData, S.Counters.ReadData);
  EXPECT_LE(O.Counters.WriteData, S.Counters.WriteData);
  EXPECT_GT(O.Counters.BlkMov, S.Counters.BlkMov)
      << "blocking should introduce blkmovs";
}

TEST_P(WorkloadTest, DeterministicTimingAndCounts) {
  RunResult A = runWorkload(workload(), RunMode::Optimized, 4);
  RunResult B = runWorkload(workload(), RunMode::Optimized, 4);
  ASSERT_TRUE(A.OK && B.OK);
  EXPECT_EQ(A.ExitValue.I, B.ExitValue.I);
  EXPECT_DOUBLE_EQ(A.TimeNs, B.TimeNs);
  EXPECT_EQ(A.Counters.total(), B.Counters.total());
  EXPECT_EQ(A.StepsExecuted, B.StepsExecuted);
}

TEST_P(WorkloadTest, DataIsDistributedAcrossNodes) {
  RunResult R = runWorkload(workload(), RunMode::Simple, 4);
  ASSERT_TRUE(R.OK) << R.Error;
  ASSERT_EQ(R.WordsPerNode.size(), 4u);
  for (unsigned N = 0; N != 4; ++N)
    EXPECT_GT(R.WordsPerNode[N], 1u)
        << "node " << N << " received no data";
}

TEST_P(WorkloadTest, BlockThresholdSweepKeepsSemantics) {
  RunResult Seq = runWorkload(workload(), RunMode::Sequential, 1);
  ASSERT_TRUE(Seq.OK);
  for (unsigned Threshold : {1u, 2u, 4u, 8u}) {
    CommOptions Comm;
    Comm.BlockThresholdWords = Threshold;
    RunResult O = runWorkload(workload(), RunMode::Optimized, 4, Comm);
    ASSERT_TRUE(O.OK) << "threshold " << Threshold << ": " << O.Error;
    EXPECT_EQ(O.ExitValue.I, Seq.ExitValue.I) << "threshold " << Threshold;
  }
}

TEST_P(WorkloadTest, ComponentKnockoutsKeepSemantics) {
  RunResult Seq = runWorkload(workload(), RunMode::Sequential, 1);
  ASSERT_TRUE(Seq.OK);
  for (int Knockout = 0; Knockout != 4; ++Knockout) {
    CommOptions Comm;
    switch (Knockout) {
    case 0: Comm.EnableReadMotion = false; break;
    case 1: Comm.EnableBlocking = false; break;
    case 2: Comm.EnableWriteBlocking = false; break;
    case 3: Comm.Placement.OptimisticConditionalReads = false; break;
    }
    RunResult O = runWorkload(workload(), RunMode::Optimized, 4, Comm);
    ASSERT_TRUE(O.OK) << "knockout " << Knockout << ": " << O.Error;
    EXPECT_EQ(O.ExitValue.I, Seq.ExitValue.I) << "knockout " << Knockout;
  }
}

INSTANTIATE_TEST_SUITE_P(Olden, WorkloadTest,
                         ::testing::Values("power", "perimeter", "tsp",
                                           "health", "voronoi"),
                         [](const auto &Info) { return Info.param; });

TEST(WorkloadRegistryTest, FiveBenchmarksRegistered) {
  EXPECT_EQ(oldenWorkloads().size(), 5u);
  EXPECT_NE(findWorkload("power"), nullptr);
  EXPECT_EQ(findWorkload("missing"), nullptr);
}

TEST(WorkloadRegistryTest, MetadataIsFilledIn) {
  for (const Workload &W : oldenWorkloads()) {
    EXPECT_FALSE(W.Description.empty()) << W.Name;
    EXPECT_FALSE(W.PaperSize.empty()) << W.Name;
    EXPECT_FALSE(W.OurSize.empty()) << W.Name;
    EXPECT_FALSE(W.Source.empty()) << W.Name;
  }
}

// Table II's "our size" strings are written by hand. Every figure they
// state is computed here from the Full params, so a resize that leaves
// the string behind fails.
TEST(WorkloadRegistryTest, OurSizeStatesTheFullParams) {
  auto Full = [](const char *Name, const char *Param) -> long {
    for (const WorkloadParam &P : findWorkload(Name)->Params)
      if (P.Name == Param)
        return std::stol(P.Full);
    ADD_FAILURE() << Name << " has no param " << Param;
    return -1;
  };
  // N as a whole number (not a digit run inside a longer one).
  auto States = [](const char *Name, long N) {
    const std::string &Text = findWorkload(Name)->OurSize;
    const std::string Digits = std::to_string(N);
    auto DigitAt = [&Text](size_t I) {
      return I < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[I]));
    };
    for (size_t At = Text.find(Digits); At != std::string::npos;
         At = Text.find(Digits, At + 1))
      if ((At == 0 || !DigitAt(At - 1)) && !DigitAt(At + Digits.size()))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << Name << "'s size \"" << Text << "\" does not state " << N;
  };
  auto Pow = [](long B, long E) {
    long R = 1;
    while (E-- > 0)
      R *= B;
    return R;
  };

  EXPECT_TRUE(States("power", Full("power", "feeders")));
  EXPECT_TRUE(States("power", Full("power", "feeders") *
                                  Full("power", "lateral") *
                                  Full("power", "branch") *
                                  Full("power", "leaf")));
  EXPECT_TRUE(States("perimeter", Full("perimeter", "depth")));
  EXPECT_TRUE(States("perimeter", Pow(4, Full("perimeter", "depth"))));
  EXPECT_TRUE(States("tsp", Full("tsp", "depth")));
  // health's build(levels) makes levels + 1 levels of a 4-way tree.
  long HealthLevels = Full("health", "levels") + 1;
  EXPECT_TRUE(States("health", HealthLevels));
  EXPECT_TRUE(States("health", (Pow(4, HealthLevels) - 1) / 3));
  EXPECT_TRUE(States("health", Full("health", "iters")));
  EXPECT_TRUE(States("voronoi", Full("voronoi", "depth")));
  EXPECT_TRUE(States("voronoi", Pow(2, Full("voronoi", "depth")) - 1));
}

} // namespace
