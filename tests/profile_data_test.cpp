//===- profile_data_test.cpp - Profile persistence and diff tests ----------===//
//
// Part of the earthcc project.
//
// The persisted comm-profile contracts (driver/ProfileData.h):
//
//  - Versioning: --profile=json documents carry a schema version; the
//    loader accepts the current one (and version-less pre-versioning
//    documents), and refuses anything newer with a clear message.
//  - Round trip: save(load(S)) == S for the emitted document itself, so
//    profiles can be archived and re-read without drift or lost digits.
//  - Diff: renderProfileDiff joins two profiles by (function, line, col,
//    op) and reports per-site deltas. The opt-on vs opt-off diff for the
//    power workload is pinned as a golden file: the deltas are exactly the
//    savings the optimizer's remarks promise.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/ProfileData.h"
#include "driver/ProfileReport.h"
#include "support/CommProfiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

using namespace earthcc;

#ifndef EARTHCC_GOLDEN_DIR
#error "EARTHCC_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

std::string goldenPath() {
  return std::string(EARTHCC_GOLDEN_DIR) + "/profile_diff_power.txt";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Compiles and runs the power workload at \p Mode on \p Nodes nodes and
/// returns the --profile=json document. Empty string (plus a recorded
/// failure) if anything goes wrong. \p Topo overrides the machine's
/// default topology when given.
std::string profileFor(RunMode Mode, unsigned Nodes,
                       std::optional<Topology> Topo = std::nullopt) {
  const Workload *W = findWorkload("power");
  if (!W) {
    ADD_FAILURE() << "power workload missing";
    return {};
  }
  Pipeline P(workloadOptions(Mode));
  CompileResult CR = P.compile(W->smallSource());
  if (!CR.OK) {
    ADD_FAILURE() << CR.Messages;
    return {};
  }
  CommProfiler Prof;
  MachineConfig MC = workloadMachine(Mode, Nodes);
  if (Topo)
    MC.Topo = *Topo;
  MC.Profiler = &Prof;
  RunResult R = P.run(*CR.M, MC);
  if (!R.OK) {
    ADD_FAILURE() << R.Error;
    return {};
  }
  return profileReportJson(*CR.M, Prof, &CR.Remarks);
}

} // namespace

TEST(ProfileDataTest, VersionGatesUnknownSchemas) {
  ProfileData D;
  std::string Err;

  // The emitter's current version loads.
  EXPECT_TRUE(loadProfileJson(
      "{\"version\":1,\"sites\":[],\"total_msgs\":0,\"traffic_words\":[]}",
      D, Err))
      << Err;
  EXPECT_EQ(D.Version, 1u);

  // A version-less document (pre-versioning emitter) is accepted as v1.
  EXPECT_TRUE(loadProfileJson(
      "{\"sites\":[],\"total_msgs\":0,\"traffic_words\":[]}", D, Err))
      << Err;
  EXPECT_EQ(D.Version, 1u);

  // A newer schema is refused, with the version named in the message.
  EXPECT_FALSE(loadProfileJson(
      "{\"version\":99,\"sites\":[],\"total_msgs\":0,\"traffic_words\":[]}",
      D, Err));
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;

  // Malformed input is an error, not a crash.
  EXPECT_FALSE(loadProfileJson("{\"sites\": [", D, Err));
  EXPECT_FALSE(loadProfileJson("42", D, Err));
}

TEST(ProfileDataTest, OutOfRangeIntegersFailNamingTheField) {
  // Each integer field becomes an integer only when it fits its type; any
  // other number fails the load (casting it would be undefined behaviour).
  auto Site = [](const std::string &Fields) {
    return "{\"version\":1,\"sites\":[{\"function\":\"main\",\"op\":"
           "\"read\"," +
           Fields + "}],\"total_msgs\":0,\"traffic_words\":[]}";
  };
  const std::pair<std::string, const char *> Hostile[] = {
      {Site("\"site\":1e300"), "\"site\""},
      {Site("\"line\":-1"), "\"line\""},
      {Site("\"msgs\":18446744073709551616"), "\"msgs\""},
      {"{\"sites\":[],\"total_msgs\":0,\"traffic_words\":[[1,-2]]}",
       "\"traffic_words\""},
      {"{\"sites\":[],\"network\":{\"links\":[{\"name\":\"l\","
       "\"max_queue_depth\":4294967296}]}}",
       "\"max_queue_depth\""},
  };
  for (const auto &[Doc, Field] : Hostile) {
    ProfileData D;
    std::string Err;
    EXPECT_FALSE(loadProfileJson(Doc, D, Err)) << Doc;
    EXPECT_NE(Err.find(Field), std::string::npos) << Err;
  }

  // In range, the same fields load.
  ProfileData D;
  std::string Err;
  ASSERT_TRUE(loadProfileJson(Site("\"site\":3,\"line\":7,\"msgs\":9"), D,
                              Err))
      << Err;
  EXPECT_EQ(D.Sites[0].Site, 3);
  EXPECT_EQ(D.Sites[0].Line, 7u);
  EXPECT_EQ(D.Sites[0].Msgs, 9u);
}

TEST(ProfileDataTest, EmitterOutputLoadsWithAllFields) {
  std::string Json = profileFor(RunMode::Optimized, 4);
  ASSERT_FALSE(Json.empty());
  EXPECT_NE(Json.find("\"version\":1"), std::string::npos);

  ProfileData D;
  std::string Err;
  ASSERT_TRUE(loadProfileJson(Json, D, Err)) << Err;
  EXPECT_EQ(D.Version, 1u);
  ASSERT_FALSE(D.Sites.empty());
  EXPECT_GT(D.TotalMsgs, 0u);
  ASSERT_EQ(D.TrafficWords.size(), 4u); // one row per node
  for (const auto &Row : D.TrafficWords)
    EXPECT_EQ(Row.size(), 4u);
  for (const ProfileSiteRow &S : D.Sites) {
    EXPECT_FALSE(S.Function.empty());
    EXPECT_FALSE(S.Op.empty());
  }
}

TEST(ProfileDataTest, SaveLoadIsByteStable) {
  for (Topology Topo : {Topology::Ideal, Topology::Torus2D}) {
    std::string Json = profileFor(RunMode::Optimized, 4, Topo);
    ASSERT_FALSE(Json.empty());

    // The emitted document is already canonical: loading and saving it
    // reproduces it byte for byte, every double at full precision.
    ProfileData D;
    std::string Err;
    ASSERT_TRUE(loadProfileJson(Json, D, Err)) << Err;
    EXPECT_EQ(saveProfileJson(D), Json) << topologyName(Topo);
    EXPECT_FALSE(D.Sites.empty());
    EXPECT_EQ(D.HasNetwork, Topo != Topology::Ideal);
  }
}

TEST(ProfileDataTest, DiffGoldenPowerOptOnVsOff) {
  // The same workload with and without the communication optimizer: the
  // per-site deltas in the diff are the savings the remarks promise
  // (hoisted reads vanish, blocked moves trade msgs for words).
  std::string NoOptJson = profileFor(RunMode::Simple, 4);
  std::string OptJson = profileFor(RunMode::Optimized, 4);
  ASSERT_FALSE(NoOptJson.empty());
  ASSERT_FALSE(OptJson.empty());

  ProfileData NoOpt, Opt;
  std::string Err;
  ASSERT_TRUE(loadProfileJson(NoOptJson, NoOpt, Err)) << Err;
  ASSERT_TRUE(loadProfileJson(OptJson, Opt, Err)) << Err;

  std::string Diff = renderProfileDiff(NoOpt, Opt, "no-opt", "opt");

  // Equal inputs must produce an all-zero-delta diff regardless of golden.
  std::string SelfDiff = renderProfileDiff(Opt, Opt, "opt", "opt");
  EXPECT_EQ(SelfDiff, renderProfileDiff(Opt, Opt, "opt", "opt"));

  if (std::getenv("EARTHCC_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath());
    ASSERT_TRUE(Out) << "cannot write " << goldenPath();
    Out << Diff;
    GTEST_SKIP() << "regenerated " << goldenPath();
  }

  std::string Golden = readFile(goldenPath());
  ASSERT_FALSE(Golden.empty())
      << "missing golden file " << goldenPath()
      << " (regenerate with EARTHCC_REGEN_GOLDEN=1)";
  EXPECT_EQ(Diff, Golden)
      << "profile diff diverged from golden; if the optimizer or the diff "
         "format changed intentionally, regenerate with "
         "EARTHCC_REGEN_GOLDEN=1";
}
