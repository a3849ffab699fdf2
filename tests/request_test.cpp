//===- request_test.cpp - Request values, cache keys, option table ---------===//
//
// Part of the earthcc project.
//
// The request API's core contract: keyBytes() covers exactly the fields
// that can change the produced artifact — result-determining knobs perturb
// the key, host-only and instrumentation knobs do not — and the declarative
// option table applies the same semantics from every surface (CLI flag,
// --serve JSON field, environment variable).
//
//===----------------------------------------------------------------------===//

#include "driver/Request.h"
#include "support/CommProfiler.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace earthcc;

namespace {

const char *Src = "int main() { return 1; }";

} // namespace

TEST(CompileRequestKeyTest, EqualRequestsEqualKeys) {
  CompileRequest A = CompileRequest::optimized(Src);
  CompileRequest B = CompileRequest::optimized(Src);
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
}

TEST(CompileRequestKeyTest, ResultDeterminingFieldsPerturbKey) {
  CompileRequest Base = CompileRequest::optimized(Src);

  CompileRequest DifferentSource = Base;
  DifferentSource.Source = "int main() { return 2; }";
  EXPECT_NE(Base.keyBytes(), DifferentSource.keyBytes());

  CompileRequest NoOpt = Base;
  NoOpt.Optimize = false;
  EXPECT_NE(Base.keyBytes(), NoOpt.keyBytes());

  CompileRequest Locality = Base;
  Locality.InferLocality = true;
  EXPECT_NE(Base.keyBytes(), Locality.keyBytes());

  CompileRequest Threshold = Base;
  Threshold.BlockThresholdWords = 7;
  EXPECT_NE(Base.keyBytes(), Threshold.keyBytes());

  CompileRequest Knockout = Base;
  Knockout.EnableReadMotion = false;
  EXPECT_NE(Base.keyBytes(), Knockout.keyBytes());
}

TEST(CompileRequestKeyTest, HostOnlyKnobsDoNotPerturbKey) {
  CompileRequest A = CompileRequest::optimized(Src);
  CompileRequest B = A;
  B.LowerThreads = 8; // bit-identical output at any setting
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
  B.PassThreads = 8; // same contract as LowerThreads
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
}

TEST(CompileRequestKeyTest, SourceIsLengthPrefixed) {
  // Concatenation attacks must not collide: source bytes are length-
  // prefixed in the serialization, so a source that *contains* another
  // request's record bytes still hashes differently.
  CompileRequest A = CompileRequest::simple("ab");
  CompileRequest B = CompileRequest::simple("a");
  EXPECT_NE(A.keyBytes(), B.keyBytes());
  EXPECT_NE(A.keyBytes().find("2:ab"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Key-byte goldens. The service's cache, the serve `key`/`compile_key`
// answers and perfbench's must-miss check are all functions of these bytes,
// so a change to them must come with a new version tag, never silently.
//===----------------------------------------------------------------------===//

TEST(KeyBytesGoldenTest, CompileRequestPresets) {
  EXPECT_EQ(CompileRequest::optimized("int main() { return 0; }").keyBytes(),
            "earthcc-compile-v2;optimize=1;locality=0;read-motion=1;"
            "blocking=1;redundancy-elim=1;write-blocking=1;"
            "block-threshold=3;optimistic-cond=1;"
            "source=24:int main() { return 0; };");
  EXPECT_EQ(CompileRequest::simple("int main() { return 0; }").keyBytes(),
            "earthcc-compile-v2;optimize=0;locality=0;read-motion=1;"
            "blocking=1;redundancy-elim=1;write-blocking=1;"
            "block-threshold=3;optimistic-cond=1;"
            "source=24:int main() { return 0; };");
}

TEST(KeyBytesGoldenTest, DefaultRunRequest) {
  EXPECT_EQ(RunRequest().keyBytes(),
            "earthcc-run-v5;entry=4:main;args=0;nodes=4;sequential=0;"
            "topology=5:ideal;engine=1;max-steps=500000000;quantum=64;"
            "profile=1;");
}

TEST(KeyBytesGoldenTest, EveryKeyedRunFieldOffItsDefault) {
  CompileRequest C;
  RunRequest R;
  std::string Err;
  // A sequential run keys the effective machine: one node, not eight.
  ASSERT_TRUE(applyRequestOption(C, R, "nodes", "8", Err)) << Err;
  ASSERT_TRUE(applyRequestOption(C, R, "seq", "on", Err)) << Err;
  R.Entry = "start";
  R.Args = {RtValue::undef(), RtValue::makeInt(-7), RtValue::makeDbl(0.1),
            RtValue::makePtr(GlobalAddr{2, 5})};
  R.Topo = Topology::Torus2D;
  R.Engine = ExecEngine::AST;
  R.MaxSteps = 1000;
  R.EUQuantum = 16;
  R.RecordProfile = false;
  EXPECT_EQ(R.keyBytes(),
            "earthcc-run-v5;entry=5:start;args=4;arg=5:undef;"
            "arg-int=18446744073709551609;arg-dbl=0.10000000000000001;"
            "arg-ptr=4:n2:5;nodes=1;sequential=1;topology=7:torus2d;"
            "engine=0;max-steps=1000;quantum=16;profile=0;");
}

TEST(RunRequestKeyTest, ResultDeterminingFieldsPerturbKey) {
  RunRequest Base;

  RunRequest Nodes = Base;
  Nodes.NumNodes = 8;
  EXPECT_NE(Base.keyBytes(), Nodes.keyBytes());

  RunRequest Engine = Base;
  Engine.Engine = ExecEngine::AST;
  EXPECT_NE(Base.keyBytes(), Engine.keyBytes());

  RunRequest Seq = Base;
  Seq.SequentialMode = true;
  EXPECT_NE(Base.keyBytes(), Seq.keyBytes());

  RunRequest Entry = Base;
  Entry.Entry = "other";
  EXPECT_NE(Base.keyBytes(), Entry.keyBytes());

  RunRequest Args = Base;
  Args.Args.push_back(RtValue::makeInt(3));
  EXPECT_NE(Base.keyBytes(), Args.keyBytes());

  RunRequest Fuel = Base;
  Fuel.MaxSteps = 123;
  EXPECT_NE(Base.keyBytes(), Fuel.keyBytes());
}

TEST(RunRequestKeyTest, NetworkModelFieldsPerturbKey) {
  // The topology changes *simulated* results (contention reorders
  // completion times), so it must split the cache.
  RunRequest Base;

  RunRequest Topo = Base;
  Topo.Topo = Topology::Torus2D;
  EXPECT_NE(Base.keyBytes(), Topo.keyBytes());
}

TEST(RunRequestKeyTest, ProfileFlagPerturbsKey) {
  // Whether a run records its comm profile decides what the cached result
  // holds, so the flag splits the cache. It is on by default, and it is no
  // request option: the serve loop sets it from a request's "profile".
  RunRequest Base;
  EXPECT_TRUE(Base.RecordProfile);
  RunRequest Off = Base;
  Off.RecordProfile = false;
  EXPECT_NE(Base.keyBytes(), Off.keyBytes());
  for (const RequestOption &O : requestOptions())
    EXPECT_STRNE(O.Name, "profile");
}

TEST(RunRequestKeyTest, InstrumentationDoesNotPerturbKey) {
  RunRequest A;
  RunRequest B = A;
  // Attaching observers must never change which cached artifact a request
  // maps to — they observe the run, they don't define it.
  ChromeTraceSink Sink;
  B.Trace = &Sink;
  CommProfiler Prof;
  B.Profiler = &Prof;
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
}

TEST(RunRequestKeyTest, MetricsExpositionIsKeyNeutral) {
  // Metrics are host-side observability, same contract as trace sinks: no
  // metrics or exposition option may be request content. First, the option table must not publish one — --metrics,
  // --profile-diff and the serve "metrics" op are driver-surface flags.
  for (const RequestOption &O : requestOptions())
    EXPECT_EQ(std::string(O.Name).find("metric"), std::string::npos)
        << O.Name;

  // Second, key bytes must not embed any metrics state: recording into the
  // process registry (what --metrics and the serve op expose) between two
  // serializations must leave both keys byte-identical.
  CompileRequest C = CompileRequest::optimized(Src);
  RunRequest R;
  const std::string CK = C.keyBytes(), RK = R.keyBytes();
  EXPECT_EQ(CK.find("metric"), std::string::npos);
  EXPECT_EQ(RK.find("metric"), std::string::npos);
  MetricsRegistry::global().counter("test.request_key_probe").inc();
  MetricsRegistry::global()
      .histogram("test.request_key_probe_ns")
      .observe(123);
  EXPECT_EQ(C.keyBytes(), CK);
  EXPECT_EQ(R.keyBytes(), RK);
}

TEST(RunRequestKeyTest, SequentialNormalizesNodeCount) {
  // Sequential mode forces one node, and the key uses the *effective*
  // machine: a 4-node and an 8-node sequential request are one artifact.
  RunRequest A, B;
  A.SequentialMode = B.SequentialMode = true;
  A.NumNodes = 4;
  B.NumNodes = 8;
  EXPECT_EQ(A.keyBytes(), B.keyBytes());
  EXPECT_EQ(A.nodes(), 1u);
}

//===----------------------------------------------------------------------===//
// The declarative option table.
//===----------------------------------------------------------------------===//

TEST(OptionTableTest, AppliesEveryPublishedKnob) {
  CompileRequest C;
  RunRequest R;
  std::string Err;
  EXPECT_TRUE(applyRequestOption(C, R, "nodes", "8", Err)) << Err;
  EXPECT_EQ(R.NumNodes, 8u);
  EXPECT_TRUE(applyRequestOption(C, R, "engine", "ast", Err)) << Err;
  EXPECT_EQ(R.Engine, ExecEngine::AST);
  EXPECT_TRUE(applyRequestOption(C, R, "no-opt", "", Err)) << Err;
  EXPECT_FALSE(C.Optimize);
  EXPECT_TRUE(applyRequestOption(C, R, "locality", "on", Err)) << Err;
  EXPECT_TRUE(C.InferLocality);
  EXPECT_TRUE(applyRequestOption(C, R, "threshold", "5", Err)) << Err;
  EXPECT_EQ(C.BlockThresholdWords, 5u);
  EXPECT_TRUE(applyRequestOption(C, R, "entry", "start", Err)) << Err;
  EXPECT_EQ(R.Entry, "start");
  EXPECT_TRUE(applyRequestOption(C, R, "lower-threads", "4", Err)) << Err;
  EXPECT_EQ(C.LowerThreads, 4u);
  EXPECT_TRUE(applyRequestOption(C, R, "max-steps", "1000", Err)) << Err;
  EXPECT_EQ(R.MaxSteps, 1000u);
  EXPECT_TRUE(applyRequestOption(C, R, "quantum", "16", Err)) << Err;
  EXPECT_EQ(R.EUQuantum, 16u);
  EXPECT_TRUE(applyRequestOption(C, R, "seq", "on", Err)) << Err;
  EXPECT_TRUE(R.SequentialMode);
  EXPECT_TRUE(applyRequestOption(C, R, "topology", "torus2d", Err)) << Err;
  EXPECT_EQ(R.Topo, Topology::Torus2D);
}

TEST(OptionTableTest, RejectsMalformedInput) {
  CompileRequest C;
  RunRequest R;
  std::string Err;
  EXPECT_FALSE(applyRequestOption(C, R, "no-such-option", "1", Err));
  EXPECT_NE(Err.find("no-such-option"), std::string::npos);
  EXPECT_FALSE(applyRequestOption(C, R, "engine", "quantum", Err));
  EXPECT_FALSE(applyRequestOption(C, R, "nodes", "0", Err));
  EXPECT_FALSE(applyRequestOption(C, R, "nodes", "abc", Err));
  // Oversized machines get a diagnostic naming the ceiling, not an
  // allocation storm.
  EXPECT_FALSE(applyRequestOption(C, R, "nodes",
                                  std::to_string(MaxSimNodes + 1), Err));
  EXPECT_NE(Err.find(std::to_string(MaxSimNodes)), std::string::npos);
  // An unknown topology lists the valid choices.
  EXPECT_FALSE(applyRequestOption(C, R, "topology", "hypercube", Err));
  EXPECT_NE(Err.find("hypercube"), std::string::npos);
  EXPECT_NE(Err.find(topologyChoices()), std::string::npos);
}

TEST(OptionTableTest, RetiredOptionsAreUnknown) {
  // Superinstruction fusion and the computed-goto loop were retired, and
  // the placement distribution and network latencies are the paper's
  // constants: their knobs take the ordinary unknown-option path on every
  // surface (the CLI and --serve both report this message), whatever the
  // value.
  CompileRequest C;
  RunRequest R;
  for (const char *Name : {"fuse", "dispatch", "distribution", "dist-block",
                           "net-hop-ns", "net-link-word-ns"}) {
    for (const char *Value : {"", "on", "off", "goto", "switch"}) {
      std::string Err;
      EXPECT_FALSE(applyRequestOption(C, R, Name, Value, Err)) << Name;
      EXPECT_EQ(Err, std::string("unknown option '") + Name + "'");
    }
  }
  EXPECT_EQ(RunRequest().keyBytes().find("fuse"), std::string::npos);
}

TEST(OptionTableTest, EnvironmentGoesThroughTheSameTable) {
  // EARTHCC_PASS_THREADS is declared on the `pass-threads` entry:
  // applyRequestEnv must read it and apply the same setter the CLI and the
  // JSON protocol use.
  ASSERT_EQ(setenv("EARTHCC_PASS_THREADS", "3", 1), 0);
  CompileRequest C;
  RunRequest R;
  C.PassThreads = 1;
  std::string Err;
  EXPECT_TRUE(applyRequestEnv(C, R, Err)) << Err;
  EXPECT_EQ(C.PassThreads, 3u);
  ASSERT_EQ(unsetenv("EARTHCC_PASS_THREADS"), 0);
}

TEST(OptionTableTest, TableEntriesAreWellFormed) {
  for (const RequestOption &O : requestOptions()) {
    EXPECT_NE(O.Name, nullptr);
    EXPECT_NE(O.Help, nullptr);
    EXPECT_NE(O.Apply, nullptr);
    // Names are flag-shaped: lowercase/dash only, no leading dashes.
    for (const char *P = O.Name; *P; ++P)
      EXPECT_TRUE((*P >= 'a' && *P <= 'z') || *P == '-') << O.Name;
    EXPECT_NE(O.Name[0], '-');
  }
}
