//===- codegen_test.cpp - Threaded-C emission tests -------------------------===//
//
// Part of the earthcc project.
//
// ThreadedCGoldenTest pins the whole emitted program of every workload and
// of tests/golden/threadedc/constructs.ec, in both program versions, to the
// checked-in goldens. Regenerate after an intentional change with:
//   EARTHCC_REGEN_GOLDEN=1 ./build/tests/codegen_test
//
//===----------------------------------------------------------------------===//

#include "codegen/ThreadedC.h"
#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace earthcc;

namespace {

std::unique_ptr<Module> compileOpt(const std::string &Src,
                                   bool Optimize = true) {
  Pipeline P(Optimize ? PipelineOptions::optimized()
                      : PipelineOptions::simple());
  CompileResult CR = P.compile(Src);
  EXPECT_TRUE(CR.OK) << CR.Messages;
  return std::move(CR.M);
}

const char *DistanceSrc = R"(
  struct Point { double x; double y; };
  double distance(Point *p) {
    double d;
    d = sqrt(p->x * p->x + p->y * p->y);
    return d;
  }
)";

TEST(ThreadedCTest, SplitPhaseReadsGetSlots) {
  auto M = compileOpt(DistanceSrc);
  ThreadedCInfo Info;
  std::string Out = emitThreadedC(*M->findFunction("distance"), &Info);
  // The two pipelined reads each get a GET_SYNC_L with their own slot.
  EXPECT_NE(Out.find("GET_SYNC_L(p + 0"), std::string::npos) << Out;
  EXPECT_NE(Out.find("GET_SYNC_L(p + 1"), std::string::npos) << Out;
  EXPECT_EQ(Info.SyncSlots, 2u);
}

TEST(ThreadedCTest, FiberSplitsAtUse) {
  auto M = compileOpt(DistanceSrc);
  ThreadedCInfo Info;
  std::string Out = emitThreadedC(*M->findFunction("distance"), &Info);
  // Issuing the reads and consuming them happens in different threads:
  // the multiply that uses comm1 must live in THREAD_1.
  EXPECT_GE(Info.Threads, 2u) << Out;
  EXPECT_NE(Out.find("THREAD_1:"), std::string::npos) << Out;
  // The sync point names the slots it waits on.
  EXPECT_NE(Out.find("resumes when"), std::string::npos) << Out;
}

TEST(ThreadedCTest, UnoptimizedNeedsMoreThreads) {
  // Without read motion, every load is consumed immediately: each of the
  // four loads forces its own fiber boundary.
  auto Simple = compileOpt(DistanceSrc, /*Optimize=*/false);
  auto Opt = compileOpt(DistanceSrc, /*Optimize=*/true);
  ThreadedCInfo SimpleInfo, OptInfo;
  emitThreadedC(*Simple->findFunction("distance"), &SimpleInfo);
  emitThreadedC(*Opt->findFunction("distance"), &OptInfo);
  // Redundancy elimination halves the split-phase traffic (4 -> 2 slots);
  // the adjacent-load pairs already overlapped, so the fiber count ties.
  EXPECT_GT(SimpleInfo.SyncSlots, OptInfo.SyncSlots);
  EXPECT_GE(SimpleInfo.Threads, OptInfo.Threads);
}

TEST(ThreadedCTest, BlkmovAndWriteback) {
  auto M = compileOpt(R"(
    struct T { double a; double b; double c; };
    double f(T *p) {
      double v1; double v2; double v3;
      v1 = p->a;
      v2 = p->b;
      v3 = p->c;
      p->a = v1 + 1.0;
      p->b = v2 + 1.0;
      p->c = v3 + 1.0;
      return v1 + v2 + v3;
    }
  )");
  std::string Out = emitThreadedC(*M->findFunction("f"));
  EXPECT_NE(Out.find("BLKMOV_SYNC(p, &bcomm1, 24, SLOT("), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("BLKMOV_SYNC(&bcomm1, p, 24, WSYNC)"),
            std::string::npos)
      << Out;
}

TEST(ThreadedCTest, RemoteWritesAreFireAndForget) {
  auto M = compileOpt(R"(
    struct Point { double x; double y; };
    void set(Point *p, double v) {
      p->x = v;
    }
  )");
  std::string Out = emitThreadedC(*M->findFunction("set"));
  EXPECT_NE(Out.find("DATA_SYNC_L(v, p + 0, WSYNC)"), std::string::npos)
      << Out;
}

TEST(ThreadedCTest, ParallelSequenceSpawnsTokens) {
  auto M = compileOpt(R"(
    int work(int n) { return n * 2; }
    int main() {
      int a; int b;
      {^
        a = work(1);
        b = work(2);
      ^}
      return a + b;
    }
  )");
  std::string Out = emitThreadedC(*M->findFunction("main"));
  EXPECT_NE(Out.find("TOKEN(branch, SLOT("), std::string::npos) << Out;
  EXPECT_NE(Out.find("SYNC_JOIN(SLOT("), std::string::npos) << Out;
}

TEST(ThreadedCTest, PlacedCallsBecomeInvokes) {
  auto M = compileOpt(R"(
    struct node { int v; };
    int probe(node *p) { return p->v; }
    int main() {
      node *x;
      x = pmalloc(sizeof(node))@node(0);
      x->v = 1;
      return probe(x)@OWNER_OF(x);
    }
  )");
  std::string Out = emitThreadedC(*M->findFunction("main"));
  EXPECT_NE(Out.find("INVOKE(OWNER_OF(x), probe(x), &"), std::string::npos)
      << Out;
}

TEST(ThreadedCTest, ForallEmitsIterationTokens) {
  auto M = compileOpt(R"(
    struct node { int v; node *next; };
    int main() {
      shared int s;
      node *p; node *head;
      int r;
      head = pmalloc(sizeof(node))@node(0);
      head->v = 1;
      head->next = NULL;
      writeto(&s, 0);
      forall (p = head; p != NULL; p = p->next) {
        addto(&s, 1);
      }
      r = valueof(&s);
      return r;
    }
  )");
  std::string Out = emitThreadedC(*M->findFunction("main"));
  EXPECT_NE(Out.find("TOKEN(iteration, SLOT("), std::string::npos) << Out;
  EXPECT_NE(Out.find("ADDTO_SYNC(&s, 1, WSYNC)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("VALUEOF_SYNC(&s, &"), std::string::npos)
      << Out;
}

TEST(ThreadedCTest, FiberHeaderNamesEachSlotOnce) {
  // Unoptimized, t is read straight into the variable the multiply uses
  // twice; the new fiber waits on its one slot once.
  auto M = compileOpt(R"(
    struct Point { double x; };
    double square(Point *p) {
      double t;
      t = p->x;
      return t * t;
    }
  )",
                      /*Optimize=*/false);
  std::string Out = emitThreadedC(*M->findFunction("square"));
  EXPECT_NE(Out.find("THREAD_1: // resumes when SLOT(0)->t arrive\n"),
            std::string::npos)
      << Out;
}

TEST(ThreadedCTest, DoubleConstantsRoundTrip) {
  // Each constant is spelled so that it reads back as the same double:
  // six fixed decimals would print 0.000015, 0.100000 and
  // 100000000000000000000.000000.
  auto M = compileOpt(R"(
    double f(double x) {
      double a; double b; double c; double d; double e;
      a = x * 0.0000152587890625;
      b = x * 0.1;
      c = x * 1e20;
      d = x * 2.5;
      e = x * 1.0;
      return a + b + c + d + e;
    }
  )");
  std::string Out = emitThreadedC(*M->findFunction("f"));
  for (const char *Line : {"a = x * 1.52587890625e-05;", "b = x * 0.1;",
                           "c = x * 1e+20;", "d = x * 2.5;", "e = x * 1.0;"})
    EXPECT_NE(Out.find(Line), std::string::npos) << Line << "\n" << Out;
}

TEST(ThreadedCTest, WholeModuleEmission) {
  auto M = compileOpt(DistanceSrc);
  std::string Out = Pipeline().emitThreadedC(*M);
  EXPECT_NE(Out.find("THREADED distance("), std::string::npos);
  EXPECT_NE(Out.find("END_THREADED()"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Checked-in goldens.
//===----------------------------------------------------------------------===//

std::string goldenPath(const std::string &File) {
  return std::string(EARTHCC_GOLDEN_DIR) + "/threadedc/" + File;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Every workload and constructs.ec x {Simple, Optimized}: the emitted
/// program matches its golden byte for byte.
TEST(ThreadedCGoldenTest, MatchesCheckedInGoldens) {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const Workload &W : oldenWorkloads())
    Programs.emplace_back(W.Name, W.Source);
  Programs.emplace_back("constructs", readFile(goldenPath("constructs.ec")));
  const bool Regen = std::getenv("EARTHCC_REGEN_GOLDEN") != nullptr;
  for (const auto &[Name, Source] : Programs) {
    ASSERT_FALSE(Source.empty()) << "missing source of " << Name;
    for (RunMode Mode : {RunMode::Simple, RunMode::Optimized}) {
      Pipeline P(workloadOptions(Mode));
      CompileResult CR = P.compile(Source);
      ASSERT_TRUE(CR.OK) << Name << ": " << CR.Messages;
      const std::string File =
          Name + (Mode == RunMode::Optimized ? "_opt.tc" : "_simple.tc");
      const std::string Text = P.emitThreadedC(*CR.M);
      if (Regen) {
        std::ofstream Out(goldenPath(File));
        ASSERT_TRUE(Out) << "cannot write " << goldenPath(File);
        Out << Text;
        continue;
      }
      EXPECT_EQ(readFile(goldenPath(File)), Text)
          << File << " diverged from its golden; if the emitter changed "
          << "intentionally, regenerate with EARTHCC_REGEN_GOLDEN=1";
    }
  }
  if (Regen)
    GTEST_SKIP() << "regenerated the Threaded-C goldens";
}

} // namespace
