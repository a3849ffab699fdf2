//===- support_test.cpp - Unit tests for the support library --------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/CommProfiler.h"
#include "support/Diagnostics.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace earthcc;

TEST(SourceLocTest, InvalidByDefault) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocTest, Format) {
  SourceLoc Loc(3, 14);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "3:14");
}

TEST(DiagnosticsTest, CountsErrorsOnly) {
  DiagnosticsEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 1), "just a warning");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 5), "boom");
  Diags.note(SourceLoc(2, 6), "note");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.all().size(), 3u);
}

TEST(DiagnosticsTest, RecordsABoundedNumberOfErrors) {
  DiagnosticsEngine Diags;
  const unsigned Max = DiagnosticsEngine::MaxRecordedErrors;
  for (unsigned I = 0; I != 3 * Max; ++I)
    Diags.error(SourceLoc(1, I + 1), "bad");
  EXPECT_EQ(Diags.errorCount(), 3 * Max); // Every error still counts.
  ASSERT_EQ(Diags.all().size(), Max + 1u);
  EXPECT_EQ(Diags.all()[Max - 1].Kind, DiagKind::Error);
  EXPECT_EQ(Diags.all()[Max].Kind, DiagKind::Note);
  EXPECT_EQ(Diags.all()[Max].str(),
            "1:" + std::to_string(Max + 1) +
                ": note: too many errors; later errors are not shown");
}

TEST(DiagnosticsTest, Rendering) {
  DiagnosticsEngine Diags;
  Diags.error(SourceLoc(7, 3), "unexpected token");
  EXPECT_EQ(Diags.all()[0].str(), "7:3: error: unexpected token");
}

TEST(StatisticsTest, AccumulatesAndRenders) {
  Statistics Stats;
  Stats.add("comm.reads", 2);
  Stats.add("comm.reads");
  Stats.add("comm.writes", 5);
  EXPECT_EQ(Stats.get("comm.reads"), 3u);
  EXPECT_EQ(Stats.get("comm.writes"), 5u);
  EXPECT_EQ(Stats.get("missing"), 0u);
  EXPECT_EQ(Stats.str(), "comm.reads = 3\ncomm.writes = 5\n");
}

TEST(StatisticsTest, MergeAccumulates) {
  Statistics A;
  A.add("comm.reads", 3);
  A.add("comm.writes", 1);
  Statistics B;
  B.add("comm.reads", 2);
  B.add("comm.blkmov", 7);
  A.merge(B);
  EXPECT_EQ(A.get("comm.reads"), 5u);
  EXPECT_EQ(A.get("comm.writes"), 1u);
  EXPECT_EQ(A.get("comm.blkmov"), 7u);
  // The source is unchanged.
  EXPECT_EQ(B.get("comm.reads"), 2u);
  EXPECT_EQ(B.get("comm.writes"), 0u);
}

TEST(StatisticsTest, MergeWithEmpty) {
  Statistics A;
  A.add("x", 4);
  Statistics Empty;
  A.merge(Empty);
  EXPECT_EQ(A.get("x"), 4u);
  Empty.merge(A);
  EXPECT_EQ(Empty.get("x"), 4u);
  EXPECT_FALSE(Empty.empty());
}

TEST(StatisticsTest, JsonSerialization) {
  Statistics Stats;
  EXPECT_EQ(Stats.json(), "{}");
  Stats.add("b.second", 2);
  Stats.add("a.first", 1);
  // Keys come out sorted (map order), values unquoted.
  EXPECT_EQ(Stats.json(), "{\"a.first\": 1, \"b.second\": 2}");
}

TEST(TraceTest, CounterSinkAggregates) {
  CounterTraceSink Sink;
  TraceEvent Read;
  Read.Name = "read-data";
  Read.Ph = 'X';
  Read.DurNs = 1500.0;
  Sink.event(Read);
  Read.DurNs = 500.0;
  Sink.event(Read);
  TraceEvent Sync;
  Sync.Name = "sync-signal";
  Sync.Ph = 'i';
  Sink.event(Sync);
  // Metadata and counter-track events do not pollute the aggregate.
  TraceEvent Meta;
  Meta.Name = "process_name";
  Meta.Ph = 'M';
  Sink.event(Meta);
  TraceEvent Clock;
  Clock.Name = "eu-clock";
  Clock.Ph = 'C';
  Sink.event(Clock);

  const Statistics &S = Sink.stats();
  EXPECT_EQ(S.get("trace.count.read-data"), 2u);
  EXPECT_EQ(S.get("trace.ns.read-data"), 2000u);
  EXPECT_EQ(S.get("trace.count.sync-signal"), 1u);
  EXPECT_EQ(S.get("trace.ns.sync-signal"), 0u);
  EXPECT_EQ(S.get("trace.count.process_name"), 0u);
  EXPECT_EQ(S.get("trace.count.eu-clock"), 0u);
}

TEST(TraceTest, ChromeSinkSerializesEvents) {
  ChromeTraceSink Sink;
  TraceEvent E;
  E.Name = "read-data";
  E.Cat = "comm";
  E.Ph = 'X';
  E.TsNs = 1500.0;
  E.DurNs = 250.0;
  E.Pid = 1;
  E.Tid = TraceTidComm;
  E.Args.push_back({"to", 2u});
  E.Args.push_back({"addr", "n1+0x10"});
  Sink.event(E);

  std::string J = Sink.json();
  // Timestamps are microseconds in Chrome's format: 1500 ns = 1.5 us.
  EXPECT_NE(J.find("\"name\":\"read-data\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(J.find("\"dur\":0.250"), std::string::npos);
  EXPECT_NE(J.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(J.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(J.find("\"to\":2"), std::string::npos);
  EXPECT_NE(J.find("\"addr\":\"n1+0x10\""), std::string::npos);
  EXPECT_EQ(J.front(), '[');
  EXPECT_EQ(Sink.events().size(), 1u);
}

TEST(TraceTest, ChromeSinkInstantHasNoDur) {
  ChromeTraceSink Sink;
  TraceEvent E;
  E.Name = "sync-signal";
  E.Ph = 'i';
  E.TsNs = 100.0;
  Sink.event(E);
  std::string J = Sink.json();
  EXPECT_EQ(J.find("\"dur\""), std::string::npos);
  // Instants carry thread scope so Chrome draws them as ticks.
  EXPECT_NE(J.find("\"s\":\"t\""), std::string::npos);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.str();
  EXPECT_NE(Out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(Out.find("| longer | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter T({"a", "b", "c"});
  T.addRow({"1"});
  std::string Out = T.str();
  EXPECT_NE(Out.find("| 1 |"), std::string::npos);
}

TEST(TablePrinterTest, TrailingRuleIsTheClosingBorder) {
  TablePrinter T({"a"});
  T.addRow({"1"});
  T.addRule();
  T.addRow({"2"});
  T.addRule();
  EXPECT_EQ(T.str(), "+---+\n| a |\n+---+\n| 1 |\n+---+\n| 2 |\n+---+\n");
}

TEST(TablePrinterTest, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 1), "2.0");
}

//===----------------------------------------------------------------------===//
// CommProfiler: histogram bucketing, percentile semantics, accumulation.
//===----------------------------------------------------------------------===//

TEST(CommProfilerTest, BucketBoundsRoundTrip) {
  // Below 16 ns every latency has its own exact bucket.
  for (uint64_t Ns = 0; Ns != 16; ++Ns) {
    unsigned B = SiteProfile::bucketOf(Ns);
    EXPECT_EQ(SiteProfile::bucketLowNs(B), Ns) << Ns;
  }
  // Above: the bucket's lower bound never exceeds the value, and the next
  // bucket's lower bound is strictly greater (monotone partition).
  for (uint64_t Ns : {16ull, 17ull, 100ull, 1000ull, 65535ull, 65536ull,
                      1000000ull, (1ull << 40), ~0ull}) {
    unsigned B = SiteProfile::bucketOf(Ns);
    ASSERT_LT(B, SiteProfile::NumBuckets) << Ns;
    EXPECT_LE(SiteProfile::bucketLowNs(B), Ns) << Ns;
    if (B + 1 < SiteProfile::NumBuckets) {
      EXPECT_GT(SiteProfile::bucketLowNs(B + 1), SiteProfile::bucketLowNs(B))
          << Ns;
    }
  }
  // ~6% worst-case resolution: 16 sub-buckets per octave.
  unsigned B1 = SiteProfile::bucketOf(1024);
  unsigned B2 = SiteProfile::bucketOf(1024 + 1024 / 16);
  EXPECT_NE(B1, B2);
}

TEST(CommProfilerTest, PercentileIsBucketLowerBound) {
  SiteProfile S;
  // Four exact (<16 ns) latencies: 2, 4, 6, 8.
  for (uint64_t Ns : {2ull, 4ull, 6ull, 8ull}) {
    ++S.Msgs; // mirror the engines, which bump Msgs alongside each sample
    S.recordLatency(Ns);
  }
  EXPECT_EQ(S.LatMinNs, 2u);
  EXPECT_EQ(S.LatMaxNs, 8u);
  EXPECT_EQ(S.latencyPercentileNs(25), 2u);  // 1st of 4
  EXPECT_EQ(S.latencyPercentileNs(50), 4u);  // 2nd of 4
  EXPECT_EQ(S.latencyPercentileNs(75), 6u);  // 3rd of 4
  EXPECT_EQ(S.latencyPercentileNs(100), 8u); // 4th of 4
  // P just above a rank boundary advances to the next element.
  EXPECT_EQ(S.latencyPercentileNs(51), 6u);
}

TEST(CommProfilerTest, RecordAccumulatesSitesAndTraffic) {
  CommProfiler Prof;
  Prof.beginRun(/*NumSites=*/3, /*NumNodes=*/2);
  Prof.record(0, /*From=*/0, /*To=*/1, /*Words=*/1,
              /*IssueStartNs=*/100.0, /*DoneNs=*/150.0);
  Prof.record(0, 0, 1, 1, 200.0, 280.0);
  Prof.record(2, 1, 0, 8, 300.0, 400.0);
  Prof.recordLocal(1);

  EXPECT_EQ(Prof.site(0).Msgs, 2u);
  EXPECT_EQ(Prof.site(0).Words, 2u);
  EXPECT_EQ(Prof.site(0).LatMinNs, 50u);
  EXPECT_EQ(Prof.site(0).LatMaxNs, 80u);
  EXPECT_DOUBLE_EQ(Prof.site(0).latencyMeanNs(), 65.0);
  EXPECT_EQ(Prof.site(1).Msgs, 0u);
  EXPECT_EQ(Prof.site(1).LocalHits, 1u);
  EXPECT_EQ(Prof.site(2).Words, 8u);
  EXPECT_EQ(Prof.totalMsgs(), 3u);
  EXPECT_EQ(Prof.trafficWords(0, 1), 2u);
  EXPECT_EQ(Prof.trafficWords(1, 0), 8u);
  EXPECT_EQ(Prof.trafficWords(0, 0), 0u);
}

TEST(CommProfilerTest, ProfileIsPureFunctionOfRecordedData) {
  CommProfiler A, B;
  for (CommProfiler *P : {&A, &B}) {
    P->beginRun(2, 2);
    P->record(0, 0, 1, 1, 10.0, 42.0);
    P->recordLocal(1);
  }
  for (unsigned I = 0; I != 2; ++I) {
    const SiteProfile &SA = A.site(I), &SB = B.site(I);
    EXPECT_EQ(SA.Msgs, SB.Msgs) << I;
    EXPECT_EQ(SA.Words, SB.Words) << I;
    EXPECT_EQ(SA.LocalHits, SB.LocalHits) << I;
    EXPECT_EQ(SA.LatSumNs, SB.LatSumNs) << I;
    EXPECT_EQ(SA.LatHist, SB.LatHist) << I;
    for (unsigned To = 0; To != 2; ++To)
      EXPECT_EQ(A.trafficWords(I, To), B.trafficWords(I, To)) << I;
  }
  EXPECT_EQ(A.site(0).latencyPercentileNs(50), 32u);
  EXPECT_EQ(A.site(1).LocalHits, 1u);
  // beginRun resets: a fresh run must not inherit prior counts.
  A.beginRun(2, 2);
  EXPECT_EQ(A.totalMsgs(), 0u);
  EXPECT_EQ(A.site(0).Msgs, 0u);
}

TEST(CommProfilerTest, PercentileAtPowerOfTwoBucketBoundaries) {
  SiteProfile S;
  // Powers of two start an octave, so each is exactly a bucket lower bound:
  // the percentile that selects a 2^k latency must come back as 2^k itself,
  // not the bound of the preceding sub-bucket.
  const uint64_t Lats[] = {16, 32, 1024, 1ull << 20};
  for (uint64_t Ns : Lats) {
    ASSERT_EQ(SiteProfile::bucketLowNs(SiteProfile::bucketOf(Ns)), Ns);
    ++S.Msgs; // mirror the engines, which bump Msgs alongside each sample
    S.recordLatency(Ns);
  }
  EXPECT_EQ(S.latencyPercentileNs(25), 16u);
  EXPECT_EQ(S.latencyPercentileNs(50), 32u);
  EXPECT_EQ(S.latencyPercentileNs(75), 1024u);
  EXPECT_EQ(S.latencyPercentileNs(100), 1ull << 20);
  // Fractional percentiles round their rank up, never down to rank 0.
  EXPECT_EQ(S.latencyPercentileNs(0), 16u);
  EXPECT_EQ(S.latencyPercentileNs(25.1), 32u);
}

TEST(CommProfilerTest, PercentileSingleMessageHistogram) {
  SiteProfile S;
  ++S.Msgs;
  S.recordLatency(777);
  // With one sample every percentile selects it (rank clamps to
  // [1, LatCount]), and the answer is its bucket's lower bound.
  const uint64_t Bound = SiteProfile::bucketLowNs(SiteProfile::bucketOf(777));
  EXPECT_LE(Bound, 777u);
  for (double P : {0.0, 0.1, 50.0, 99.9, 100.0})
    EXPECT_EQ(S.latencyPercentileNs(P), Bound) << P;
  EXPECT_EQ(S.LatMinNs, 777u);
  EXPECT_EQ(S.LatMaxNs, 777u);
}

TEST(CommProfilerTest, EmptySiteReadsAllZeroes) {
  // A site that never fired must render without dividing by zero or
  // walking off the histogram: every statistic reads 0.
  SiteProfile S;
  EXPECT_EQ(S.LatCount, 0u);
  EXPECT_DOUBLE_EQ(S.latencyMeanNs(), 0.0);
  for (double P : {0.0, 50.0, 100.0})
    EXPECT_EQ(S.latencyPercentileNs(P), 0u) << P;
  EXPECT_EQ(S.LatMinNs, 0u);
  EXPECT_EQ(S.LatMaxNs, 0u);
}

TEST(CommProfilerTest, RecordLatencyStandsAloneWithoutMsgs) {
  // recordLatency tracks its own sample count (LatCount), so min/max and
  // percentiles are correct even for callers that never touch Msgs — in
  // particular min must not stick at 0 because Msgs stayed 0.
  SiteProfile S;
  S.recordLatency(9);
  S.recordLatency(5);
  EXPECT_EQ(S.Msgs, 0u);
  EXPECT_EQ(S.LatCount, 2u);
  EXPECT_EQ(S.LatMinNs, 5u);
  EXPECT_EQ(S.LatMaxNs, 9u);
  EXPECT_EQ(S.latencyPercentileNs(50), 5u);
  EXPECT_EQ(S.latencyPercentileNs(100), 9u);
}

//===----------------------------------------------------------------------===//
// ThreadPool: parallelFor index coverage and failure semantics.
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ParallelForRunsEachIndexExactlyOnce) {
  ThreadPool Pool(4);
  // Each index is claimed by exactly one worker, so the per-index writes
  // cannot race.
  std::vector<int> Hits(1000, 0);
  Pool.parallelFor(Hits.size(), [&](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I != Hits.size(); ++I)
    ASSERT_EQ(Hits[I], 1) << I;
}

TEST(ThreadPoolTest, ParallelForThrowSkipsTrailingIndicesOnOneThread) {
  ThreadPool Pool(1);
  std::vector<size_t> Ran;
  bool Threw = false;
  try {
    Pool.parallelFor(8, [&](size_t I) {
      Ran.push_back(I);
      if (I == 2)
        throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error &E) {
    Threw = true;
    EXPECT_STREQ(E.what(), "boom");
  }
  EXPECT_TRUE(Threw);
  // The failing index is the last body to run: indices 3..7 are never
  // claimed once the failure flag is up.
  EXPECT_EQ(Ran, (std::vector<size_t>{0, 1, 2}));
}

TEST(ThreadPoolTest, ParallelForStopsClaimingAfterFailure) {
  ThreadPool Pool(2);
  std::atomic<size_t> Executed{0};
  bool Threw = false;
  try {
    Pool.parallelFor(1000, [&](size_t I) {
      if (I == 0)
        throw std::runtime_error("boom");
      ++Executed;
      // Slow the healthy lane's claim rate so the failure flag is up well
      // before it could sweep the index space.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  } catch (const std::runtime_error &) {
    Threw = true;
  }
  EXPECT_TRUE(Threw);
  // Without the shared failure flag the healthy lane grinds through all
  // ~999 remaining indices; with it, only the bodies already in flight
  // (plus a tiny claim-race window) complete. The bound is deliberately
  // loose — it separates "stopped promptly" from "ran everything".
  EXPECT_LT(Executed.load(), 500u);
}
