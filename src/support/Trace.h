//===- Trace.h - Structured event tracing -----------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's event model. Producers (the interpreter, the
/// Pipeline driver) emit TraceEvents into a TraceSink; sinks decide what to
/// keep:
///
///  - ChromeTraceSink records everything and serializes the Chrome
///    trace-event JSON array format, loadable in chrome://tracing and
///    Perfetto. Events use the machine's *simulated* clock for runtime
///    events (pid = node, tid = functional unit) and the host wall clock
///    for compiler-pass events, so a single file shows both the compile
///    and the execution.
///
///  - CounterTraceSink aggregates per-event-name counts and total durations
///    into a Statistics object — the compact counter form the BENCH_*.json
///    perf artifacts use.
///
/// A null sink pointer means tracing is off; every producer guards its
/// emission with a branch on the pointer, so the disabled path costs one
/// predictable-not-taken test and the interpreter's hot loop is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_TRACE_H
#define EARTHCC_SUPPORT_TRACE_H

#include "support/Statistics.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace earthcc {

/// Well-known thread ids within one traced process (= simulated node).
/// Chrome renders each (pid, tid) pair as its own horizontal track.
enum TraceTid : uint32_t {
  TraceTidEU = 0,    ///< Execution unit: fiber slices, context switches.
  TraceTidSU = 1,    ///< Synchronization unit: remote-request service.
  TraceTidComm = 2,  ///< In-flight split-phase transactions (issue..complete).
  TraceTidPass = 50, ///< Compiler passes (wall clock; pid 0 only).
};

/// One structured trace event, modeled on the Chrome trace-event format.
struct TraceEvent {
  /// One key/value argument. Numeric values render unquoted in JSON.
  struct Arg {
    std::string Key;
    std::string Val;
    bool Quoted = false;

    Arg(std::string K, uint64_t V)
        : Key(std::move(K)), Val(std::to_string(V)) {}
    Arg(std::string K, int64_t V)
        : Key(std::move(K)), Val(std::to_string(V)) {}
    Arg(std::string K, int V) : Key(std::move(K)), Val(std::to_string(V)) {}
    Arg(std::string K, unsigned V)
        : Key(std::move(K)), Val(std::to_string(V)) {}
    Arg(std::string K, std::string V)
        : Key(std::move(K)), Val(std::move(V)), Quoted(true) {}
    Arg(std::string K, const char *V)
        : Key(std::move(K)), Val(V), Quoted(true) {}
  };

  std::string Name;     ///< Event name ("read-data", "blkmov", pass name...).
  const char *Cat = ""; ///< Category ("comm", "su", "eu", "sync", "pass").
  char Ph = 'X';        ///< 'X' complete, 'i' instant, 'C' counter, 'M' meta.
  double TsNs = 0.0;    ///< Start timestamp in nanoseconds.
  double DurNs = 0.0;   ///< Duration in nanoseconds ('X' events only).
  uint32_t Pid = 0;     ///< Simulated node (compiler events use pid 0).
  uint32_t Tid = TraceTidEU; ///< Track within the node; see TraceTid.
  std::vector<Arg> Args;
};

/// Receiver of trace events. Implementations must tolerate events arriving
/// out of timestamp order (split-phase completions are known at issue time,
/// so a transaction's full span is emitted when it is issued).
class TraceSink {
public:
  virtual ~TraceSink();
  virtual void event(const TraceEvent &E) = 0;
};

/// Records every event and serializes Chrome trace-event JSON.
class ChromeTraceSink : public TraceSink {
public:
  void event(const TraceEvent &E) override { Events.push_back(E); }

  const std::vector<TraceEvent> &events() const { return Events; }

  /// Serializes the JSON array form: `[ {...}, {...} ]`. Timestamps are
  /// converted to microseconds (the Chrome unit) with nanosecond precision.
  void write(std::ostream &OS) const;
  std::string json() const;

private:
  std::vector<TraceEvent> Events;
};

/// Aggregates events into Statistics counters:
///   trace.count.<name> — number of events with that name;
///   trace.ns.<name>    — total duration of 'X' events, in integer ns.
class CounterTraceSink : public TraceSink {
public:
  void event(const TraceEvent &E) override;

  const Statistics &stats() const { return Counters; }
  Statistics &stats() { return Counters; }

private:
  Statistics Counters;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_TRACE_H
