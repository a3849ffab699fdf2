//===- Trace.cpp - Structured event tracing --------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

using namespace earthcc;

TraceSink::~TraceSink() = default;

/// Renders a timestamp/duration in microseconds with fixed 3-decimal
/// precision, so nanosecond-granular simulated times round-trip exactly and
/// the output is deterministic across platforms.
static std::string formatUs(double Ns) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Ns / 1000.0);
  return Buf;
}

void ChromeTraceSink::write(std::ostream &OS) const {
  OS << "[\n";
  for (size_t I = 0; I != Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    OS << "{\"name\":\"" << json::escape(E.Name) << "\",\"cat\":\""
       << json::escape(E.Cat) << "\",\"ph\":\"" << E.Ph
       << "\",\"ts\":" << formatUs(E.TsNs);
    if (E.Ph == 'X')
      OS << ",\"dur\":" << formatUs(E.DurNs);
    OS << ",\"pid\":" << E.Pid << ",\"tid\":" << E.Tid;
    if (E.Ph == 'i')
      OS << ",\"s\":\"t\""; // Instant events scoped to their thread.
    if (!E.Args.empty()) {
      OS << ",\"args\":{";
      for (size_t J = 0; J != E.Args.size(); ++J) {
        const TraceEvent::Arg &A = E.Args[J];
        OS << (J ? "," : "") << "\"" << json::escape(A.Key) << "\":";
        if (A.Quoted)
          OS << "\"" << json::escape(A.Val) << "\"";
        else
          OS << A.Val;
      }
      OS << "}";
    }
    OS << "}" << (I + 1 == Events.size() ? "" : ",") << "\n";
  }
  OS << "]\n";
}

std::string ChromeTraceSink::json() const {
  std::ostringstream OS;
  write(OS);
  return OS.str();
}

void CounterTraceSink::event(const TraceEvent &E) {
  if (E.Ph == 'M' || E.Ph == 'C')
    return; // Metadata and counter samples are not countable operations.
  Counters.add("trace.count." + E.Name);
  if (E.Ph == 'X')
    Counters.add("trace.ns." + E.Name,
                 static_cast<uint64_t>(std::llround(E.DurNs)));
}
