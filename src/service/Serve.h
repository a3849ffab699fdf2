//===- Serve.h - Line-oriented JSON protocol over CompileService -*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `earthcc --serve`: the CompileService spoken over stdin/stdout, one JSON
/// object per line in each direction. Requests:
///
///   {"id": 1, "op": "run", "source": "...", "nodes": 8, "args": [4]}
///   {"id": 2, "op": "run", "workload": "tsp", "size": "small"}
///   {"id": 3, "op": "compile", "source": "...", "no-opt": true}
///   {"id": 4, "op": "stats"}
///   {"id": 5, "op": "ping"}
///   {"op": "shutdown"}
///
/// Every option field ("nodes", "engine", "topology", "seq", "threshold", ...)
/// is resolved through the same declarative table (requestOptions()) the
/// command line uses — the two surfaces accept the same knobs by
/// construction. Extras understood only here: "id" (echoed verbatim),
/// "source"/"workload"+"size", "args" (entry arguments, numbers), "profile"
/// (include the per-site comm report), "threaded_c" (include generated
/// code).
///
/// Responses carry "id", "ok", the artifact keys and cache verdicts
/// ("cache_hit", "compile_cache_hit"), and the simulated result. Requests
/// are handled concurrently on the service's pool, so responses may arrive
/// out of order — clients must match by id. "shutdown" drains all in-flight
/// requests, answers last, and ends the loop.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SERVICE_SERVE_H
#define EARTHCC_SERVICE_SERVE_H

#include "service/CompileService.h"

#include <iosfwd>

namespace earthcc {

struct ServeOptions {
  ServiceConfig Service;
  /// Template requests carrying the process-wide defaults (CLI flags and
  /// environment already applied); each protocol request starts from a
  /// copy and applies its own fields on top.
  CompileRequest BaseCompile;
  RunRequest BaseRun;
};

/// Runs the serve loop: reads request lines from \p In until EOF or a
/// "shutdown" op, writes response lines to \p Out (flushed per line).
/// Returns the number of requests handled (excluding malformed lines,
/// which still get an error response). \p In is untied from any output
/// stream while the loop runs, so reading it never flushes \p Out behind
/// the response writer's back; its tie is restored on return.
size_t runServeLoop(std::istream &In, std::ostream &Out,
                    const ServeOptions &Opts);

} // namespace earthcc

#endif // EARTHCC_SERVICE_SERVE_H
