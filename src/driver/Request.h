//===- Request.h - Immutable compile/run request values ---------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver's request values, one per phase. Each request *is* the
/// configuration of its phase plus what names the work:
///
///  - CompileRequest is a PipelineOptions (phase toggles and the
///    communication-selection policy) plus the EARTH-C source text.
///  - RunRequest is a MachineConfig (machine shape, topology, engine,
///    instrumentation) plus the entry call and whether a service run
///    records its comm profile.
///
/// Every knob is therefore declared and defaulted once, in the
/// configuration that reads it, and a request passes wherever its
/// configuration does. What the paper fixes is a constant, not a knob: the
/// machine's cost calibration and routed-link latency (earth/CostModel.h,
/// earth/NetworkModel.h), `@node` placement as `index % nodes`, and
/// selection's guaranteed-dereference rule, block-overfetch limit and
/// loop-frequency factor (transform/CommSelection.h, analysis/Placement.h).
///
/// Both are hashable content: keyBytes() is a canonical, versioned
/// serialization of exactly the fields that can change the result, and
/// hashKeyBytes() of it is the 64-bit FNV-1a key. These are the *same
/// bytes* the CompileService hashes for its content-addressed artifact
/// cache, so "two requests collide in the cache" and "two requests are
/// semantically identical" are one property by construction. Host-only knobs
/// (PipelineOptions::LowerThreads and PassThreads — bit-identical output at
/// any setting) and per-run instrumentation (MachineConfig::Trace and
/// Profiler — observe without perturbing) are excluded from the key bytes.
/// RunRequest::RecordProfile is keyed: it decides what a cached run result
/// holds.
///
/// The declarative option table (requestOptions()) maps every externally
/// settable knob — CLI flag, `--serve` JSON field, environment variable —
/// onto these requests through one shared setter per knob, so the
/// command-line driver and the service protocol cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_DRIVER_REQUEST_H
#define EARTHCC_DRIVER_REQUEST_H

#include "earth/Runtime.h"
#include "transform/CommSelection.h"

#include <string>
#include <string_view>
#include <vector>

namespace earthcc {

/// The compile-side configuration: every communication-selection knob
/// (inherited flat from CommOptions, e.g. Opts.BlockThresholdWords) plus
/// the phase toggles. The presets mirror the paper's two program versions.
struct PipelineOptions : CommOptions {
  bool Optimize = true; ///< Run the communication optimization (Phase II).
  /// Run locality inference first (downgrades pseudo-remote accesses whose
  /// functions are always invoked at the data's owner). Off by default to
  /// match the paper's "simple vs optimized" experiment, where locality
  /// handling is orthogonal prior work.
  bool InferLocality = false;
  /// Worker threads for the per-function bytecode lowering stage: 1 lowers
  /// serially on the caller's thread, 0 uses the host's hardware
  /// concurrency, N uses N workers. Output is bit-identical at every
  /// setting (see lowerModule); this is purely a host wall-clock knob.
  unsigned LowerThreads = 1;
  /// Worker threads for the placement and comm-select stages, fanned out
  /// one function per task (same convention as LowerThreads: 1 = serial,
  /// 0 = all hardware). Output — module, remarks, comm profiles — is
  /// bit-identical at every setting (see CommAnalysis /
  /// selectModuleCommunication); purely a host wall-clock knob.
  unsigned PassThreads = 1;

  /// The paper's "simple" program version: no communication optimization.
  static PipelineOptions simple() {
    PipelineOptions O;
    O.Optimize = false;
    return O;
  }
  /// The paper's "optimized" version: full communication selection.
  static PipelineOptions optimized() { return PipelineOptions(); }

  /// This options object viewed as the communication-selection policy.
  const CommOptions &comm() const { return *this; }
};

/// Everything that determines a compiled artifact: the pipeline
/// configuration plus the source it compiles. Treat as an immutable value
/// once built: fill the fields (directly or through the option table), then
/// pass by const reference; Pipeline and CompileService never mutate a
/// request.
struct CompileRequest : PipelineOptions {
  std::string Source; ///< EARTH-C source text.

  /// The paper's "simple" program version: no communication optimization.
  static CompileRequest simple(std::string Source);
  /// The paper's "optimized" version: full communication selection.
  static CompileRequest optimized(std::string Source);

  /// Canonical, versioned serialization of every result-determining field.
  /// Equal bytes <=> semantically identical compile. This is the cache key
  /// the CompileService content-addresses artifacts by.
  std::string keyBytes() const;
  uint64_t key() const;      ///< FNV-1a 64 of keyBytes().
  std::string keyHex() const; ///< key() as 16 lowercase hex digits.
};

/// Everything that determines one simulated execution of a compiled
/// module: the machine it runs on plus the call that starts it. Defaults
/// are MachineConfig's, except that NumNodes defaults to 4, the CLI's and
/// the serve protocol's machine size.
struct RunRequest : MachineConfig {
  std::string Entry = "main";
  std::vector<RtValue> Args; ///< Entry function arguments.
  /// Whether a CompileService run records the per-site comm profile with
  /// its result (SimArtifact::ProfileJson). The serve loop sets it from a
  /// request's `profile` field, so a run nobody asked to profile pays for
  /// neither the profiler nor its JSON. Keyed: a result with a profile is
  /// a different artifact from one without. On by default, so API callers
  /// keep their profiles. Pipeline::run ignores it (it profiles exactly
  /// when MachineConfig::Profiler is set).
  bool RecordProfile = true;

  RunRequest() { NumNodes = 4; }

  /// Canonical serialization of the result-determining fields. Engine is
  /// keyed *conservatively*: simulated results are bit-identical across
  /// both engines (the equivalence suite pins it), but the service treats
  /// "how was this computed" as part of the artifact's identity rather
  /// than relying on that theorem at cache-lookup time.
  std::string keyBytes() const;
};

/// FNV-1a 64-bit over \p Bytes — the content hash behind request keys.
uint64_t hashKeyBytes(std::string_view Bytes);
std::string keyBytesToHex(uint64_t Key);

//===----------------------------------------------------------------------===//
// Declarative option table
//===----------------------------------------------------------------------===//

/// One externally settable knob: the CLI spells it `--name[=value]`, a
/// `--serve` JSON request spells it `"name": value`, and (when Env is set)
/// the environment spells it `ENV=value`. All three go through the same
/// Apply function, so the surfaces cannot drift.
struct RequestOption {
  const char *Name;  ///< Flag / JSON field name (no leading dashes).
  /// Help text for the value ("N", "on|off", "ast|bytecode"); nullptr for
  /// boolean knobs, which need no value on the CLI (implied "on") but
  /// still accept on|off / true|false everywhere.
  const char *Value;
  const char *Env;   ///< Environment override variable, or nullptr.
  const char *Help;
  /// Applies value \p V to the request pair. Returns false with \p Err set
  /// on a malformed value. An empty \p V means "flag present without a
  /// value" (booleans read it as "on").
  bool (*Apply)(CompileRequest &C, RunRequest &R, const std::string &V,
                std::string &Err);
};

/// The full table, in help order.
const std::vector<RequestOption> &requestOptions();

/// Applies one option by name. Returns false with \p Err set when the name
/// is unknown or the value malformed.
bool applyRequestOption(CompileRequest &C, RunRequest &R,
                        std::string_view Name, const std::string &Value,
                        std::string &Err);

/// Applies every environment override in the table (options whose Env
/// variable is set in the process environment). Returns false with \p Err
/// set on the first malformed value.
bool applyRequestEnv(CompileRequest &C, RunRequest &R, std::string &Err);

/// Parses "on"/"true"/"1"/"" as true and "off"/"false"/"0" as false.
bool parseOnOff(const std::string &V, bool &Out);

/// Parses a decimal integer in [0, 2^32) strictly (no trailing text).
/// Returns false with \p Err naming \p What on anything else.
bool parseUnsignedValue(const std::string &V, unsigned &Out,
                        std::string &Err, const char *What);

} // namespace earthcc

#endif // EARTHCC_DRIVER_REQUEST_H
