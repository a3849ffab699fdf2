//===- Bytecode.h - Register bytecode for the EARTH simulator ---*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat executable form of a SIMPLE module. A one-time lowering pass
/// (Lower.cpp) numbers each function's variables into dense frame slots and
/// flattens its structured body into a linear instruction stream; the
/// bytecode engine (Bytecode.cpp) then dispatches over that stream with
/// computed indices — no statement-tree walking and no map lookups per
/// variable access.
///
/// **The lowering invariant: one instruction per interpreter step.** The
/// AST engine advances a fiber by "steps" (one control decision or one
/// basic statement per step), and the EARTH fiber model is expressed in
/// those steps — the EU preemption quantum (MachineConfig::EUQuantum) and
/// the interpreter fuel (MaxSteps) both count them. The lowering therefore
/// emits exactly one instruction for every step the AST walker would take,
/// including the pure control transitions (entering a nested construct,
/// popping a finished sequence, the join check of a parallel construct).
/// This is what makes the two engines produce bit-identical simulated
/// time, operation counters, step counts, and traces — which the
/// engine-equivalence test suite asserts over every workload.
///
/// Step-to-opcode map (AST walker step -> instruction):
///   basic statement                -> Assign / Call / Return / BlkMov / Atomic
///   Seq pushes a non-basic child   -> Enter
///   Seq end pops its entry         -> EndSeq (jump)
///   If evaluates its condition     -> Br
///   If pops after the branch       -> EndCompound
///   Switch selects a case          -> Switch
///   Switch pops after the case     -> EndCompound
///   While/do-while condition       -> LoopCond
///   do-while enters its body       -> Enter
///   parallel Seq spawns branches   -> ParSpawn
///   parallel Seq / forall join     -> Join
///   forall runs Init               -> ForallInit
///   forall cond + iteration spawn  -> ForallCond
///   implicit void return           -> ImplicitRet
///
/// Fiber-entry regions (parallel-sequence branches, forall bodies) are laid
/// out after the main stream of their function and terminate through
/// EndSeq -> ImplicitRet, mirroring the walker's "sequence pops, control
/// stack empties, frame pops" step pair.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_INTERP_BYTECODE_H
#define EARTHCC_INTERP_BYTECODE_H

#include "earth/Runtime.h"
#include "interp/Interp.h"
#include "simple/Function.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace earthcc {

struct BytecodeFunction;

/// Opcodes of the register bytecode. See the file comment for the
/// one-instruction-per-step map.
enum class BcOp : uint8_t {
  Assign,      ///< One SIMPLE assignment (any LValue/RValue shape).
  Call,        ///< Call statement (intrinsic or user function).
  Return,      ///< Explicit return, optionally with a value.
  BlkMov,      ///< Block transfer between a pointer and a local struct.
  Atomic,      ///< writeto/addto/valueof on a shared variable.
  Enter,       ///< Enter a nested compound construct (one step, falls through).
  Br,          ///< If condition: fallthrough = then, A = else target.
  LoopCond,    ///< Loop condition: true -> A, false -> B.
  Switch,      ///< Switch dispatch via the case pool; A = default target.
  EndSeq,      ///< Sequence pop: jump to A.
  EndCompound, ///< If/Switch pop: fall through.
  ParSpawn,    ///< Spawn parallel-sequence branches (branch pool), then Join.
  Join,        ///< Join check of the innermost parallel construct.
  ForallInit,  ///< Create the forall's join, fall through into Init code.
  ForallCond,  ///< Forall condition: spawn body fiber at A / exit to B.
  ImplicitRet, ///< Implicit void return (frame termination).
};

/// Condition-shape marker for conditions that are not pure (Opnd / Unary /
/// Binary). The bytecode engine raises the AST walker's "condition with
/// memory access" diagnostic when it dispatches one.
constexpr uint8_t BcBadCondRK = 0xff;

/// How a Switch instruction locates its target at execution time. Lowering
/// annotates every Switch (BcInsn::Sub) after the case targets are patched;
/// both strategies compute the same target as the AST walker's first-match
/// linear scan over the source-ordered cases, which stays the observable
/// contract (duplicate case values: first wins).
///
/// The dense structures (JumpPool / JumpTables) are strictly additive:
/// CasePool keeps the cases in source order, because that order is the
/// linear scan's first-match contract, and the dense table is built from it
/// with the first occurrence of a duplicate value winning.
enum class BcSwitchMode : uint8_t {
  Linear = 0, ///< Scan CasePool[B .. B+Words) in source order: sparse,
              ///< single-case and default-only (empty scan) switches.
  Dense,      ///< Bounds-check against JumpTables[Dst], then one indexed
              ///< load from JumpPool (-1 entries mean the default target).
};

/// One dense-range jump table: case values [Lo, Lo + Size) map to
/// JumpPool[Begin .. Begin + Size), holes holding -1 (default target).
struct BcJumpTable {
  int64_t Lo = 0;     ///< Smallest case value in the table.
  uint32_t Begin = 0; ///< First entry in BytecodeFunction::JumpPool.
  uint32_t Size = 0;  ///< Dense span (largest - smallest + 1).

  bool operator==(const BcJumpTable &) const = default;
};

/// A leaf operand resolved to a frame slot or a pre-built constant value.
struct BcOperand {
  enum class K : uint8_t { None, Slot, Const } Kind = K::None;
  int32_t Slot = -1;      ///< Frame slot index when Kind == Slot.
  RtValue Const;          ///< Pre-built value when Kind == Const.
  const Var *V = nullptr; ///< Source variable, for diagnostics only.
};

/// One bytecode instruction. The union of fields every opcode needs; the
/// per-opcode meaning of A/B/Off/Words is documented in Lower.cpp next to
/// the code that emits it. `Src` points at the originating statement; the
/// engine reads names from it for its diagnostics only (their text must
/// match the AST engine's).
struct BcInsn {
  BcOp Op = BcOp::ImplicitRet;
  uint8_t RK = 0;    ///< RValueKind of an Assign / condition shape.
  uint8_t LK = 0;    ///< LValueKind of an Assign.
  uint8_t Sub = 0;   ///< UnaryOp/BinaryOp/AtomicOp/BlkMovDir/Intrinsic.
  uint8_t Loc = 0;   ///< Locality of a Load/Store (cast of Locality).
  uint8_t Place = 0; ///< CallPlacement of a Call.
  int32_t A = -1;    ///< Slot or jump target (opcode-specific).
  int32_t B = -1;    ///< Slot, jump target or pool index (opcode-specific).
  uint32_t Off = 0;  ///< Word offset of a field access.
  uint32_t Words = 0; ///< BlkMov word count / pool element count.
  int32_t Dst = -1;  ///< Destination slot (-1 when none).
  BcOperand X, Y;    ///< Value operands (cond/assign/atomic/return/placement).
  /// CommSites id of the originating statement (-1 for non-comm opcodes).
  /// Stamped from the table buildCommSiteTable builds over the module being
  /// lowered, so profiles keyed by it match the AST walker's row for row.
  int32_t Site = -1;
  const BytecodeFunction *Callee = nullptr; ///< Resolved callee of a Call.
  const Stmt *Src = nullptr; ///< Originating statement (diagnostics only).
};

/// Frame-layout record of one variable: its word extent within the flat
/// frame image plus whether activation must allocate a shared-variable cell.
struct BcSlot {
  uint32_t WordOff = 0; ///< First word within the frame image.
  uint32_t Words = 1;   ///< Word extent (>= 1).
  bool SharedCell = false; ///< Function-scope `shared`: allocate a cell.
  const Var *V = nullptr;  ///< Source variable (names in diagnostics).
};

/// One lowered function: dense frame layout plus linear code.
struct BytecodeFunction {
  const Function *Fn = nullptr;
  std::vector<BcSlot> Slots;    ///< Indexed by slot = Var::id().
  uint32_t FrameWords = 0;      ///< Total words of the flat frame image.
  std::vector<int32_t> ParamSlots;
  std::vector<BcInsn> Code;
  std::vector<BcOperand> ArgPool; ///< Call argument lists.
  std::vector<std::pair<int64_t, int32_t>> CasePool; ///< Switch cases.
  std::vector<int32_t> BranchPool; ///< Parallel-sequence branch entries.

  /// Switch dispatch acceleration (see BcSwitchMode). Built per function by
  /// lowerModule after case targets are patched; CasePool above stays in
  /// source order.
  std::vector<BcJumpTable> JumpTables; ///< Dense switches, by BcInsn::Dst.
  std::vector<int32_t> JumpPool;       ///< Dense targets; -1 = default.

  /// Inline caches resolved at lowering time (dropped with the whole
  /// BytecodeModule on Module::invalidateExecCache(), so post-lowering IR
  /// mutation can never execute against stale layouts):
  /// Word offset of each parameter within this function's own frame image —
  /// the Call opcode copies arguments through the callee's cache instead of
  /// chasing ParamSlots -> Slots -> WordOff per argument.
  std::vector<uint32_t> ParamWordOffs;
  /// Word offsets of the frame's function-scope shared-variable cells, in
  /// slot order; activation allocates cells from this list instead of
  /// scanning every slot.
  std::vector<uint32_t> SharedCellOffs;
};

/// A whole lowered module. Built once by lowerModule() and shared across
/// runs (Pipeline caches it on the Module, so compile-once/run-many sweeps
/// pay lowering exactly once).
struct BytecodeModule {
  const Module *M = nullptr;
  std::vector<std::unique_ptr<BytecodeFunction>> Funcs;
  std::unordered_map<const Function *, const BytecodeFunction *> ByFn;
  /// Module-level shared variables in their allocation order (the engine
  /// allocates their node-0 cells in exactly this order at run start).
  std::vector<const Var *> SharedGlobals;
  std::unordered_map<const Var *, int32_t> SharedGlobalIndex;
  /// Number of comm sites in the module's CommSites table at lowering time
  /// (the BcInsn::Site id space). The engine sizes the profiler with it.
  uint32_t NumSites = 0;

  const BytecodeFunction *function(const Function *Fn) const {
    auto It = ByFn.find(Fn);
    return It == ByFn.end() ? nullptr : It->second;
  }
};

/// Executes \p Entry of the lowered module \p BM on a simulated machine.
/// Semantics, timing, counters and trace output are bit-identical to the
/// AST engine's (asserted by the engine-equivalence tests).
RunResult runProgramBytecode(const BytecodeModule &BM,
                             const MachineConfig &Config,
                             const std::string &Entry,
                             const std::vector<RtValue> &Args);

} // namespace earthcc

#endif // EARTHCC_INTERP_BYTECODE_H
