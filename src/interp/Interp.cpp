//===- Interp.cpp - Discrete-event SIMPLE interpreter ----------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/EngineCommon.h"
#include "interp/Lower.h"
#include "simple/CommSites.h"
#include "support/CommProfiler.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <queue>

using namespace earthcc;
using earthcc::interp::RuntimeFailure;

namespace {

//===----------------------------------------------------------------------===//
// Fiber state.
//===----------------------------------------------------------------------===//

/// Storage for one variable: scalars hold one word; struct-typed block
/// temporaries hold their full word image. AvailAt is the simulated time at
/// which the most recent split-phase producer completes.
struct VarSlot {
  std::vector<RtValue> Words;
  double AvailAt = 0.0;
};

using LocalsMap = std::map<const Var *, VarSlot>;

struct Fiber;

/// Join counter for one parallel-construct instance.
struct JoinCtx {
  int Outstanding = 0;
  Fiber *Waiter = nullptr;
  double LatestEnd = 0.0;
};

/// One position in the structured control of a frame.
struct ControlEntry {
  const Stmt *S = nullptr;
  int Phase = 0;
  std::shared_ptr<JoinCtx> Join;
};

/// One function activation.
struct Frame {
  const Function *Fn = nullptr;
  unsigned Node = 0;
  std::shared_ptr<LocalsMap> Locals;
  std::vector<ControlEntry> Control;
  const Var *ResultVar = nullptr; ///< Slot in the caller frame.
  double WriteSync = 0.0;         ///< Completion of outstanding writes.
  bool Migrated = false;          ///< Entered via a placed call.
};

struct Fiber {
  uint64_t Id = 0;
  std::vector<Frame> Stack;
  std::shared_ptr<JoinCtx> ParentJoin;
  bool Done = false;
};

struct Event {
  double T = 0.0;
  uint64_t Seq = 0;
  Fiber *F = nullptr;
  friend bool operator>(const Event &A, const Event &B) {
    if (A.T != B.T)
      return A.T > B.T;
    return A.Seq > B.Seq;
  }
};

/// Result of one dispatch step inside a fiber run.
///
/// BlockRetry means the current statement could not start (an operand is
/// not yet available): nothing was executed; retry the same control point
/// at the given time. YieldAt means the step completed but the fiber must
/// re-enter the scheduler (fiber migrated to another node); do not retry.
enum class StepStatus { Continue, BlockRetry, YieldAt, WaitJoin, FiberDone };

//===----------------------------------------------------------------------===//
// Interpreter.
//===----------------------------------------------------------------------===//

class Interp {
public:
  Interp(const Module &M, const MachineConfig &Cfg)
      : M(M), Cfg(Cfg), Trc(Cfg.Trace), Prof(Cfg.Profiler),
        Mem(std::max(1u, Cfg.NumNodes)),
        Net(createNetworkModel(Cfg.Topo, Mem.numNodes(), Cfg.Costs,
                               Cfg.NetHopNs, Cfg.NetLinkWordNs)),
        EUClock(Mem.numNodes(), 0.0), LastFiber(Mem.numNodes(), nullptr) {}

  RunResult run(const std::string &Entry, const std::vector<RtValue> &Args);

private:
  const CostModel &cost() const { return Cfg.Costs; }

  [[noreturn]] void runtimeError(const std::string &Message) const {
    throw RuntimeFailure{Message};
  }

  //===--------------------------------------------------------------------===
  // Tracing. Every emitter is guarded by `if (Trc)` at the call site, so a
  // null sink costs one branch and builds no event objects.
  //===--------------------------------------------------------------------===

  /// A completed span: a transaction in flight, an SU service slice, an EU
  /// fiber slice.
  void traceSpan(const char *Name, const char *Cat, double Ts, double Dur,
                 unsigned Pid, uint32_t Tid,
                 std::vector<TraceEvent::Arg> Args = {}) {
    TraceEvent E;
    E.Name = Name;
    E.Cat = Cat;
    E.Ph = 'X';
    E.TsNs = Ts;
    E.DurNs = Dur;
    E.Pid = Pid;
    E.Tid = Tid;
    E.Args = std::move(Args);
    Trc->event(E);
  }

  /// A point event (sync-slot signal, spawn, context switch, fallback).
  void traceInstant(const char *Name, const char *Cat, double Ts,
                    unsigned Pid, uint32_t Tid,
                    std::vector<TraceEvent::Arg> Args = {}) {
    TraceEvent E;
    E.Name = Name;
    E.Cat = Cat;
    E.Ph = 'i';
    E.TsNs = Ts;
    E.Pid = Pid;
    E.Tid = Tid;
    E.Args = std::move(Args);
    Trc->event(E);
  }

  /// A sampled clock value (EU/SU clock advance) for counter tracks.
  void traceClock(const char *Name, double Ts, unsigned Pid, uint32_t Tid,
                  double Value) {
    TraceEvent E;
    E.Name = Name;
    E.Cat = "clock";
    E.Ph = 'C';
    E.TsNs = Ts;
    E.Pid = Pid;
    E.Tid = Tid;
    E.Args.emplace_back("ns", static_cast<uint64_t>(Value));
    Trc->event(E);
  }

  //===--------------------------------------------------------------------===
  // Slots and values.
  //===--------------------------------------------------------------------===

  VarSlot &slot(Frame &Fr, const Var *V) {
    auto It = Fr.Locals->find(V);
    if (It == Fr.Locals->end())
      runtimeError("variable '" + V->name() + "' has no storage in '" +
                   Fr.Fn->name() + "'");
    return It->second;
  }

  double operandAvail(Frame &Fr, const Operand &O) {
    return O.isVar() ? slot(Fr, O.getVar()).AvailAt : 0.0;
  }

  RtValue operandValue(Frame &Fr, const Operand &O) {
    if (O.isConst()) {
      const ConstantValue &C = O.getConst();
      return C.isInt() ? RtValue::makeInt(C.I) : RtValue::makeDbl(C.D);
    }
    const RtValue &V = slot(Fr, O.getVar()).Words[0];
    if (V.isUndef())
      runtimeError("read of undefined variable '" + O.getVar()->name() +
                   "' in '" + Fr.Fn->name() + "'");
    return V;
  }

  GlobalAddr pointerValue(Frame &Fr, const Var *V) {
    const RtValue &Val = slot(Fr, V).Words[0];
    if (Val.isUndef())
      runtimeError("dereference of undefined pointer '" + V->name() + "'");
    if (Val.K == RtValue::Kind::Int && Val.I == 0)
      return GlobalAddr(); // NULL stored into a pointer.
    if (Val.K != RtValue::Kind::Ptr)
      runtimeError("dereference of non-pointer value in '" + V->name() + "'");
    return Val.P;
  }

  /// Builds the locals map for an activation of \p Fn on \p Node,
  /// allocating memory cells for function-scope shared variables.
  std::shared_ptr<LocalsMap> makeLocals(const Function *Fn, unsigned Node) {
    auto Locals = std::make_shared<LocalsMap>();
    for (const auto &V : Fn->vars()) {
      VarSlot S;
      S.Words.resize(std::max(1u, V->type()->sizeInWords()));
      if (V->kind() == VarKind::Shared)
        S.Words[0] = RtValue::makePtr(Mem.allocate(Node, 1));
      (*Locals)[V.get()] = std::move(S);
    }
    return Locals;
  }

  GlobalAddr sharedAddress(Frame &Fr, const Var *V) {
    if (auto It = GlobalShared.find(V); It != GlobalShared.end())
      return It->second;
    const RtValue &Cell = slot(Fr, V).Words[0];
    assert(Cell.K == RtValue::Kind::Ptr && "shared var has no cell");
    return Cell.P;
  }

  //===--------------------------------------------------------------------===
  // Remote transaction timing (SU is a FIFO server per node).
  //===--------------------------------------------------------------------===

  /// \p SuLabel names the request kind for the target node's SU trace
  /// track. It is one of the pre-interned "su:<op>" literals from
  /// EngineCommon.h (prefixed so CounterTraceSink keeps SU service slices
  /// distinct from the issuing node's in-flight span for the same
  /// operation) — callers pass the constant, so the trace path never
  /// builds a string per transaction.
  ///
  /// The latency arithmetic itself lives in NetworkModel::transaction()
  /// (earth/NetworkModel.h) — the single source of truth shared with the
  /// bytecode engine's identically-named wrapper in Bytecode.cpp, so the
  /// two engines cannot drift. \p FwdWords / \p BackWords are the payload
  /// words on the request and reply legs (they matter only to bandwidth-
  /// modeling topologies; the ideal network ignores them).
  double transactionComplete(double IssueEnd, unsigned From, unsigned To,
                             double Service, double ExtraWords,
                             uint64_t FwdWords, uint64_t BackWords,
                             const char *SuLabel) {
    NetTransaction Tx = Net->transaction(IssueEnd, From, To, Service,
                                         ExtraWords, FwdWords, BackWords);
    if (Trc) {
      traceSpan(SuLabel, "su", Tx.SuStart, Tx.SuEnd - Tx.SuStart, To,
                TraceTidSU);
      traceClock("su-clock", Tx.SuEnd, To, TraceTidSU, Tx.SuEnd);
    }
    return Tx.DoneAt;
  }

  //===--------------------------------------------------------------------===
  // Pure value computation (shared with the bytecode engine so the two can
  // never drift — see EngineCommon.h).
  //===--------------------------------------------------------------------===

  RtValue evalBinary(BinaryOp Op, const RtValue &A, const RtValue &B) {
    return interp::evalBinary(Op, A, B);
  }

  RtValue evalUnary(UnaryOp Op, const RtValue &A) {
    return interp::evalUnary(Op, A);
  }

  /// Availability of everything a pure (condition-style) RValue reads.
  double pureAvail(Frame &Fr, const RValue &R) {
    switch (R.kind()) {
    case RValueKind::Opnd:
      return operandAvail(Fr, static_cast<const OpndRV &>(R).Val);
    case RValueKind::Unary:
      return operandAvail(Fr, static_cast<const UnaryRV &>(R).Val);
    case RValueKind::Binary: {
      const auto &B = static_cast<const BinaryRV &>(R);
      return std::max(operandAvail(Fr, B.A), operandAvail(Fr, B.B));
    }
    default:
      runtimeError("condition with memory access");
    }
  }

  RtValue pureValue(Frame &Fr, const RValue &R) {
    switch (R.kind()) {
    case RValueKind::Opnd:
      return operandValue(Fr, static_cast<const OpndRV &>(R).Val);
    case RValueKind::Unary: {
      const auto &U = static_cast<const UnaryRV &>(R);
      return evalUnary(U.Op, operandValue(Fr, U.Val));
    }
    case RValueKind::Binary: {
      const auto &B = static_cast<const BinaryRV &>(R);
      return evalBinary(B.Op, operandValue(Fr, B.A), operandValue(Fr, B.B));
    }
    default:
      runtimeError("condition with memory access");
    }
  }

  //===--------------------------------------------------------------------===
  // Scheduling.
  //===--------------------------------------------------------------------===

  void schedule(Fiber *F, double T) { Q.push({T, ++EventSeq, F}); }

  Fiber *newFiber() {
    Fibers.push_back(std::make_unique<Fiber>());
    Fibers.back()->Id = Fibers.size();
    return Fibers.back().get();
  }

  void finishFiber(Fiber *F, double End, unsigned Node) {
    F->Done = true;
    if (F == MainFiber)
      EndTime = End;
    if (auto Join = F->ParentJoin) {
      --Join->Outstanding;
      Join->LatestEnd = std::max(Join->LatestEnd, End);
      // The EARTH sync-slot signal: the settling fiber decrements its
      // parent's join counter (outstanding writes already folded into End).
      if (Trc)
        traceInstant("sync-signal", "sync", End, Node, TraceTidEU,
                     {{"fiber", F->Id}, {"outstanding", Join->Outstanding}});
      if (Join->Outstanding == 0 && Join->Waiter) {
        Fiber *W = Join->Waiter;
        Join->Waiter = nullptr;
        schedule(W, Join->LatestEnd);
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Basic-statement execution.
  //===--------------------------------------------------------------------===

  StepStatus execAssign(Frame &Fr, const AssignStmt &A, double &Now,
                        double &BlockTime) {
    double Need = 0.0;
    switch (A.R->kind()) {
    case RValueKind::Opnd:
    case RValueKind::Unary:
    case RValueKind::Binary:
      Need = pureAvail(Fr, *A.R);
      break;
    case RValueKind::Load:
      Need = slot(Fr, static_cast<const LoadRV &>(*A.R).Base).AvailAt;
      break;
    case RValueKind::FieldRead:
      Need =
          slot(Fr, static_cast<const FieldReadRV &>(*A.R).StructVar).AvailAt;
      break;
    case RValueKind::AddrOfField:
      Need = slot(Fr, static_cast<const AddrOfFieldRV &>(*A.R).Base).AvailAt;
      break;
    }
    if (A.L.Kind == LValueKind::Store)
      Need = std::max(Need, slot(Fr, A.L.V).AvailAt);
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    // Loads: the one possibly split-phase read form.
    if (const auto *L = dynCast<LoadRV>(A.R.get())) {
      assert(A.L.Kind == LValueKind::Var && "load must target a variable");
      VarSlot &Dst = slot(Fr, A.L.V);
      GlobalAddr Addr = pointerValue(Fr, L->Base);
      if (Addr.isNull()) {
        if (!Cfg.AllowNullReads)
          runtimeError("null pointer read via '" + L->Base->name() + "' in '" +
                       Fr.Fn->name() + "'");
        Now += cost().ReadIssue;
        Dst.Words[0] = RtValue::makeInt(0);
        Dst.AvailAt = Now;
        return StepStatus::Continue;
      }
      Addr.Offset += L->OffsetWords;
      if (!Mem.valid(Addr))
        runtimeError("out-of-bounds read at " + Addr.str());

      if (Cfg.SequentialMode || !L->isRemote()) {
        if (!Cfg.SequentialMode && L->Loc == Locality::Local &&
            Addr.Node != static_cast<int32_t>(Fr.Node))
          runtimeError("'local' access to remote address " + Addr.str() +
                       " from node " + std::to_string(Fr.Node));
        Now += cost().StmtCost + cost().LocalAccess;
        Dst.Words[0] = Mem.word(Addr);
        Dst.AvailAt = Now;
        return StepStatus::Continue;
      }

      ++Ctr.ReadData;
      if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
        ++Ctr.LocalFallbacks;
        if (Trc)
          traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                       {{"op", "read-data"}});
        if (Prof)
          Prof->recordLocal(SiteTable.idOf(&A), CommOpKind::Read, Fr.Node, 1);
        Now += cost().LocalFallback;
        Dst.Words[0] = Mem.word(Addr);
        Dst.AvailAt = Now;
        return StepStatus::Continue;
      }
      double IssueStart = Now;
      Now += cost().ReadIssue;
      ++Ctr.WordsMoved;
      double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                          cost().SUReadService, 0.0,
                                          /*FwdWords=*/0, /*BackWords=*/1,
                                          interp::SuReadDataLabel);
      if (Trc)
        traceSpan("read-data", "comm", IssueStart, DoneAt - IssueStart,
                  Fr.Node, TraceTidComm,
                  {{"to", Addr.Node}, {"addr", Addr.str()}});
      if (Prof)
        Prof->record(SiteTable.idOf(&A), CommOpKind::Read, Fr.Node, Addr.Node,
                     1, IssueStart, DoneAt);
      Dst.Words[0] = Mem.word(Addr);
      Dst.AvailAt = DoneAt;
      return StepStatus::Continue;
    }

    // Pure value computation.
    RtValue Val;
    switch (A.R->kind()) {
    case RValueKind::FieldRead: {
      const auto &FR = static_cast<const FieldReadRV &>(*A.R);
      const RtValue &W = slot(Fr, FR.StructVar).Words[FR.OffsetWords];
      if (W.isUndef())
        runtimeError("read of undefined field '" + FR.FieldName + "' of '" +
                     FR.StructVar->name() + "'");
      Val = W;
      break;
    }
    case RValueKind::AddrOfField: {
      const auto &AF = static_cast<const AddrOfFieldRV &>(*A.R);
      GlobalAddr Addr = pointerValue(Fr, AF.Base);
      if (Addr.isNull())
        runtimeError("&(null->" + AF.FieldName + ")");
      Addr.Offset += AF.OffsetWords;
      Val = RtValue::makePtr(Addr);
      break;
    }
    default:
      Val = pureValue(Fr, *A.R);
      break;
    }

    switch (A.L.Kind) {
    case LValueKind::Var: {
      // Plain copies are register moves; real computation costs a cycle+.
      Now += A.R->kind() == RValueKind::Opnd ? cost().CopyCost
                                             : cost().StmtCost;
      VarSlot &Dst = slot(Fr, A.L.V);
      Dst.Words[0] = Val;
      Dst.AvailAt = Now;
      return StepStatus::Continue;
    }
    case LValueKind::FieldWrite: {
      Now += cost().StmtCost + cost().LocalAccess;
      // AvailAt is left untouched: a still-pending blkmov gates readers.
      slot(Fr, A.L.V).Words[A.L.OffsetWords] = Val;
      return StepStatus::Continue;
    }
    case LValueKind::Store: {
      GlobalAddr Addr = pointerValue(Fr, A.L.V);
      if (Addr.isNull())
        runtimeError("null pointer write via '" + A.L.V->name() + "'");
      Addr.Offset += A.L.OffsetWords;
      if (!Mem.valid(Addr))
        runtimeError("out-of-bounds write at " + Addr.str());

      if (Cfg.SequentialMode || !A.L.isRemoteStore()) {
        if (!Cfg.SequentialMode && A.L.Loc == Locality::Local &&
            Addr.Node != static_cast<int32_t>(Fr.Node))
          runtimeError("'local' store to remote address " + Addr.str());
        Now += cost().StmtCost + cost().LocalAccess;
        Mem.word(Addr) = Val;
        return StepStatus::Continue;
      }

      ++Ctr.WriteData;
      if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
        ++Ctr.LocalFallbacks;
        if (Trc)
          traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                       {{"op", "write-data"}});
        if (Prof)
          Prof->recordLocal(SiteTable.idOf(&A), CommOpKind::Write, Fr.Node, 1);
        Now += cost().LocalFallback;
        Mem.word(Addr) = Val;
        return StepStatus::Continue;
      }
      double IssueStart = Now;
      Now += cost().WriteIssue;
      ++Ctr.WordsMoved;
      double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                          cost().SUWriteService, 0.0,
                                          /*FwdWords=*/1, /*BackWords=*/0,
                                          interp::SuWriteDataLabel);
      if (Trc)
        traceSpan("write-data", "comm", IssueStart, DoneAt - IssueStart,
                  Fr.Node, TraceTidComm,
                  {{"to", Addr.Node}, {"addr", Addr.str()}});
      if (Prof)
        Prof->record(SiteTable.idOf(&A), CommOpKind::Write, Fr.Node, Addr.Node,
                     1, IssueStart, DoneAt);
      Mem.word(Addr) = Val;
      Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
      return StepStatus::Continue;
    }
    }
    return StepStatus::Continue;
  }

  StepStatus execBlkMov(Frame &Fr, const BlkMovStmt &B, double &Now,
                        double &BlockTime) {
    VarSlot &Local = slot(Fr, B.LocalStruct);
    double Need = slot(Fr, B.Ptr).AvailAt;
    if (B.Dir == BlkMovDir::WriteFromLocal)
      Need = std::max(Need, Local.AvailAt);
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    GlobalAddr Addr = pointerValue(Fr, B.Ptr);
    if (Addr.isNull())
      runtimeError("blkmov through null pointer '" + B.Ptr->name() + "'");
    if (!Mem.valid(Addr, B.Words))
      runtimeError("blkmov out of bounds at " + Addr.str());

    auto copyWords = [&] {
      for (unsigned W = 0; W != B.Words; ++W) {
        GlobalAddr WA = Addr;
        WA.Offset += W;
        if (B.Dir == BlkMovDir::ReadToLocal)
          Local.Words[W] = Mem.word(WA);
        else
          Mem.word(WA) = Local.Words[W];
      }
    };

    if (Cfg.SequentialMode) {
      Now += cost().StmtCost + cost().LocalAccess * B.Words;
      copyWords();
      if (B.Dir == BlkMovDir::ReadToLocal)
        Local.AvailAt = Now;
      return StepStatus::Continue;
    }

    ++Ctr.BlkMov;
    if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
      ++Ctr.LocalFallbacks;
      if (Trc)
        traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                     {{"op", "blkmov"}, {"words", B.Words}});
      if (Prof)
        Prof->recordLocal(SiteTable.idOf(&B), CommOpKind::BlkMov, Fr.Node,
                          B.Words);
      Now += cost().LocalFallback + cost().LocalBlkPerWord * B.Words;
      copyWords();
      if (B.Dir == BlkMovDir::ReadToLocal)
        Local.AvailAt = Now;
      return StepStatus::Continue;
    }

    double IssueStart = Now;
    Now += cost().BlkIssue;
    Ctr.WordsMoved += B.Words;
    bool BlkRead = B.Dir == BlkMovDir::ReadToLocal;
    double DoneAt = transactionComplete(
        Now, Fr.Node, Addr.Node, cost().SUBlkService, B.Words,
        /*FwdWords=*/BlkRead ? 0 : B.Words,
        /*BackWords=*/BlkRead ? B.Words : 0, interp::SuBlkMovLabel);
    if (Trc)
      traceSpan("blkmov", "comm", IssueStart, DoneAt - IssueStart, Fr.Node,
                TraceTidComm,
                {{"to", Addr.Node},
                 {"addr", Addr.str()},
                 {"words", B.Words},
                 {"dir", B.Dir == BlkMovDir::ReadToLocal ? "read" : "write"}});
    if (Prof)
      Prof->record(SiteTable.idOf(&B), CommOpKind::BlkMov, Fr.Node, Addr.Node,
                   B.Words, IssueStart, DoneAt);
    copyWords();
    if (B.Dir == BlkMovDir::ReadToLocal)
      Local.AvailAt = DoneAt;
    else
      Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
    return StepStatus::Continue;
  }

  StepStatus execAtomic(Frame &Fr, const AtomicStmt &A, double &Now,
                        double &BlockTime) {
    double Need = A.Op == AtomicOp::ValueOf ? 0.0 : operandAvail(Fr, A.Val);
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    GlobalAddr Addr = sharedAddress(Fr, A.SharedVar);
    if (!Cfg.SequentialMode)
      ++Ctr.Atomic; // A plain variable access in the sequential program.
    bool LocalHit =
        Cfg.SequentialMode || Addr.Node == static_cast<int32_t>(Fr.Node);
    double LocalCost =
        Cfg.SequentialMode ? cost().StmtCost : cost().LocalFallback;
    RtValue &Cell = Mem.word(Addr);

    switch (A.Op) {
    case AtomicOp::WriteTo:
    case AtomicOp::AddTo: {
      RtValue V = operandValue(Fr, A.Val);
      if (A.Op == AtomicOp::AddTo) {
        if (Cell.isUndef())
          runtimeError("addto() on uninitialized shared variable '" +
                       A.SharedVar->name() + "'");
        Cell = evalBinary(BinaryOp::Add, Cell, V);
      } else {
        Cell = V;
      }
      if (LocalHit) {
        if (Prof && !Cfg.SequentialMode)
          Prof->recordLocal(SiteTable.idOf(&A), CommOpKind::Atomic, Fr.Node,
                            0);
        Now += LocalCost;
      } else {
        double IssueStart = Now;
        Now += cost().WriteIssue;
        double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                            cost().SUAtomicService, 0.0,
                                            /*FwdWords=*/0, /*BackWords=*/0,
                                            interp::SuAtomicLabel);
        if (Trc)
          traceSpan("atomic", "comm", IssueStart, DoneAt - IssueStart,
                    Fr.Node, TraceTidComm,
                    {{"to", Addr.Node}, {"var", A.SharedVar->name()}});
        if (Prof)
          Prof->record(SiteTable.idOf(&A), CommOpKind::Atomic, Fr.Node,
                       Addr.Node, 0, IssueStart, DoneAt);
        Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
      }
      return StepStatus::Continue;
    }
    case AtomicOp::ValueOf: {
      if (Cell.isUndef())
        runtimeError("valueof() on uninitialized shared variable '" +
                     A.SharedVar->name() + "'");
      VarSlot &Dst = slot(Fr, A.Result);
      Dst.Words[0] = Cell;
      if (LocalHit) {
        if (Prof && !Cfg.SequentialMode)
          Prof->recordLocal(SiteTable.idOf(&A), CommOpKind::Atomic, Fr.Node,
                            0);
        Now += LocalCost;
        Dst.AvailAt = Now;
      } else {
        double IssueStart = Now;
        Now += cost().ReadIssue;
        Dst.AvailAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                          cost().SUAtomicService, 0.0,
                                          /*FwdWords=*/0, /*BackWords=*/0,
                                          interp::SuAtomicLabel);
        if (Trc)
          traceSpan("atomic", "comm", IssueStart, Dst.AvailAt - IssueStart,
                    Fr.Node, TraceTidComm,
                    {{"to", Addr.Node}, {"var", A.SharedVar->name()}});
        if (Prof)
          Prof->record(SiteTable.idOf(&A), CommOpKind::Atomic, Fr.Node,
                       Addr.Node, 0, IssueStart, Dst.AvailAt);
      }
      return StepStatus::Continue;
    }
    }
    return StepStatus::Continue;
  }

  StepStatus execCall(Fiber *F, Frame &Fr, const CallStmt &C, double &Now,
                      double &BlockTime) {
    double Need = 0.0;
    for (const Operand &O : C.Args)
      Need = std::max(Need, operandAvail(Fr, O));
    if (C.Placement == CallPlacement::OwnerOf ||
        C.Placement == CallPlacement::AtNode)
      Need = std::max(Need, operandAvail(Fr, C.PlacementArg));
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    auto targetNode = [&]() -> unsigned {
      if (Cfg.SequentialMode)
        return Fr.Node;
      switch (C.Placement) {
      case CallPlacement::Default:
        return Fr.Node;
      case CallPlacement::Home:
        return 0;
      case CallPlacement::AtNode: {
        int64_t N = operandValue(Fr, C.PlacementArg).I;
        if (N < 0)
          runtimeError("@node with negative index");
        // Logical index -> node through the pluggable distribution
        // (earth/NetworkModel.h placeIndex; cyclic is the historical
        // `index % nodes`).
        return placeIndex(static_cast<uint64_t>(N), Mem.numNodes(), Cfg.Dist,
                          Cfg.DistBlockSize);
      }
      case CallPlacement::OwnerOf: {
        RtValue V = operandValue(Fr, C.PlacementArg);
        if (V.K != RtValue::Kind::Ptr || V.P.isNull())
          runtimeError("OWNER_OF of null/non-pointer");
        return static_cast<unsigned>(V.P.Node);
      }
      }
      return Fr.Node;
    };

    switch (C.Intrin) {
    case Intrinsic::None:
      break;
    case Intrinsic::Print: {
      Output.push_back(operandValue(Fr, C.Args[0]).str());
      Now += cost().StmtCost;
      return StepStatus::Continue;
    }
    case Intrinsic::MyNode:
    case Intrinsic::NumNodes: {
      VarSlot &Dst = slot(Fr, C.Result);
      Dst.Words[0] = RtValue::makeInt(
          C.Intrin == Intrinsic::MyNode ? Fr.Node : Mem.numNodes());
      Now += cost().StmtCost;
      Dst.AvailAt = Now;
      return StepStatus::Continue;
    }
    case Intrinsic::IntSqrt: {
      RtValue V = operandValue(Fr, C.Args[0]);
      if (V.I < 0)
        runtimeError("isqrt of negative value");
      VarSlot &Dst = slot(Fr, C.Result);
      Dst.Words[0] = RtValue::makeInt(
          static_cast<int64_t>(std::sqrt(static_cast<double>(V.I))));
      Now += cost().StmtCost * 4;
      Dst.AvailAt = Now;
      return StepStatus::Continue;
    }
    case Intrinsic::Sqrt:
    case Intrinsic::Fabs: {
      RtValue V = operandValue(Fr, C.Args[0]);
      double X = V.K == RtValue::Kind::Dbl ? V.D : static_cast<double>(V.I);
      if (C.Intrin == Intrinsic::Sqrt && X < 0)
        runtimeError("sqrt of negative value");
      VarSlot &Dst = slot(Fr, C.Result);
      Dst.Words[0] = RtValue::makeDbl(C.Intrin == Intrinsic::Sqrt
                                          ? std::sqrt(X)
                                          : std::fabs(X));
      Now += cost().StmtCost * (C.Intrin == Intrinsic::Sqrt ? 4 : 2);
      Dst.AvailAt = Now;
      return StepStatus::Continue;
    }
    case Intrinsic::PMalloc: {
      RtValue WordsV = operandValue(Fr, C.Args[0]);
      if (WordsV.I <= 0)
        runtimeError("pmalloc of non-positive size");
      unsigned Node = targetNode();
      GlobalAddr Addr = Mem.allocate(Node, static_cast<unsigned>(WordsV.I));
      VarSlot &Dst = slot(Fr, C.Result);
      Dst.Words[0] = RtValue::makePtr(Addr);
      Now += cost().StmtCost * 2;
      if (!Cfg.SequentialMode && Node != Fr.Node)
        Now += cost().SpawnCost; // Remote allocation request.
      Dst.AvailAt = Now;
      return StepStatus::Continue;
    }
    }

    assert(C.Callee && "unresolved call survived Sema");
    unsigned Target = targetNode();
    bool Migrates = Target != Fr.Node;

    Frame NewFr;
    NewFr.Fn = C.Callee;
    NewFr.Node = Target;
    NewFr.Locals = makeLocals(C.Callee, Target);
    NewFr.ResultVar = C.Result;
    NewFr.Migrated = Migrates;
    NewFr.Control.push_back({&C.Callee->body(), 0, nullptr});
    Now += cost().CallCost;
    for (size_t I = 0; I != C.Args.size(); ++I)
      (*NewFr.Locals)[C.Callee->params()[I]].Words[0] =
          operandValue(Fr, C.Args[I]);

    if (!Migrates) {
      F->Stack.push_back(std::move(NewFr));
      return StepStatus::Continue;
    }
    ++Ctr.Spawns;
    Now += cost().SpawnCost;
    if (Trc)
      traceInstant("migrate", "fiber", Now, Fr.Node, TraceTidEU,
                   {{"fiber", F->Id}, {"to", Target}});
    // Capture the origin before push_back: growing the frame stack may
    // reallocate it and dangle Fr.
    const unsigned FromNode = Fr.Node;
    F->Stack.push_back(std::move(NewFr));
    // Travel to the remote node (ideal: one NetDelay).
    BlockTime = Net->transferDone(FromNode, Target, 0, Now);
    return StepStatus::YieldAt;
  }

  /// Pops the top frame, delivering \p Result (may be null) to the caller.
  /// Sets \p BlockTime and returns YieldAt when a migrated frame returns
  /// home; FiberDone when the fiber's base frame finished.
  StepStatus popFrame(Fiber *F, double &Now, const RtValue *Result,
                      double &BlockTime) {
    Frame Done = std::move(F->Stack.back());
    F->Stack.pop_back();
    Now += cost().ReturnCost;

    if (F->Stack.empty()) {
      if (F == MainFiber && Result)
        ExitVal = *Result;
      double End = std::max(Now, Done.WriteSync);
      if (Done.Migrated) // Defensive: base frames are never placed calls.
        End = Net->transferDone(Done.Node, 0, 0, End);
      finishFiber(F, End, Done.Node);
      return StepStatus::FiberDone;
    }

    Frame &Parent = F->Stack.back();
    Parent.WriteSync = std::max(Parent.WriteSync, Done.WriteSync);
    double Arrive =
        Done.Migrated ? Net->transferDone(Done.Node, Parent.Node, 0, Now) : Now;
    if (Done.ResultVar && Result) {
      VarSlot &Dst = slot(Parent, Done.ResultVar);
      Dst.Words[0] = *Result;
      Dst.AvailAt = Arrive;
    }
    if (Done.Migrated) {
      BlockTime = Arrive;
      return StepStatus::YieldAt;
    }
    return StepStatus::Continue;
  }

  StepStatus execReturn(Fiber *F, const ReturnStmt &R, double &Now,
                        double &BlockTime) {
    Frame &Fr = F->Stack.back();
    if (R.Val) {
      double Need = operandAvail(Fr, *R.Val);
      if (Need > Now) {
        BlockTime = Need;
        return StepStatus::BlockRetry;
      }
      RtValue Result = operandValue(Fr, *R.Val);
      return popFrame(F, Now, &Result, BlockTime);
    }
    return popFrame(F, Now, nullptr, BlockTime);
  }

  StepStatus execBasic(Fiber *F, Frame &Fr, const Stmt &S, double &Now,
                       double &BlockTime) {
    switch (S.kind()) {
    case StmtKind::Assign:
      return execAssign(Fr, castStmt<AssignStmt>(S), Now, BlockTime);
    case StmtKind::Call:
      return execCall(F, Fr, castStmt<CallStmt>(S), Now, BlockTime);
    case StmtKind::Return:
      return execReturn(F, castStmt<ReturnStmt>(S), Now, BlockTime);
    case StmtKind::BlkMov:
      return execBlkMov(Fr, castStmt<BlkMovStmt>(S), Now, BlockTime);
    case StmtKind::Atomic:
      return execAtomic(Fr, castStmt<AtomicStmt>(S), Now, BlockTime);
    default:
      runtimeError("non-basic statement in execBasic");
    }
  }

  //===--------------------------------------------------------------------===
  // Control dispatch: advances the fiber by one decision or statement.
  //===--------------------------------------------------------------------===

  StepStatus step(Fiber *F, double &Now, double &BlockTime) {
    if (F->Stack.empty()) {
      finishFiber(F, Now, 0);
      return StepStatus::FiberDone;
    }
    Frame &Fr = F->Stack.back();
    if (Fr.Control.empty())
      return popFrame(F, Now, nullptr, BlockTime); // Implicit void return.

    ControlEntry &CE = Fr.Control.back();
    switch (CE.S->kind()) {
    case StmtKind::Seq: {
      const auto &Seq = castStmt<SeqStmt>(*CE.S);
      if (Seq.Parallel) {
        if (CE.Phase == 0) {
          auto Join = std::make_shared<JoinCtx>();
          Join->Outstanding = static_cast<int>(Seq.Stmts.size());
          CE.Join = Join;
          CE.Phase = 1;
          for (const auto &Branch : Seq.Stmts) {
            Fiber *Child = newFiber();
            Child->ParentJoin = Join;
            Frame BF;
            BF.Fn = Fr.Fn;
            BF.Node = Fr.Node;
            BF.Locals = Fr.Locals; // Branches share the activation locals.
            BF.Control.push_back({Branch.get(), 0, nullptr});
            Child->Stack.push_back(std::move(BF));
            if (!Cfg.SequentialMode) {
              Now += cost().SpawnCost;
              ++Ctr.Spawns;
              if (Trc)
                traceInstant("spawn", "fiber", Now, Fr.Node, TraceTidEU,
                             {{"child", Child->Id}});
            }
            schedule(Child, Now);
          }
          return StepStatus::Continue;
        }
        if (CE.Join->Outstanding == 0) {
          Now = std::max(Now, CE.Join->LatestEnd);
          Fr.Control.pop_back();
          return StepStatus::Continue;
        }
        CE.Join->Waiter = F;
        return StepStatus::WaitJoin;
      }
      if (CE.Phase >= static_cast<int>(Seq.Stmts.size())) {
        Fr.Control.pop_back();
        return StepStatus::Continue;
      }
      const Stmt *Child = Seq.Stmts[CE.Phase].get();
      if (!Child->isBasic()) {
        ++CE.Phase;
        Fr.Control.push_back({Child, 0, nullptr});
        return StepStatus::Continue;
      }
      // Optimistically advance; a BlockRetry rolls back so the statement
      // re-executes once its inputs are available. All other outcomes
      // (including frame pushes/pops, after which CE may be dead) keep the
      // advanced position.
      ++CE.Phase;
      StepStatus St = execBasic(F, Fr, *Child, Now, BlockTime);
      if (St == StepStatus::BlockRetry)
        --CE.Phase;
      return St;
    }
    case StmtKind::If: {
      const auto &If = castStmt<IfStmt>(*CE.S);
      if (CE.Phase == 0) {
        double Need = pureAvail(Fr, *If.Cond);
        if (Need > Now) {
          BlockTime = Need;
          return StepStatus::BlockRetry;
        }
        Now += cost().StmtCost;
        bool Taken = pureValue(Fr, *If.Cond).truthy();
        CE.Phase = 1;
        Fr.Control.push_back(
            {Taken ? If.Then.get() : If.Else.get(), 0, nullptr});
        return StepStatus::Continue;
      }
      Fr.Control.pop_back();
      return StepStatus::Continue;
    }
    case StmtKind::Switch: {
      const auto &Sw = castStmt<SwitchStmt>(*CE.S);
      if (CE.Phase == 0) {
        double Need = operandAvail(Fr, Sw.Val);
        if (Need > Now) {
          BlockTime = Need;
          return StepStatus::BlockRetry;
        }
        Now += cost().StmtCost;
        int64_t V = operandValue(Fr, Sw.Val).I;
        const SeqStmt *Body = Sw.Default.get();
        for (const auto &C : Sw.Cases)
          if (C.Value == V) {
            Body = C.Body.get();
            break;
          }
        CE.Phase = 1;
        Fr.Control.push_back({Body, 0, nullptr});
        return StepStatus::Continue;
      }
      Fr.Control.pop_back();
      return StepStatus::Continue;
    }
    case StmtKind::While: {
      const auto &W = castStmt<WhileStmt>(*CE.S);
      if (W.IsDoWhile && CE.Phase == 0) {
        CE.Phase = 1;
        Fr.Control.push_back({W.Body.get(), 0, nullptr});
        return StepStatus::Continue;
      }
      double Need = pureAvail(Fr, *W.Cond);
      if (Need > Now) {
        BlockTime = Need;
        return StepStatus::BlockRetry;
      }
      Now += cost().StmtCost;
      if (pureValue(Fr, *W.Cond).truthy()) {
        Fr.Control.push_back({W.Body.get(), 0, nullptr});
        return StepStatus::Continue;
      }
      Fr.Control.pop_back();
      return StepStatus::Continue;
    }
    case StmtKind::Forall: {
      const auto &Fa = castStmt<ForallStmt>(*CE.S);
      switch (CE.Phase) {
      case 0: // Run Init once.
        CE.Phase = 1;
        CE.Join = std::make_shared<JoinCtx>();
        Fr.Control.push_back({Fa.Init.get(), 0, nullptr});
        return StepStatus::Continue;
      case 1: { // Evaluate cond; spawn an iteration; run Step; repeat.
        double Need = pureAvail(Fr, *Fa.Cond);
        if (Need > Now) {
          BlockTime = Need;
          return StepStatus::BlockRetry;
        }
        Now += cost().StmtCost;
        if (!pureValue(Fr, *Fa.Cond).truthy()) {
          CE.Phase = 2;
          return StepStatus::Continue;
        }
        Fiber *Child = newFiber();
        Child->ParentJoin = CE.Join;
        ++CE.Join->Outstanding;
        Frame BF;
        BF.Fn = Fr.Fn;
        BF.Node = Fr.Node;
        // Each iteration captures the driver's variables by value.
        BF.Locals = std::make_shared<LocalsMap>(*Fr.Locals);
        BF.Control.push_back({Fa.Body.get(), 0, nullptr});
        Child->Stack.push_back(std::move(BF));
        if (!Cfg.SequentialMode) {
          Now += cost().SpawnCost;
          ++Ctr.Spawns;
          if (Trc)
            traceInstant("spawn", "fiber", Now, Fr.Node, TraceTidEU,
                         {{"child", Child->Id}});
        }
        schedule(Child, Now);
        Fr.Control.push_back({Fa.Step.get(), 0, nullptr});
        return StepStatus::Continue;
      }
      default: // Join.
        if (CE.Join->Outstanding == 0) {
          Now = std::max(Now, CE.Join->LatestEnd);
          Fr.Control.pop_back();
          return StepStatus::Continue;
        }
        CE.Join->Waiter = F;
        return StepStatus::WaitJoin;
      }
    }
    default:
      runtimeError("unexpected statement kind in control stack");
    }
  }

  //===--------------------------------------------------------------------===
  // Fiber run loop + event loop.
  //===--------------------------------------------------------------------===

  void runFiber(Fiber *F, double T) {
    if (F->Done)
      return;
    unsigned Node = F->Stack.empty() ? 0 : F->Stack.back().Node;
    double Now = std::max(T, EUClock[Node]);
    if (LastFiber[Node] != F && LastFiber[Node] != nullptr &&
        !Cfg.SequentialMode) {
      if (Trc)
        traceInstant("ctx-switch", "eu", Now, Node, TraceTidEU,
                     {{"fiber", F->Id}});
      Now += cost().CtxSwitch;
      ++Ctr.CtxSwitches;
    }
    LastFiber[Node] = F;
    // A fiber's node is stable within one run: migrations and remote
    // returns exit through YieldAt, so one EU slice spans the whole run.
    const double SliceStart = Now;
    auto endSlice = [&](double End) {
      if (Trc && End > SliceStart) {
        traceSpan("eu-run", "eu", SliceStart, End - SliceStart, Node,
                  TraceTidEU, {{"fiber", F->Id}});
        traceClock("eu-clock", End, Node, TraceTidEU, EUClock[Node]);
      }
    };

    for (unsigned StepsThisRun = 0;; ++StepsThisRun) {
      if (++Steps > Cfg.MaxSteps)
        runtimeError("step limit exceeded (infinite loop?)");
      unsigned NodeBefore = F->Stack.empty() ? Node : F->Stack.back().Node;
      if (Cfg.EUQuantum && StepsThisRun >= Cfg.EUQuantum) {
        // Quantum expired: let same-time peers (e.g. freshly spawned
        // sibling branches) dispatch. LastFiber stays set so an immediate
        // re-entry costs no context switch.
        endSlice(Now);
        schedule(F, Now);
        return;
      }
      double BlockTime = 0.0;
      StepStatus St = step(F, Now, BlockTime);
      EUClock[NodeBefore] = std::max(EUClock[NodeBefore], Now);
      switch (St) {
      case StepStatus::Continue:
        continue;
      case StepStatus::BlockRetry:
      case StepStatus::YieldAt:
        endSlice(Now);
        LastFiber[NodeBefore] = nullptr;
        schedule(F, std::max(BlockTime, Now));
        return;
      case StepStatus::WaitJoin:
      case StepStatus::FiberDone:
        endSlice(Now);
        LastFiber[NodeBefore] = nullptr;
        return;
      }
    }
  }

  //===--------------------------------------------------------------------===
  // State.
  //===--------------------------------------------------------------------===

  const Module &M;
  MachineConfig Cfg;
  TraceSink *Trc = nullptr;
  CommProfiler *Prof = nullptr;
  /// Built lazily at run start, only when profiling: the same pure function
  /// of the module that lowering uses to stamp BcInsn::Site, so the two
  /// engines agree on every site id without sharing state.
  CommSiteTable SiteTable;
  EarthMemory Mem;
  /// The interconnect: owns the per-node SU clocks and all link state (see
  /// earth/NetworkModel.h).
  std::unique_ptr<NetworkModel> Net;
  OpCounters Ctr;
  std::vector<double> EUClock;
  std::vector<Fiber *> LastFiber;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> Q;
  uint64_t EventSeq = 0;
  std::deque<std::unique_ptr<Fiber>> Fibers;
  std::map<const Var *, GlobalAddr> GlobalShared;
  std::vector<std::string> Output;
  uint64_t Steps = 0;

  Fiber *MainFiber = nullptr;
  double EndTime = 0.0;
  RtValue ExitVal;
};

RunResult Interp::run(const std::string &Entry,
                      const std::vector<RtValue> &Args) {
  RunResult R;
  const Function *EntryFn = M.findFunction(Entry);
  if (!EntryFn) {
    R.Error = "entry function '" + Entry + "' not found";
    return R;
  }
  if (EntryFn->params().size() != Args.size()) {
    R.Error = "entry function expects " +
              std::to_string(EntryFn->params().size()) + " arguments, got " +
              std::to_string(Args.size());
    return R;
  }

  if (Prof) {
    SiteTable = buildCommSiteTable(M);
    Prof->beginRun(static_cast<unsigned>(SiteTable.size()), Mem.numNodes());
  }

  try {
    for (const auto &G : M.globals())
      if (G->kind() == VarKind::Shared)
        GlobalShared[G.get()] = Mem.allocate(0, 1);

    MainFiber = newFiber();
    Frame Fr;
    Fr.Fn = EntryFn;
    Fr.Node = 0;
    Fr.Locals = makeLocals(EntryFn, 0);
    Fr.Control.push_back({&EntryFn->body(), 0, nullptr});
    for (size_t I = 0; I != Args.size(); ++I)
      (*Fr.Locals)[EntryFn->params()[I]].Words[0] = Args[I];
    MainFiber->Stack.push_back(std::move(Fr));
    schedule(MainFiber, 0.0);

    while (!Q.empty()) {
      Event E = Q.top();
      Q.pop();
      runFiber(E.F, E.T);
    }

    if (!MainFiber->Done) {
      R.Error = "deadlock: entry function never completed";
      return R;
    }
  } catch (RuntimeFailure &Failure) {
    R.Error = Failure.Message;
    return R;
  }

  if (Prof) {
    const std::vector<uint64_t> *PW = Net->transferWords();
    Prof->setNetwork(topologyName(Net->topology()), Net->linkStats(),
                     PW ? *PW : std::vector<uint64_t>{}, EndTime);
  }

  R.OK = true;
  R.TimeNs = EndTime;
  R.ExitValue = ExitVal;
  R.Counters = Ctr;
  R.Output = std::move(Output);
  R.StepsExecuted = Steps;
  for (unsigned N = 0; N != Mem.numNodes(); ++N)
    R.WordsPerNode.push_back(Mem.allocatedWords(N));
  return R;
}

} // namespace

RunResult earthcc::runProgram(const Module &M, const MachineConfig &Config,
                              const std::string &Entry,
                              const std::vector<RtValue> &Args) {
  auto T0 = std::chrono::steady_clock::now();
  RunResult R = Config.Engine == ExecEngine::Bytecode
                    ? runProgramBytecode(getOrLowerBytecode(M), Config, Entry,
                                         Args)
                    : Interp(M, Config).run(Entry, Args);
  auto T1 = std::chrono::steady_clock::now();

  // Host-side dispatch metrics into the process registry. Strictly
  // observational: RunResult, simulated time and profiles are computed
  // before any of this runs, so results stay bit-identical with metrics on.
  const char *EngineName =
      Config.Engine == ExecEngine::Bytecode ? "bytecode" : "ast";
  MetricsRegistry &Reg = MetricsRegistry::global();
  Reg.counter("engine.runs", {{"engine", EngineName}}).inc();
  Reg.counter("engine.steps", {{"engine", EngineName}}).inc(R.StepsExecuted);
  auto WallNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count();
  Reg.histogram("engine.run_wall_ns", {{"engine", EngineName}})
      .observe(WallNs <= 0 ? 0 : static_cast<uint64_t>(WallNs));
  return R;
}
