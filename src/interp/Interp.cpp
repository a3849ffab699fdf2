//===- Interp.cpp - Discrete-event SIMPLE interpreter ----------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Lower.h"
#include "interp/Machine.h"
#include "simple/CommSites.h"
#include "support/Metrics.h"

#include <cassert>
#include <chrono>
#include <map>

using namespace earthcc;
using namespace earthcc::interp;

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

/// One position in the structured control of a frame.
struct ControlEntry {
  const Stmt *S = nullptr;
  int Phase = 0;
  std::shared_ptr<JoinCtx> Join;
};

/// One function activation.
struct Frame : MachineFrame {
  const Function *Fn = nullptr;
  std::shared_ptr<LocalsMap> Locals;
  std::vector<ControlEntry> Control;
  const Var *ResultVar = nullptr; ///< Slot in the caller frame.
};

struct AstFiber : Fiber {
  std::vector<Frame> Stack;
};

//===----------------------------------------------------------------------===//
// Interpreter.
//===----------------------------------------------------------------------===//

class Interp : Machine {
public:
  Interp(const Module &M, const MachineConfig &Cfg) : Machine(Cfg), M(M) {}

  RunResult run(const std::string &Entry, const std::vector<RtValue> &Args) {
    return Machine::run(*this, M, Entry, Args);
  }

  // Machine::run's engine hooks.

  uint32_t numSites() {
    SiteTable = buildCommSiteTable(M);
    return static_cast<uint32_t>(SiteTable.size());
  }

  Fiber *start(const Function &EntryFn, const std::vector<RtValue> &Args) {
    AstFiber *F = newFiber<AstFiber>();
    Frame Fr;
    Fr.Fn = &EntryFn;
    Fr.Node = 0;
    Fr.Locals = makeLocals(&EntryFn, 0);
    Fr.Control.push_back({&EntryFn.body(), 0, nullptr});
    for (size_t I = 0; I != Args.size(); ++I)
      (*Fr.Locals)[EntryFn.params()[I]].Words[0] = Args[I];
    F->Stack.push_back(std::move(Fr));
    return F;
  }

  void runFiber(Fiber *Base, double T);

private:
  //===--------------------------------------------------------------------===
  // Slots and values.
  //===--------------------------------------------------------------------===

  VarSlot &slot(Frame &Fr, const Var *V) {
    auto It = Fr.Locals->find(V);
    if (It == Fr.Locals->end())
      fail("variable '" + V->name() + "' has no storage in '" +
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
      fail("read of undefined variable '" + O.getVar()->name() + "' in '" +
           Fr.Fn->name() + "'");
    return V;
  }

  GlobalAddr pointerValue(Frame &Fr, const Var *V) {
    const RtValue &Val = slot(Fr, V).Words[0];
    if (Val.isUndef())
      fail("dereference of undefined pointer '" + V->name() + "'");
    if (Val.K == RtValue::Kind::Int && Val.I == 0)
      return GlobalAddr(); // NULL stored into a pointer.
    if (Val.K != RtValue::Kind::Ptr)
      fail("dereference of non-pointer value in '" + V->name() + "'");
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
    if (const GlobalAddr *G = sharedGlobal(V))
      return *G;
    const RtValue &Cell = slot(Fr, V).Words[0];
    assert(Cell.K == RtValue::Kind::Ptr && "shared var has no cell");
    return Cell.P;
  }

  /// The comm-site id of \p S for profiler records (-1 when not profiling).
  int32_t siteOf(const Stmt &S) const {
    return Prof ? SiteTable.idOf(&S) : -1;
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
      fail("condition with memory access");
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
      fail("condition with memory access");
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
      load(Now, Fr, pointerValue(Fr, L->Base), L->OffsetWords, L->Loc,
           siteOf(A), L->Base, Fr.Fn, Dst.Words[0], Dst.AvailAt);
      return StepStatus::Continue;
    }

    // Pure value computation.
    RtValue Val;
    switch (A.R->kind()) {
    case RValueKind::FieldRead: {
      const auto &FR = static_cast<const FieldReadRV &>(*A.R);
      const RtValue &W = slot(Fr, FR.StructVar).Words[FR.OffsetWords];
      if (W.isUndef())
        fail("read of undefined field '" + FR.FieldName + "' of '" +
             FR.StructVar->name() + "'");
      Val = W;
      break;
    }
    case RValueKind::AddrOfField: {
      const auto &AF = static_cast<const AddrOfFieldRV &>(*A.R);
      GlobalAddr Addr = pointerValue(Fr, AF.Base);
      if (Addr.isNull())
        fail("&(null->" + AF.FieldName + ")");
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
    case LValueKind::Store:
      store(Now, Fr, pointerValue(Fr, A.L.V), A.L.OffsetWords, A.L.Loc,
            siteOf(A), A.L.V, Val);
      return StepStatus::Continue;
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
    blkmov(Now, Fr, pointerValue(Fr, B.Ptr), B.Words, B.Dir, siteOf(B), B.Ptr,
           Local.Words.data(), Local.AvailAt);
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
    if (A.Op != AtomicOp::ValueOf) {
      atomicUpdate(Now, Fr, A.Op, Addr, siteOf(A), A.SharedVar,
                   operandValue(Fr, A.Val));
      return StepStatus::Continue;
    }
    double Avail;
    RtValue V = atomicRead(Now, Fr, Addr, siteOf(A), A.SharedVar, Avail);
    VarSlot &Dst = slot(Fr, A.Result);
    Dst.Words[0] = V;
    Dst.AvailAt = Avail;
    return StepStatus::Continue;
  }

  StepStatus execCall(AstFiber *F, Frame &Fr, const CallStmt &C, double &Now,
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

    auto PlaceArg = [&] { return operandValue(Fr, C.PlacementArg); };
    if (C.Intrin != Intrinsic::None) {
      RtValue V = intrinsic(
          C.Intrin, Fr.Node, C.Placement,
          [&] { return operandValue(Fr, C.Args[0]); }, PlaceArg, Now);
      if (C.Intrin != Intrinsic::Print) {
        VarSlot &Dst = slot(Fr, C.Result);
        Dst.Words[0] = V;
        Dst.AvailAt = Now;
      }
      return StepStatus::Continue;
    }

    assert(C.Callee && "unresolved call survived Sema");
    unsigned Target = targetNode(C.Placement, Fr.Node, PlaceArg);
    Frame NewFr;
    NewFr.Fn = C.Callee;
    NewFr.Node = Target;
    NewFr.Locals = makeLocals(C.Callee, Target);
    NewFr.ResultVar = C.Result;
    NewFr.Migrated = Target != Fr.Node;
    NewFr.Control.push_back({&C.Callee->body(), 0, nullptr});
    for (size_t I = 0; I != C.Args.size(); ++I)
      (*NewFr.Locals)[C.Callee->params()[I]].Words[0] =
          operandValue(Fr, C.Args[I]);
    // Capture the origin before push_back: growing the frame stack may
    // reallocate it and dangle Fr.
    const unsigned From = Fr.Node;
    F->Stack.push_back(std::move(NewFr));
    return enterCall(F, From, Target, Now, BlockTime);
  }

  /// Pops the top frame, delivering \p Result (may be null) to the caller.
  /// Sets \p BlockTime and returns YieldAt when a migrated frame returns
  /// home; FiberDone when the fiber's base frame finished.
  StepStatus popFrame(AstFiber *F, double &Now, const RtValue *Result,
                      double &BlockTime) {
    Frame Done = std::move(F->Stack.back());
    F->Stack.pop_back();
    Frame *Parent = F->Stack.empty() ? nullptr : &F->Stack.back();
    StepStatus St = returnFrom(F, Done, Parent, Result, Now, BlockTime);
    if (Parent && Done.ResultVar && Result) {
      VarSlot &Dst = slot(*Parent, Done.ResultVar);
      Dst.Words[0] = *Result;
      Dst.AvailAt = BlockTime;
    }
    return St;
  }

  StepStatus execReturn(AstFiber *F, const ReturnStmt &R, double &Now,
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

  StepStatus execBasic(AstFiber *F, Frame &Fr, const Stmt &S, double &Now,
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
      fail("non-basic statement in execBasic");
    }
  }

  /// A child fiber running \p Body in an activation of Fr's function.
  AstFiber *newBranch(const Frame &Fr, const Stmt *Body,
                      std::shared_ptr<LocalsMap> Locals) {
    AstFiber *Child = newFiber<AstFiber>();
    Frame BF;
    BF.Fn = Fr.Fn;
    BF.Node = Fr.Node;
    BF.Locals = std::move(Locals);
    BF.Control.push_back({Body, 0, nullptr});
    Child->Stack.push_back(std::move(BF));
    return Child;
  }

  //===--------------------------------------------------------------------===
  // Control dispatch: advances the fiber by one decision or statement.
  //===--------------------------------------------------------------------===

  StepStatus step(AstFiber *F, double &Now, double &BlockTime) {
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
          CE.Join = std::make_shared<JoinCtx>();
          CE.Phase = 1;
          // Branches share the activation locals.
          for (const auto &Branch : Seq.Stmts)
            spawn(newBranch(Fr, Branch.get(), Fr.Locals), CE.Join, Fr.Node,
                  Now);
          return StepStatus::Continue;
        }
        if (!joined(*CE.Join, F, Now))
          return StepStatus::WaitJoin;
        Fr.Control.pop_back();
        return StepStatus::Continue;
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
        int64_t V = operandValue(Fr, Sw.Val).asInt();
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
        // Each iteration captures the driver's variables by value.
        spawn(newBranch(Fr, Fa.Body.get(),
                        std::make_shared<LocalsMap>(*Fr.Locals)),
              CE.Join, Fr.Node, Now);
        Fr.Control.push_back({Fa.Step.get(), 0, nullptr});
        return StepStatus::Continue;
      }
      default: // Join.
        if (!joined(*CE.Join, F, Now))
          return StepStatus::WaitJoin;
        Fr.Control.pop_back();
        return StepStatus::Continue;
      }
    }
    default:
      fail("unexpected statement kind in control stack");
    }
  }

  const Module &M;
  /// Built lazily at run start, only when profiling: the same pure function
  /// of the module that lowering uses to stamp BcInsn::Site, so the two
  /// engines agree on every site id without sharing state.
  CommSiteTable SiteTable;
};

//===----------------------------------------------------------------------===//
// Fiber run loop: one step() per iteration, with the machine's slice, fuel
// and quantum accounting around it.
//===----------------------------------------------------------------------===//

void Interp::runFiber(Fiber *Base, double T) {
  auto *F = static_cast<AstFiber *>(Base);
  const unsigned Node = F->Stack.empty() ? 0 : F->Stack.back().Node;
  const double SliceStart = beginSlice(F, Node, T);
  double Now = SliceStart;
  for (unsigned StepsThisRun = 0;; ++StepsThisRun) {
    if (!nextStep(F, Node, SliceStart, Now, StepsThisRun))
      return;
    double BlockTime = 0.0;
    StepStatus St = step(F, Now, BlockTime);
    switch (St) {
    case StepStatus::Continue:
      continue;
    case StepStatus::BlockRetry:
    case StepStatus::YieldAt:
      leaveEU(F, Node, SliceStart, Now);
      schedule(F, std::max(BlockTime, Now));
      return;
    case StepStatus::WaitJoin:
    case StepStatus::FiberDone:
      leaveEU(F, Node, SliceStart, Now);
      return;
    }
  }
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
