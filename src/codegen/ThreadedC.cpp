//===- ThreadedC.cpp ------------------------------------------------------===//
//
// Part of the earthcc project.
//
// Threaded-C emission by one walk over a function's SIMPLE statement tree.
// Each statement maps onto its Threaded-C form in place: operand, lvalue and
// condition text comes from the IR printer, fiber regions (parallel
// branches, forall bodies) are emitted inline at their spawn sites, and sync
// slots are numbered in that emission order.
//
//===----------------------------------------------------------------------===//

#include "codegen/ThreadedC.h"

#include "simple/Printer.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace earthcc;

namespace {

/// Emits one function, tracking outstanding split-phase operations and
/// splitting fibers at synchronization points.
class Emitter {
public:
  explicit Emitter(const Function &F) : F(F) {}

  std::string run(ThreadedCInfo *Info) {
    OS << "THREADED " << F.name() << "(";
    for (size_t I = 0; I != F.params().size(); ++I) {
      const Var *P = F.params()[I];
      OS << (I ? ", " : "") << P->type()->str() << " " << P->name();
    }
    OS << ") {\n";
    for (const auto &V : F.vars())
      if (V->kind() != VarKind::Param)
        OS << "  " << V->type()->str() << " " << V->name() << ";\n";
    OS << "  SLOT SYNC_SLOTS[];\n";
    OS << "\n  THREAD_0:\n";
    emitSeq(F.body(), 2);
    OS << "  END_THREADED();\n}\n";
    if (Info) {
      Info->Threads = ThreadCount + 1;
      Info->SyncSlots = SlotCount;
    }
    return OS.str();
  }

private:
  void indent(unsigned N) { OS << std::string(N, ' '); }

  /// Every split-phase statement and every join takes the next slot, even
  /// when its text does not name it (a WSYNC block move, a result-less
  /// INVOKE).
  unsigned newSlot() { return SlotCount++; }

  /// Starts a new fiber because \p SyncedVars' transactions must complete.
  void splitThread(unsigned Ind, const std::vector<const Var *> &SyncedVars) {
    ++ThreadCount;
    indent(Ind);
    OS << "END_THREAD(); // fiber boundary\n";
    indent(Ind - 2 < 2 ? 2 : Ind - 2);
    OS << "THREAD_" << ThreadCount << ": // resumes when";
    for (const Var *V : SyncedVars)
      OS << " SLOT(" << Pending[V] << ")->" << V->name();
    OS << " arrive\n";
    for (const Var *V : SyncedVars)
      Pending.erase(V);
  }

  //===--------------------------------------------------------------------===
  // Pending-use collection (fiber-boundary detection).
  //===--------------------------------------------------------------------===

  /// Appends \p V to \p Used when it names an outstanding result not yet
  /// listed: `t * t` waits on t once.
  void usePending(const Var *V, std::vector<const Var *> &Used) const {
    if (V && Pending.count(V) &&
        std::find(Used.begin(), Used.end(), V) == Used.end())
      Used.push_back(V);
  }

  void usePending(const Operand &O, std::vector<const Var *> &Used) const {
    if (O.isVar())
      usePending(O.getVar(), Used);
  }

  /// The outstanding results \p S consumes, in order of first use. A
  /// compound statement consumes only its condition or scrutinee.
  std::vector<const Var *> pendingUses(const Stmt &S) const {
    std::vector<const Var *> Used;
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      switch (A.R->kind()) {
      case RValueKind::Opnd:
      case RValueKind::Unary:
      case RValueKind::Binary:
        pureUses(*A.R, Used);
        break;
      case RValueKind::Load:
        usePending(static_cast<const LoadRV &>(*A.R).Base, Used);
        break;
      case RValueKind::FieldRead:
        usePending(static_cast<const FieldReadRV &>(*A.R).StructVar, Used);
        break;
      case RValueKind::AddrOfField:
        usePending(static_cast<const AddrOfFieldRV &>(*A.R).Base, Used);
        break;
      }
      if (A.L.Kind == LValueKind::Store || A.L.Kind == LValueKind::FieldWrite)
        usePending(A.L.V, Used);
      break;
    }
    case StmtKind::Call: {
      const auto &C = castStmt<CallStmt>(S);
      for (const Operand &O : C.Args)
        usePending(O, Used);
      usePending(C.PlacementArg, Used);
      break;
    }
    case StmtKind::Return: {
      const auto &R = castStmt<ReturnStmt>(S);
      if (R.Val)
        usePending(*R.Val, Used);
      break;
    }
    case StmtKind::BlkMov: {
      const auto &B = castStmt<BlkMovStmt>(S);
      usePending(B.Ptr, Used);
      if (B.Dir == BlkMovDir::WriteFromLocal)
        usePending(B.LocalStruct, Used);
      break;
    }
    case StmtKind::Atomic:
      usePending(castStmt<AtomicStmt>(S).Val, Used);
      break;
    case StmtKind::If:
      pureUses(*castStmt<IfStmt>(S).Cond, Used);
      break;
    case StmtKind::While:
      pureUses(*castStmt<WhileStmt>(S).Cond, Used);
      break;
    case StmtKind::Switch:
      usePending(castStmt<SwitchStmt>(S).Val, Used);
      break;
    case StmtKind::Forall:
      pureUses(*castStmt<ForallStmt>(S).Cond, Used);
      break;
    case StmtKind::Seq:
      break;
    }
    return Used;
  }

  /// The outstanding results a pure expression consumes. A condition with a
  /// memory access (rejected when the program runs) consumes nothing.
  void pureUses(const RValue &R, std::vector<const Var *> &Used) const {
    switch (R.kind()) {
    case RValueKind::Opnd:
      usePending(static_cast<const OpndRV &>(R).Val, Used);
      return;
    case RValueKind::Unary:
      usePending(static_cast<const UnaryRV &>(R).Val, Used);
      return;
    case RValueKind::Binary: {
      const auto &B = static_cast<const BinaryRV &>(R);
      usePending(B.A, Used);
      usePending(B.B, Used);
      return;
    }
    default:
      return;
    }
  }

  //===--------------------------------------------------------------------===
  // Statements.
  //===--------------------------------------------------------------------===

  void emitSeq(const SeqStmt &Seq, unsigned Ind) {
    if (Seq.Parallel) {
      indent(Ind);
      OS << "// parallel sequence: " << Seq.size()
         << " tokens + join slot\n";
      unsigned Join = newSlot();
      for (const auto &Branch : Seq.Stmts) {
        indent(Ind);
        OS << "TOKEN(branch, SLOT(" << Join << ")) {\n";
        emitSeq(castStmt<SeqStmt>(*Branch), Ind + 2);
        indent(Ind);
        OS << "}\n";
      }
      indent(Ind);
      OS << "SYNC_JOIN(SLOT(" << Join << "), " << Seq.size() << ");\n";
      splitThread(Ind, {});
      return;
    }
    for (const auto &Child : Seq.Stmts)
      emitStmt(*Child, Ind);
  }

  void emitStmt(const Stmt &S, unsigned Ind) {
    // Fiber boundary: this statement consumes outstanding split-phase
    // results, so it belongs to a new thread triggered by their slots.
    std::vector<const Var *> Synced = pendingUses(S);
    if (!Synced.empty())
      splitThread(Ind, Synced);

    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto &A = castStmt<AssignStmt>(S);
      if (A.isRemoteRead()) {
        const auto &L = static_cast<const LoadRV &>(*A.R);
        unsigned Slot = newSlot();
        indent(Ind);
        OS << "GET_SYNC_L(" << L.Base->name() << " + " << L.OffsetWords
           << ", &" << A.L.V->name() << ", SLOT(" << Slot << ")); // "
           << L.Base->name() << "->"
           << (L.FieldName.empty() ? "*" : L.FieldName) << "\n";
        Pending[A.L.V] = Slot;
        return;
      }
      if (A.isRemoteWrite()) {
        indent(Ind);
        OS << "DATA_SYNC_L(" << printRValue(*A.R) << ", " << A.L.V->name()
           << " + " << A.L.OffsetWords << ", WSYNC); // " << A.L.V->name()
           << "->" << A.L.FieldName << "\n";
        return;
      }
      indent(Ind);
      OS << printLValue(A.L) << " = " << printRValue(*A.R) << ";\n";
      return;
    }
    case StmtKind::BlkMov: {
      const auto &B = castStmt<BlkMovStmt>(S);
      unsigned Slot = newSlot();
      indent(Ind);
      if (B.Dir == BlkMovDir::ReadToLocal) {
        OS << "BLKMOV_SYNC(" << B.Ptr->name() << ", &"
           << B.LocalStruct->name() << ", " << B.Words * 8 << ", SLOT("
           << Slot << "));\n";
        Pending[B.LocalStruct] = Slot;
      } else {
        OS << "BLKMOV_SYNC(&" << B.LocalStruct->name() << ", "
           << B.Ptr->name() << ", " << B.Words * 8 << ", WSYNC);\n";
      }
      return;
    }
    case StmtKind::Call: {
      const auto &C = castStmt<CallStmt>(S);
      indent(Ind);
      if (C.Placement != CallPlacement::Default) {
        unsigned Slot = newSlot();
        OS << "INVOKE(";
        switch (C.Placement) {
        case CallPlacement::OwnerOf:
          OS << "OWNER_OF(" << C.PlacementArg.str() << ")";
          break;
        case CallPlacement::AtNode:
          OS << "NODE(" << C.PlacementArg.str() << ")";
          break;
        default:
          OS << "HOME";
          break;
        }
        OS << ", " << C.CalleeName << "(";
        for (size_t I = 0; I != C.Args.size(); ++I)
          OS << (I ? ", " : "") << C.Args[I].str();
        OS << ")";
        if (C.Result) {
          OS << ", &" << C.Result->name() << ", SLOT(" << Slot << ")";
          Pending[C.Result] = Slot;
        }
        OS << ");\n";
        return;
      }
      if (C.Result)
        OS << C.Result->name() << " = ";
      OS << C.CalleeName << "(";
      for (size_t I = 0; I != C.Args.size(); ++I)
        OS << (I ? ", " : "") << C.Args[I].str();
      OS << ");\n";
      return;
    }
    case StmtKind::Return: {
      const auto &R = castStmt<ReturnStmt>(S);
      indent(Ind);
      OS << "RETURN(";
      if (R.Val)
        OS << R.Val->str();
      OS << "); // settles WSYNC before signalling the caller\n";
      return;
    }
    case StmtKind::Atomic: {
      const auto &A = castStmt<AtomicStmt>(S);
      indent(Ind);
      switch (A.Op) {
      case AtomicOp::WriteTo:
        OS << "WRITETO_SYNC(&" << A.SharedVar->name() << ", " << A.Val.str()
           << ", WSYNC);\n";
        return;
      case AtomicOp::AddTo:
        OS << "ADDTO_SYNC(&" << A.SharedVar->name() << ", " << A.Val.str()
           << ", WSYNC);\n";
        return;
      case AtomicOp::ValueOf: {
        unsigned Slot = newSlot();
        OS << "VALUEOF_SYNC(&" << A.SharedVar->name() << ", &"
           << A.Result->name() << ", SLOT(" << Slot << "));\n";
        Pending[A.Result] = Slot;
        return;
      }
      }
      return;
    }
    case StmtKind::If: {
      const auto &If = castStmt<IfStmt>(S);
      indent(Ind);
      OS << "if (" << printRValue(*If.Cond) << ") {\n";
      emitSeq(*If.Then, Ind + 2);
      if (!If.Else->empty()) {
        indent(Ind);
        OS << "} else {\n";
        emitSeq(*If.Else, Ind + 2);
      }
      indent(Ind);
      OS << "}\n";
      return;
    }
    case StmtKind::Switch: {
      const auto &Sw = castStmt<SwitchStmt>(S);
      indent(Ind);
      OS << "switch (" << Sw.Val.str() << ") {\n";
      for (const auto &C : Sw.Cases) {
        indent(Ind);
        OS << "case " << C.Value << ":\n";
        emitSeq(*C.Body, Ind + 2);
        indent(Ind + 2);
        OS << "break;\n";
      }
      indent(Ind);
      OS << "default:\n";
      emitSeq(*Sw.Default, Ind + 2);
      indent(Ind);
      OS << "}\n";
      return;
    }
    case StmtKind::While: {
      // A do-while's condition was checked for pending uses above, before
      // its body: the fiber boundary, if any, comes ahead of the loop.
      const auto &W = castStmt<WhileStmt>(S);
      indent(Ind);
      if (W.IsDoWhile) {
        OS << "do {\n";
        emitSeq(*W.Body, Ind + 2);
        indent(Ind);
        OS << "} while (" << printRValue(*W.Cond) << ");\n";
      } else {
        OS << "while (" << printRValue(*W.Cond) << ") {\n";
        emitSeq(*W.Body, Ind + 2);
        indent(Ind);
        OS << "}\n";
      }
      return;
    }
    case StmtKind::Forall: {
      const auto &Fa = castStmt<ForallStmt>(S);
      unsigned Join = newSlot();
      indent(Ind);
      OS << "// forall driver: spawns one token per iteration\n";
      emitSeq(*Fa.Init, Ind); // Init, at the driver's own indent.
      indent(Ind);
      OS << "while (" << printRValue(*Fa.Cond) << ") {\n";
      indent(Ind + 2);
      OS << "TOKEN(iteration, SLOT(" << Join << ")) {\n";
      emitSeq(*Fa.Body, Ind + 4);
      indent(Ind + 2);
      OS << "}\n";
      emitSeq(*Fa.Step, Ind + 2);
      indent(Ind);
      OS << "}\n";
      indent(Ind);
      OS << "SYNC_JOIN(SLOT(" << Join << "), ALL_ITERATIONS);\n";
      splitThread(Ind, {});
      return;
    }
    case StmtKind::Seq:
      // A nested sequential sequence: transparent in the emitted text.
      emitSeq(castStmt<SeqStmt>(S), Ind);
      return;
    }
  }

  const Function &F;
  std::ostringstream OS;
  std::map<const Var *, unsigned> Pending;
  unsigned SlotCount = 0;
  unsigned ThreadCount = 0;
};

} // namespace

std::string earthcc::emitThreadedC(const Function &F, ThreadedCInfo *Info) {
  return Emitter(F).run(Info);
}
