//===- PointsTo.h - Flow-insensitive points-to analysis ---------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module-wide, flow-insensitive, field-sensitive points-to analysis in
/// the spirit of the heap/connection analyses the paper builds on (Ghiya &
/// Hendren). It provides the two queries the placement analysis needs:
///
///  - pointsTo(v): the set of abstract memory words a pointer variable may
///    target;
///  - mayAlias(p, f, q, g): whether `p->f` and `q->g` may touch the same
///    word *through different base variables* (the paper's
///    `accessedViaAlias` uses this to distinguish direct accesses, which do
///    not kill placement tuples, from aliased ones, which do).
///
/// Abstract objects are (a) one allocation site per pmalloc statement and
/// (b) one *region anchor* per pointer-typed parameter. Anchors model the
/// whole data structure reachable from the parameter (connection-analysis
/// style): loading a pointer field out of an anchor yields the anchor
/// itself, so everything reachable from one parameter is conflated, while
/// distinct parameters stay distinct — exactly the precision the paper's
/// examples rely on (`p` and `t` in Figure 7 do not alias).
///
/// Targets are (object, word-offset) pairs, so `&(p->f)` interior pointers
/// and nested-struct accesses resolve to precise words.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_ANALYSIS_POINTSTO_H
#define EARTHCC_ANALYSIS_POINTSTO_H

#include "simple/Function.h"

#include <map>
#include <set>
#include <vector>

namespace earthcc {

/// Flow-insensitive Andersen-style points-to over one Module.
class PointsToAnalysis {
public:
  /// An abstract memory word: object id + word offset from object start.
  struct Target {
    unsigned Obj = 0;
    unsigned Off = 0;
    friend bool operator<(Target A, Target B) {
      return A.Obj != B.Obj ? A.Obj < B.Obj : A.Off < B.Off;
    }
    friend bool operator==(Target A, Target B) {
      return A.Obj == B.Obj && A.Off == B.Off;
    }
  };
  /// Hash for Target, for the hashed flat sets layered on the analysis
  /// (e.g. SideEffects' summaries).
  struct TargetHash {
    size_t operator()(Target T) const {
      return std::hash<unsigned long long>()(
          (static_cast<unsigned long long>(T.Obj) << 32) | T.Off);
    }
  };
  using TargetSet = std::set<Target>;

  /// Runs the analysis on \p M (must outlive this object).
  explicit PointsToAnalysis(const Module &M);

  /// The words \p V may point to. Empty for non-pointers and never-assigned
  /// pointers.
  const TargetSet &pointsTo(const Var *V) const;

  /// The abstract words `P->[OffP]` may denote: pts(P) shifted by OffP.
  TargetSet accessedWords(const Var *P, unsigned OffP) const;

  /// True if an access at offset \p OffP via \p P may touch the same word
  /// as an access at offset \p OffQ via \p Q. Identical base variables are
  /// compared by offset only (that is the "direct" case).
  bool mayAlias(const Var *P, unsigned OffP, const Var *Q,
                unsigned OffQ) const;

private:
  struct Object {
    bool IsAnchor = false;        ///< Anchor or derived region.
    unsigned Root = 0;            ///< Root anchor id (self for anchors).
    const StructType *Ty = nullptr; ///< Pointee struct (null: untyped).
  };

  /// The derived region "objects of struct type \p S reachable from the
  /// root anchor of \p Obj". Our dialect has no casts, so heap objects are
  /// monomorphic and type segregation of regions is sound; it gives the
  /// connection-analysis-style precision the paper relies on (list cells
  /// reachable from a village do not alias the village's own fields).
  unsigned regionOf(unsigned Obj, const StructType *S);

  // Node = points-to set holder: a Var, a struct-var word, or an object word.
  using NodeId = unsigned;
  NodeId varNode(const Var *V);
  NodeId varFieldNode(const Var *StructVar, unsigned Off);
  NodeId wordNode(Target T);
  NodeId retNode(const Function *F);

  void collect(const Module &M);
  void collectFunction(const Function &F);
  void collectStmt(const Function &F, const Stmt &S);
  void solve();

  bool addTargets(NodeId N, const TargetSet &Ts);

  // Constraint kinds beyond plain copy edges.
  struct LoadConstraint {
    NodeId Dst;
    NodeId Base;  ///< Var node holding the pointer.
    unsigned Off; ///< Word offset added to each target.
    const Type *ValueTy = nullptr; ///< Type of the loaded pointer value.
  };
  struct StoreConstraint {
    NodeId Base;
    unsigned Off;
    NodeId Src;
  };
  struct OffsetConstraint { ///< Dst ⊇ { (o, s+Off) | (o,s) ∈ pts(Base) }.
    NodeId Dst;
    NodeId Base;
    unsigned Off;
  };

  std::vector<Object> Objects;
  std::map<std::pair<unsigned, const StructType *>, unsigned> Regions;
  std::map<const Var *, NodeId> VarNodes;
  std::map<std::pair<const Var *, unsigned>, NodeId> VarFieldNodes;
  std::map<Target, NodeId> WordNodes;
  std::map<const Function *, NodeId> RetNodes;

  std::vector<TargetSet> Pts;                  ///< Indexed by NodeId.
  std::vector<std::set<NodeId>> CopyEdges;     ///< Src -> {Dst}.
  std::vector<LoadConstraint> Loads;
  std::vector<StoreConstraint> Stores;
  std::vector<OffsetConstraint> Offsets;

  TargetSet Empty;
};

} // namespace earthcc

#endif // EARTHCC_ANALYSIS_POINTSTO_H
