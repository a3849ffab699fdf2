//===- FlatSet.h - Hash-indexed flat set and map ----------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hashed flat-set pattern used across the analyses (first grown ad hoc
/// as Placement's RCESet): contiguous element storage — cheap to scan, copy
/// and snapshot — plus an unordered index for O(1) membership, instead of a
/// node-per-element std::set/std::map.
///
/// Iteration order is insertion order. That is deterministic whenever the
/// insertion sequence is (statement walks, function order), which notably
/// makes pointer-keyed sets *more* reproducible than std::set<const T *>,
/// whose order follows allocation addresses. When an output needs a
/// canonical order, sort at that boundary.
///
/// Inserting an element that is already present never moves storage;
/// inserting a genuinely new element may reallocate, so do not insert new
/// elements while iterating.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_FLATSET_H
#define EARTHCC_SUPPORT_FLATSET_H

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace earthcc {

template <typename T, typename Hash = std::hash<T>> class FlatSet {
public:
  /// Returns true if \p V was newly inserted.
  bool insert(const T &V) {
    auto [It, Inserted] = Index.try_emplace(V, Items.size());
    if (Inserted)
      Items.push_back(V);
    return Inserted;
  }
  template <typename Iter> void insert(Iter First, Iter Last) {
    for (; First != Last; ++First)
      insert(*First);
  }

  bool contains(const T &V) const { return Index.count(V) != 0; }
  size_t count(const T &V) const { return Index.count(V); }
  bool empty() const { return Items.empty(); }
  size_t size() const { return Items.size(); }

  typename std::vector<T>::const_iterator begin() const {
    return Items.begin();
  }
  typename std::vector<T>::const_iterator end() const { return Items.end(); }

private:
  std::vector<T> Items;
  std::unordered_map<T, size_t, Hash> Index;
};

/// Flat map with tombstone erasure: erase marks the slot dead and drops the
/// index entry; storage is compacted when eraseIf() leaves the vector more
/// than half dead. Point erases between eraseIf() calls just leave a
/// tombstone, so values found via find()/operator[] stay pinned until the
/// next eraseIf().
template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
public:
  V &operator[](const K &Key) {
    auto [It, Inserted] = Index.try_emplace(Key, Items.size());
    if (Inserted)
      Items.push_back(Entry{Key, V{}, false});
    return Items[It->second].Value;
  }

  V *find(const K &Key) {
    auto It = Index.find(Key);
    return It == Index.end() ? nullptr : &Items[It->second].Value;
  }
  const V *find(const K &Key) const {
    auto It = Index.find(Key);
    return It == Index.end() ? nullptr : &Items[It->second].Value;
  }
  bool contains(const K &Key) const { return Index.count(Key) != 0; }
  size_t count(const K &Key) const { return Index.count(Key); }

  bool erase(const K &Key) {
    auto It = Index.find(Key);
    if (It == Index.end())
      return false;
    Items[It->second].Dead = true;
    Index.erase(It);
    return true;
  }

  /// Erases every entry for which \p P(key, value) is true, then compacts
  /// if tombstones dominate the storage.
  template <typename Pred> void eraseIf(Pred P) {
    for (Entry &E : Items)
      if (!E.Dead && P(E.Key, E.Value)) {
        E.Dead = true;
        Index.erase(E.Key);
      }
    if (Index.size() * 2 < Items.size())
      compact();
  }

  size_t size() const { return Index.size(); }
  bool empty() const { return Index.empty(); }

private:
  struct Entry {
    K Key;
    V Value;
    bool Dead = false;
  };

  void compact() {
    std::vector<Entry> Live;
    Live.reserve(Index.size());
    for (Entry &E : Items)
      if (!E.Dead)
        Live.push_back(std::move(E));
    Items = std::move(Live);
    for (size_t I = 0; I != Items.size(); ++I)
      Index[Items[I].Key] = I;
  }

  std::vector<Entry> Items;
  std::unordered_map<K, size_t, Hash> Index;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_FLATSET_H
