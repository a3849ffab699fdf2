//===- FlatSet.h - Hash-indexed flat set and map ----------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hashed flat-set pattern used across the analyses: contiguous element
/// storage — cheap to scan, copy and snapshot — plus one FlatIndex of
/// positions for O(1) membership, instead of a node-per-element
/// std::set/std::map or std::unordered_map.
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

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace earthcc {

/// The one hash index behind FlatSet, FlatMap and Placement's RCESet: it
/// maps keys to positions in its owner's contiguous storage and stores
/// nothing but positions. Every call passes the owner's item count \p N and
/// an accessor \p At, where At(I) yields the key of item I (by value or by
/// reference); the index only asks for positions it holds.
///
/// Up to LinearMax positions there is no table: a bit mask records which
/// positions are indexed and lookups scan them, so a small set allocates
/// only its storage. Past that, the index is one open-addressed power-of-two
/// table of `position + 1` (0 marks an empty slot), probed linearly from a
/// Fibonacci-hashed home slot and kept at most half full. Erasing shifts the
/// following probe run back, so the table never holds tombstones.
template <typename K, typename Hash = std::hash<K>> class FlatIndex {
public:
  static constexpr size_t LinearMax = 8;

  FlatIndex() = default;
  FlatIndex(const FlatIndex &) = default;
  FlatIndex &operator=(const FlatIndex &) = default;
  /// A moved-from index is empty, like the moved-from storage it indexed.
  FlatIndex(FlatIndex &&O) noexcept { *this = std::move(O); }
  FlatIndex &operator=(FlatIndex &&O) noexcept {
    Slots = std::move(O.Slots);
    O.Slots.clear();
    Linear = std::exchange(O.Linear, 0);
    Count = std::exchange(O.Count, 0);
    Shift = O.Shift;
    return *this;
  }

  /// Number of indexed positions.
  size_t size() const { return Count; }

  /// Position of \p Key among the owner's \p N items, or \p N if absent.
  template <typename KeyAt>
  size_t find(const K &Key, size_t N, const KeyAt &At) const {
    if (Slots.empty()) {
      for (size_t I = 0; I != N; ++I)
        if ((Linear >> I & 1) && At(I) == Key)
          return I;
      return N;
    }
    for (size_t S = home(Key);; S = next(S)) {
      if (Slots[S] == 0)
        return N;
      if (At(Slots[S] - 1) == Key)
        return Slots[S] - 1;
    }
  }

  /// Like find(), but an absent \p Key is indexed at position \p N, which
  /// the owner must fill next (At(N) is not called here).
  template <typename KeyAt>
  size_t findOrAdd(const K &Key, size_t N, const KeyAt &At) {
    if (size_t I = find(Key, N, At); I != N)
      return I;
    assert(N < UINT32_MAX && "FlatIndex positions are 32-bit");
    ++Count;
    if (Slots.empty() && N < LinearMax) {
      Linear |= uint32_t(1) << N;
      return N;
    }
    if (2 * Count > Slots.size())
      grow(At);
    place(N, Key);
    return N;
  }

  /// Drops indexed position \p I; its key must still be readable via At.
  template <typename KeyAt> void erase(size_t I, const KeyAt &At) {
    --Count;
    if (Slots.empty()) {
      Linear &= ~(uint32_t(1) << I);
      return;
    }
    size_t Hole = home(At(I));
    while (Slots[Hole] != I + 1)
      Hole = next(Hole);
    for (size_t S = next(Hole); Slots[S] != 0; S = next(S)) {
      // The entry at S may fill the hole if the hole lies on its probe path,
      // i.e. its home is not cyclically inside (Hole, S].
      size_t Home = home(At(Slots[S] - 1));
      if (((S - Home) & mask()) >= ((S - Hole) & mask())) {
        Slots[Hole] = Slots[S];
        Hole = S;
      }
    }
    Slots[Hole] = 0;
  }

  /// Re-indexes the owner's items [0, N), all distinct, after it moved them.
  template <typename KeyAt> void rebuild(size_t N, const KeyAt &At) {
    Slots.clear();
    Count = 0;
    Linear = 0;
    if (N <= LinearMax) {
      Linear = static_cast<uint32_t>((uint64_t(1) << N) - 1);
      Count = N;
      return;
    }
    for (size_t I = 0; I != N; ++I)
      findOrAdd(At(I), I, At);
  }

private:
  static_assert(LinearMax < 32, "the linear mask is 32 bits wide");

  size_t mask() const { return Slots.size() - 1; }
  size_t next(size_t S) const { return (S + 1) & mask(); }
  size_t home(const K &Key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(Hash()(Key)) * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  /// Puts position \p I, whose key is \p Key, in the first empty slot of
  /// its probe run.
  void place(size_t I, const K &Key) {
    size_t S = home(Key);
    while (Slots[S] != 0)
      S = next(S);
    Slots[S] = static_cast<uint32_t>(I + 1);
  }

  /// Moves every indexed position into a table at most half full for Count
  /// positions.
  template <typename KeyAt> void grow(const KeyAt &At) {
    size_t Size = 4 * LinearMax;
    while (Size < 2 * Count)
      Size *= 2;
    std::vector<uint32_t> Old = std::move(Slots);
    Slots.assign(Size, 0);
    Shift = 64;
    for (size_t S = Size; S > 1; S /= 2)
      --Shift;
    for (uint32_t P : Old)
      if (P != 0)
        place(P - 1, At(P - 1));
    for (size_t I = 0; I != LinearMax; ++I)
      if (Linear >> I & 1)
        place(I, At(I));
    Linear = 0;
  }

  std::vector<uint32_t> Slots; ///< Empty while the index is linear.
  uint32_t Linear = 0;         ///< Indexed positions, while linear.
  uint32_t Count = 0;
  unsigned Shift = 64;
};

template <typename T, typename Hash = std::hash<T>> class FlatSet {
  auto keyAt() const {
    return [this](size_t I) -> const T & { return Items[I]; };
  }

public:
  /// Returns true if \p V was newly inserted.
  bool insert(const T &V) {
    if (Index.findOrAdd(V, Items.size(), keyAt()) != Items.size())
      return false;
    Items.push_back(V);
    return true;
  }
  template <typename Iter> void insert(Iter First, Iter Last) {
    for (; First != Last; ++First)
      insert(*First);
  }

  bool contains(const T &V) const {
    return Index.find(V, Items.size(), keyAt()) != Items.size();
  }
  size_t count(const T &V) const { return contains(V) ? 1 : 0; }
  bool empty() const { return Items.empty(); }
  size_t size() const { return Items.size(); }

  typename std::vector<T>::const_iterator begin() const {
    return Items.begin();
  }
  typename std::vector<T>::const_iterator end() const { return Items.end(); }

private:
  std::vector<T> Items;
  FlatIndex<T, Hash> Index;
};

/// Flat map with tombstone erasure: erase marks the slot dead and drops it
/// from the index; storage is compacted when eraseIf() leaves the vector
/// more than half dead. Point erases between eraseIf() calls just leave a
/// tombstone, so values found via find()/operator[] stay pinned until the
/// next eraseIf() or the next insertion of a new key.
template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
  auto keyAt() const {
    return [this](size_t I) -> const K & { return Items[I].Key; };
  }

public:
  V &operator[](const K &Key) {
    size_t I = Index.findOrAdd(Key, Items.size(), keyAt());
    if (I == Items.size())
      Items.push_back(Entry{Key, V{}, false});
    return Items[I].Value;
  }

  V *find(const K &Key) {
    size_t I = Index.find(Key, Items.size(), keyAt());
    return I == Items.size() ? nullptr : &Items[I].Value;
  }
  const V *find(const K &Key) const {
    size_t I = Index.find(Key, Items.size(), keyAt());
    return I == Items.size() ? nullptr : &Items[I].Value;
  }
  bool contains(const K &Key) const { return find(Key) != nullptr; }
  size_t count(const K &Key) const { return contains(Key) ? 1 : 0; }

  bool erase(const K &Key) {
    size_t I = Index.find(Key, Items.size(), keyAt());
    if (I == Items.size())
      return false;
    Index.erase(I, keyAt());
    Items[I].Dead = true;
    return true;
  }

  /// Erases every entry for which \p P(key, value) is true, then compacts
  /// if tombstones dominate the storage.
  template <typename Pred> void eraseIf(Pred P) {
    for (size_t I = 0; I != Items.size(); ++I) {
      Entry &E = Items[I];
      if (!E.Dead && P(E.Key, E.Value)) {
        Index.erase(I, keyAt());
        E.Dead = true;
      }
    }
    if (Index.size() * 2 < Items.size())
      compact();
  }

  size_t size() const { return Index.size(); }
  bool empty() const { return Index.size() == 0; }

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
    Index.rebuild(Items.size(), keyAt());
  }

  std::vector<Entry> Items;
  FlatIndex<K, Hash> Index;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_FLATSET_H
