// The Aggregation primitive (paper §3, W2): maps each subgraph to a
// key/value entry and reduces values sharing a key. An AggregationSpec packs
// the user's key/value/reduce/post-filter functions; each execution thread
// accumulates into its own AggregationStorage, and the executor merges the
// thread-local storages into the step's final result (then applies the
// optional aggregation filter `aggFilter`).
//
// Typed K/V with std::function user hooks; the executor manipulates
// storages through the type-erased base classes.
//
// Aggregations keyed by canonical pattern (motifs, FSM) use
// AggregationStorageByPattern: it canonicalizes each subgraph once and
// folds it in place into a slot indexed by the thread's dense pattern id,
// so per subgraph no Pattern key is built, hashed or compared, and no value
// is built. Slots are folded into the Pattern map when storages of
// different threads merge and at the step barrier (Seal), while the
// threads' Computations are alive (DESIGN.md §8 "Quick codes and pattern
// ids"). A storage that only counts per pattern (Fractoid::CountByPattern)
// also takes a whole group of subgraphs sharing one quick pattern at once
// (AccumulateCount, DESIGN.md §8 "Leaf batches").
#ifndef FRACTAL_CORE_AGGREGATION_H_
#define FRACTAL_CORE_AGGREGATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/computation.h"
#include "enumerate/subgraph.h"
#include "pattern/canonical.h"
#include "util/alloc_guard.h"
#include "util/check.h"
#include "util/hot_annotations.h"

namespace fractal {

// --- Heap-footprint hook for aggregation keys/values ----------------------
// AggregationStorage::ApproxBytes must count heap owned *by* the entries
// (Pattern edge vectors, strings, FSM domain sets, ...), not just their
// inline sizeof — otherwise Table 2 memory drilldowns undercount exactly
// the workloads (motifs, FSM) where the keys dominate. A type opts in by
// exposing a `uint64_t ApproxHeapBytes() const` member; common standard
// containers are covered by the overloads below. Types without either
// report 0 (inline-only, correct for trivially copyable keys like ints).

namespace internal {
template <typename T, typename = void>
struct HasApproxHeapBytes : std::false_type {};
template <typename T>
struct HasApproxHeapBytes<
    T, std::void_t<decltype(static_cast<uint64_t>(
           std::declval<const T&>().ApproxHeapBytes()))>> : std::true_type {
};
}  // namespace internal

/// Heap bytes owned by `value` (not counting sizeof(T) itself).
template <typename T>
uint64_t HeapBytesOf(const T& value) {
  if constexpr (internal::HasApproxHeapBytes<T>::value) {
    return value.ApproxHeapBytes();
  } else {
    // No hook: assume inline-only. Exact for trivially copyable types;
    // heap-owning types should expose ApproxHeapBytes() or they undercount.
    return 0;
  }
}

inline uint64_t HeapBytesOf(const std::string& value) {
  // Approximate SSO: a capacity at or below the inline buffer owns no heap.
  return value.capacity() > sizeof(std::string) - 1 ? value.capacity() + 1
                                                    : 0;
}

template <typename E, typename A>
uint64_t HeapBytesOf(const std::vector<E, A>& value) {
  uint64_t bytes = static_cast<uint64_t>(value.capacity()) * sizeof(E);
  if constexpr (!std::is_trivially_copyable_v<E>) {
    for (const E& element : value) bytes += HeapBytesOf(element);
  }
  return bytes;
}

template <typename A, typename B>
uint64_t HeapBytesOf(const std::pair<A, B>& value) {
  return HeapBytesOf(value.first) + HeapBytesOf(value.second);
}

/// Type-erased view of an aggregation result / accumulator.
///
/// The reduce function must be commutative and associative: thread-local
/// storages merge in thread order, but which thread accumulated which
/// subgraph depends on stealing — and under salvage recovery
/// (runtime/lineage.h) on which tasks were replayed where. Bit-exactness of
/// recovered runs (DESIGN.md §11) rests on the merge being
/// order-independent.
class AggregationStorageBase {
 public:
  virtual ~AggregationStorageBase() = default;

  /// Maps `subgraph` to a key/value entry and reduces it in.
  virtual void Accumulate(const Subgraph& subgraph, Computation& comp) = 0;

  /// Whether the storage counts subgraphs per canonical pattern without
  /// reading them (Fractoid::CountByPattern), so AccumulateCount may stand
  /// in for Accumulate calls on subgraphs that share a quick pattern.
  virtual bool CountsByPattern() const { return false; }

  /// Adds `n` subgraphs whose quick pattern is `representative`'s. Only for
  /// storages that CountsByPattern().
  virtual void AccumulateCount(const Subgraph& /*representative*/,
                               Computation& /*comp*/, uint64_t /*n*/) {
    FRACTAL_CHECK(false) << "AccumulateCount on a storage that reads "
                            "its subgraphs";
  }

  /// Merges (and consumes) another storage created by the same spec.
  virtual void MergeFrom(AggregationStorageBase& other) = 0;

  /// Drops every entry (used to discard an uncommitted task's scratch
  /// accumulator after a crash).
  virtual void Clear() = 0;

  /// Resolves state that only the accumulating thread's Computation can
  /// read (pattern-id slots) into keyed entries. The step barrier calls it
  /// before the post-filter, while every Computation is alive; a no-op for
  /// storages that key their entries directly.
  virtual void Seal() {}

  /// Applies the spec's post-filter (aggFilter), dropping failing entries.
  virtual void ApplyPostFilter() = 0;

  virtual size_t NumEntries() const = 0;

  /// Rough heap footprint in bytes (for memory drilldowns).
  virtual uint64_t ApproxBytes() const = 0;
};

/// Type-erased aggregation descriptor (the payload of an A primitive).
class AggregationSpecBase {
 public:
  explicit AggregationSpecBase(std::string name) : name_(std::move(name)) {}
  virtual ~AggregationSpecBase() = default;

  const std::string& name() const { return name_; }

  virtual std::unique_ptr<AggregationStorageBase> CreateStorage() const = 0;

 private:
  std::string name_;
};

/// Typed aggregation storage: an unordered_map<K, V> plus the user hooks.
template <typename K, typename V, typename Hash = std::hash<K>>
class AggregationStorage : public AggregationStorageBase {
 public:
  /// Key extractor (paper: `key: (Subgraph, Computation) => K`).
  using KeyFn = std::function<K(const Subgraph&, Computation&)>;
  /// Value extractor (paper: `value: (Subgraph, Computation) => V`).
  using ValueFn = std::function<V(const Subgraph&, Computation&)>;
  /// In-place reduction: folds `from` into `into` (paper: `(V, V) => V`).
  using ReduceFn = std::function<void(V& into, V&& from)>;
  /// Final filter on reduced entries (paper: `aggFilter: (K, V) => Boolean`).
  using PostFilterFn = std::function<bool(const K&, const V&)>;

  AggregationStorage(KeyFn key_fn, ValueFn value_fn, ReduceFn reduce_fn,
                     PostFilterFn post_filter)
      : key_fn_(std::move(key_fn)),
        value_fn_(std::move(value_fn)),
        reduce_fn_(std::move(reduce_fn)),
        post_filter_(std::move(post_filter)) {}

  /// Runs inside the step's AllocGuard scope (DESIGN.md §9): with
  /// heap-free keys and values (motif counting) a known key allocates
  /// nothing, and the only audited allocation is the map node of a key this
  /// storage has not seen yet.
  void Accumulate(const Subgraph& subgraph, Computation& comp) override {
    K key = key_fn_(subgraph, comp);
    V value = value_fn_(subgraph, comp);
    ReduceIn(std::move(key), std::move(value));
  }

  void MergeFrom(AggregationStorageBase& other_base) override {
    auto* other = dynamic_cast<AggregationStorage*>(&other_base);
    FRACTAL_CHECK(other != nullptr) << "merging incompatible aggregations";
    // Move whole map nodes across instead of copying keys: for heap-owning
    // keys (Pattern, strings) the thread-local merge at every step barrier
    // would otherwise allocate per entry — a hot-path violation under the
    // alloc-guard (the lineage CommitTask path merges inside the guarded
    // region). Only a rehash of the destination can allocate here.
    for (auto it = other->entries_.begin(); it != other->entries_.end();) {
      auto node = other->entries_.extract(it++);
      const auto found = entries_.find(node.key());
      if (found == entries_.end()) {
        entries_.insert(std::move(node));
      } else {
        reduce_fn_(found->second, std::move(node.mapped()));
        // `node` frees the duplicate on scope exit.
      }
    }
  }

  void Clear() override { entries_.clear(); }

  void ApplyPostFilter() override {
    if (!post_filter_) return;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (post_filter_(it->first, it->second)) {
        ++it;
      } else {
        it = entries_.erase(it);
      }
    }
  }

  size_t NumEntries() const override { return entries_.size(); }

  uint64_t ApproxBytes() const override {
    // Node-based map: per entry one node (key + value + next pointer +
    // cached hash) plus the bucket array, plus whatever heap the key/value
    // themselves own (HeapBytesOf hook above). O(entries) — this feeds
    // memory drilldowns (Table 2), not the enumeration hot path.
    uint64_t bytes =
        static_cast<uint64_t>(entries_.bucket_count()) * sizeof(void*) +
        entries_.size() * (sizeof(K) + sizeof(V) + 2 * sizeof(void*));
    for (const auto& [key, value] : entries_) {
      bytes += HeapBytesOf(key) + HeapBytesOf(value);
    }
    return bytes;
  }

  const std::unordered_map<K, V, Hash>& entries() const { return entries_; }

  bool Contains(const K& key) const { return entries_.count(key) > 0; }

  const V* Find(const K& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

 protected:
  /// Reduces `value` into the entry of `key`, inserting it if new.
  void ReduceIn(K&& key, V&& value) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      reduce_fn_(it->second, std::move(value));
      return;
    }
    FRACTAL_HOT_ESCAPE("new key: one map node per distinct key per storage");
    AllocGuard::Allow allow("aggregation new-key insert");
    entries_.emplace(std::move(key), std::move(value));
  }

  const ReduceFn& reduce_fn() const { return reduce_fn_; }

 private:
  std::unordered_map<K, V, Hash> entries_;
  KeyFn key_fn_;
  ValueFn value_fn_;
  ReduceFn reduce_fn_;
  PostFilterFn post_filter_;
};

/// Typed aggregation descriptor.
template <typename K, typename V, typename Hash = std::hash<K>>
class AggregationSpec : public AggregationSpecBase {
 public:
  using Storage = AggregationStorage<K, V, Hash>;

  AggregationSpec(std::string name, typename Storage::KeyFn key_fn,
                  typename Storage::ValueFn value_fn,
                  typename Storage::ReduceFn reduce_fn,
                  typename Storage::PostFilterFn post_filter = nullptr)
      : AggregationSpecBase(std::move(name)),
        key_fn_(std::move(key_fn)),
        value_fn_(std::move(value_fn)),
        reduce_fn_(std::move(reduce_fn)),
        post_filter_(std::move(post_filter)) {}

  std::unique_ptr<AggregationStorageBase> CreateStorage() const override {
    return std::make_unique<Storage>(key_fn_, value_fn_, reduce_fn_,
                                     post_filter_);
  }

 private:
  typename Storage::KeyFn key_fn_;
  typename Storage::ValueFn value_fn_;
  typename Storage::ReduceFn reduce_fn_;
  typename Storage::PostFilterFn post_filter_;
};

/// Aggregation keyed by canonical pattern (see the file comment). Results
/// read like any AggregationStorage<Pattern, V, PatternHash> once sealed.
template <typename V>
class AggregationStorageByPattern
    : public AggregationStorage<Pattern, V, PatternHash> {
  using Base = AggregationStorage<Pattern, V, PatternHash>;

 public:
  /// In-place fold of one subgraph into its pattern's slot, handed the
  /// canonical result the slot came from, so nothing is canonicalized twice
  /// (FSM's MNI domains read the permutation and orbits).
  using AddFn = std::function<void(V& slot, const Subgraph&,
                                   const CanonicalResult&, Computation&)>;
  /// The counting form of AddFn: folds `n` subgraphs of the slot's pattern
  /// at once, and sees none of them (Fractoid::CountByPattern).
  using CountFn = std::function<void(V& slot, uint64_t n)>;

  AggregationStorageByPattern(V zero, AddFn add_fn, CountFn count_fn,
                              typename Base::ReduceFn reduce_fn,
                              typename Base::PostFilterFn post_filter)
      : Base(nullptr, nullptr, std::move(reduce_fn), std::move(post_filter)),
        zero_(std::move(zero)),
        add_fn_(std::move(add_fn)),
        count_fn_(std::move(count_fn)) {
    FRACTAL_CHECK(static_cast<bool>(add_fn_) != static_cast<bool>(count_fn_))
        << "a pattern aggregation adds or counts, not both";
  }

  /// One canonicalization, then an in-place add into slots_[id]; a new
  /// slot starts as a copy of `zero`. A storage reads the ids of one
  /// Computation; a different one (never the case inside a step) first
  /// folds the slots it holds.
  FRACTAL_HOT void Accumulate(const Subgraph& subgraph,
                              Computation& comp) override {
    AddTo(subgraph, comp, 1);
  }

  bool CountsByPattern() const override {
    return static_cast<bool>(count_fn_);
  }

  FRACTAL_HOT void AccumulateCount(const Subgraph& representative,
                                   Computation& comp, uint64_t n) override {
    FRACTAL_DCHECK(CountsByPattern());
    AddTo(representative, comp, n);
  }

  /// Slot-wise when both storages read the same ids (a lineage task's
  /// scratch committing into its thread's storage); otherwise `other`'s
  /// slots are folded into its Pattern map first and merge as entries.
  void MergeFrom(AggregationStorageBase& other_base) override {
    auto* other = dynamic_cast<AggregationStorageByPattern*>(&other_base);
    FRACTAL_CHECK(other != nullptr) << "merging incompatible aggregations";
    if (ids_ == nullptr) ids_ = other->ids_;  // unbound: no filled slots
    if (other->ids_ == ids_) {
      if (other->slots_.size() > slots_.size()) {
        slots_.resize(other->slots_.size());
      }
      for (size_t id = 0; id < other->slots_.size(); ++id) {
        std::optional<V>& from = other->slots_[id];
        if (!from.has_value()) continue;
        if (slots_[id].has_value()) {
          this->reduce_fn()(*slots_[id], std::move(*from));
        } else {
          slots_[id].emplace(std::move(*from));
        }
        from.reset();  // keeps the scratch's slot capacity for its next task
      }
    } else {
      other->Fold();
    }
    Base::MergeFrom(*other);
  }

  void Seal() override {
    Fold();
    ids_ = nullptr;
  }

  void Clear() override {
    Base::Clear();
    for (std::optional<V>& slot : slots_) slot.reset();
  }

  size_t NumEntries() const override {
    size_t filled = 0;
    for (const std::optional<V>& slot : slots_) filled += slot.has_value();
    return Base::NumEntries() + filled;
  }

  uint64_t ApproxBytes() const override {
    uint64_t bytes = Base::ApproxBytes() +
                     slots_.capacity() * sizeof(std::optional<V>);
    for (const std::optional<V>& slot : slots_) {
      if (slot.has_value()) bytes += HeapBytesOf(*slot);
    }
    return bytes;
  }

 private:
  /// Adds `n` subgraphs with `subgraph`'s pattern (n is 1 unless counting).
  FRACTAL_HOT void AddTo(const Subgraph& subgraph, Computation& comp,
                         uint64_t n) {
    const CanonicalPatternCache* ids = &comp.canonical_cache();
    if (ids != ids_) {
      FRACTAL_HOT_ESCAPE("first subgraph of the storage binds its ids");
      Fold();
      ids_ = ids;
    }
    const CanonicalResult& canonical = comp.CanonicalPattern(subgraph);
    if (canonical.id < slots_.size() && slots_[canonical.id].has_value()) {
      Add(*slots_[canonical.id], subgraph, canonical, comp, n);
      return;
    }
    FRACTAL_HOT_ESCAPE("new pattern id: one slot per distinct canonical "
                       "pattern per storage");
    AllocGuard::Allow allow("aggregation new-pattern slot");
    if (canonical.id >= slots_.size()) slots_.resize(canonical.id + 1);
    Add(slots_[canonical.id].emplace(zero_), subgraph, canonical, comp, n);
  }

  void Add(V& slot, const Subgraph& subgraph, const CanonicalResult& canonical,
           Computation& comp, uint64_t n) const {
    if (count_fn_) {
      count_fn_(slot, n);
    } else {
      add_fn_(slot, subgraph, canonical, comp);
    }
  }

  /// Moves every filled slot into the Pattern map under ids_'s pattern.
  void Fold() {
    for (size_t id = 0; id < slots_.size(); ++id) {
      if (!slots_[id].has_value()) continue;
      this->ReduceIn(Pattern(ids_->PatternOf(static_cast<uint32_t>(id))),
                     std::move(*slots_[id]));
      slots_[id].reset();
    }
  }

  V zero_;
  // Exactly one of the two is set.
  AddFn add_fn_;
  CountFn count_fn_;
  // The Computation ids the slots are indexed by; null before the first
  // Accumulate or merge and after Seal, and then every slot is empty.
  const CanonicalPatternCache* ids_ = nullptr;
  std::vector<std::optional<V>> slots_;
};

/// Descriptor of a pattern-keyed aggregation.
template <typename V>
class AggregationSpecByPattern : public AggregationSpecBase {
 public:
  using Storage = AggregationStorageByPattern<V>;

  /// Exactly one of `add_fn` and `count_fn` is set (see the storage).
  AggregationSpecByPattern(std::string name, V zero,
                           typename Storage::AddFn add_fn,
                           typename Storage::CountFn count_fn,
                           typename Storage::ReduceFn reduce_fn,
                           typename Storage::PostFilterFn post_filter)
      : AggregationSpecBase(std::move(name)),
        zero_(std::move(zero)),
        add_fn_(std::move(add_fn)),
        count_fn_(std::move(count_fn)),
        reduce_fn_(std::move(reduce_fn)),
        post_filter_(std::move(post_filter)) {}

  std::unique_ptr<AggregationStorageBase> CreateStorage() const override {
    return std::make_unique<Storage>(zero_, add_fn_, count_fn_, reduce_fn_,
                                     post_filter_);
  }

 private:
  V zero_;
  typename Storage::AddFn add_fn_;
  typename Storage::CountFn count_fn_;
  typename Storage::ReduceFn reduce_fn_;
  typename Storage::PostFilterFn post_filter_;
};

/// Downcasts a completed storage to its typed form (CHECKs on mismatch).
template <typename K, typename V, typename Hash = std::hash<K>>
const AggregationStorage<K, V, Hash>& TypedStorage(
    const AggregationStorageBase& base) {
  const auto* typed = dynamic_cast<const AggregationStorage<K, V, Hash>*>(&base);
  FRACTAL_CHECK(typed != nullptr) << "aggregation type mismatch";
  return *typed;
}

}  // namespace fractal

#endif  // FRACTAL_CORE_AGGREGATION_H_
