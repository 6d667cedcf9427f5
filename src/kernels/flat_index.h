#ifndef BENTO_KERNELS_FLAT_INDEX_H_
#define BENTO_KERNELS_FLAT_INDEX_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "simd/hash.h"
#include "sim/parallel.h"
#include "util/result.h"

namespace bento::kern {

// ---------------------------------------------------------------------------
// Word-at-a-time 64-bit hashing (wyhash-style)
// ---------------------------------------------------------------------------
//
// The scalar hash bodies live in simd/hash.h so the vectorized hash-mix
// kernels in src/simd share the exact same definition; the kernel layer
// keeps its historical names as aliases.

namespace detail {

using simd::Load32;
using simd::Load64;
using simd::Mum;
using simd::kWySecret0;
using simd::kWySecret1;
using simd::kWySecret2;

/// Test hook: when active, HashRows and StringInterner hash every key to
/// one constant, forcing worst-case collisions so the equality-fallback
/// paths of every hash consumer are exercised end to end.
bool ForcedHashCollisionsActive();
void SetForcedHashCollisions(bool active);

}  // namespace detail

/// \brief RAII guard for the forced-collision test mode (see
/// detail::ForcedHashCollisionsActive). Process-global; tests using it must
/// not run hash kernels concurrently in other threads.
class ScopedForcedHashCollisions {
 public:
  ScopedForcedHashCollisions() { detail::SetForcedHashCollisions(true); }
  ~ScopedForcedHashCollisions() { detail::SetForcedHashCollisions(false); }
  ScopedForcedHashCollisions(const ScopedForcedHashCollisions&) = delete;
  ScopedForcedHashCollisions& operator=(const ScopedForcedHashCollisions&) =
      delete;
};

using simd::Hash64;
using simd::HashWord64;

// ---------------------------------------------------------------------------
// FlatIndex: open-addressing build/probe index over table rows
// ---------------------------------------------------------------------------

/// \brief A cache-conscious hash index from row keys to chains of row ids —
/// the build side of HashJoin and the lookup structure behind every
/// hash-shaped preparator.
///
/// Layout: one contiguous slot array (open addressing, linear probing,
/// power-of-two capacity, <= 2/3 load). Each slot stores the full 64-bit key
/// hash inline plus the first and last row of its duplicate chain; duplicate
/// rows are linked through a single `next` array indexed by row id (an
/// index-linked list) instead of per-bucket heap-allocated vectors. A probe
/// therefore touches one cache line per distinct non-colliding key, and
/// chain traversal is a linear walk over `next`.
///
/// Distinct keys with equal 64-bit hashes occupy distinct slots: insertion
/// resolves full-hash matches through the caller's row-equality functor and
/// keeps probing on mismatch, so collision correctness never depends on the
/// hash. Chains preserve insertion (row) order — consumers keep the
/// first-seen / stable output semantics the differential suite locks down.
///
/// The table is optionally radix-partitioned on the top hash bits
/// (`BuildPartitioned`): partitions are disjoint by construction, so the
/// build fans out over sim::ParallelFor with no synchronization beyond the
/// partition scatter — paper-faithful makespan credit in kSimulated mode,
/// real work-stealing threads in kReal mode.
class FlatIndex {
 public:
  static constexpr int64_t kNone = -1;

  FlatIndex() = default;

  /// \brief Serial build over `hashes[0..n)`. `keep(row)` filters rows
  /// (join build drops null keys); `equal(a, b)` decides whether build rows
  /// a and b carry the same key.
  template <typename Keep, typename Equal>
  void Build(const std::vector<uint64_t>& hashes, Keep&& keep, Equal&& equal) {
    BENTO_TRACE_SPAN(kKernel, "flat_index.build");
    const int64_t n = static_cast<int64_t>(hashes.size());
    parts_.assign(1, Part());
    part_shift_ = 64;  // single partition: no radix bits consumed
    next_.assign(static_cast<size_t>(n), kNone);
    Part* part = &parts_[0];
    part->Reset(n);  // sized for n keys up front, so slots never reallocate
    for (int64_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) {
        part->PrefetchSlot(hashes[static_cast<size_t>(i + kPrefetchDistance)]);
      }
      if (!keep(i)) continue;
      InsertInto(part, hashes[static_cast<size_t>(i)], i, equal);
    }
    ReportBuildStats();
  }

  /// \brief Radix-partitioned parallel build: rows are scattered into
  /// 2^k partitions by their top hash bits (order-preserving within each
  /// partition), then every partition builds its private slot array in one
  /// ParallelFor task. Falls back to the serial path for small inputs.
  /// `equal` must be safe to call concurrently on distinct rows (row data is
  /// immutable, so RowEquality qualifies).
  template <typename Keep, typename Equal>
  Status BuildPartitioned(const std::vector<uint64_t>& hashes, Keep&& keep,
                          Equal&& equal, const sim::ParallelOptions& options) {
    BENTO_TRACE_SPAN(kKernel, "flat_index.build_partitioned");
    const int64_t n = static_cast<int64_t>(hashes.size());
    const int parts = PlanPartitions(n, options);
    if (parts <= 1) {
      Build(hashes, keep, equal);
      return Status::OK();
    }
    // Pass 1: order-preserving scatter of kept rows into partition row
    // lists (serial: one sweep of the hash vector, branch-free partition
    // id from the top bits).
    const int shift = PartShiftFor(parts);
    std::vector<std::vector<int64_t>> part_rows(static_cast<size_t>(parts));
    for (auto& v : part_rows) v.reserve(static_cast<size_t>(n / parts + 8));
    for (int64_t i = 0; i < n; ++i) {
      if (!keep(i)) continue;
      part_rows[hashes[static_cast<size_t>(i)] >> shift].push_back(i);
    }
    // Pass 2: per-partition builds, one task each. Tasks write disjoint
    // state: their own Part and disjoint `next_` entries (a row belongs to
    // exactly one partition).
    parts_.assign(static_cast<size_t>(parts), Part());
    part_shift_ = shift;
    next_.assign(static_cast<size_t>(n), kNone);
    Status st = sim::ParallelFor(
        parts,
        [&](int64_t p) {
          Part* part = &parts_[static_cast<size_t>(p)];
          const auto& rows = part_rows[static_cast<size_t>(p)];
          part->Reset(static_cast<int64_t>(rows.size()));
          const int64_t m = static_cast<int64_t>(rows.size());
          for (int64_t r = 0; r < m; ++r) {
            if (r + kPrefetchDistance < m) {
              part->PrefetchSlot(hashes[static_cast<size_t>(
                  rows[static_cast<size_t>(r + kPrefetchDistance)])]);
            }
            const int64_t row = rows[static_cast<size_t>(r)];
            InsertInto(part, hashes[static_cast<size_t>(row)], row, equal);
          }
          return Status::OK();
        },
        options);
    ReportBuildStats();
    return st;
  }

  /// \brief First build row whose key matches probe hash `h`, resolving
  /// full-hash ties through `equal(build_row)`; kNone when absent. Follow
  /// the duplicate chain with Next().
  template <typename Equal>
  int64_t Find(uint64_t h, Equal&& equal) const {
    const Part& part = parts_[PartOf(h)];
    if (part.keys == 0) return kNone;
    uint64_t s = h & part.mask;
    while (true) {
      const Slot& slot = part.slots[s];
      if (slot.head == kNone) return kNone;
      if (slot.hash == h && equal(slot.head)) return slot.head;
      s = (s + 1) & part.mask;
    }
  }

  /// \brief Next row in the duplicate chain (insertion order); kNone at end.
  int64_t Next(int64_t row) const { return next_[static_cast<size_t>(row)]; }

  /// \brief Number of distinct keys across all partitions.
  int64_t num_keys() const {
    int64_t k = 0;
    for (const Part& p : parts_) k += p.keys;
    return k;
  }

  int num_partitions() const { return static_cast<int>(parts_.size()); }

  /// \brief Partition fan-out used for `n` rows under `options` (exposed
  /// for tests and DESIGN.md cost accounting): the worker count rounded up
  /// to a power of two, capped at 64 and so that partitions keep >= 4k rows.
  static int PlanPartitions(int64_t n, const sim::ParallelOptions& options);

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t head = kNone;  // first row with this key
    int64_t tail = kNone;  // last row with this key (chain append point)
  };

  /// How far ahead build loops prefetch the home slot of an upcoming row.
  /// Slot probes are random touches into an array that can exceed cache;
  /// issuing the load ~8 inserts early hides most of the miss latency.
  static constexpr int64_t kPrefetchDistance = 8;

  /// One radix partition: a private open-addressing slot array.
  struct Part {
    std::vector<Slot> slots;
    uint64_t mask = 0;
    int64_t keys = 0;
    // Build-side probe statistics: plain ints — each Part is written by
    // exactly one build task; ReportBuildStats() flushes the totals to the
    // MetricsRegistry after the build completes.
    int64_t probes = 0;
    int64_t collisions = 0;

    void Reset(int64_t expected_rows);

    void PrefetchSlot(uint64_t h) const {
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&slots[h & mask], 1 /*write*/, 1);
#else
      (void)h;
#endif
    }
  };

  static int PartShiftFor(int parts);  // 64 - log2(parts)

  size_t PartOf(uint64_t h) const {
    return part_shift_ >= 64 ? 0 : static_cast<size_t>(h >> part_shift_);
  }

  template <typename Equal>
  void InsertInto(Part* part, uint64_t h, int64_t row, Equal&& equal) {
    uint64_t s = h & part->mask;
    while (true) {
      ++part->probes;
      Slot& slot = part->slots[s];
      if (slot.head == kNone) {
        slot.hash = h;
        slot.head = row;
        slot.tail = row;
        ++part->keys;
        return;
      }
      if (slot.hash == h && equal(slot.head, row)) {
        next_[static_cast<size_t>(slot.tail)] = row;
        slot.tail = row;
        return;
      }
      ++part->collisions;
      s = (s + 1) & part->mask;
    }
  }

  void ReportBuildStats() const;

  std::vector<Part> parts_;
  std::vector<int64_t> next_;
  int part_shift_ = 64;
};

// ---------------------------------------------------------------------------
// FlatGrouper: incremental find-or-insert -> dense group ids
// ---------------------------------------------------------------------------

/// \brief Open-addressing grouper: maps each row to a dense group id in
/// first-seen order (the group-by / drop-duplicates access pattern). Slots
/// store {hash, group}; the first row of each group is its representative
/// for equality fallback. Grows by doubling at 2/3 load; rehashing moves
/// slots by stored hash only (distinct keys sharing a full hash keep
/// distinct slots, and probes re-resolve them through `equal`).
class FlatGrouper {
 public:
  static constexpr int64_t kNone = -1;

  explicit FlatGrouper(int64_t expected_groups = 0) {
    Reset(expected_groups);
  }
  /// Flushes accumulated probe statistics to the MetricsRegistry
  /// ("flat_grouper.probes" / "flat_grouper.collisions"). Groupers are
  /// single-owner stack locals, so destruction is the natural flush point.
  ~FlatGrouper();

  FlatGrouper(const FlatGrouper&) = delete;
  FlatGrouper& operator=(const FlatGrouper&) = delete;

  void Reset(int64_t expected_groups);

  /// \brief Group id of `row`, inserting a new group when unseen.
  /// `equal(a, b)` compares the keys of rows a and b.
  template <typename Equal>
  int64_t FindOrInsert(uint64_t h, int64_t row, Equal&& equal) {
    if (num_groups_ * 3 >= static_cast<int64_t>(slots_.size()) * 2) Grow();
    uint64_t s = h & mask_;
    while (true) {
      ++probes_;
      Slot& slot = slots_[s];
      if (slot.group == kNone) {
        slot.hash = h;
        slot.group = num_groups_;
        representatives_.push_back(row);
        return num_groups_++;
      }
      if (slot.hash == h &&
          equal(representatives_[static_cast<size_t>(slot.group)], row)) {
        return slot.group;
      }
      ++collisions_;
      s = (s + 1) & mask_;
    }
  }

  /// \brief Group id of `row` without inserting; kNone when unseen.
  template <typename Equal>
  int64_t Find(uint64_t h, int64_t row, Equal&& equal) const {
    uint64_t s = h & mask_;
    while (true) {
      const Slot& slot = slots_[s];
      if (slot.group == kNone) return kNone;
      if (slot.hash == h &&
          equal(representatives_[static_cast<size_t>(slot.group)], row)) {
        return slot.group;
      }
      s = (s + 1) & mask_;
    }
  }

  int64_t num_groups() const { return num_groups_; }

  /// Bytes the slot array and the representatives hold.
  int64_t ByteSize() const {
    return static_cast<int64_t>(slots_.size() * sizeof(Slot) +
                                representatives_.capacity() * sizeof(int64_t));
  }

  /// First row of each group, in group-id (= first-seen) order.
  const std::vector<int64_t>& representatives() const {
    return representatives_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t group = kNone;
  };

  void Grow();

  std::vector<Slot> slots_;
  std::vector<int64_t> representatives_;
  uint64_t mask_ = 0;
  int64_t num_groups_ = 0;
  // Plain ints: groupers are used from one thread; flushed by ~FlatGrouper.
  int64_t probes_ = 0;
  int64_t collisions_ = 0;
};

// ---------------------------------------------------------------------------
// StringInterner: string_view -> dense id with arena storage
// ---------------------------------------------------------------------------

/// \brief Flat open-addressing map from strings to dense ids in first-seen
/// order, for dictionary/category building (categorical cast, one-hot and
/// ordinal encode, pivot axis labels).
///
/// Lookups are heterogeneous: probes take a `std::string_view` and compare
/// against arena bytes, so the probe path never materializes a temporary
/// `std::string` (the old `unordered_map<std::string, int>` paths paid one
/// malloc + copy per row). Interned bytes live in one growing char arena;
/// per-id hashes are cached for O(n) rehash on growth.
class StringInterner {
 public:
  static constexpr int32_t kNone = -1;

  explicit StringInterner(int64_t expected = 0) { Reset(expected); }

  void Reset(int64_t expected);

  /// \brief Id of `s`, interning it when unseen.
  int32_t FindOrInsert(std::string_view s);

  /// \brief Id of `s` without interning; kNone when absent.
  int32_t Find(std::string_view s) const;

  int64_t size() const { return static_cast<int64_t>(offsets_.size()) - 1; }

  std::string_view View(int32_t id) const {
    const size_t b = static_cast<size_t>(offsets_[static_cast<size_t>(id)]);
    const size_t e = static_cast<size_t>(offsets_[static_cast<size_t>(id) + 1]);
    return std::string_view(arena_.data() + b, e - b);
  }

  /// \brief Copies the interned strings out in id order (dictionary
  /// hand-off to CategoricalBuilder / GetDummies column naming).
  std::vector<std::string> ToStrings() const;

 private:
  struct Slot {
    uint64_t hash = 0;
    int32_t id = kNone;
  };

  void Grow();
  uint64_t HashOf(std::string_view s) const;

  std::vector<Slot> slots_;
  std::string arena_;
  std::vector<int64_t> offsets_ = {0};
  std::vector<uint64_t> hashes_;  // per-id cache for rehash
  uint64_t mask_ = 0;
};

}  // namespace bento::kern

#endif  // BENTO_KERNELS_FLAT_INDEX_H_
