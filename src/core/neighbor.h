// Neighbor record and the fixed-capacity sorted candidate pool used by beam
// search.
//
// The paper harmonizes all methods onto "a single linear buffer as a priority
// queue" (Section 4.1); CandidatePool is that buffer: a sorted array of
// (distance, id, explored) capped at the beam width L.

#ifndef GASS_CORE_NEIGHBOR_H_
#define GASS_CORE_NEIGHBOR_H_

#include <cstddef>
#include <cstring>
#include <vector>

#include "core/macros.h"
#include "core/types.h"

namespace gass::core {

/// A candidate neighbor: vector id plus its (squared) distance to the query.
struct Neighbor {
  VectorId id = kInvalidVectorId;
  float distance = 0.0f;
  bool explored = false;

  Neighbor() = default;
  Neighbor(VectorId id_in, float distance_in, bool explored_in = false)
      : id(id_in), distance(distance_in), explored(explored_in) {}

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// Sorted fixed-capacity candidate buffer (ascending distance).
///
/// Insert is O(L) via memmove — for the beam widths used in practice
/// (L ≤ a few thousand) this beats heap-based queues on real hardware, which
/// is exactly why the surveyed implementations use it.
class CandidatePool {
 public:
  explicit CandidatePool(std::size_t capacity) : capacity_(capacity) {
    GASS_CHECK(capacity > 0);
    pool_.reserve(capacity + 1);
  }

  std::size_t size() const { return pool_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return pool_.empty(); }
  bool full() const { return pool_.size() == capacity_; }

  const Neighbor& operator[](std::size_t i) const { return pool_[i]; }

  /// Distance of the current worst (last) candidate; +inf when not full.
  /// Once full, an external prune bound (SetPruneBound) caps the value —
  /// it behaves like pre-inserted "virtual answers" at the bound distance,
  /// the mechanism by which a search warmed by earlier answers (ELPIS's
  /// cross-leaf best-so-far) tightens its pruning. The bound deliberately
  /// does not apply while the pool is filling: early far-away candidates
  /// are kept as routing anchors, exactly as real warm queue entries would
  /// allow.
  float WorstDistance() const {
    if (!full()) return kInfinity;
    return pool_.back().distance < bound_ ? pool_.back().distance : bound_;
  }

  /// Installs an upper bound on acceptable candidate distances (effective
  /// once the pool is full).
  void SetPruneBound(float bound) { bound_ = bound; }

  /// Inserts a candidate, keeping the buffer sorted and capped.
  ///
  /// Returns the insertion position, or capacity() if the candidate was
  /// rejected (worse than the current worst of a full pool). Duplicate ids
  /// at equal distance are rejected.
  std::size_t Insert(Neighbor candidate) {
    if (full() && candidate.distance >= WorstDistance()) {
      return capacity_;
    }
    // Binary search for the insertion point.
    std::size_t lo = 0, hi = pool_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (pool_[mid].distance < candidate.distance) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Reject exact duplicates (same id within the equal-distance run).
    std::size_t probe = lo;
    while (probe < pool_.size() &&
           pool_[probe].distance == candidate.distance) {
      if (pool_[probe].id == candidate.id) return capacity_;
      ++probe;
    }
    if (lo > 0 && pool_[lo - 1].distance == candidate.distance) {
      for (std::size_t back = lo; back-- > 0;) {
        if (pool_[back].distance != candidate.distance) break;
        if (pool_[back].id == candidate.id) return capacity_;
      }
    }
    pool_.insert(pool_.begin() + static_cast<std::ptrdiff_t>(lo), candidate);
    if (lo <= first_unexplored_) {
      first_unexplored_ = candidate.explored ? first_unexplored_ + 1 : lo;
    }
    if (pool_.size() > capacity_) pool_.pop_back();
    if (first_unexplored_ > pool_.size()) first_unexplored_ = pool_.size();
    return lo;
  }

  /// Index of the closest unexplored candidate, or size() if none. O(1):
  /// Insert and MarkExplored keep the cursor current, so a beam search does
  /// not rescan the explored prefix on every hop.
  std::size_t FirstUnexplored() const { return first_unexplored_; }

  void MarkExplored(std::size_t i) {
    GASS_DCHECK(i < pool_.size());
    pool_[i].explored = true;
    while (first_unexplored_ < pool_.size() &&
           pool_[first_unexplored_].explored) {
      ++first_unexplored_;
    }
  }

  /// Copies out the best `k` candidates (fewer if the pool is smaller).
  std::vector<Neighbor> TopK(std::size_t k) const {
    const std::size_t count = k < pool_.size() ? k : pool_.size();
    return std::vector<Neighbor>(pool_.begin(),
                                 pool_.begin() + static_cast<std::ptrdiff_t>(count));
  }

  const std::vector<Neighbor>& contents() const { return pool_; }

  void Clear() {
    pool_.clear();
    first_unexplored_ = 0;
  }

 private:
  static constexpr float kInfinity = 3.402823466e38f;

  std::size_t capacity_;
  float bound_ = kInfinity;
  std::vector<Neighbor> pool_;
  std::size_t first_unexplored_ = 0;  ///< Index of the first unexplored.
};

}  // namespace gass::core

#endif  // GASS_CORE_NEIGHBOR_H_
