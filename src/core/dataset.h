// In-memory vector dataset: an aligned, row-major float matrix plus IO for
// the standard fvecs / bvecs / ivecs interchange formats used by the public
// SIFT / GIST / Deep collections.

#ifndef GASS_CORE_DATASET_H_
#define GASS_CORE_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/align.h"
#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"

namespace gass::core {

/// A collection of `size()` dense vectors of dimension `dim()`, stored
/// row-major in one contiguous buffer.
///
/// Alignment contract: `data()` (and therefore `Row(0)`) is always aligned
/// to kAlignment (64) bytes, including after move, Clone, Prefix, Select,
/// Append, and the fvecs/bvecs readers; from 2 MiB up it is 2 MiB-aligned
/// and on transparent huge pages (see AlignedAllocator). Rows are packed at
/// a stride of exactly `dim()` floats, so every row is 64-byte-aligned
/// precisely when `dim()` is a multiple of 16; for other dimensions only
/// the buffer start is guaranteed. The SIMD kernels (src/core/simd/) use
/// unaligned loads and rely on the contract only for cache-line economy,
/// so queries from arbitrary caller memory remain legal. See docs/PERF.md.
///
/// Dataset is movable but not copyable (copies of multi-GB buffers should be
/// explicit via Clone()).
class Dataset {
 public:
  /// Guaranteed alignment of data(), in bytes.
  static constexpr std::size_t kAlignment = kCacheLineBytes;
  Dataset() = default;

  /// Creates an uninitialized dataset of `n` vectors of dimension `dim`.
  Dataset(std::size_t n, std::size_t dim);

  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(Dataset&&) noexcept = default;
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  /// Deep copy.
  Dataset Clone() const;

  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  bool empty() const { return n_ == 0; }

  /// Pointer to the first component of vector `id`.
  const float* Row(VectorId id) const {
    GASS_DCHECK(id < n_);
    return data_.data() + static_cast<std::size_t>(id) * dim_;
  }
  float* MutableRow(VectorId id) {
    GASS_DCHECK(id < n_);
    return data_.data() + static_cast<std::size_t>(id) * dim_;
  }

  const float* data() const { return data_.data(); }
  float* mutable_data() { return data_.data(); }

  /// Total payload in bytes (excluding object overhead).
  std::size_t SizeBytes() const { return n_ * dim_ * sizeof(float); }

  /// Returns a dataset containing rows [0, count) of this one.
  Dataset Prefix(std::size_t count) const;

  /// Returns a dataset containing the given rows, in order.
  Dataset Select(const std::vector<VectorId>& ids) const;

  /// Appends all rows of `other` (dimensions must match; this may not be
  /// empty unless dims are equal by construction).
  void Append(const Dataset& other);

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  /// n_ * dim_ floats, 64-byte-aligned base address.
  std::vector<float, AlignedAllocator<float, kAlignment>> data_;
};

/// Zero-copy row-subset view over a Dataset: a list of row ids plus a
/// pointer to the parent's storage. Row(i) resolves straight into the
/// parent buffer, so building a view never duplicates vector data — the
/// sharding partitioners (src/shard/) iterate candidate subsets through
/// views and only materialize a real Dataset (Materialize) for the rows a
/// shard finally owns.
///
/// The parent dataset must outlive the view. Because rows alias the parent
/// buffer, the Dataset alignment contract carries over unchanged: the
/// parent's base address is 64-byte aligned, and a viewed row is 64-byte
/// aligned exactly when the parent row is (dim a multiple of 16). The SIMD
/// kernels use unaligned loads either way, so any viewed row is legal input.
class DatasetView {
 public:
  DatasetView() = default;

  /// View of the given parent rows, in order. Ids must be < parent.size().
  DatasetView(const Dataset& parent, std::vector<VectorId> ids)
      : parent_(&parent), ids_(std::move(ids)) {
#ifndef NDEBUG
    for (const VectorId id : ids_) GASS_DCHECK(id < parent.size());
#endif
  }

  /// View of every parent row (identity id map, still zero-copy).
  static DatasetView All(const Dataset& parent);

  std::size_t size() const { return ids_.size(); }
  std::size_t dim() const { return parent_ != nullptr ? parent_->dim() : 0; }
  bool empty() const { return ids_.empty(); }

  /// Pointer into the PARENT buffer for view row `i`.
  const float* Row(std::size_t i) const {
    GASS_DCHECK(i < ids_.size());
    return parent_->Row(ids_[i]);
  }

  /// Parent id of view row `i`.
  VectorId GlobalId(std::size_t i) const {
    GASS_DCHECK(i < ids_.size());
    return ids_[i];
  }

  const std::vector<VectorId>& ids() const { return ids_; }
  const Dataset* parent() const { return parent_; }

  /// Copies the viewed rows into an owning Dataset (the one deliberate
  /// copy, used when a shard's rows must live contiguously for a build).
  Dataset Materialize() const;

 private:
  const Dataset* parent_ = nullptr;
  std::vector<VectorId> ids_;
};

/// Reads an fvecs file (per vector: int32 dim then dim float32 values).
Status ReadFvecs(const std::string& path, Dataset* out);

/// Writes a Dataset in fvecs format.
Status WriteFvecs(const std::string& path, const Dataset& dataset);

/// Reads a bvecs file (per vector: int32 dim then dim uint8 values),
/// widening components to float.
Status ReadBvecs(const std::string& path, Dataset* out);

/// Reads an ivecs file (per row: int32 count then count int32 values) —
/// the standard ground-truth neighbor-list format.
Status ReadIvecs(const std::string& path,
                 std::vector<std::vector<std::int32_t>>* out);

/// Writes neighbor lists in ivecs format.
Status WriteIvecs(const std::string& path,
                  const std::vector<std::vector<std::int32_t>>& rows);

}  // namespace gass::core

#endif  // GASS_CORE_DATASET_H_
