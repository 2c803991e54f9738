// Dense (row, sequence) table for per-loss recovery state (DESIGN.md §10.4).
//
// The protocols and RecoveryMetrics keep one small record per (member,
// sequence) pair.  Members are known when a protocol attaches and sequence
// numbers are issued densely from 0, so a flat row-major array indexed by
// (dense member row, seq) replaces the node-based hash maps that used to
// hold this state: a lookup is one multiply-add, and a handler that touches
// a cell never allocates.
//
// Layout: row r's cells for seq in [0, columns()) sit at
// cells_[r * capacity_ + seq].  Columns grow by amortised doubling of
// capacity_ (relaying every row out once per doubling); rows append.  Both
// growths are meant for set-up and for RecoveryProtocol::sourceMulticast,
// never for event handlers, so a reference into the table stays valid for
// the whole of a handler.  Unwritten cells hold T{}, so a cell type's
// default member initialisers define its "absent" state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace rmrn::util {

template <typename T>
class SeqTable {
 public:
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t columns() const { return columns_; }

  /// True when (r, seq) addresses a cell.
  [[nodiscard]] bool contains(std::size_t r, std::uint64_t seq) const {
    return r < rows_ && seq < columns_;
  }

  /// Grows to at least `rows` rows and `columns` columns (never shrinks);
  /// new cells hold T{}.  Column capacity at least doubles
  /// whenever it is exceeded, so adding one column at a time costs
  /// amortised O(rows) per column.
  void grow(std::size_t rows, std::size_t columns) {
    if (columns > capacity_) {
      const std::size_t capacity = std::max(columns, 2 * capacity_);
      std::vector<T> cells(rows_ * capacity);
      for (std::size_t r = 0; r < rows_; ++r) {
        std::copy_n(cells_.begin() + static_cast<std::ptrdiff_t>(r * capacity_),
                    columns_,
                    cells.begin() + static_cast<std::ptrdiff_t>(r * capacity));
      }
      cells_.swap(cells);
      capacity_ = capacity;
    }
    columns_ = std::max(columns_, columns);
    if (rows > rows_) {
      cells_.resize(rows * capacity_);
      rows_ = rows;
    }
  }

  /// Cell (r, seq).  Requires contains(r, seq).
  [[nodiscard]] T& at(std::size_t r, std::uint64_t seq) {
    RMRN_REQUIRE(contains(r, seq), "SeqTable cell out of range");
    return cells_[r * capacity_ + seq];
  }
  [[nodiscard]] const T& at(std::size_t r, std::uint64_t seq) const {
    RMRN_REQUIRE(contains(r, seq), "SeqTable cell out of range");
    return cells_[r * capacity_ + seq];
  }

  /// Row `r`'s cells for seq in [0, columns()).
  [[nodiscard]] std::span<T> row(std::size_t r) {
    RMRN_REQUIRE(r < rows_, "SeqTable row out of range");
    return {cells_.data() + r * capacity_, columns_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    RMRN_REQUIRE(r < rows_, "SeqTable row out of range");
    return {cells_.data() + r * capacity_, columns_};
  }

 private:
  std::vector<T> cells_;
  std::size_t rows_ = 0;
  std::size_t columns_ = 0;
  std::size_t capacity_ = 0;  // allocated columns per row
};

}  // namespace rmrn::util
