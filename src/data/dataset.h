#ifndef FAIRBENCH_DATA_DATASET_H_
#define FAIRBENCH_DATA_DATASET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/schema.h"

namespace fairbench {

/// One materialized feature column. Exactly one of `numeric` / `codes` is
/// populated, according to the column's spec.
struct Column {
  std::vector<double> numeric;
  std::vector<int> codes;
};

/// An annotated dataset with the paper's schema (X, S; Y):
///  - feature columns X (numeric or categorical),
///  - a binary sensitive attribute S (1 = privileged, 0 = unprivileged),
///  - a binary ground-truth label Y (1 = favorable, 0 = unfavorable),
///  - optional per-tuple instance weights (used by KAM-CAL's reweighing and
///    by CRD's propensity weighting).
///
/// Storage is columnar. Datasets are value types: copies are deep, and the
/// pre-processing approaches return repaired copies rather than mutating
/// their input.
///
/// A Dataset memoizes its content key (DatasetFingerprint, the serving
/// cache key) the first time it is asked for, so a training set that is
/// scored many times is hashed once. Every mutator below drops the memo.
/// A reference returned by a `mutable_*` accessor drops it only when the
/// accessor is called: writing through such a reference *after* the
/// dataset has been fingerprinted again (e.g. by a Score call) leaves a
/// stale key behind, just as writing through a stale iterator would.
/// Call the accessor again for each round of edits.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {
    columns_.resize(schema_.num_columns());
  }

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return sensitive_.size(); }
  std::size_t num_features() const { return schema_.num_columns(); }

  /// Appends one row. `numeric_by_col` / `codes_by_col` must supply a value
  /// for every column of the matching type, in schema order.
  Status AppendRow(const std::vector<double>& numeric_values,
                   const std::vector<int>& categorical_codes, int s, int y,
                   double weight = 1.0);

  const Column& column(std::size_t i) const { return columns_[i]; }
  Column& mutable_column(std::size_t i) {
    fingerprint_.Clear();
    return columns_[i];
  }

  /// Numeric value at (row, col); column must be numeric.
  double NumericAt(std::size_t col, std::size_t row) const {
    return columns_[col].numeric[row];
  }
  /// Categorical code at (row, col); column must be categorical.
  int CodeAt(std::size_t col, std::size_t row) const {
    return columns_[col].codes[row];
  }

  const std::vector<int>& sensitive() const { return sensitive_; }
  std::vector<int>& mutable_sensitive() {
    fingerprint_.Clear();
    return sensitive_;
  }
  const std::vector<int>& labels() const { return labels_; }
  std::vector<int>& mutable_labels() {
    fingerprint_.Clear();
    return labels_;
  }
  const std::vector<double>& weights() const { return weights_; }
  std::vector<double>& mutable_weights() {
    fingerprint_.Clear();
    return weights_;
  }

  const std::string& sensitive_name() const { return sensitive_name_; }
  void set_sensitive_name(std::string name) {
    fingerprint_.Clear();
    sensitive_name_ = std::move(name);
  }
  const std::string& label_name() const { return label_name_; }
  void set_label_name(std::string name) {
    fingerprint_.Clear();
    label_name_ = std::move(name);
  }
  const std::string& name() const { return name_; }
  void set_name(std::string name) {
    fingerprint_.Clear();
    name_ = std::move(name);
  }

  /// New dataset containing the given rows (with repetition allowed), in
  /// order. Indices must be < num_rows().
  Result<Dataset> SelectRows(const std::vector<std::size_t>& indices) const;

  /// New dataset restricted to the named feature columns (S, Y, weights are
  /// kept). Unknown names yield NotFound.
  Result<Dataset> SelectColumns(const std::vector<std::string>& names) const;

  /// Fraction of rows with Y = 1.
  double PositiveRate() const;

  /// Fraction of rows with Y = 1 among rows with S = s.
  double PositiveRateBySensitive(int s) const;

  /// Fraction of rows with S = 1.
  double PrivilegedRate() const;

  /// Structural integrity check: column lengths match row count, codes are
  /// within their dictionaries, S/Y are binary, weights positive & finite.
  Status Validate() const;

 private:
  friend uint64_t DatasetFingerprint(const Dataset& dataset);

  /// Memoized DatasetFingerprint; 0 means "not computed yet". Concurrent
  /// readers may race to fill it, but they all store the same value, so
  /// relaxed ordering suffices. A copy carries the value (same contents);
  /// a move takes it and leaves the emptied source unmemoized.
  class FingerprintMemo {
   public:
    FingerprintMemo() = default;
    FingerprintMemo(const FingerprintMemo& other) : value_(other.Load()) {}
    FingerprintMemo(FingerprintMemo&& other) noexcept
        : value_(other.Take()) {}
    FingerprintMemo& operator=(const FingerprintMemo& other) {
      Store(other.Load());
      return *this;
    }
    FingerprintMemo& operator=(FingerprintMemo&& other) noexcept {
      Store(other.Take());
      return *this;
    }

    uint64_t Load() const { return value_.load(std::memory_order_relaxed); }
    void Store(uint64_t value) const {
      value_.store(value, std::memory_order_relaxed);
    }
    void Clear() { Store(0); }

   private:
    uint64_t Take() {
      return value_.exchange(0, std::memory_order_relaxed);
    }

    mutable std::atomic<uint64_t> value_{0};
  };

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  std::vector<int> sensitive_;
  std::vector<int> labels_;
  std::vector<double> weights_;
  std::string sensitive_name_ = "S";
  std::string label_name_ = "Y";
  FingerprintMemo fingerprint_;
};

}  // namespace fairbench

#endif  // FAIRBENCH_DATA_DATASET_H_
