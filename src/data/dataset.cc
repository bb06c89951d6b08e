#include "data/dataset.h"

#include <cmath>

#include "common/string_util.h"

namespace fairbench {

Status Dataset::AppendRow(const std::vector<double>& numeric_values,
                          const std::vector<int>& categorical_codes, int s,
                          int y, double weight) {
  // Cleared up front: a failed append can leave a partial row behind.
  fingerprint_.Clear();
  std::size_t num_numeric = 0;
  std::size_t num_categorical = 0;
  for (std::size_t c = 0; c < schema_.num_columns(); ++c) {
    if (schema_.column(c).type == ColumnType::kNumeric) {
      ++num_numeric;
    } else {
      ++num_categorical;
    }
  }
  if (numeric_values.size() != num_numeric ||
      categorical_codes.size() != num_categorical) {
    return Status::InvalidArgument(
        StrFormat("AppendRow: expected %zu numeric / %zu categorical values, "
                  "got %zu / %zu",
                  num_numeric, num_categorical, numeric_values.size(),
                  categorical_codes.size()));
  }
  if ((s != 0 && s != 1) || (y != 0 && y != 1)) {
    return Status::InvalidArgument("AppendRow: S and Y must be binary");
  }
  std::size_t ni = 0;
  std::size_t ci = 0;
  for (std::size_t c = 0; c < schema_.num_columns(); ++c) {
    if (schema_.column(c).type == ColumnType::kNumeric) {
      columns_[c].numeric.push_back(numeric_values[ni++]);
    } else {
      const int code = categorical_codes[ci++];
      if (code < 0 ||
          static_cast<std::size_t>(code) >= schema_.column(c).cardinality()) {
        return Status::OutOfRange(
            StrFormat("AppendRow: code %d out of range for column '%s'", code,
                      schema_.column(c).name.c_str()));
      }
      columns_[c].codes.push_back(code);
    }
  }
  sensitive_.push_back(s);
  labels_.push_back(y);
  weights_.push_back(weight);
  return Status::OK();
}

Result<Dataset> Dataset::SelectRows(const std::vector<std::size_t>& indices) const {
  Dataset out(schema_);
  out.name_ = name_;
  out.sensitive_name_ = sensitive_name_;
  out.label_name_ = label_name_;
  const std::size_t n = num_rows();
  for (std::size_t idx : indices) {
    if (idx >= n) {
      return Status::OutOfRange(StrFormat("SelectRows: index %zu >= %zu", idx, n));
    }
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    Column& dst = out.columns_[c];
    const Column& src = columns_[c];
    if (schema_.column(c).type == ColumnType::kNumeric) {
      dst.numeric.reserve(indices.size());
      for (std::size_t idx : indices) dst.numeric.push_back(src.numeric[idx]);
    } else {
      dst.codes.reserve(indices.size());
      for (std::size_t idx : indices) dst.codes.push_back(src.codes[idx]);
    }
  }
  out.sensitive_.reserve(indices.size());
  out.labels_.reserve(indices.size());
  out.weights_.reserve(indices.size());
  for (std::size_t idx : indices) {
    out.sensitive_.push_back(sensitive_[idx]);
    out.labels_.push_back(labels_[idx]);
    out.weights_.push_back(weights_[idx]);
  }
  return out;
}

Result<Dataset> Dataset::SelectColumns(
    const std::vector<std::string>& names) const {
  Schema sub;
  std::vector<std::size_t> col_indices;
  for (const std::string& name : names) {
    FAIRBENCH_ASSIGN_OR_RETURN(std::size_t idx, schema_.IndexOf(name));
    col_indices.push_back(idx);
    FAIRBENCH_RETURN_NOT_OK(sub.AddColumn(schema_.column(idx)));
  }
  Dataset out(sub);
  out.name_ = name_;
  out.sensitive_name_ = sensitive_name_;
  out.label_name_ = label_name_;
  for (std::size_t i = 0; i < col_indices.size(); ++i) {
    out.columns_[i] = columns_[col_indices[i]];
  }
  out.sensitive_ = sensitive_;
  out.labels_ = labels_;
  out.weights_ = weights_;
  return out;
}

double Dataset::PositiveRate() const {
  if (labels_.empty()) return 0.0;
  double s = 0.0;
  for (int y : labels_) s += y;
  return s / static_cast<double>(labels_.size());
}

double Dataset::PositiveRateBySensitive(int s) const {
  double pos = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (sensitive_[i] == s) {
      total += 1.0;
      pos += labels_[i];
    }
  }
  if (total == 0.0) return 0.0;
  return pos / total;
}

double Dataset::PrivilegedRate() const {
  if (sensitive_.empty()) return 0.0;
  double s = 0.0;
  for (int v : sensitive_) s += v;
  return s / static_cast<double>(sensitive_.size());
}

Status Dataset::Validate() const {
  const std::size_t n = num_rows();
  if (labels_.size() != n || weights_.size() != n) {
    return Status::Internal("Dataset: S/Y/weights length mismatch");
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const ColumnSpec& spec = schema_.column(c);
    const Column& col = columns_[c];
    if (spec.type == ColumnType::kNumeric) {
      if (col.numeric.size() != n || !col.codes.empty()) {
        return Status::Internal(
            StrFormat("Dataset: numeric column '%s' malformed", spec.name.c_str()));
      }
      for (double v : col.numeric) {
        if (!std::isfinite(v)) {
          return Status::InvalidArgument(
              StrFormat("Dataset: non-finite value in '%s'", spec.name.c_str()));
        }
      }
    } else {
      if (col.codes.size() != n || !col.numeric.empty()) {
        return Status::Internal(
            StrFormat("Dataset: categorical column '%s' malformed",
                      spec.name.c_str()));
      }
      for (int code : col.codes) {
        if (code < 0 || static_cast<std::size_t>(code) >= spec.cardinality()) {
          return Status::OutOfRange(
              StrFormat("Dataset: code out of range in '%s'", spec.name.c_str()));
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if ((sensitive_[i] != 0 && sensitive_[i] != 1) ||
        (labels_[i] != 0 && labels_[i] != 1)) {
      return Status::InvalidArgument("Dataset: S and Y must be binary");
    }
    if (!(weights_[i] > 0.0) || !std::isfinite(weights_[i])) {
      return Status::InvalidArgument("Dataset: weights must be positive finite");
    }
  }
  return Status::OK();
}

}  // namespace fairbench
