// DatasetFingerprint memo contract: a Dataset caches its content key, and
// every mutator drops the cache, so a fingerprint always equals the one a
// freshly rebuilt copy of the same contents (empty memo) computes. Also
// pins copy/move semantics of the memo, concurrent first calls, and one
// fingerprint value so the hash itself cannot drift.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/generators/population.h"
#include "serve/pipeline_artifact.h"

namespace fairbench {
namespace {

Dataset MakeBase() {
  Result<Dataset> data = GenerateGerman(200, /*seed=*/11);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// Fingerprint of a fresh rebuild of `ds`: SelectRows over every row builds
/// a new Dataset whose memo is empty, so this always hashes the contents.
uint64_t OracleFingerprint(const Dataset& ds) {
  std::vector<std::size_t> all(ds.num_rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Result<Dataset> rebuilt = ds.SelectRows(all);
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  return DatasetFingerprint(*rebuilt);
}

std::size_t FirstColumnOfType(const Dataset& ds, ColumnType type) {
  for (std::size_t c = 0; c < ds.num_features(); ++c) {
    if (ds.schema().column(c).type == type) return c;
  }
  ADD_FAILURE() << "generated dataset has no column of the requested type";
  return 0;
}

/// Row 0 of `ds` in AppendRow's argument layout.
void RowZero(const Dataset& ds, std::vector<double>* numeric,
             std::vector<int>* codes) {
  for (std::size_t c = 0; c < ds.num_features(); ++c) {
    if (ds.schema().column(c).type == ColumnType::kNumeric) {
      numeric->push_back(ds.NumericAt(c, 0));
    } else {
      codes->push_back(ds.CodeAt(c, 0));
    }
  }
}

struct Mutator {
  std::string name;
  std::function<void(Dataset&)> apply;
};

std::vector<Mutator> AllMutators(const Dataset& base) {
  const std::size_t numeric = FirstColumnOfType(base, ColumnType::kNumeric);
  const std::size_t categorical =
      FirstColumnOfType(base, ColumnType::kCategorical);
  const std::size_t cardinality =
      base.schema().column(categorical).cardinality();
  return {
      {"mutable_column/numeric",
       [numeric](Dataset& ds) {
         ds.mutable_column(numeric).numeric[0] += 1.0;
       }},
      {"mutable_column/categorical",
       [categorical, cardinality](Dataset& ds) {
         int& code = ds.mutable_column(categorical).codes[0];
         code = (code + 1) % static_cast<int>(cardinality);
       }},
      {"mutable_sensitive",
       [](Dataset& ds) { ds.mutable_sensitive()[0] ^= 1; }},
      {"mutable_labels", [](Dataset& ds) { ds.mutable_labels()[0] ^= 1; }},
      {"mutable_weights",
       [](Dataset& ds) { ds.mutable_weights()[0] *= 2.0; }},
      {"set_name", [](Dataset& ds) { ds.set_name(ds.name() + "-renamed"); }},
      {"set_sensitive_name",
       [](Dataset& ds) { ds.set_sensitive_name("S-renamed"); }},
      {"set_label_name", [](Dataset& ds) { ds.set_label_name("Y-renamed"); }},
      {"AppendRow",
       [](Dataset& ds) {
         std::vector<double> numeric_values;
         std::vector<int> codes;
         RowZero(ds, &numeric_values, &codes);
         ASSERT_TRUE(ds.AppendRow(numeric_values, codes, ds.sensitive()[0],
                                  ds.labels()[0])
                         .ok());
       }},
  };
}

TEST(DatasetFingerprintTest, EveryMutatorInvalidatesTheMemo) {
  const Dataset base = MakeBase();
  for (const Mutator& mutator : AllMutators(base)) {
    SCOPED_TRACE(mutator.name);
    Dataset ds = base;
    const uint64_t before = DatasetFingerprint(ds);  // Fills the memo.
    ASSERT_EQ(before, DatasetFingerprint(ds));
    mutator.apply(ds);
    const uint64_t after = DatasetFingerprint(ds);
    EXPECT_EQ(after, OracleFingerprint(ds));
    EXPECT_NE(after, before);
  }
}

TEST(DatasetFingerprintTest, MemoMatchesAFreshRebuild) {
  const Dataset ds = MakeBase();
  const uint64_t first = DatasetFingerprint(ds);
  EXPECT_EQ(first, OracleFingerprint(ds));
  EXPECT_EQ(DatasetFingerprint(ds), first);
}

TEST(DatasetFingerprintTest, CopyCarriesTheValueAndMutatingItLeavesTheSource) {
  const Dataset original = MakeBase();
  const uint64_t fingerprint = DatasetFingerprint(original);

  Dataset copy = original;
  EXPECT_EQ(DatasetFingerprint(copy), fingerprint);
  copy.mutable_labels()[0] ^= 1;
  EXPECT_NE(DatasetFingerprint(copy), fingerprint);
  EXPECT_EQ(DatasetFingerprint(copy), OracleFingerprint(copy));
  EXPECT_EQ(DatasetFingerprint(original), fingerprint);

  Dataset assigned;
  assigned = original;
  EXPECT_EQ(DatasetFingerprint(assigned), fingerprint);
}

TEST(DatasetFingerprintTest, MovedFromDatasetRehashes) {
  Dataset source = MakeBase();
  const uint64_t fingerprint = DatasetFingerprint(source);

  Dataset moved = std::move(source);
  EXPECT_EQ(DatasetFingerprint(moved), fingerprint);
  // The contents left with the move, and so did the memo.
  EXPECT_NE(DatasetFingerprint(source), fingerprint);
  EXPECT_EQ(DatasetFingerprint(source), OracleFingerprint(source));

  Dataset assigned;
  assigned = std::move(moved);
  EXPECT_EQ(DatasetFingerprint(assigned), fingerprint);
  EXPECT_NE(DatasetFingerprint(moved), fingerprint);
  EXPECT_EQ(DatasetFingerprint(moved), OracleFingerprint(moved));
}

TEST(DatasetFingerprintTest, ConcurrentFirstCallsAgree) {
  const Dataset ds = MakeBase();
  const uint64_t expected = OracleFingerprint(ds);
  constexpr int kThreads = 8;
  std::vector<uint64_t> seen(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = DatasetFingerprint(ds);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], expected) << t;
  EXPECT_EQ(DatasetFingerprint(ds), expected);
}

TEST(DatasetFingerprintTest, HashValueIsPinned) {
  // Serving cache keys and shard placement derive from this value; a
  // change here re-keys every warm model.
  Result<Dataset> data = GenerateGerman(300, /*seed=*/11);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(DatasetFingerprint(*data), 0xa4b648b3a43214ceull);
}

}  // namespace
}  // namespace fairbench
