// Kernel microbenchmarks: optimized linalg kernels vs the linalg::ref
// oracle, at the sizes the fig11 scalability harnesses actually hit
// (design matrices around 10^3..10^4 x 200 after encoding). The FLOPS
// counter reports sustained FLOP/s; tools/record_bench.py distills a run
// into BENCH_kernels.json so successive PRs have a perf trajectory.
//
// The headline acceptance number for the blocked-GEMM rewrite is
// MatMul/1000x200x200: optimized must be >= 2x ref throughput.

#include <cstddef>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "linalg/kernels.h"
#include "linalg/ref.h"
#include "linalg/sparse.h"
#include "linalg/sparse_kernels.h"

namespace fairbench {
namespace {

std::vector<double> RandomVec(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Uniform(-1.0, 1.0);
  return out;
}

void SetFlops(benchmark::State& state, double flops_per_iter) {
  state.counters["FLOPS"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// ---- Dot ----------------------------------------------------------------

template <double (*Kernel)(const double*, const double*, std::size_t)>
void BM_Dot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomVec(n, 1);
  const auto b = RandomVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Kernel(a.data(), b.data(), n));
  }
  SetFlops(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_Dot<linalg::ref::Dot>)->Name("BM_DotRef")->Arg(256)->Arg(4096);
BENCHMARK(BM_Dot<linalg::Dot>)->Name("BM_DotOpt")->Arg(256)->Arg(4096);

// ---- Axpy ---------------------------------------------------------------

template <void (*Kernel)(double, const double*, double*, std::size_t)>
void BM_Axpy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto x = RandomVec(n, 3);
  auto y = RandomVec(n, 4);
  for (auto _ : state) {
    Kernel(1e-6, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_Axpy<linalg::ref::Axpy>)->Name("BM_AxpyRef")->Arg(4096);
BENCHMARK(BM_Axpy<linalg::Axpy>)->Name("BM_AxpyOpt")->Arg(4096);

// ---- Gemv / GemvT (rows x cols, fig11 design-matrix shape) --------------

template <void (*Kernel)(const double*, std::size_t, std::size_t,
                         const double*, double*)>
void BM_Gemv(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = static_cast<std::size_t>(state.range(1));
  const auto a = RandomVec(rows * cols, 5);
  const auto x = RandomVec(cols, 6);
  std::vector<double> y(rows, 0.0);
  for (auto _ : state) {
    Kernel(a.data(), rows, cols, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(rows * cols));
}
BENCHMARK(BM_Gemv<linalg::ref::Gemv>)
    ->Name("BM_GemvRef")
    ->Args({1000, 200})
    ->Args({10000, 100});
BENCHMARK(BM_Gemv<linalg::Gemv>)
    ->Name("BM_GemvOpt")
    ->Args({1000, 200})
    ->Args({10000, 100});

template <void (*Kernel)(const double*, std::size_t, std::size_t,
                         const double*, double*)>
void BM_GemvT(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = static_cast<std::size_t>(state.range(1));
  const auto a = RandomVec(rows * cols, 7);
  const auto x = RandomVec(rows, 8);
  std::vector<double> y(cols, 0.0);
  for (auto _ : state) {
    Kernel(a.data(), rows, cols, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(rows * cols));
}
BENCHMARK(BM_GemvT<linalg::ref::GemvT>)->Name("BM_GemvTRef")->Args({1000, 200});
BENCHMARK(BM_GemvT<linalg::GemvT>)->Name("BM_GemvTOpt")->Args({1000, 200});

// ---- MatMul (m x k x n) -------------------------------------------------

template <void (*Kernel)(const double*, std::size_t, std::size_t,
                         const double*, std::size_t, double*)>
void BM_MatMul(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::size_t n = static_cast<std::size_t>(state.range(2));
  const auto a = RandomVec(m * k, 9);
  const auto b = RandomVec(k * n, 10);
  std::vector<double> c(m * n, 0.0);
  for (auto _ : state) {
    Kernel(a.data(), m, k, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(m * k * n));
}
BENCHMARK(BM_MatMul<linalg::ref::MatMul>)
    ->Name("BM_MatMulRef")
    ->Args({1000, 200, 200})
    ->Args({256, 256, 256})
    ->Args({60, 300, 60});
BENCHMARK(BM_MatMul<linalg::MatMul>)
    ->Name("BM_MatMulOpt")
    ->Args({1000, 200, 200})
    ->Args({256, 256, 256})
    ->Args({60, 300, 60});

// ---- WeightedGram (IRLS Hessian core) -----------------------------------

template <void (*Kernel)(const double*, std::size_t, std::size_t,
                         const double*, double*)>
void BM_WeightedGram(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = static_cast<std::size_t>(state.range(1));
  const auto a = RandomVec(rows * cols, 11);
  const auto w = RandomVec(rows, 12);
  std::vector<double> out(cols * cols, 0.0);
  for (auto _ : state) {
    Kernel(a.data(), rows, cols, w.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  SetFlops(state,
           static_cast<double>(rows) * static_cast<double>(cols * (cols + 2)));
}
BENCHMARK(BM_WeightedGram<linalg::ref::WeightedGram>)
    ->Name("BM_WeightedGramRef")
    ->Args({1000, 200});
BENCHMARK(BM_WeightedGram<linalg::WeightedGram>)
    ->Name("BM_WeightedGramOpt")
    ->Args({1000, 200});

// ---- Fused logistic forward pass ----------------------------------------

template <void (*Kernel)(const double*, std::size_t, std::size_t,
                         const double*, double*)>
void BM_GemvBiasSigmoid(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = static_cast<std::size_t>(state.range(1));
  const auto a = RandomVec(rows * cols, 13);
  const auto theta = RandomVec(cols + 1, 14);
  std::vector<double> p(rows, 0.0);
  for (auto _ : state) {
    Kernel(a.data(), rows, cols, theta.data(), p.data());
    benchmark::DoNotOptimize(p.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(rows * cols));
}
BENCHMARK(BM_GemvBiasSigmoid<linalg::ref::GemvBiasSigmoid>)
    ->Name("BM_GemvBiasSigmoidRef")
    ->Args({1000, 200});
BENCHMARK(BM_GemvBiasSigmoid<linalg::GemvBiasSigmoid>)
    ->Name("BM_GemvBiasSigmoidOpt")
    ->Args({1000, 200});

// ---- Sparse kernels (one-hot design, ~8% density) -----------------------
//
// The Ref side runs the dense linalg::ref oracle over the *densified*
// matrix; the Opt side runs the CSR kernel. The pair therefore measures
// exactly what the sparse path buys at realistic one-hot sparsity (the
// calibrated generators encode to 5-15% density), not a same-layout
// micro-optimization. FLOPS is the dense operation count on both sides so
// the GFLOP/s column stays comparable; the speedup column in
// BENCH_kernels.json is the headline number.

struct OneHotDesign {
  SparseMatrix sparse;
  Matrix dense;
  std::vector<int> y;
  std::vector<double> w;
};

/// Synthetic standardized one-hot design: `numerics` dense columns plus
/// `blocks` reference-coded categorical blocks of cardinality `card`
/// (mirroring what FeatureEncoder emits for the adult-shaped generators).
OneHotDesign MakeOneHotDesign(std::size_t rows, uint64_t seed) {
  constexpr std::size_t kNumerics = 4;
  constexpr std::size_t kBlocks = 12;
  constexpr std::size_t kCard = 16;
  const std::size_t cols = kNumerics + kBlocks * (kCard - 1);
  Rng rng(seed);
  SparseMatrixBuilder builder(cols);
  builder.Reserve(rows * (kNumerics + kBlocks));
  OneHotDesign out;
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t d = 0;
    for (std::size_t j = 0; j < kNumerics; ++j) {
      builder.Add(d++, rng.Gaussian());
    }
    for (std::size_t blk = 0; blk < kBlocks; ++blk) {
      const std::size_t code = static_cast<std::size_t>(rng.UniformInt(kCard));
      if (code > 0) builder.Add(d + code - 1, 1.0);
      d += kCard - 1;
    }
    builder.FinishRow();
    out.y.push_back(static_cast<int>(rng.Bernoulli(0.4)));
    out.w.push_back(1.0);
  }
  out.sparse = std::move(builder).Build().value();
  out.dense = out.sparse.ToDense();
  return out;
}

void BM_SpMVRef(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 15);
  const std::size_t rows = design.sparse.rows();
  const std::size_t cols = design.sparse.cols();
  const auto x = RandomVec(cols, 16);
  std::vector<double> y(rows, 0.0);
  for (auto _ : state) {
    linalg::ref::Gemv(design.dense.Row(0), rows, cols, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(rows * cols));
}
BENCHMARK(BM_SpMVRef)->Arg(1000)->Arg(10000);

void BM_SpMVOpt(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 15);
  const auto x = RandomVec(design.sparse.cols(), 16);
  std::vector<double> y(design.sparse.rows(), 0.0);
  for (auto _ : state) {
    linalg::SpMV(design.sparse, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(design.sparse.rows() *
                                            design.sparse.cols()));
}
BENCHMARK(BM_SpMVOpt)->Arg(1000)->Arg(10000);

void BM_SpMVTRef(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 17);
  const std::size_t rows = design.sparse.rows();
  const std::size_t cols = design.sparse.cols();
  const auto x = RandomVec(rows, 18);
  std::vector<double> y(cols, 0.0);
  for (auto _ : state) {
    linalg::ref::GemvT(design.dense.Row(0), rows, cols, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(rows * cols));
}
BENCHMARK(BM_SpMVTRef)->Arg(10000);

void BM_SpMVTOpt(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 17);
  const auto x = RandomVec(design.sparse.rows(), 18);
  std::vector<double> y(design.sparse.cols(), 0.0);
  for (auto _ : state) {
    linalg::SpMVT(design.sparse, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  SetFlops(state, 2.0 * static_cast<double>(design.sparse.rows() *
                                            design.sparse.cols()));
}
BENCHMARK(BM_SpMVTOpt)->Arg(10000);

void BM_SpWeightedGramVecRef(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 19);
  const std::size_t rows = design.sparse.rows();
  const std::size_t cols = design.sparse.cols();
  const auto w = RandomVec(rows, 20);
  const auto v = RandomVec(cols, 21);
  std::vector<double> out(cols, 0.0);
  for (auto _ : state) {
    linalg::ref::WeightedGramVec(design.dense.Row(0), rows, cols, w.data(),
                                 v.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  SetFlops(state, 4.0 * static_cast<double>(rows * cols));
}
BENCHMARK(BM_SpWeightedGramVecRef)->Arg(10000);

void BM_SpWeightedGramVecOpt(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 19);
  const auto w = RandomVec(design.sparse.rows(), 20);
  const auto v = RandomVec(design.sparse.cols(), 21);
  std::vector<double> out(design.sparse.cols(), 0.0);
  for (auto _ : state) {
    linalg::SpWeightedGramVec(design.sparse, w.data(), v.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  SetFlops(state, 4.0 * static_cast<double>(design.sparse.rows() *
                                            design.sparse.cols()));
}
BENCHMARK(BM_SpWeightedGramVecOpt)->Arg(10000);

void BM_SpSigmoidResidualRef(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 22);
  const std::size_t rows = design.sparse.rows();
  const std::size_t cols = design.sparse.cols();
  const auto theta = RandomVec(cols + 1, 23);
  std::vector<double> p(rows, 0.0), g(rows, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::ref::SigmoidResidual(
        design.dense.Row(0), rows, cols, theta.data(), design.y.data(),
        design.w.data(), p.data(), g.data()));
  }
  SetFlops(state, 2.0 * static_cast<double>(rows * cols));
}
BENCHMARK(BM_SpSigmoidResidualRef)->Arg(10000);

void BM_SpSigmoidResidualOpt(benchmark::State& state) {
  const auto design =
      MakeOneHotDesign(static_cast<std::size_t>(state.range(0)), 22);
  const auto theta = RandomVec(design.sparse.cols() + 1, 23);
  std::vector<double> p(design.sparse.rows(), 0.0);
  std::vector<double> g(design.sparse.rows(), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SpSigmoidResidual(
        design.sparse, theta.data(), design.y.data(), design.w.data(),
        p.data(), g.data()));
  }
  SetFlops(state, 2.0 * static_cast<double>(design.sparse.rows() *
                                            design.sparse.cols()));
}
BENCHMARK(BM_SpSigmoidResidualOpt)->Arg(10000);

}  // namespace
}  // namespace fairbench

int main(int argc, char** argv) {
  // google-benchmark's own "library_build_type" context key describes how
  // the *benchmark library* was compiled (debug on this image), not this
  // binary. Record our build type explicitly so record_bench.py's
  // debug-build gate judges the measurements, not the harness.
#ifdef NDEBUG
  benchmark::AddCustomContext("fairbench_build_type", "release");
#else
  benchmark::AddCustomContext("fairbench_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
