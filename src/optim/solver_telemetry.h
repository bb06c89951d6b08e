#ifndef FAIRBENCH_OPTIM_SOLVER_TELEMETRY_H_
#define FAIRBENCH_OPTIM_SOLVER_TELEMETRY_H_

#include <string>

#include "obs/log.h"
#include "obs/metrics.h"
#include "optim/objective.h"
#include "optim/sat/solver.h"
#include "optim/simplex_lp.h"

namespace fairbench {

/// Publishes one finished solve to the obs metrics registry (and the debug
/// log): iteration/backtrack counters, convergence outcome, final residual.
/// `solver` is the metric-name prefix, e.g. "optim.gd" or "optim.cg_newton".
/// No-op unless metrics (resp. logging) are enabled at runtime; compiled
/// out entirely under -DFAIRBENCH_OBS=OFF.
inline void RecordSolveTelemetry(const char* solver, const OptimResult& r) {
#if FAIRBENCH_OBS_ENABLED
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const std::string prefix(solver);
    registry.GetCounter(prefix + ".solves").Add();
    registry.GetCounter(prefix + ".iterations")
        .Add(static_cast<uint64_t>(r.iterations));
    registry.GetCounter(prefix + ".backtracks")
        .Add(static_cast<uint64_t>(r.backtracks));
    registry.GetCounter(r.converged ? prefix + ".converged"
                                    : prefix + ".max_iter_hits")
        .Add();
    registry
        .GetHistogram(prefix + ".iterations_hist",
                      {10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0})
        .Record(static_cast<double>(r.iterations));
    registry.GetGauge(prefix + ".final_grad_norm").Set(r.grad_norm);
  }
  FAIRBENCH_LOG_DEBUG(
      solver, "solve: iters=%d backtracks=%d converged=%d grad_norm=%.3e",
      r.iterations, r.backtracks, r.converged ? 1 : 0, r.grad_norm);
#else
  (void)solver;
  (void)r;
#endif
}

/// Publishes cumulative CDCL counters after a finished (multi-call) SAT or
/// MaxSAT solve under the `optim.sat.*` prefix. `source` tags the log line
/// only; counters are shared so dashboards see one stream.
inline void RecordSatTelemetry(const char* source, const sat::SolveStats& s) {
#if FAIRBENCH_OBS_ENABLED
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("optim.sat.solves").Add();
    registry.GetCounter("optim.sat.conflicts")
        .Add(static_cast<uint64_t>(s.conflicts));
    registry.GetCounter("optim.sat.propagations")
        .Add(static_cast<uint64_t>(s.propagations));
    registry.GetCounter("optim.sat.restarts")
        .Add(static_cast<uint64_t>(s.restarts));
    registry.GetCounter("optim.sat.decisions")
        .Add(static_cast<uint64_t>(s.decisions));
    registry.GetCounter("optim.sat.learned_clauses")
        .Add(static_cast<uint64_t>(s.learned_clauses));
    registry.GetCounter("optim.sat.db_reductions")
        .Add(static_cast<uint64_t>(s.db_reductions));
  }
  FAIRBENCH_LOG_DEBUG(
      source,
      "sat: conflicts=%lld props=%lld decisions=%lld restarts=%lld learned=%lld",
      static_cast<long long>(s.conflicts), static_cast<long long>(s.propagations),
      static_cast<long long>(s.decisions), static_cast<long long>(s.restarts),
      static_cast<long long>(s.learned_clauses));
#else
  (void)source;
  (void)s;
#endif
}

/// Publishes one finished LP solve under the `optim.lp.*` prefix:
/// warm-start outcomes plus per-phase pivot counts.
inline void RecordLpTelemetry(const LpSolveStats& s) {
#if FAIRBENCH_OBS_ENABLED
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("optim.lp.solves").Add();
    if (s.warm_start_attempted) {
      registry.GetCounter("optim.lp.warm_start_attempts").Add();
    }
    if (s.warm_start_hit) {
      registry.GetCounter("optim.lp.warm_start_hits").Add();
    }
    if (s.phase1_skipped) {
      registry.GetCounter("optim.lp.phase1_skipped").Add();
    }
    registry.GetCounter("optim.lp.phase1_iterations")
        .Add(static_cast<uint64_t>(s.phase1_iterations));
    registry.GetCounter("optim.lp.phase2_iterations")
        .Add(static_cast<uint64_t>(s.phase2_iterations));
    registry.GetCounter("optim.lp.refactorizations")
        .Add(static_cast<uint64_t>(s.refactorizations));
  }
  FAIRBENCH_LOG_DEBUG(
      "optim.lp", "lp: warm=%d hit=%d p1_skip=%d p1=%d p2=%d refac=%d",
      s.warm_start_attempted ? 1 : 0, s.warm_start_hit ? 1 : 0,
      s.phase1_skipped ? 1 : 0, s.phase1_iterations, s.phase2_iterations,
      s.refactorizations);
#else
  (void)s;
#endif
}

}  // namespace fairbench

#endif  // FAIRBENCH_OPTIM_SOLVER_TELEMETRY_H_
