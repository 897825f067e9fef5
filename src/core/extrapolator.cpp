#include "core/extrapolator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <stdexcept>

#include "core/fit_audit.hpp"
#include "core/fit_memo.hpp"
#include "core/fit_slots.hpp"
#include "fault/fault_injection.hpp"
#include "numeric/stats.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace estima::core {
namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The phases' shared state: the fill sees only `slots`.
struct Enumeration {
  FitSlots slots;
  std::vector<int> valid_cs;        ///< checkpoint settings, config order
  std::vector<FitMemo::Key> keys;   ///< memo key per slot (empty: no memo)
  EnumerationStats acct;
};

// Plan: the slot layout and the memo replay. Returns false when no
// checkpoint setting leaves anything to fit.
bool plan(const std::vector<int>& cores, const std::vector<double>& values,
          const ExtrapolationConfig& cfg,
          const std::vector<RealismOptions>& realism_filters,
          const ExecContext& ctx, bool want_diags, Enumeration& e) {
  const std::size_t V = realism_filters.size();
  const int m = static_cast<int>(cores.size());
  e.acct.realism_variants = V;
  if (m != static_cast<int>(values.size()) || m < cfg.min_prefix + 1) {
    return false;
  }
  // Checkpoint settings that leave at least min_prefix points to fit on,
  // in configuration order.
  for (int c : cfg.checkpoint_counts) {
    if (c > 0 && m - c >= cfg.min_prefix) e.valid_cs.push_back(c);
  }
  if (e.valid_cs.empty()) return false;

  FitSlots& sl = e.slots;
  sl.xs.assign(cores.begin(), cores.end());
  sl.values = &values;
  sl.fit = &cfg.fit;
  sl.nonneg = std::all_of(values.begin(), values.end(),
                          [](double x) { return x >= 0.0; });
  for (double x : values) sl.vmax = std::max(sl.vmax, std::fabs(x));
  sl.filters = realism_filters;
  for (auto& realism : sl.filters) {
    realism.range_min = sl.xs.front();
    realism.range_max = std::max(cfg.target_max_cores, sl.xs.back());
  }

  // One slot per (kernel, prefix) pair. A fit depends only on (kernel,
  // prefix), never on the checkpoint setting or the realism filter, so
  // every setting and every filter re-scores the same slot.
  const std::size_t K = FitSlots::K;
  int max_prefix = 0;
  for (int c : e.valid_cs) {
    e.acct.candidates_attempted +=
        V * K * static_cast<std::size_t>(m - c - cfg.min_prefix + 1);
    max_prefix = std::max(max_prefix, m - c);
  }
  sl.min_prefix = cfg.min_prefix;
  sl.n_slots = static_cast<std::size_t>(max_prefix - cfg.min_prefix + 1) * K;
  e.acct.fits_executed = sl.n_slots;
  e.acct.duplicate_fits_eliminated = e.acct.candidates_attempted - sl.n_slots;
  e.acct.variant_refits_avoided = (V - 1) * sl.n_slots;

  sl.fits.resize(sl.n_slots);
  sl.realistic.assign(sl.n_slots, 0);
  sl.preds.resize(sl.n_slots);
  sl.replayed.assign(sl.n_slots, 0);
  // The memo's entries must carry a replayable diag.
  if (want_diags || ctx.memo != nullptr) sl.diags.resize(sl.n_slots);

  // Memo replay, serial: a slot whose full input (kernel, FitOptions,
  // prefix data bits) is resident takes the stored fit + diag, and the
  // fill fits only the slots the memo did not answer.
  if (ctx.memo != nullptr) {
    e.keys.resize(sl.n_slots);
    for (std::size_t s = 0; s < sl.n_slots; ++s) {
      e.keys[s] = FitMemo::key_of(sl.kernel_of(s), sl.xs.data(), values.data(),
                                  static_cast<std::size_t>(sl.prefix_of(s)),
                                  cfg.fit);
      FitMemoEntry entry;
      if (ctx.memo->lookup(e.keys[s], &entry)) {
        sl.fits[s] = std::move(entry.fn);
        sl.diags[s] = std::move(entry.diag);
        sl.replayed[s] = 1;
        ++e.acct.memo_hits;
      }
    }
  }
  return true;
}

// Fill, the library's: one job per KERNEL covering every prefix of that
// kernel, fanned out across the pool. All of a kernel's LM problems advance
// in one lockstep multi-problem batch, its realism walks evaluate as one
// parameter panel per shared grid, and its predictions fill in a single
// panel call. The walk grids depend only on the filters' ranges, so they
// are built once and shared; filters that agree on the step count re-scan
// the same walk values. Each job writes only its own kernel's slots, so the
// fan-out cannot change results. Jobs run inside parallel_for and must not
// throw: a job that observes an expired deadline or a failed workspace
// allocation records the fact atomically, in fit units (a kernel job
// covers every prefix), and returns.
void batched_fill(FitSlots& sl, const ExecContext& ctx) {
  const std::size_t K = FitSlots::K;
  const std::size_t n_slots = sl.n_slots;
  const std::size_t n_prefixes = n_slots / K;
  const std::vector<double>& xs = sl.xs;
  const std::vector<double>& values = *sl.values;
  const std::vector<RealismOptions>& filters = sl.filters;
  FitDiag* const diag_base = sl.diags.empty() ? nullptr : sl.diags.data();
  std::atomic<std::size_t> jobs_cancelled{0};
  std::atomic<std::size_t> jobs_aborted{0};
  std::atomic<std::size_t> point_evals{0};

  EvalTables tables;
  tables.assign(xs);
  std::vector<RealismGrid> grids;
  std::vector<std::size_t> grid_of(filters.size(), 0);
  for (std::size_t v = 0; v < filters.size(); ++v) {
    RealismGrid g;
    g.build(filters[v]);
    std::size_t gi = grids.size();
    for (std::size_t u = 0; u < grids.size(); ++u) {
      if (grids[u].steps == g.steps) {
        gi = u;
        break;
      }
    }
    if (gi == grids.size()) grids.push_back(std::move(g));
    grid_of[v] = gi;
  }
  parallel::parallel_for(ctx.pool, K, [&](std::size_t k) {
    if (ctx.deadline != nullptr && ctx.deadline->expired()) {
      jobs_cancelled.fetch_add(n_prefixes, std::memory_order_relaxed);
      if (ctx.metrics != nullptr) {
        ctx.metrics->count(kAllKernels[k], FitOutcome::kCancelled,
                           n_prefixes);
      }
      return;
    }
    try {
      if (fault::fault_point("alloc.workspace")) throw std::bad_alloc();
      const KernelType type = kAllKernels[k];
      const std::size_t np = kernel_param_count(type);
      thread_local FitBatchWorkspace fbw;
      // The slots the memo did not answer execute as one compacted batch.
      // Safe because each problem's LM trajectory is independent of the
      // batch's composition (the lockstep batch is bit-identical to
      // sequential fits).
      std::vector<std::size_t> miss, miss_prefixes;
      for (std::size_t s = k; s < n_slots; s += K) {
        if (sl.replayed[s]) continue;
        miss.push_back(s);
        miss_prefixes.push_back(static_cast<std::size_t>(sl.prefix_of(s)));
      }
      if (!miss.empty()) {
        obs::SpanTimer levmar_span(ctx.trace, obs::Stage::kFitLevmar);
        std::chrono::steady_clock::time_point t0;
        if (ctx.metrics != nullptr) t0 = std::chrono::steady_clock::now();
        std::vector<std::optional<FittedFunction>> miss_fits(miss.size());
        std::vector<FitDiag> miss_diags(diag_base ? miss.size() : 0);
        fbw.model_evals = 0;
        fit_kernel_over_prefixes(
            type, xs, tables, values, miss_prefixes.data(), miss.size(),
            *sl.fit, fbw, miss_fits.data(),
            diag_base ? miss_diags.data() : nullptr);
        point_evals.fetch_add(fbw.model_evals, std::memory_order_relaxed);
        if (ctx.metrics != nullptr) {
          ctx.metrics->record_fit_seconds(type, elapsed_seconds(t0));
        }
        for (std::size_t i = 0; i < miss.size(); ++i) {
          sl.fits[miss[i]] = std::move(miss_fits[i]);
          if (diag_base) sl.diags[miss[i]] = std::move(miss_diags[i]);
        }
      }
      std::vector<std::size_t> live;  // this kernel's slots holding a fit
      for (std::size_t s = k; s < n_slots; s += K) {
        if (sl.fits[s]) live.push_back(s);
      }
      if (live.empty()) return;
      fbw.cand_panel.resize(live.size() * np);
      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto& p = sl.fits[live[i]]->params;
        std::copy(p.begin(), p.end(), fbw.cand_panel.begin() +
                                          static_cast<std::ptrdiff_t>(i * np));
      }
      std::vector<std::uint64_t> masks(live.size(), 0);
      {
        obs::SpanTimer realism_span(ctx.trace, obs::Stage::kFitRealism);
        for (std::size_t gi = 0; gi < grids.size(); ++gi) {
          const std::size_t gm = grids[gi].tables.size();
          fbw.walk_vals.resize(live.size() * gm);
          fbw.walk_dens.resize(live.size() * gm);
          kernel_eval_panel(type, grids[gi].tables, gm, fbw.cand_panel.data(),
                            live.size(), fbw.walk_vals.data());
          kernel_denominator_panel(type, grids[gi].tables, gm,
                                   fbw.cand_panel.data(), live.size(),
                                   fbw.walk_dens.data());
          for (std::size_t i = 0; i < live.size(); ++i) {
            double* vals = fbw.walk_vals.data() + i * gm;
            const double* dens = fbw.walk_dens.data() + i * gm;
            // f(n) = y_scale * kernel_eval(n): same multiplication the
            // scalar FittedFunction::operator() performs.
            const double y_scale = sl.fits[live[i]]->y_scale;
            for (std::size_t p = 0; p < gm; ++p) vals[p] = y_scale * vals[p];
            for (std::size_t v = 0; v < filters.size(); ++v) {
              if (grid_of[v] != gi) continue;
              if (realism_scan(vals, dens, grids[gi].steps, filters[v],
                               sl.vmax, sl.nonneg)) {
                masks[i] |= std::uint64_t{1} << v;
              }
            }
          }
        }
      }
      // Predictions for every surviving candidate of this kernel, one panel
      // over the measured core counts.
      std::vector<std::size_t> surv;
      for (std::size_t i = 0; i < live.size(); ++i) {
        sl.realistic[live[i]] = masks[i];
        if (masks[i] != 0) surv.push_back(live[i]);
      }
      if (surv.empty()) return;
      fbw.cand_panel.resize(surv.size() * np);
      for (std::size_t i = 0; i < surv.size(); ++i) {
        const auto& p = sl.fits[surv[i]]->params;
        std::copy(p.begin(), p.end(), fbw.cand_panel.begin() +
                                          static_cast<std::ptrdiff_t>(i * np));
      }
      const std::size_t mm = xs.size();
      fbw.pred_vals.resize(surv.size() * mm);
      kernel_eval_panel(type, tables, mm, fbw.cand_panel.data(), surv.size(),
                        fbw.pred_vals.data());
      for (std::size_t i = 0; i < surv.size(); ++i) {
        const double y_scale = sl.fits[surv[i]]->y_scale;
        const double* row = fbw.pred_vals.data() + i * mm;
        std::vector<double>& pred = sl.preds[surv[i]];
        pred.resize(mm);
        for (std::size_t p = 0; p < mm; ++p) pred[p] = y_scale * row[p];
      }
    } catch (const std::bad_alloc&) {
      jobs_aborted.fetch_add(n_prefixes, std::memory_order_relaxed);
    }
  });
  sl.fits_cancelled = jobs_cancelled.load(std::memory_order_relaxed);
  sl.fits_aborted = jobs_aborted.load(std::memory_order_relaxed);
  sl.levmar_point_evals = point_evals.load(std::memory_order_relaxed);
}

// Score: everything after the fill, serial and in the fixed slot order, so
// nothing here depends on the fill or the pool.
void score(Enumeration& e, const ExecContext& ctx, FitAudit* audit,
           std::vector<std::vector<CandidateFit>>& out) {
  const FitSlots& sl = e.slots;
  EnumerationStats& acct = e.acct;
  acct.fits_cancelled = sl.fits_cancelled;
  acct.fits_aborted = sl.fits_aborted;
  acct.levmar_point_evals = sl.levmar_point_evals;
  if (acct.fits_cancelled > 0 || acct.fits_aborted > 0) {
    // An incomplete fit pool must not be scored: a missing fit could flip
    // which candidate wins, which would be a silently different answer.
    // Nor may it reach the memo: a slot whose job never ran holds no fit,
    // and replaying that "no fit" later would change an answer. The audit
    // likewise gets no per-slot records (partial records would depend on
    // which jobs happened to run before expiry); it reports only the
    // abandonment counts, mirroring EnumerationStats.
    acct.fits_executed -= acct.fits_cancelled + acct.fits_aborted;
    if (audit != nullptr) {
      audit->fits_cancelled += acct.fits_cancelled;
      audit->fits_aborted += acct.fits_aborted;
    }
    return;
  }

  const std::vector<double>& values = *sl.values;
  const int m = static_cast<int>(sl.xs.size());
  const std::size_t V = sl.filters.size();
  const std::size_t K = FitSlots::K;
  // Checkpoint index sets per setting, for candidate scoring.
  std::vector<std::vector<std::size_t>> cidx(e.valid_cs.size());
  for (std::size_t ci = 0; ci < e.valid_cs.size(); ++ci) {
    for (int i = m - e.valid_cs[ci]; i < m; ++i) {
      cidx[ci].push_back(static_cast<std::size_t>(i));
    }
  }

  // Audit emission: one FitAttempt per LM start (or per direct solve,
  // start == -1) and one FitCandidate per slot. The candidate's provisional
  // outcome is upgraded to kWinner later by audit_mark_winner once a caller
  // selects it.
  if (audit != nullptr || ctx.metrics != nullptr) {
    FitAudit scratch;  // metrics-only collection still needs a sink
    FitAudit* sink = audit != nullptr ? audit : &scratch;
    const std::size_t attempts_base = sink->attempts.size();
    const std::size_t candidates_base = sink->candidates.size();
    for (std::size_t s = 0; s < sl.n_slots; ++s) {
      const int prefix = sl.prefix_of(s);
      const KernelType kernel = sl.kernel_of(s);
      const FitDiag& diag = sl.diags[s];
      if (diag.path == FitDiag::Path::kNonlinear && !diag.starts.empty()) {
        for (std::size_t i = 0; i < diag.starts.size(); ++i) {
          const FitDiag::Start& st = diag.starts[i];
          FitAttempt a;
          a.kernel = kernel;
          a.prefix_len = prefix;
          a.start = static_cast<int>(i);
          a.outcome = fit_outcome_from_term(st.term);
          a.rmse = st.rmse;
          a.iterations = st.iterations;
          a.model_evals = st.model_evals;
          sink->attempts.push_back(a);
        }
      } else {
        FitAttempt a;
        a.kernel = kernel;
        a.prefix_len = prefix;
        a.start = -1;
        a.outcome = diag.solved ? FitOutcome::kConverged : FitOutcome::kNoFit;
        sink->attempts.push_back(a);
      }

      FitCandidate cand;
      cand.kernel = kernel;
      cand.prefix_len = prefix;
      cand.realistic_mask = sl.realistic[s];
      if (!sl.fits[s]) {
        cand.outcome = FitOutcome::kNoFit;
      } else if (sl.realistic[s] == 0) {
        // Rejected by every filter: with one filter that IS the strict
        // rejection; with a strict+relaxed sweep even relaxed refused it.
        cand.outcome = V > 1 ? FitOutcome::kUnrealisticRelaxed
                             : FitOutcome::kUnrealisticStrict;
      } else if ((sl.realistic[s] & 1) == 0) {
        // Passed some filter but not filter 0 (the strict one, by the
        // predict() convention).
        cand.outcome = FitOutcome::kUnrealisticStrict;
      } else {
        cand.outcome = FitOutcome::kWorseRmse;
        double best_err = std::numeric_limits<double>::quiet_NaN();
        for (std::size_t ci = 0; ci < e.valid_cs.size(); ++ci) {
          if (prefix > m - e.valid_cs[ci]) continue;
          const double err = numeric::rmse_at(sl.preds[s], values, cidx[ci]);
          if (std::isfinite(err) && !(err >= best_err)) best_err = err;
        }
        cand.checkpoint_rmse = best_err;
      }
      sink->candidates.push_back(cand);
    }
    if (ctx.metrics != nullptr) {
      for (std::size_t a = attempts_base; a < sink->attempts.size(); ++a) {
        ctx.metrics->count(sink->attempts[a].kernel,
                           sink->attempts[a].outcome);
      }
      for (std::size_t c = candidates_base; c < sink->candidates.size();
           ++c) {
        ctx.metrics->count(sink->candidates[c].kernel,
                           sink->candidates[c].outcome);
      }
    }
  }

  // Assembly per filter in the fixed (checkpoint setting, prefix, kernel)
  // order: scoring against each checkpoint set is cheap (c subtractions),
  // which is exactly why the fit is worth sharing.
  for (std::size_t v = 0; v < V; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    for (std::size_t ci = 0; ci < e.valid_cs.size(); ++ci) {
      const int c = e.valid_cs[ci];
      for (int i = sl.min_prefix; i <= m - c; ++i) {
        for (std::size_t k = 0; k < K; ++k) {
          const std::size_t s =
              static_cast<std::size_t>(i - sl.min_prefix) * K + k;
          if (!(sl.realistic[s] & bit)) continue;
          const double err = numeric::rmse_at(sl.preds[s], values, cidx[ci]);
          if (!std::isfinite(err)) continue;
          out[v].push_back(CandidateFit{*sl.fits[s], i, c, err});
        }
      }
    }
  }

  // Keep the executed fits for the next call, as one batch so the memo
  // grows its storage once per enumeration.
  if (ctx.memo != nullptr) {
    std::vector<FitMemo::Fresh> batch;
    batch.reserve(sl.n_slots);
    for (std::size_t s = 0; s < sl.n_slots; ++s) {
      if (sl.replayed[s]) continue;
      batch.push_back(FitMemo::Fresh{e.keys[s], &sl.fits[s], &sl.diags[s]});
    }
    ctx.memo->insert(batch);
  }
}

}  // namespace

std::vector<std::vector<CandidateFit>> enumerate_candidates_filtered(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg,
    const std::vector<RealismOptions>& realism_filters,
    const ExecContext& ctx, FitAudit* audit, EnumerationStats* stats) {
  const std::size_t V = realism_filters.size();
  if (V == 0 || V > 64) {
    throw std::invalid_argument(
        "enumerate_candidates_filtered: need 1..64 realism filters");
  }
  if (ctx.audit != nullptr) {
    throw std::invalid_argument(
        "enumerate_candidates_filtered: a PredictionAudit belongs to "
        "predict(); pass the enumeration's FitAudit as its own argument");
  }
  std::vector<std::vector<CandidateFit>> out(V);
  Enumeration e;
  const bool want_diags = audit != nullptr || ctx.metrics != nullptr;
  if (plan(cores, values, cfg, realism_filters, ctx, want_diags, e)) {
    (ctx.engine != nullptr ? ctx.engine : &batched_fill)(e.slots, ctx);
    score(e, ctx, audit, out);
  }
  if (stats) *stats = e.acct;
  return out;
}

std::vector<CandidateFit> enumerate_candidates(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg, const ExecContext& ctx, FitAudit* audit,
    EnumerationStats* stats) {
  auto lists = enumerate_candidates_filtered(cores, values, cfg,
                                             {cfg.realism}, ctx, audit, stats);
  return std::move(lists.front());
}

void audit_mark_winner(FitAudit* audit, FitMetrics* metrics,
                       const CandidateFit& best,
                       const std::vector<int>& cores,
                       const std::vector<double>& values) {
  if (metrics != nullptr) metrics->count(best.fn.type, FitOutcome::kWinner);
  if (audit == nullptr) return;
  audit->has_winner = true;
  audit->winner_kernel = best.fn.type;
  audit->winner_prefix = best.prefix_len;
  audit->winner_checkpoints = best.checkpoints;
  audit->winner_rmse = best.checkpoint_rmse;
  audit->checkpoint_cores.clear();
  audit->checkpoint_predicted.clear();
  audit->checkpoint_actual.clear();
  const std::size_t m = cores.size();
  const std::size_t c = static_cast<std::size_t>(best.checkpoints);
  if (c <= m && c <= values.size()) {
    for (std::size_t i = m - c; i < m; ++i) {
      audit->checkpoint_cores.push_back(cores[i]);
      audit->checkpoint_predicted.push_back(
          best.fn(static_cast<double>(cores[i])));
      audit->checkpoint_actual.push_back(values[i]);
    }
  }
  for (auto& cand : audit->candidates) {
    if (cand.kernel == best.fn.type && cand.prefix_len == best.prefix_len) {
      cand.outcome = FitOutcome::kWinner;
      break;
    }
  }
}

std::optional<SeriesExtrapolation> extrapolate_series(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg, const ExecContext& ctx, FitAudit* audit,
    EnumerationStats* out_stats) {
  EnumerationStats stats;
  const auto candidates =
      enumerate_candidates(cores, values, cfg, ctx, audit, &stats);
  if (out_stats) *out_stats = stats;
  if (candidates.empty()) return std::nullopt;

  // Minimum checkpoint RMSE decides, but many candidates land within noise
  // of each other while diverging wildly beyond the data. Within a band of
  // the best we prefer the most parsimonious kernel (fewest parameters),
  // then the fit trained on the longest prefix — the classic Occam
  // tie-break that keeps pure power-law series from being captured by
  // higher-order rationals whose tails flatten or explode.
  double best_rmse = std::numeric_limits<double>::infinity();
  for (const auto& cand : candidates) {
    best_rmse = std::min(best_rmse, cand.checkpoint_rmse);
  }
  const double band = best_rmse * 1.25 + 1e-300;
  const CandidateFit* best = nullptr;
  for (const auto& cand : candidates) {
    if (cand.checkpoint_rmse > band) continue;
    if (!best) {
      best = &cand;
      continue;
    }
    const std::size_t cand_params = kernel_param_count(cand.fn.type);
    const std::size_t best_params = kernel_param_count(best->fn.type);
    if (cand_params != best_params) {
      if (cand_params < best_params) best = &cand;
    } else if (cand.prefix_len != best->prefix_len) {
      if (cand.prefix_len > best->prefix_len) best = &cand;
    } else if (cand.checkpoint_rmse < best->checkpoint_rmse) {
      best = &cand;
    }
  }

  audit_mark_winner(audit, ctx.metrics, *best, cores, values);

  SeriesExtrapolation out;
  out.best = best->fn;
  out.checkpoint_rmse = best->checkpoint_rmse;
  out.chosen_prefix = best->prefix_len;
  out.chosen_checkpoints = best->checkpoints;
  out.candidates_realistic = candidates.size();
  out.candidates_considered = stats.candidates_attempted;
  out.fits_executed = stats.fits_executed;
  out.duplicate_fits_eliminated = stats.duplicate_fits_eliminated;
  out.levmar_point_evals = stats.levmar_point_evals;
  return out;
}

}  // namespace estima::core
