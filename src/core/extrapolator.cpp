#include "core/extrapolator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
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

// One enumeration's state across the phases: the fill jobs see only
// `slots`.
struct Enumeration {
  FitSlots slots;
  const std::vector<int>* cores = nullptr;
  std::vector<int> valid_cs;        ///< checkpoint settings, config order
  std::vector<FitMemo::Key> keys;   ///< memo key per slot (empty: no memo)
  EnumerationStats acct;
  FitAudit* audit = nullptr;  ///< the caller's sink
  FitAudit scratch;           ///< the sink when only metrics read records
  /// This enumeration's candidate records in its sink, set by score().
  std::size_t cand_begin = 0, cand_end = 0;

  FitAudit* sink() { return audit != nullptr ? audit : &scratch; }
};

// The relative cost of one job's fit on one prefix point, for ordering
// jobs heaviest first: an LM kernel solves a params x params system per
// iteration, a linear kernel solves once. It orders jobs; it never moves
// an answer.
double fit_cost(KernelType type) {
  if (kernel_is_linear(type)) return 1.0;
  const double np = static_cast<double>(kernel_param_count(type));
  return np * np;
}

// The library's fill job: every prefix of one kernel of one enumeration.
// All of the kernel's LM problems advance in one lockstep multi-problem
// batch, its realism walks evaluate as one parameter panel per shared grid,
// and its predictions fill in a single panel call. Filters that share a
// grid re-scan the same walk values.
std::size_t batched_job(FitSlots& sl, std::size_t k, const ExecContext& ctx) {
  const std::size_t K = FitSlots::K;
  const std::size_t n_slots = sl.n_slots;
  const std::vector<double>& xs = sl.xs;
  const std::vector<double>& values = *sl.values;
  const std::vector<RealismOptions>& filters = sl.filters;
  const bool want_diags = !sl.diags.empty();
  const bool diagnose = want_diags || ctx.metrics != nullptr;
  const KernelType type = kAllKernels[k];
  const std::size_t np = kernel_param_count(type);
  thread_local FitBatchWorkspace fbw;
  std::size_t point_evals = 0;
  // The slots the memo did not answer execute as one compacted batch. Safe
  // because each problem's LM trajectory is independent of the batch's
  // composition (the lockstep batch is bit-identical to sequential fits).
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
    std::vector<FitDiag> miss_diags(diagnose ? miss.size() : 0);
    fbw.model_evals = 0;
    fit_kernel_over_prefixes(type, xs, *sl.tables, values,
                             miss_prefixes.data(), miss.size(), *sl.fit, fbw,
                             miss_fits.data(),
                             diagnose ? miss_diags.data() : nullptr);
    point_evals = fbw.model_evals;
    if (ctx.metrics != nullptr) {
      ctx.metrics->record_fit_seconds(type, elapsed_seconds(t0));
      for (const FitDiag& d : miss_diags) ctx.metrics->count_attempts(type, d);
    }
    for (std::size_t i = 0; i < miss.size(); ++i) {
      sl.fits[miss[i]] = std::move(miss_fits[i]);
      if (want_diags) sl.diags[miss[i]] = std::move(miss_diags[i]);
    }
  }
  std::vector<std::size_t> live;  // this kernel's slots holding a fit
  for (std::size_t s = k; s < n_slots; s += K) {
    if (sl.fits[s]) live.push_back(s);
  }
  if (live.empty()) return point_evals;
  fbw.cand_panel.resize(live.size() * np);
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto& p = sl.fits[live[i]]->params;
    std::copy(p.begin(), p.end(),
              fbw.cand_panel.begin() + static_cast<std::ptrdiff_t>(i * np));
  }
  std::vector<std::uint64_t> masks(live.size(), 0);
  {
    obs::SpanTimer realism_span(ctx.trace, obs::Stage::kFitRealism);
    for (std::size_t v = 0; v < filters.size(); ++v) {
      const RealismGrid* grid = sl.grids[v];
      // A grid is walked once, at its first filter.
      if (std::find(sl.grids.begin(), sl.grids.begin() + v, grid) !=
          sl.grids.begin() + v) {
        continue;
      }
      const std::size_t gm = grid->tables.size();
      fbw.walk_vals.resize(live.size() * gm);
      fbw.walk_dens.resize(live.size() * gm);
      kernel_eval_panel(type, grid->tables, gm, fbw.cand_panel.data(),
                        live.size(), fbw.walk_vals.data());
      kernel_denominator_panel(type, grid->tables, gm, fbw.cand_panel.data(),
                               live.size(), fbw.walk_dens.data());
      for (std::size_t i = 0; i < live.size(); ++i) {
        double* vals = fbw.walk_vals.data() + i * gm;
        const double* dens = fbw.walk_dens.data() + i * gm;
        // f(n) = y_scale * kernel_eval(n): same multiplication the scalar
        // FittedFunction::operator() performs.
        const double y_scale = sl.fits[live[i]]->y_scale;
        for (std::size_t p = 0; p < gm; ++p) vals[p] = y_scale * vals[p];
        for (std::size_t w = v; w < filters.size(); ++w) {
          if (sl.grids[w] != grid) continue;
          if (realism_scan(vals, dens, grid->steps, filters[w], sl.vmax,
                           sl.nonneg)) {
            masks[i] |= std::uint64_t{1} << w;
          }
        }
      }
    }
  }
  // Predictions for every surviving candidate of this kernel, one panel
  // over the checkpoint window of the measured core counts.
  std::vector<std::size_t> surv;
  for (std::size_t i = 0; i < live.size(); ++i) {
    sl.realistic[live[i]] = masks[i];
    if (masks[i] != 0) surv.push_back(live[i]);
  }
  if (surv.empty()) return point_evals;
  fbw.cand_panel.resize(surv.size() * np);
  for (std::size_t i = 0; i < surv.size(); ++i) {
    const auto& p = sl.fits[surv[i]]->params;
    std::copy(p.begin(), p.end(),
              fbw.cand_panel.begin() + static_cast<std::ptrdiff_t>(i * np));
  }
  const std::size_t mm = sl.pred_width();
  fbw.pred_vals.resize(surv.size() * mm);
  kernel_eval_panel(type, *sl.pred_tables, mm, fbw.cand_panel.data(),
                    surv.size(), fbw.pred_vals.data());
  for (std::size_t i = 0; i < surv.size(); ++i) {
    const double y_scale = sl.fits[surv[i]]->y_scale;
    const double* row = fbw.pred_vals.data() + i * mm;
    double* pred = sl.pred(surv[i]);
    for (std::size_t p = 0; p < mm; ++p) pred[p] = y_scale * row[p];
  }
  return point_evals;
}

// Marks `best` as the winner among `sink`'s candidate records [begin, end)
// and, when `audit` is the caller's sink, fills the winner scorecard
// (scalar evaluation, so it is bit-identical however the candidates were
// fitted).
void mark_winner(FitAudit* audit, FitAudit* sink, std::size_t begin,
                 std::size_t end, const CandidateFit& best,
                 const std::vector<int>& cores,
                 const std::vector<double>& values) {
  for (std::size_t c = begin; c < end; ++c) {
    FitCandidate& cand = sink->candidates[c];
    if (cand.kernel == best.fn.type && cand.prefix_len == best.prefix_len) {
      cand.outcome = FitOutcome::kWinner;
      break;
    }
  }
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
}

}  // namespace

struct EnumerationBatch::Impl {
  ExecContext ctx;
  std::deque<Enumeration> enums;
  // Shared by every enumeration over the same cores and range: one per
  // prediction in predict().
  std::deque<EvalTables> tables;
  std::deque<RealismGrid> grids;
  bool abandoned = false;

  const EvalTables* tables_for(const std::vector<double>& xs) {
    for (const EvalTables& t : tables) {
      if (t.n == xs) return &t;
    }
    tables.emplace_back().assign(xs);
    return &tables.back();
  }
  const RealismGrid* grid_for(const RealismOptions& realism) {
    RealismGrid g;
    g.build(realism);
    for (const RealismGrid& have : grids) {
      if (have.steps == g.steps && have.tables.n == g.tables.n) return &have;
    }
    grids.push_back(std::move(g));
    return &grids.back();
  }
};

EnumerationBatch::EnumerationBatch(const ExecContext& ctx)
    : impl_(std::make_unique<Impl>()) {
  if (ctx.audit != nullptr) {
    throw std::invalid_argument(
        "enumeration: a PredictionAudit belongs to predict(); pass the "
        "enumeration's FitAudit as its own argument");
  }
  impl_->ctx = ctx;
}

EnumerationBatch::~EnumerationBatch() = default;

// The plan: the slot layout and the memo replay. An enumeration where no
// checkpoint setting leaves anything to fit gets no slots.
std::size_t EnumerationBatch::add(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg,
    const std::vector<RealismOptions>& realism_filters, FitAudit* audit) {
  const std::size_t V = realism_filters.size();
  if (V == 0 || V > 64) {
    throw std::invalid_argument("enumeration: need 1..64 realism filters");
  }
  Impl& b = *impl_;
  const ExecContext& ctx = b.ctx;
  Enumeration& e = b.enums.emplace_back();
  e.cores = &cores;
  e.audit = audit;
  e.acct.realism_variants = V;
  FitSlots& sl = e.slots;
  sl.values = &values;
  const int m = static_cast<int>(cores.size());
  if (m != static_cast<int>(values.size()) || m < cfg.min_prefix + 1) {
    return b.enums.size() - 1;
  }
  // Checkpoint settings that leave at least min_prefix points to fit on,
  // in configuration order.
  for (int c : cfg.checkpoint_counts) {
    if (c > 0 && m - c >= cfg.min_prefix) e.valid_cs.push_back(c);
  }
  if (e.valid_cs.empty()) return b.enums.size() - 1;

  sl.xs.assign(cores.begin(), cores.end());
  sl.fit = &cfg.fit;
  sl.nonneg = std::all_of(values.begin(), values.end(),
                          [](double x) { return x >= 0.0; });
  for (double x : values) sl.vmax = std::max(sl.vmax, std::fabs(x));
  sl.filters = realism_filters;
  for (auto& realism : sl.filters) {
    realism.range_min = sl.xs.front();
    realism.range_max = std::max(cfg.target_max_cores, sl.xs.back());
    sl.grids.push_back(b.grid_for(realism));
  }
  sl.tables = b.tables_for(sl.xs);
  sl.pred_lo = static_cast<std::size_t>(
      m - *std::max_element(e.valid_cs.begin(), e.valid_cs.end()));
  sl.pred_tables = b.tables_for(std::vector<double>(
      sl.xs.begin() + static_cast<std::ptrdiff_t>(sl.pred_lo), sl.xs.end()));

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
  sl.preds.assign(sl.n_slots * sl.pred_width(), 0.0);
  sl.replayed.assign(sl.n_slots, 0);
  // The memo's entries must carry a replayable diag.
  if (audit != nullptr || ctx.memo != nullptr) sl.diags.resize(sl.n_slots);

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
  return b.enums.size() - 1;
}

// The fill: one job per (enumeration, kernel), every enumeration's jobs in
// one parallel_for, heaviest first — by the LM work the memo left in each
// — so the longest jobs start while the pool is widest. Each job writes
// only its own slots and its own Job record, so neither the fan-out nor
// the order can change results. Jobs must not throw: the deadline check
// and the workspace-allocation guard wrap every job, for both engines, and
// record abandonment in fit units (a job covers every prefix of its
// kernel).
void EnumerationBatch::fill() {
  Impl& b = *impl_;
  const ExecContext& ctx = b.ctx;
  const std::size_t K = FitSlots::K;
  struct Job {
    Enumeration* e = nullptr;
    std::size_t k = 0;
    std::size_t fits = 0;
    double weight = 0.0;
    bool cancelled = false;
    bool aborted = false;
    std::size_t point_evals = 0;
  };
  std::vector<Job> jobs;
  for (Enumeration& e : b.enums) {
    const FitSlots& sl = e.slots;
    if (sl.n_slots == 0) continue;
    for (std::size_t k = 0; k < K; ++k) {
      Job job;
      job.e = &e;
      job.k = k;
      job.fits = sl.n_slots / K;
      const double cost = fit_cost(kAllKernels[k]);
      for (std::size_t s = k; s < sl.n_slots; s += K) {
        job.weight += 1.0;  // realism walk and predictions
        if (!sl.replayed[s]) job.weight += cost * sl.prefix_of(s);
      }
      jobs.push_back(job);
    }
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& c) {
    return a.weight > c.weight;
  });
  const FitFillFn run = ctx.engine != nullptr ? ctx.engine : &batched_job;
  parallel::parallel_for(ctx.pool, jobs.size(), [&](std::size_t j) {
    Job& job = jobs[j];
    if (ctx.deadline != nullptr && ctx.deadline->expired()) {
      job.cancelled = true;
      if (ctx.metrics != nullptr) {
        ctx.metrics->count(kAllKernels[job.k], FitOutcome::kCancelled,
                           job.fits);
      }
      return;
    }
    try {
      if (fault::fault_point("alloc.workspace")) throw std::bad_alloc();
      job.point_evals = run(job.e->slots, job.k, ctx);
    } catch (const std::bad_alloc&) {
      job.aborted = true;
    }
  });
  for (const Job& job : jobs) {
    EnumerationStats& acct = job.e->acct;
    if (job.cancelled) acct.fits_cancelled += job.fits;
    if (job.aborted) acct.fits_aborted += job.fits;
    acct.levmar_point_evals += job.point_evals;
  }
  // An incomplete fit pool must not be scored: a missing fit could flip
  // which candidate wins, which would be a silently different answer. Nor
  // may any of the batch reach the memo. The audit likewise gets no
  // per-slot records (partial records would depend on which jobs happened
  // to run before expiry); it reports only the abandonment counts,
  // mirroring EnumerationStats.
  for (Enumeration& e : b.enums) {
    EnumerationStats& acct = e.acct;
    if (acct.fits_cancelled == 0 && acct.fits_aborted == 0) continue;
    b.abandoned = true;
    acct.fits_executed -= acct.fits_cancelled + acct.fits_aborted;
    if (e.audit != nullptr) {
      e.audit->fits_cancelled += acct.fits_cancelled;
      e.audit->fits_aborted += acct.fits_aborted;
    }
  }
}

const EnumerationStats& EnumerationBatch::stats(std::size_t i) const {
  return impl_->enums[i].acct;
}

// Score: everything after the fill, serial and in the fixed slot order, so
// nothing here depends on the fill or the pool.
std::vector<std::vector<CandidateFit>> EnumerationBatch::score(
    std::size_t idx) {
  Impl& b = *impl_;
  const ExecContext& ctx = b.ctx;
  Enumeration& e = b.enums[idx];
  FitSlots& sl = e.slots;
  std::vector<std::vector<CandidateFit>> out(e.acct.realism_variants);
  if (sl.n_slots == 0 || e.acct.fits_cancelled > 0 || e.acct.fits_aborted > 0) {
    return out;
  }

  // Scoring reads the checkpoint window only: `window` is the measured
  // values from pred_lo on, and cidx[ci] setting ci's held-out indices
  // into it.
  const double* window = sl.values->data() + sl.pred_lo;
  const int m = static_cast<int>(sl.xs.size());
  const std::size_t V = sl.filters.size();
  const std::size_t K = FitSlots::K;
  std::vector<std::vector<std::size_t>> cidx(e.valid_cs.size());
  for (std::size_t ci = 0; ci < e.valid_cs.size(); ++ci) {
    for (int i = m - e.valid_cs[ci]; i < m; ++i) {
      cidx[ci].push_back(static_cast<std::size_t>(i) - sl.pred_lo);
    }
  }

  // Record emission: for the audit one FitAttempt per LM start (or per
  // direct solve, start == -1), and for the audit or the candidate metrics
  // one FitCandidate per slot. The candidate's provisional outcome is
  // upgraded to kWinner by settle() once a caller selects it; the
  // candidate metrics wait for that.
  if (e.audit != nullptr || ctx.metrics != nullptr) {
    FitAudit* sink = e.sink();
    e.cand_begin = sink->candidates.size();
    for (std::size_t s = 0; s < sl.n_slots; ++s) {
      const int prefix = sl.prefix_of(s);
      const KernelType kernel = sl.kernel_of(s);
      if (e.audit != nullptr) {
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
            e.audit->attempts.push_back(a);
          }
        } else {
          FitAttempt a;
          a.kernel = kernel;
          a.prefix_len = prefix;
          a.start = -1;
          a.outcome =
              diag.solved ? FitOutcome::kConverged : FitOutcome::kNoFit;
          e.audit->attempts.push_back(a);
        }
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
          const double err =
              numeric::rmse_at(sl.pred(s), window, cidx[ci]);
          if (std::isfinite(err) && !(err >= best_err)) best_err = err;
        }
        cand.checkpoint_rmse = best_err;
      }
      sink->candidates.push_back(cand);
    }
    e.cand_end = sink->candidates.size();
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
          const double err =
              numeric::rmse_at(sl.pred(s), window, cidx[ci]);
          if (!std::isfinite(err)) continue;
          out[v].push_back(CandidateFit{*sl.fits[s], i, c, err});
        }
      }
    }
  }

  // Keep the executed fits for the next call, as one batch so the memo
  // grows its storage once per enumeration.
  if (ctx.memo != nullptr && !b.abandoned) {
    std::vector<FitMemo::Fresh> batch;
    batch.reserve(sl.n_slots);
    for (std::size_t s = 0; s < sl.n_slots; ++s) {
      if (sl.replayed[s]) continue;
      batch.push_back(FitMemo::Fresh{e.keys[s], &sl.fits[s], &sl.diags[s]});
    }
    ctx.memo->insert(batch);
  }

  // The slots are spent: free them before the next enumeration is scored.
  sl.fits = {};
  sl.realistic = {};
  sl.preds = {};
  sl.diags = {};
  sl.replayed = {};
  e.keys = {};
  return out;
}

void EnumerationBatch::settle(std::size_t i, const CandidateFit* winner) {
  Impl& b = *impl_;
  Enumeration& e = b.enums[i];
  if (e.audit == nullptr && b.ctx.metrics == nullptr) return;
  FitAudit* sink = e.sink();
  if (winner != nullptr) {
    mark_winner(e.audit, sink, e.cand_begin, e.cand_end, *winner, *e.cores,
                *e.slots.values);
  }
  if (b.ctx.metrics != nullptr) {
    for (std::size_t c = e.cand_begin; c < e.cand_end; ++c) {
      b.ctx.metrics->count_candidate(sink->candidates[c].kernel,
                                     sink->candidates[c].outcome);
    }
  }
  e.scratch = FitAudit{};
  e.cand_begin = e.cand_end = 0;
}

std::optional<SeriesExtrapolation> EnumerationBatch::extrapolate(
    std::size_t i) {
  const std::vector<CandidateFit> candidates = std::move(score(i).front());
  if (candidates.empty()) {
    settle(i, nullptr);
    return std::nullopt;
  }

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
  settle(i, best);

  const EnumerationStats& st = stats(i);
  SeriesExtrapolation out;
  out.best = best->fn;
  out.checkpoint_rmse = best->checkpoint_rmse;
  out.chosen_prefix = best->prefix_len;
  out.chosen_checkpoints = best->checkpoints;
  out.candidates_realistic = candidates.size();
  out.candidates_considered = st.candidates_attempted;
  out.fits_executed = st.fits_executed;
  out.duplicate_fits_eliminated = st.duplicate_fits_eliminated;
  out.levmar_point_evals = st.levmar_point_evals;
  return out;
}

std::vector<std::vector<CandidateFit>> enumerate_candidates_filtered(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg,
    const std::vector<RealismOptions>& realism_filters,
    const ExecContext& ctx, FitAudit* audit, EnumerationStats* stats) {
  EnumerationBatch batch(ctx);
  const std::size_t i = batch.add(cores, values, cfg, realism_filters, audit);
  batch.fill();
  auto out = batch.score(i);
  batch.settle(i, nullptr);
  if (stats) *stats = batch.stats(i);
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

std::optional<SeriesExtrapolation> extrapolate_series(
    const std::vector<int>& cores, const std::vector<double>& values,
    const ExtrapolationConfig& cfg, const ExecContext& ctx, FitAudit* audit,
    EnumerationStats* stats) {
  EnumerationBatch batch(ctx);
  const std::size_t i =
      batch.add(cores, values, cfg, {cfg.realism}, audit);
  batch.fill();
  auto out = batch.extrapolate(i);
  if (stats) *stats = batch.stats(i);
  return out;
}

}  // namespace estima::core
