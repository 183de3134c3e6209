#include "sim/policy.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace dvs::sim {

DispatchDecision GreedyReclaimPolicy::Dispatch(
    const DispatchContext& ctx) const {
  DispatchDecision decision;
  if (!allow_early_start_ && ctx.local_time < ctx.sub_release) {
    decision.not_before = ctx.sub_release;
    decision.voltage = dvs_->vmax();
    return decision;
  }
  const double window = ctx.sub_end_time - ctx.local_time;
  if (window <= 0.0 || ctx.budget_remaining <= 0.0) {
    // Degenerate dispatch: a zero-width (or overrun) window at a
    // hyper-period wrap, or a sub whose budget is already spent while the
    // instance still holds cycles.  There is no span to stretch over, so
    // run flat out — never divide the stretch ratio by a non-positive
    // window or hand a zero budget to the voltage solve.
    decision.voltage = dvs_->vmax();
    return decision;
  }
  decision.voltage = dvs_->VoltageForWork(ctx.budget_remaining, window);
  return decision;
}

ExpectedCasePolicy::ExpectedCasePolicy(
    const fps::FullyPreemptiveSchedule& fps, const StaticSchedule& schedule,
    const model::DvsModel& dvs,
    const std::vector<std::vector<double>>& sorted_draws, std::int64_t bins,
    const std::vector<double>* task_scale)
    : dvs_(&dvs),
      bins_(static_cast<std::size_t>(bins)),
      smin_(dvs.MinSpeed()),
      smax_(dvs.MaxSpeed()) {
  ACS_REQUIRE(bins >= 1 && bins <= 64,
              "ExpectedCasePolicy needs between 1 and 64 DP bins");
  const model::TaskSet& set = fps.task_set();
  ACS_REQUIRE(sorted_draws.size() == set.size(),
              "ExpectedCasePolicy needs one calibrated draw vector per task");

  // Per-sub worst-case prefix: cycles of the parent instance consumed
  // before each sub under the static schedule's budgets.  Conditions the
  // survival weights on realised progress at dispatch time.
  budgets_.resize(fps.sub_count(), 0.0);
  done_before_.resize(fps.sub_count(), 0.0);
  for (std::size_t p = 0; p < fps.instance_count(); ++p) {
    double before = 0.0;
    for (std::size_t order : fps.instance(p).subs) {
      budgets_[order] = schedule.worst_budget(order);
      done_before_[order] = before;
      before += budgets_[order];
    }
  }

  // Per-task grids over [BCEC, WCEC]: root_survival_[i][k] is the cube
  // root of the fraction of calibrated draws strictly above the k-th grid
  // point.  The PACE rule only ever needs S^{1/3}, so taking the roots here
  // keeps cbrt out of Dispatch.  Dispatch interpolates the roots linearly,
  // so grid resolution only smooths the profile, never breaks feasibility.
  constexpr std::size_t kGridPoints = 129;
  scale_.assign(set.size(), 1.0);
  if (task_scale != nullptr) {
    ACS_REQUIRE(task_scale->size() == set.size(),
                "task_scale must have one entry per task");
    for (std::size_t i = 0; i < set.size(); ++i) {
      scale_[i] = std::max(1e-9, (*task_scale)[i]);
    }
  }
  grid_lo_.resize(set.size(), 0.0);
  grid_step_.resize(set.size(), 0.0);
  root_survival_.assign(set.size(), std::vector<double>(kGridPoints, 0.0));
  for (std::size_t i = 0; i < set.size(); ++i) {
    const model::Task& task = set.task(i);
    grid_lo_[i] = task.bcec;
    grid_step_[i] = (task.wcec - task.bcec) /
                    static_cast<double>(kGridPoints - 1);
    const std::vector<double>& sorted = sorted_draws[i];
    for (std::size_t k = 0; k < kGridPoints; ++k) {
      const double x = task.bcec + grid_step_[i] * static_cast<double>(k);
      if (sorted.empty()) {
        // No calibration data: assume the worst (always reaches WCEC), which
        // degrades to the greedy stretch profile.
        root_survival_[i][k] = x < task.wcec ? 1.0 : 0.0;
        continue;
      }
      // First index with sorted[idx] > x; the tail fraction is survival.
      const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
      root_survival_[i][k] =
          std::cbrt(static_cast<double>(sorted.end() - it) /
                    static_cast<double>(sorted.size()));
    }
  }

  weight_.resize(bins_, 0.0);
  speed_.resize(bins_, 0.0);
  pinned_.resize(bins_, 0);
}

double ExpectedCasePolicy::RootSurvival(model::TaskIndex task,
                                        double cycles) const {
  // Drift stretch: the adaptor models the shifted law as f * X, so
  // Pr[f X > c] = Pr[X > c / f] evaluated on the base grid.
  const double x = cycles / scale_[task];
  const std::vector<double>& grid = root_survival_[task];
  const double step = grid_step_[task];
  if (step <= 0.0) {
    // Degenerate BCEC == WCEC task: deterministic workload.
    return x < grid_lo_[task] ? 1.0 : 0.0;
  }
  const double pos = (x - grid_lo_[task]) / step;
  if (pos <= 0.0) {
    return grid.front();
  }
  if (pos >= static_cast<double>(grid.size() - 1)) {
    return grid.back();
  }
  const std::size_t k = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(k);
  return grid[k] + frac * (grid[k + 1] - grid[k]);
}

DispatchDecision ExpectedCasePolicy::Dispatch(
    const DispatchContext& ctx) const {
  DispatchDecision decision;
  // Same release gate as GreedyReclaimPolicy: before its segment start the
  // static plan assigns the processor elsewhere; starting early would break
  // the feasibility argument.
  if (ctx.local_time < ctx.sub_release) {
    decision.not_before = ctx.sub_release;
    decision.voltage = dvs_->vmax();
    return decision;
  }
  const double window = ctx.sub_end_time - ctx.local_time;
  const double budget = ctx.budget_remaining;
  if (window <= 0.0 || budget <= 0.0) {
    decision.voltage = dvs_->vmax();  // degenerate window: no room to shape
    return decision;
  }

  // Local copies: the compiler cannot prove the scratch stores below leave
  // the members alone, and would reload them in every water-fill pass.
  const double smin = smin_;
  const double smax = smax_;
  if (budget / smax >= window) {
    // Even flat-out barely (or doesn't) fit: the whole window runs at Vmax,
    // exactly the greedy clamp.
    decision.voltage = dvs_->vmax();
    return decision;
  }

  // Condition on realised progress: the parent instance has consumed its
  // worst-case prefix up to this sub plus whatever this sub already ran.
  const double consumed =
      done_before_[ctx.sub_order] + (budgets_[ctx.sub_order] - budget);
  const double bin_w = budget / static_cast<double>(bins_);
  double total_weight = 0.0;
  for (std::size_t j = 0; j < bins_; ++j) {
    weight_[j] = RootSurvival(
        ctx.task, consumed + (static_cast<double>(j) + 0.5) * bin_w);
    total_weight += weight_[j];
  }
  if (weight_[0] <= 0.0 || total_weight <= 0.0) {
    // Progress is already past every calibrated draw: expected marginal
    // energy is ~0 everywhere, so fall back to the greedy stretch.
    decision.voltage = dvs_->VoltageForWork(budget, window);
    return decision;
  }
  ++dp_dispatches_;

  // Water-filling over the PACE rule s_j ∝ S_j^{-1/3} = 1 / weight_j
  // (weight_ already holds the cube roots): bins with zero weight cost
  // nothing at any speed, so they run at MaxSpeed to donate window time;
  // bins whose unconstrained optimum leaves [smin, smax] are pinned to the
  // violated bound and the rest re-normalised.  Each pass pins at least
  // one bin, so the loop runs at most bins_ passes.
  double pinned_time = 0.0;
  for (std::size_t j = 0; j < bins_; ++j) {
    if (weight_[j] <= 0.0) {
      pinned_[j] = 1;
      speed_[j] = smax;
      pinned_time += bin_w / smax;
    } else {
      pinned_[j] = 0;
    }
  }
  while (true) {
    double root_sum = 0.0;
    std::size_t free_bins = 0;
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0) {
        root_sum += weight_[j];
        ++free_bins;
      }
    }
    if (free_bins == 0) {
      break;
    }
    const double free_time = window - pinned_time;
    if (free_time <= 0.0) {
      // Pinned bins ate the window (can only happen within float noise of
      // the feasibility check above): run everything else flat out.
      for (std::size_t j = 0; j < bins_; ++j) {
        if (pinned_[j] == 0) {
          pinned_[j] = 1;
          speed_[j] = smax;
        }
      }
      break;
    }
    const double scale = bin_w * root_sum / free_time;
    bool repinned = false;
    // Pin max-speed violations first: they *consume* window time, so
    // resolving them before min-speed pins keeps every pass feasible.
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0 && scale / weight_[j] > smax) {
        pinned_[j] = 1;
        speed_[j] = smax;
        pinned_time += bin_w / smax;
        repinned = true;
      }
    }
    if (repinned) {
      continue;
    }
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0 && scale / weight_[j] < smin) {
        pinned_[j] = 1;
        speed_[j] = smin;
        pinned_time += bin_w / smin;
        repinned = true;
      }
    }
    if (repinned) {
      continue;
    }
    for (std::size_t j = 0; j < bins_; ++j) {
      if (pinned_[j] == 0) {
        speed_[j] = scale / weight_[j];
      }
    }
    break;
  }

  // Run the first bin's speed and cap the slice at the end of the
  // equal-speed prefix, so a flat profile dispatches once while a shaped
  // one re-dispatches exactly at its breakpoints.  The prefix is counted
  // in bins, not summed in cycles: a sum of bins_ widths can round below
  // the budget and cap a flat profile one rounding error short of it.
  std::size_t prefix = 1;
  while (prefix < bins_ && std::fabs(speed_[prefix] - speed_[0]) <= 1e-12) {
    ++prefix;
  }
  decision.voltage = dvs_->ClampVoltage(dvs_->VoltageForSpeed(speed_[0]));
  if (prefix < bins_) {
    decision.cycle_cap = bin_w * static_cast<double>(prefix);
  }
  return decision;
}

DispatchDecision VmaxPolicy::Dispatch(const DispatchContext&) const {
  DispatchDecision decision;
  decision.voltage = dvs_->vmax();
  return decision;
}

StaticOnlyPolicy::StaticOnlyPolicy(const fps::FullyPreemptiveSchedule& fps,
                                   const StaticSchedule& schedule,
                                   const model::DvsModel& dvs)
    : dvs_(&dvs) {
  const std::vector<double> starts = ComputeWorstStarts(fps, schedule, dvs);
  voltages_.resize(fps.sub_count(), dvs.vmin());
  for (std::size_t u = 0; u < fps.sub_count(); ++u) {
    const double window = schedule.end_time(u) - starts[u];
    voltages_[u] = dvs.VoltageForWork(schedule.worst_budget(u), window);
  }
}

DispatchDecision AnyPolicy::Dispatch(const DispatchContext& ctx) const {
  if (external_ != nullptr) {
    return external_->Dispatch(ctx);
  }
  return std::visit(
      [&ctx](const auto& policy) -> DispatchDecision {
        if constexpr (std::is_same_v<std::decay_t<decltype(policy)>,
                                     std::monostate>) {
          ACS_REQUIRE(false, "AnyPolicy holds no policy");
          return {};
        } else {
          return policy.Dispatch(ctx);
        }
      },
      builtin_);
}

DispatchDecision StaticOnlyPolicy::Dispatch(const DispatchContext& ctx) const {
  ACS_REQUIRE(ctx.sub_order < voltages_.size(),
              "sub-instance index out of range in StaticOnlyPolicy");
  DispatchDecision decision;
  // No early start, no reclamation: execute inside the planned window only.
  const double planned_release = ctx.sub_release;
  if (ctx.local_time < planned_release) {
    decision.not_before = planned_release;
  }
  decision.voltage = voltages_[ctx.sub_order];
  return decision;
}

}  // namespace dvs::sim
