#include "runner/golden_grids.h"

#include "dpm/dpm.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::runner {

model::TaskSet TinyFixedSet(const model::DvsModel& dvs) {
  model::Task a;
  a.name = "a";
  a.period = 10;
  a.wcec = 8.0;
  a.acec = 5.0;
  a.bcec = 2.0;
  model::Task b;
  b.name = "b";
  b.period = 20;
  b.wcec = 12.0;
  b.acec = 8.0;
  b.bcec = 4.0;
  return workload::ScaleToUtilization({a, b}, dvs, 0.6);
}

ExperimentGrid GoldenSmokeGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-2", gen, 2),
                  FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.sigma_divisors = {6.0, 10.0};
  grid.workload_seeds = {0, 1};
  grid.methods = {"acs", "wcs", "static-vmax"};
  grid.hyper_periods = 10;
  grid.master_seed = 7;
  return grid;
}

ExperimentGrid GoldenPlanningGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 3;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-3", gen, 1),
                  FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.scenarios = {"iid-normal", "heavy-tail", "bimodal"};
  grid.methods = {"acs", "acs-scenario", "acs-quantile", "acs-mixture",
                  "wcs"};
  grid.baseline = "acs";
  grid.planning.calibration_samples = 256;
  grid.planning.mixture_samples = 4;
  grid.hyper_periods = 10;
  grid.master_seed = 11;
  return grid;
}

ExperimentGrid GoldenOnlineGrid(const model::DvsModel& dvs) {
  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.scenarios = {"bimodal"};
  grid.workload_seeds = {0, 1};
  grid.methods = {"acs", "acs-online", "acs-online-drift"};
  grid.baseline = "acs";
  grid.planning.calibration_samples = 256;
  grid.online.drift_threshold = 0.05;
  grid.idle_power.power_per_ms = 0.05;
  grid.dpm.enabled = true;
  grid.dpm.sleep = dpm::ResolveSleepState("deep", grid.idle_power);
  grid.hyper_periods = 20;
  grid.master_seed = 13;
  return grid;
}

}  // namespace dvs::runner
