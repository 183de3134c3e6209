#include "runner/run_grid.h"

#include <gtest/gtest.h>

#include "runner/experiment_grid.h"
#include "runner/golden_grids.h"
#include "util/error.h"
#include "workload/presets.h"
#include "workload/random_taskset.h"

namespace dvs::runner {
namespace {

ExperimentGrid SmallGrid(const model::DvsModel& dvs) {
  // Tiny cells keep the full NLP solves test-sized: 2 tasks and a hard cap
  // on the expansion size.
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-2", gen, 3),
                  FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.sigma_divisors = {6.0, 10.0};
  grid.workload_seeds = {0, 1};
  grid.methods = {"acs", "wcs", "static-vmax"};
  grid.hyper_periods = 10;
  grid.master_seed = 7;
  return grid;
}

TEST(ExperimentGrid, CellCountAndCoordRoundTrip) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = SmallGrid(cpu);
  // (3 replicates + 1 fixed) x 1 util x 2 sigmas x 2 seeds.
  ASSERT_EQ(grid.CellCount(), 16u);

  for (std::size_t i = 0; i < grid.CellCount(); ++i) {
    const CellCoord coord = grid.Coord(i);
    EXPECT_EQ(coord.cell_index, i);
    EXPECT_LT(coord.source, grid.sources.size());
    EXPECT_LT(coord.replicate, grid.sources[coord.source].Replicates());
    EXPECT_LT(coord.sigma_index, grid.sigma_divisors.size());
    EXPECT_LT(coord.seed_index, grid.workload_seeds.size());
  }
  // The last cell is the last replicate of the last source.
  const CellCoord last = grid.Coord(grid.CellCount() - 1);
  EXPECT_EQ(last.source, 1u);
  EXPECT_EQ(last.sigma_index, 1u);
  EXPECT_EQ(last.seed_index, 1u);
  EXPECT_THROW(grid.Coord(grid.CellCount()), util::InvalidArgumentError);
}

TEST(ExperimentGrid, UtilizationAxisSkipsFixedSources) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  ExperimentGrid grid = SmallGrid(cpu);
  grid.utilizations = {0.4, 0.6, 0.8};
  // Random source: 3 replicates x 3 utils x 2 sigmas x 2 seeds = 36 cells.
  // Fixed source ignores the utilization axis: 1 x 2 x 2 = 4 cells.
  ASSERT_EQ(grid.CellCount(), 40u);
  for (std::size_t i = 0; i < grid.CellCount(); ++i) {
    const CellCoord coord = grid.Coord(i);
    EXPECT_EQ(coord.cell_index, i);
    if (grid.sources[coord.source].fixed.has_value()) {
      EXPECT_EQ(coord.util_index, 0u) << "cell " << i;
    }
  }
}

TEST(ExperimentGrid, ValidateRejectsBadGrids) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();

  ExperimentGrid grid = SmallGrid(cpu);
  grid.Validate(registry);  // the baseline grid is fine

  ExperimentGrid no_dvs = SmallGrid(cpu);
  no_dvs.dvs = nullptr;
  EXPECT_THROW(no_dvs.Validate(registry), util::InvalidArgumentError);

  ExperimentGrid unknown_method = SmallGrid(cpu);
  unknown_method.methods = {"acs", "definitely-not-a-method"};
  EXPECT_THROW(unknown_method.Validate(registry), util::InvalidArgumentError);

  ExperimentGrid bad_baseline = SmallGrid(cpu);
  bad_baseline.methods = {"acs", "static-vmax"};  // baseline "wcs" missing
  EXPECT_THROW(bad_baseline.Validate(registry), util::InvalidArgumentError);
}

TEST(RunGrid, UnknownMethodFailsBeforeRunningCells) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  ExperimentGrid grid = SmallGrid(cpu);
  grid.methods = {"wcs", "no-such-method"};
  EXPECT_THROW(RunGrid(grid), util::InvalidArgumentError);
}

// The headline determinism guarantee: a multi-threaded run is bit-identical
// to the serial run, cell by cell, because every cell derives its rng stream
// from (master_seed, cell_index) alone and aggregation happens post-hoc in
// cell order.
TEST(RunGrid, FourThreadsBitIdenticalToOneThread) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = SmallGrid(cpu);

  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;

  const GridResult a = RunGrid(grid, serial);
  const GridResult b = RunGrid(grid, parallel);

  ASSERT_EQ(a.cells.size(), grid.CellCount());
  ASSERT_EQ(b.cells.size(), grid.CellCount());
  EXPECT_EQ(a.failed_cells, 0u);
  EXPECT_EQ(b.failed_cells, 0u);

  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& ca = a.cells[i];
    const CellResult& cb = b.cells[i];
    ASSERT_EQ(ca.outcomes.size(), grid.methods.size()) << "cell " << i;
    ASSERT_EQ(cb.outcomes.size(), grid.methods.size()) << "cell " << i;
    EXPECT_EQ(ca.sub_instances, cb.sub_instances) << "cell " << i;
    for (std::size_t m = 0; m < grid.methods.size(); ++m) {
      // Bitwise equality, not near-equality: the parallel run must execute
      // the exact same arithmetic per cell.
      EXPECT_EQ(ca.outcomes[m].measured_energy, cb.outcomes[m].measured_energy)
          << "cell " << i << " method " << grid.methods[m];
      EXPECT_EQ(ca.outcomes[m].predicted_energy,
                cb.outcomes[m].predicted_energy)
          << "cell " << i << " method " << grid.methods[m];
      EXPECT_EQ(ca.outcomes[m].deadline_misses, cb.outcomes[m].deadline_misses)
          << "cell " << i << " method " << grid.methods[m];
    }
  }

  // Deterministic aggregates too: merged in cell order, independent of the
  // completion order.
  for (std::size_t m = 0; m < grid.methods.size(); ++m) {
    const MethodAggregate agg_a = a.Aggregate(grid, m);
    const MethodAggregate agg_b = b.Aggregate(grid, m);
    EXPECT_EQ(agg_a.measured_energy.count(), agg_b.measured_energy.count());
    EXPECT_EQ(agg_a.measured_energy.mean(), agg_b.measured_energy.mean());
    if (m != grid.BaselineIndex()) {
      EXPECT_EQ(agg_a.improvement.mean(), agg_b.improvement.mean());
    }
    EXPECT_EQ(agg_a.deadline_misses, agg_b.deadline_misses);
  }
}

TEST(RunGrid, RepeatedRunsAreIdentical) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  ExperimentGrid grid = SmallGrid(cpu);
  grid.sources = {grid.sources[1]};  // fixed set only: fast
  grid.sigma_divisors = {6.0};

  RunOptions options;
  options.threads = 2;
  const GridResult a = RunGrid(grid, options);
  const GridResult b = RunGrid(grid, options);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    for (std::size_t m = 0; m < grid.methods.size(); ++m) {
      EXPECT_EQ(a.cells[i].outcomes[m].measured_energy,
                b.cells[i].outcomes[m].measured_energy);
    }
  }
}

TEST(RunGrid, SinkSeesEveryCellAndAggregatesImprovement) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  ExperimentGrid grid = SmallGrid(cpu);
  grid.sources = {grid.sources[1]};  // fixed set
  grid.sigma_divisors = {6.0};

  ProgressSink sink;
  RunOptions options;
  options.threads = 2;
  options.sink = &sink;
  const GridResult result = RunGrid(grid, options);

  EXPECT_EQ(sink.completed(), grid.CellCount());
  EXPECT_EQ(sink.failed(), 0u);
  EXPECT_EQ(sink.MethodEnergy(0).count(), grid.CellCount());

  // static-vmax is the no-DVS ceiling, so its "improvement" over the
  // reclaiming WCS baseline is strictly negative.  (ACS-vs-WCS signs vary
  // on tiny sets — the paper's win needs task counts this test avoids.)
  const std::size_t acs = 0;
  const std::size_t vmax = 2;
  EXPECT_EQ(result.Aggregate(grid, acs).improvement.count(), grid.CellCount());
  EXPECT_LT(result.Aggregate(grid, vmax).improvement.mean(), 0.0);
  // Per-source filtering covers the single source.
  EXPECT_EQ(result.Aggregate(grid, acs, 0).measured_energy.count(),
            grid.CellCount());
}

// DESIGN.md §5's failure-cell contract: a cell whose task-set draw is
// infeasible records a util::Error on that cell, does not abort the grid,
// and is excluded from GridResult::Aggregate.
TEST(RunGrid, FailedCellsAreRecordedAndExcludedFromAggregates) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  workload::RandomTaskSetOptions doomed;
  doomed.num_tasks = 2;
  doomed.bcec_wcec_ratio = 0.5;
  doomed.max_sub_instances = 0;  // every draw rejected -> SolverError
  doomed.max_attempts = 3;

  ExperimentGrid grid = SmallGrid(cpu);
  grid.sources = {RandomSource("doomed", doomed, 2),
                  grid.sources[1]};  // the fixed set keeps succeeding
  grid.sigma_divisors = {6.0};
  grid.workload_seeds = {0};
  grid.methods = {"acs", "wcs"};

  ProgressSink sink;
  RunOptions options;
  options.threads = 2;
  options.sink = &sink;
  const GridResult result = RunGrid(grid, options);

  ASSERT_EQ(result.cells.size(), 3u);
  EXPECT_EQ(result.failed_cells, 2u);
  EXPECT_EQ(sink.failed(), 2u);
  EXPECT_EQ(sink.completed(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(result.cells[i].ok());
    EXPECT_NE(result.cells[i].error.find("attempt budget"), std::string::npos)
        << result.cells[i].error;
    EXPECT_TRUE(result.cells[i].outcomes.empty());
  }
  EXPECT_TRUE(result.cells[2].ok());

  // Aggregates cover the surviving cell only.
  for (std::size_t m = 0; m < grid.methods.size(); ++m) {
    const MethodAggregate aggregate = result.Aggregate(grid, m);
    EXPECT_EQ(aggregate.measured_energy.count(), 1);
    EXPECT_GT(aggregate.measured_energy.mean(), 0.0);
  }
  // Per-source filtering sees zero successful cells for the doomed source.
  EXPECT_EQ(result.Aggregate(grid, 0, 0).measured_energy.count(), 0);
}

ExperimentGrid MultiCoreGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 5;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 40;  // pro-rata for the fleet demand

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-5", gen, 2)};
  grid.utilizations = {1.2};
  grid.core_counts = {2, 4};
  grid.partitioners = {"ffd", "wfd"};
  grid.idle_power.power_per_ms = 0.1;
  grid.methods = {"acs", "wcs"};
  grid.hyper_periods = 5;
  grid.master_seed = 11;
  return grid;
}

TEST(ExperimentGrid, MultiCoreAxesRoundTripAndShareTaskSets) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = MultiCoreGrid(cpu);
  // 2 replicates x 1 util x 2 cores x 2 partitioners.
  ASSERT_EQ(grid.CellCount(), 8u);
  for (std::size_t i = 0; i < grid.CellCount(); ++i) {
    const CellCoord coord = grid.Coord(i);
    EXPECT_EQ(coord.cell_index, i);
    EXPECT_LT(coord.core_index, grid.core_counts.size());
    EXPECT_LT(coord.partitioner_index, grid.partitioners.size());
  }
  // Cells differing only in the core/partitioner axes share the set index,
  // and with it a bit-identical task-set draw (paired comparisons).
  const CellCoord first = grid.Coord(0);
  const model::TaskSet reference = grid.MaterializeTaskSet(first);
  for (std::size_t i = 1; i < 4; ++i) {
    const CellCoord coord = grid.Coord(i);
    EXPECT_EQ(coord.replicate, first.replicate);
    EXPECT_EQ(grid.SetIndex(coord), grid.SetIndex(first));
    const model::TaskSet set = grid.MaterializeTaskSet(coord);
    ASSERT_EQ(set.size(), reference.size());
    for (std::size_t t = 0; t < set.size(); ++t) {
      EXPECT_EQ(set.task(t).wcec, reference.task(t).wcec);
      EXPECT_EQ(set.task(t).period, reference.task(t).period);
    }
  }
  // The next replicate draws a different set.
  EXPECT_NE(grid.SetIndex(grid.Coord(4)), grid.SetIndex(first));
}

TEST(ExperimentGrid, ValidateChecksMultiCoreAxes) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();

  ExperimentGrid grid = MultiCoreGrid(cpu);
  grid.Validate(registry);

  ExperimentGrid bad_partitioner = MultiCoreGrid(cpu);
  bad_partitioner.partitioners = {"ffd", "definitely-not-a-partitioner"};
  EXPECT_THROW(bad_partitioner.Validate(registry),
               util::InvalidArgumentError);

  ExperimentGrid bad_cores = MultiCoreGrid(cpu);
  bad_cores.core_counts = {2, 0};
  EXPECT_THROW(bad_cores.Validate(registry), util::InvalidArgumentError);

  ExperimentGrid too_demanding = MultiCoreGrid(cpu);
  too_demanding.utilizations = {4.5};  // above the 4-core fleet capacity
  EXPECT_THROW(too_demanding.Validate(registry), util::InvalidArgumentError);

  // Single-core grids keep the paper's (0, 1) admission.
  ExperimentGrid single = MultiCoreGrid(cpu);
  single.core_counts = {1};
  single.utilizations = {1.2};
  EXPECT_THROW(single.Validate(registry), util::InvalidArgumentError);
}

// The determinism guarantee extended to multi-core cells: an m=4 grid run
// on four threads is bit-identical to the serial run.
TEST(RunGrid, MultiCoreGridFourThreadsBitIdenticalToOneThread) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = MultiCoreGrid(cpu);

  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;

  const GridResult a = RunGrid(grid, serial);
  const GridResult b = RunGrid(grid, parallel);

  ASSERT_EQ(a.cells.size(), grid.CellCount());
  ASSERT_EQ(b.cells.size(), grid.CellCount());
  EXPECT_EQ(a.failed_cells, b.failed_cells);

  std::size_t succeeded = 0;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& ca = a.cells[i];
    const CellResult& cb = b.cells[i];
    ASSERT_EQ(ca.ok(), cb.ok()) << "cell " << i;
    EXPECT_EQ(ca.error, cb.error) << "cell " << i;
    if (!ca.ok()) {
      continue;
    }
    ++succeeded;
    EXPECT_EQ(ca.sub_instances, cb.sub_instances) << "cell " << i;
    ASSERT_EQ(ca.outcomes.size(), grid.methods.size()) << "cell " << i;
    for (std::size_t m = 0; m < grid.methods.size(); ++m) {
      EXPECT_EQ(ca.outcomes[m].measured_energy, cb.outcomes[m].measured_energy)
          << "cell " << i << " method " << grid.methods[m];
      EXPECT_EQ(ca.outcomes[m].predicted_energy,
                cb.outcomes[m].predicted_energy)
          << "cell " << i << " method " << grid.methods[m];
      EXPECT_EQ(ca.outcomes[m].deadline_misses, cb.outcomes[m].deadline_misses)
          << "cell " << i << " method " << grid.methods[m];
    }
  }
  // The grid must actually exercise the fleet path.
  EXPECT_GT(succeeded, 0u);
}

ExperimentGrid ScenarioGrid(const model::DvsModel& dvs) {
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2;
  gen.bcec_wcec_ratio = 0.3;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &dvs;
  grid.sources = {RandomSource("random-2", gen, 1),
                  FixedSource("tiny-fixed", TinyFixedSet(dvs))};
  grid.scenarios = workload::ScenarioRegistry::Builtin().Names();
  // A scenario-conditioned arm rides along so the thread/workspace
  // bit-equality below also covers calibration + the value-keyed planned
  // solve cache (whose hits depend on which worker ran the sibling cell).
  grid.methods = {"acs", "wcs", "acs-scenario"};
  grid.planning.calibration_samples = 128;
  grid.hyper_periods = 5;
  grid.master_seed = 19;
  return grid;
}

TEST(ExperimentGrid, ScenarioAxisRoundTripsAndSharesStreams) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = ScenarioGrid(cpu);
  // 2 sources x 6 scenarios.
  ASSERT_EQ(grid.CellCount(), 12u);
  for (std::size_t i = 0; i < grid.CellCount(); ++i) {
    const CellCoord coord = grid.Coord(i);
    EXPECT_EQ(coord.cell_index, i);
    EXPECT_LT(coord.scenario_index, grid.scenarios.size());
  }
  // Cells differing only on the scenario axis share the set index — and
  // through it both the task-set draw and the workload-seed label (the
  // paired-draw seeding contract).
  const CellCoord first = grid.Coord(0);
  const ExperimentGrid::CellStreams reference = grid.Streams(first);
  for (std::size_t i = 1; i < grid.scenarios.size(); ++i) {
    const CellCoord coord = grid.Coord(i);
    EXPECT_EQ(coord.scenario_index, i);
    EXPECT_EQ(grid.SetIndex(coord), grid.SetIndex(first));
    EXPECT_EQ(grid.Streams(coord).workload_seed, reference.workload_seed);
  }
}

TEST(ExperimentGrid, ValidateChecksScenarioAxis) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const core::MethodRegistry& registry = core::MethodRegistry::Builtin();

  ExperimentGrid grid = ScenarioGrid(cpu);
  grid.Validate(registry);

  ExperimentGrid unknown = ScenarioGrid(cpu);
  unknown.scenarios = {"iid-normal", "definitely-not-a-scenario"};
  EXPECT_THROW(unknown.Validate(registry), util::InvalidArgumentError);

  ExperimentGrid empty = ScenarioGrid(cpu);
  empty.scenarios = {};
  EXPECT_THROW(empty.Validate(registry), util::InvalidArgumentError);

  // A custom registry resolves names the built-ins lack.
  workload::ScenarioRegistry custom;
  workload::RegisterBuiltinScenarios(custom);
  custom.Register("my-trace", "test trace",
                  workload::MakeTraceScenario({0.5}));
  ExperimentGrid with_custom = ScenarioGrid(cpu);
  with_custom.scenario_registry = &custom;
  with_custom.scenarios = {"iid-normal", "my-trace"};
  with_custom.Validate(registry);
}

// The determinism guarantee on the scenarios axis: every scenario's cells
// are bit-identical between a 4-thread and a 1-thread run, and between a
// fresh-workspace and a reused-workspace run.
TEST(RunGrid, ScenarioAxisBitIdenticalAcrossThreadsAndWorkspaces) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const ExperimentGrid grid = ScenarioGrid(cpu);

  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  // Reused workspaces: the same vector serves two consecutive runs, so the
  // second run hits every per-set solve cache warm.
  std::vector<core::EvalWorkspace> workspaces;
  RunOptions reused;
  reused.threads = 1;
  reused.workspaces = &workspaces;

  const GridResult a = RunGrid(grid, serial);
  const GridResult b = RunGrid(grid, parallel);
  RunGrid(grid, reused);  // warm the workspaces
  const GridResult c = RunGrid(grid, reused);

  ASSERT_EQ(a.cells.size(), grid.CellCount());
  EXPECT_EQ(a.failed_cells, 0u);
  for (const GridResult* other : {&b, &c}) {
    ASSERT_EQ(other->cells.size(), a.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
      const CellResult& ca = a.cells[i];
      const CellResult& cb = other->cells[i];
      const std::string& scenario =
          grid.scenarios[ca.coord.scenario_index];
      ASSERT_EQ(ca.outcomes.size(), cb.outcomes.size())
          << "cell " << i << " (" << scenario << ")";
      for (std::size_t m = 0; m < ca.outcomes.size(); ++m) {
        EXPECT_EQ(ca.outcomes[m].measured_energy,
                  cb.outcomes[m].measured_energy)
            << "cell " << i << " (" << scenario << ") method "
            << grid.methods[m];
        EXPECT_EQ(ca.outcomes[m].predicted_energy,
                  cb.outcomes[m].predicted_energy)
            << "cell " << i << " (" << scenario << ") method "
            << grid.methods[m];
        EXPECT_EQ(ca.outcomes[m].deadline_misses,
                  cb.outcomes[m].deadline_misses)
            << "cell " << i << " (" << scenario << ") method "
            << grid.methods[m];
      }
    }
  }

  // Scenarios genuinely differ: on the shared task set and seed, at least
  // one scenario's ACS energy departs from the iid-normal cell's.
  bool any_difference = false;
  for (std::size_t i = 1; i < grid.scenarios.size(); ++i) {
    if (a.cells[i].outcomes[0].measured_energy !=
        a.cells[0].outcomes[0].measured_energy) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// The registry's iid-normal scenario is byte-identical to the
// null-scenario fallback (the pre-scenario pipeline): RunGrid always
// resolves a registry entry, so the guarantee that matters is at the
// EvaluateMethod level, where options.scenario == nullptr takes the
// legacy TruncatedNormalWorkload path directly.
TEST(RunGrid, IidNormalScenarioMatchesDefaultPipeline) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  const model::TaskSet set = TinyFixedSet(cpu);
  const fps::FullyPreemptiveSchedule fps(set);
  const core::MethodRegistry& methods = core::MethodRegistry::Builtin();

  core::ExperimentOptions options;  // outlives both contexts below
  options.hyper_periods = 10;
  options.seed = 5;

  for (const char* name : {"acs", "wcs", "greedy-reclaim"}) {
    const core::ScheduleMethod& method = methods.Get(name);

    core::MethodContext legacy_context(fps, cpu, options.scheduler);
    options.scenario = nullptr;  // the pre-scenario pipeline
    const core::MethodOutcome legacy =
        EvaluateMethod(method, legacy_context, options);

    core::MethodContext scenario_context(fps, cpu, options.scheduler);
    options.scenario =
        &workload::ScenarioRegistry::Builtin().Get("iid-normal");
    const core::MethodOutcome via_registry =
        EvaluateMethod(method, scenario_context, options);

    EXPECT_EQ(legacy.measured_energy, via_registry.measured_energy) << name;
    EXPECT_EQ(legacy.predicted_energy, via_registry.predicted_energy)
        << name;
    EXPECT_EQ(legacy.deadline_misses, via_registry.deadline_misses) << name;
  }
}

// Determinism with the online arms and mid-run drift replanning enabled:
// a 4-thread run is bit-identical to the serial run.  Drift replans happen
// inside a cell's evaluation from state derived only from (master_seed,
// cell_index) — the EWMA is fed by the cell's own realised cycles and the
// recalibration draws from the cell's seeded streams — so which worker
// executes the cell cannot change the arithmetic.
TEST(RunGrid, OnlineDriftReplanningFourThreadsBitIdenticalToOneThread) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  ExperimentGrid grid = ScenarioGrid(cpu);
  grid.methods = {"acs-online", "wcs", "acs-online-drift"};
  // Volatile scenarios plus a hair-trigger detector: the drift arm must
  // actually replan mid-run, not just carry the knob.
  grid.scenarios = {"heavy-tail", "correlated", "bursty"};
  grid.online.drift_threshold = 0.05;
  grid.online.drift_ewma = 0.5;
  grid.hyper_periods = 8;

  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;

  const GridResult a = RunGrid(grid, serial);
  const GridResult b = RunGrid(grid, parallel);

  ASSERT_EQ(a.cells.size(), grid.CellCount());
  ASSERT_EQ(b.cells.size(), grid.CellCount());
  EXPECT_EQ(a.failed_cells, 0u);
  EXPECT_EQ(b.failed_cells, 0u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& ca = a.cells[i];
    const CellResult& cb = b.cells[i];
    ASSERT_EQ(ca.outcomes.size(), grid.methods.size()) << "cell " << i;
    ASSERT_EQ(cb.outcomes.size(), grid.methods.size()) << "cell " << i;
    for (std::size_t m = 0; m < grid.methods.size(); ++m) {
      EXPECT_EQ(ca.outcomes[m].measured_energy, cb.outcomes[m].measured_energy)
          << "cell " << i << " method " << grid.methods[m];
      EXPECT_EQ(ca.outcomes[m].predicted_energy,
                cb.outcomes[m].predicted_energy)
          << "cell " << i << " method " << grid.methods[m];
      EXPECT_EQ(ca.outcomes[m].deadline_misses, cb.outcomes[m].deadline_misses)
          << "cell " << i << " method " << grid.methods[m];
    }
  }
}

TEST(RunGrid, UtilizationAxisAppliesToRandomSources) {
  const model::LinearDvsModel cpu = workload::DefaultModel();
  workload::RandomTaskSetOptions gen;
  gen.num_tasks = 2;
  gen.bcec_wcec_ratio = 0.5;
  gen.max_sub_instances = 24;

  ExperimentGrid grid;
  grid.dvs = &cpu;
  grid.sources = {RandomSource("random-2", gen, 2)};
  grid.utilizations = {0.4, 0.8};
  grid.methods = {"wcs", "static-vmax"};
  grid.baseline = "wcs";
  grid.hyper_periods = 10;

  const GridResult result = RunGrid(grid, RunOptions{});
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.failed_cells, 0u);
  // The utilisation axis must reach the generator: the materialised task
  // set of every cell carries the axis value, not the source default.
  // (Cells at different axis positions are independent draws — the grid
  // seeds by cell index — so cross-cell energy comparisons would be a
  // seed lottery; this structural check is what the axis guarantees.)
  for (std::size_t replicate = 0; replicate < 2; ++replicate) {
    const CellResult& low = result.cells[replicate * 2 + 0];
    const CellResult& high = result.cells[replicate * 2 + 1];
    ASSERT_EQ(low.coord.util_index, 0u);
    ASSERT_EQ(high.coord.util_index, 1u);
    EXPECT_NEAR(grid.MaterializeTaskSet(low.coord).Utilization(cpu), 0.4,
                1e-6);
    EXPECT_NEAR(grid.MaterializeTaskSet(high.coord).Utilization(cpu), 0.8,
                1e-6);
  }
}

}  // namespace
}  // namespace dvs::runner
