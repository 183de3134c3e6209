// fleet-reuse: a multi-core grid through runner::RunGrid on two workers.
//
// Each batch is one grid: four fleet task sets x cores {2, 4} x partitioners
// {ffd, wfd, energy-greedy} x sigma {4, 8} under neighbor warm starts, with
// the acs-scenario and wcs arms, DPM sleep states and cross-hyper-period
// reallocation on.  Three passes run the same batches: cold (fresh
// workspaces, a SolveStore written back per batch), memory-warm (the same
// in-memory workspaces) and warm-boot (fresh workspaces pre-seeded from the
// stores the cold pass wrote).  The warm passes must reproduce the cold
// outcomes bit for bit.
//
// The harness reaches into the grid only through public extension points:
// audited method wrappers (plan span + sim::VerifyWorstCase), timed
// partitioner wrappers and a timed CsvSink.  Layers the grid calls
// internally (solves, calibration, simulation) are read from the library's
// own obs spans and counters in the traced run.
#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.h"
#include "core/method_registry.h"
#include "core/solve_store.h"
#include "dpm/dpm.h"
#include "dpm/reallocate.h"
#include "mp/partitioner.h"
#include "obs/trace.h"
#include "runner/csv_sink.h"
#include "runner/run_grid.h"
#include "stats/rng.h"
#include "workload/presets.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = dvs::core;
namespace model = dvs::model;
namespace runner = dvs::runner;

constexpr int kWorkers = 2;
constexpr std::size_t kSetsPerBatch = 4;
constexpr std::size_t kBatches = 8;  // distinct grids per run
constexpr std::int64_t kWarmSweeps = 2;  // warm passes per cold pass
// One round (every pass) on the reference machine.  Few grids and warm
// sweeps keep the rounds short, so that each grid is timed many times
// across the run and its best time falls in a fast spell of the machine
// (see plan_cold.cc).
constexpr double kRoundSeconds = 1.7;
constexpr std::int64_t kHyperPeriods = 60;
constexpr double kIdlePowerPerMs = 0.05;
// Draws the fleet sets, a fixed suite as in the single-core workloads; the
// run seed draws each grid's master seed (workload streams, calibration).
constexpr std::uint64_t kSuiteSeed = 2005;
constexpr const char* kArms[] = {"acs-scenario", "wcs"};
constexpr const char* kPartitioners[] = {"ffd", "wfd", "energy-greedy"};

/// The partitions the grid asked for, recorded in traced runs.
struct Probe {
  std::mutex mutex;
  std::vector<std::pair<model::TaskSet, dvs::mp::Partition>> partitions;
  std::int64_t powered_cores = 0;
};

/// A builtin partitioner whose calls are timed (and recorded when traced).
class TimedPartitioner final : public dvs::mp::Partitioner {
 public:
  TimedPartitioner(const dvs::mp::Partitioner& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  dvs::mp::Partition Assign(const model::TaskSet& set,
                            const model::DvsModel& dvs, int cores,
                            const model::IdlePower& idle) const override {
    dvs::mp::Partition partition = [&] {
      dvs::obs::Span span("mp.partition", "perfbench");
      return inner_.Assign(set, dvs, cores, idle);
    }();
    if (dvs::obs::TraceRecorder::Active() != nullptr) {
      std::lock_guard<std::mutex> lock(probe_.mutex);
      probe_.partitions.emplace_back(set, partition);
      probe_.powered_cores += partition.used_cores();
    }
    return partition;
  }

 private:
  const dvs::mp::Partitioner& inner_;
  Probe& probe_;
};

/// Wraps a CsvSink: times OnCell and records each worker's completions.
class TimedSink final : public runner::ResultSink {
 public:
  explicit TimedSink(const std::string& path)
      : csv_(path, /*scenario_column=*/true, /*solver_stats_columns=*/true,
             /*dpm_columns=*/true),
        start_(std::chrono::steady_clock::now()) {}

  void OnCell(const runner::ExperimentGrid& grid,
              const runner::CellResult& cell) override {
    {
      dvs::obs::Span span("runner.sink", "perfbench");
      csv_.OnCell(grid, cell);
    }
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    done_.push_back({std::this_thread::get_id(), cell.coord.cell_index, now});
  }

  /// Each cell's latency (the gap since its worker's previous completion)
  /// into `cell_ms` by cell index; returns the time workers sat idle after
  /// their last cell while the grid finished.
  double Finish(std::vector<double>& cell_ms) const {
    const auto end = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::thread::id> workers;
    double idle_ms = 0.0;
    for (std::size_t i = 0; i < done_.size(); ++i) {
      const std::thread::id worker = done_[i].worker;
      if (std::find(workers.begin(), workers.end(), worker) != workers.end()) {
        continue;
      }
      workers.push_back(worker);
      auto previous = start_;
      for (std::size_t j = i; j < done_.size(); ++j) {
        if (done_[j].worker == worker) {
          cell_ms.at(done_[j].cell) = Ms(previous, done_[j].time);
          previous = done_[j].time;
        }
      }
      idle_ms += Ms(previous, end);
    }
    // A worker that finished no cell idled for the whole run.
    idle_ms += static_cast<double>(kWorkers - std::min<int>(
                                                  kWorkers, workers.size())) *
               Ms(start_, end);
    return idle_ms;
  }

 private:
  struct Completion {
    std::thread::id worker;
    std::size_t cell;
    std::chrono::steady_clock::time_point time;
  };

  static double Ms(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  }

  runner::CsvSink csv_;
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;
  std::vector<Completion> done_;
};

struct Inputs {
  model::LinearDvsModel cpu = dvs::workload::DefaultModel();
  std::vector<model::TaskSet> sets;  // sets_per_batch per batch
  std::size_t sets_per_batch = kSetsPerBatch;
  dvs::dpm::Options dpm;
  std::string store_root;
};

Inputs Setup(const RunConfig& config, const std::string& store_root) {
  Inputs inputs;
  const std::size_t batches = config.smoke ? 2 : kBatches;
  inputs.sets_per_batch = config.smoke ? 1 : kSetsPerBatch;
  for (std::size_t i = 0; i < batches * inputs.sets_per_batch; ++i) {
    dvs::workload::RandomTaskSetOptions gen;
    gen.num_tasks = config.smoke ? 4 : 5;
    // Fleet demand 0.25 per core on two cores: the low-load regime where
    // DPM sleep and reallocation act, and where every partitioner places
    // every set.
    gen.utilization = 0.5;
    gen.bcec_wcec_ratio = 0.5;
    gen.multi_core = true;
    gen.max_sub_instances = 40;
    dvs::stats::Rng rng = dvs::stats::Rng(kSuiteSeed).ForkWith(
        0xf1ee0000ULL + static_cast<std::uint64_t>(i));
    inputs.sets.push_back(
        DrawInBand(gen, config.smoke ? 4 : 20, inputs.cpu, rng));
  }
  inputs.dpm.enabled = true;
  inputs.dpm.idle = model::IdlePower{kIdlePowerPerMs};
  inputs.dpm.sleep = dvs::dpm::ResolveSleepState("deep", inputs.dpm.idle);
  inputs.dpm.reallocate = true;
  inputs.store_root = FreshDir(store_root);
  return inputs;
}

/// One batch: its grid, store directory and the cold pass's state.
struct Batch {
  runner::ExperimentGrid grid;
  std::string dir;
  std::int64_t first_cell = 0;                  // gate id of its first cell
  std::vector<core::EvalWorkspace> workspaces;  // kept for the warm pass
  runner::GridResult cold;                      // first cold round
  std::vector<double> best_cell_ms;             // cold pass, per cell
};

/// The three passes' rates and the cold pass's per-cell latencies.
struct FleetRates {
  double cold = 0.0;
  double warm = 0.0;
  double boot = 0.0;
  std::vector<double> cell_ms;
  double tail_idle_ms = 0.0;
};

class FleetReuse {
 public:
  FleetReuse(const Inputs& inputs, std::uint64_t seed, Gate& gate)
      : inputs_(inputs), seed_(seed), gate_(gate) {
    for (const char* arm : kArms) {
      methods_.Register(arm, "audited builtin",
                        std::make_unique<AuditedMethod>(arm, gate));
    }
    for (const char* name : kPartitioners) {
      partitioners_.Register(
          name, "timed builtin",
          std::make_unique<TimedPartitioner>(
              dvs::mp::PartitionerRegistry::Builtin().Get(name), probe_));
    }
    for (std::size_t b = 0; b * inputs_.sets_per_batch < inputs_.sets.size();
         ++b) {
      batches_.push_back(std::make_unique<Batch>());
      batches_.back()->grid = MakeGrid(b);
      batches_.back()->dir = inputs_.store_root + "/b" + std::to_string(b);
      batches_.back()->first_cell = static_cast<std::int64_t>(
          b * batches_.back()->grid.CellCount());
    }
  }

  /// Interleaved rounds of the cold pass (fresh workspaces and an empty
  /// store per batch, written back), the memory-warm pass (the cold
  /// workspaces) and the warm-boot pass (fresh workspaces pre-seeded from
  /// the batch's store).  `after_round`, when set, runs untimed after
  /// every round.
  FleetRates Run(std::int64_t rounds, std::int64_t warm_sweeps,
                 const std::function<void()>& after_round = nullptr) {
    const std::size_t n = batches_.size();
    BestTimes cold(n);
    BestTimes warm(n);
    BestTimes boot(n);
    FleetRates rates;
    for (auto& batch : batches_) {
      batch->best_cell_ms.assign(batch->grid.CellCount(), 1e300);
    }
    for (std::int64_t round = 0; round < rounds; ++round) {
      for (std::size_t b = 0; b < n; ++b) {
        cold.Time(b, [&] { Cold(*batches_[b], rates); });
      }
      for (std::int64_t sweep = 0; sweep < warm_sweeps; ++sweep) {
        for (std::size_t b = 0; b < n; ++b) {
          warm.Time(b, [&] { Warm(*batches_[b], rates); });
        }
        for (std::size_t b = 0; b < n; ++b) {
          boot.Time(b, [&] { Boot(*batches_[b], rates); });
        }
      }
      if (after_round) {
        after_round();
      }
    }
    std::size_t cells = 0;
    for (const auto& batch : batches_) {
      cells += batch->grid.CellCount();
      rates.cell_ms.insert(rates.cell_ms.end(), batch->best_cell_ms.begin(),
                           batch->best_cell_ms.end());
    }
    // Batches are the timed unit; rates count the cells they hold.
    const double per_batch =
        static_cast<double>(cells) / static_cast<double>(n);
    rates.cold = per_batch * PassRate(n, rounds, 0.0, cold);
    rates.warm = per_batch * PassRate(n, rounds * warm_sweeps, 0.0, warm);
    rates.boot = per_batch * PassRate(n, rounds * warm_sweeps, 0.0, boot);
    return rates;
  }

  const std::vector<std::unique_ptr<Batch>>& batches() const {
    return batches_;
  }
  Probe& probe() { return probe_; }

  std::vector<std::string> StoreDirs() const {
    std::vector<std::string> dirs;
    for (const auto& batch : batches_) {
      dirs.push_back(batch->dir);
    }
    return dirs;
  }

  /// Cold-pass energy sums of the ACS and WCS arms.
  std::pair<double, double> Energies() const {
    double acs = 0.0;
    double wcs = 0.0;
    for (const auto& batch : batches_) {
      for (const runner::CellResult& cell : batch->cold.cells) {
        if (cell.ok()) {
          acs += cell.outcomes.front().measured_energy;
          wcs += cell.outcomes.back().measured_energy;
        }
      }
    }
    return {acs, wcs};
  }

 private:
  void Cold(Batch& batch, FleetRates& rates) {
    batch.workspaces = std::vector<core::EvalWorkspace>();
    std::unique_ptr<core::SolveStore> store;
    {
      dvs::obs::Span span("store.open", "perfbench");
      store = std::make_unique<core::SolveStore>(FreshDir(batch.dir));
    }
    std::vector<double> cell_ms;
    runner::GridResult result =
        RunGrid(batch, batch.workspaces, store.get(), "cold", rates, &cell_ms);
    for (std::size_t i = 0; i < cell_ms.size(); ++i) {
      batch.best_cell_ms[i] = std::min(batch.best_cell_ms[i], cell_ms[i]);
    }
    if (batch.cold.cells.empty()) {
      Check(result, nullptr, "cold", batch.first_cell);
      batch.cold = std::move(result);
    } else {
      Check(result, &batch.cold, "cold", batch.first_cell);
    }
    dvs::obs::Span span("store.writeback", "perfbench");
    store->WriteBack();
  }

  void Warm(Batch& batch, FleetRates& rates) {
    Check(RunGrid(batch, batch.workspaces, nullptr, "warm", rates, nullptr),
          &batch.cold, "warm", batch.first_cell);
  }

  void Boot(Batch& batch, FleetRates& rates) {
    std::unique_ptr<core::SolveStore> store;
    {
      dvs::obs::Span span("store.open", "perfbench");
      store = std::make_unique<core::SolveStore>(batch.dir, true);
    }
    std::vector<core::EvalWorkspace> fresh;
    Check(RunGrid(batch, fresh, store.get(), "boot", rates, nullptr),
          &batch.cold, "warm-boot", batch.first_cell);
  }

  runner::ExperimentGrid MakeGrid(std::size_t b) const {
    runner::ExperimentGrid grid;
    grid.dvs = &inputs_.cpu;
    for (std::size_t k = 0; k < inputs_.sets_per_batch; ++k) {
      const std::size_t index = b * inputs_.sets_per_batch + k;
      grid.sources.push_back(runner::FixedSource(
          "fleet-" + std::to_string(index), inputs_.sets[index]));
    }
    grid.core_counts = {2, 4};
    grid.partitioners.assign(std::begin(kPartitioners),
                             std::end(kPartitioners));
    grid.partitioner_registry = &partitioners_;
    grid.idle_power = inputs_.dpm.idle;
    grid.dpm = inputs_.dpm;
    grid.scenarios = {"bimodal"};
    grid.sigma_divisors = {4.0, 8.0};
    grid.warm_start = core::WarmStartPolicy::kNeighbor;
    grid.methods.assign(std::begin(kArms), std::end(kArms));
    grid.baseline = "wcs";
    grid.hyper_periods = kHyperPeriods;
    grid.master_seed =
        dvs::stats::Rng(seed_).ForkWith(static_cast<std::uint64_t>(b))
            .NextU64();
    return grid;
  }

  runner::GridResult RunGrid(Batch& batch,
                             std::vector<core::EvalWorkspace>& workspaces,
                             core::SolveStore* store, const char* pass,
                             FleetRates& rates, std::vector<double>* cell_ms) {
    TimedSink sink(batch.dir + "-" + pass + ".csv");
    runner::RunOptions options;
    options.threads = kWorkers;
    options.sink = &sink;
    options.workspaces = &workspaces;
    options.solve_store = store;
    runner::GridResult result = [&] {
      dvs::obs::Span span("runner.grid", "perfbench");
      return runner::RunGrid(batch.grid, methods_, options);
    }();
    std::vector<double> latencies(batch.grid.CellCount(), 1e300);
    rates.tail_idle_ms += sink.Finish(latencies);
    if (cell_ms != nullptr) {
      *cell_ms = std::move(latencies);
    }
    return result;
  }

  /// Gates every cell of one batch's grid; `first_cell` numbers them.
  void Check(const runner::GridResult& result, const runner::GridResult* cold,
             const char* pass, std::int64_t first_cell) {
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const runner::CellResult& cell = result.cells[i];
      Gate::Problem problem;
      if (!cell.ok()) {
        problem = {std::string(pass) + " cell error: " + cell.error};
      }
      if (problem.empty() && cold != nullptr) {
        const runner::CellResult& reference = cold->cells[i];
        bool same = reference.error == cell.error &&
                    reference.outcomes.size() == cell.outcomes.size();
        for (std::size_t arm = 0; same && arm < cell.outcomes.size(); ++arm) {
          same = SameBits(reference.outcomes[arm], cell.outcomes[arm]);
        }
        if (!same) {
          problem = {std::string(pass) + " outcome differs from the cold pass"};
        }
      }
      for (std::size_t arm = 0; arm < cell.outcomes.size() && problem.empty();
           ++arm) {
        problem = Gate::CheckOutcome(cell.outcomes[arm], kArms[arm]);
      }
      gate_.Cell(first_cell + static_cast<std::int64_t>(i), problem);
    }
  }

  const Inputs& inputs_;
  const std::uint64_t seed_;
  Gate& gate_;
  Probe probe_;
  core::MethodRegistry methods_;
  dvs::mp::PartitionerRegistry partitioners_;
  std::vector<std::unique_ptr<Batch>> batches_;
};

/// Work counts from the cold pass's cell results (DPM ledger, voltage
/// switches), over the traced round's three passes.  The grid simulates
/// inside its workers, so sim.jobs is derived: a cell with no miss
/// completes every job it releases, arms x hyper-periods x the set's
/// instances per hyper-period.
void AddColdOutcomes(const FleetReuse& fleet, const Inputs& inputs,
                     std::map<std::string, double>& counts) {
  double jobs = 0.0;
  double subs = 0.0;
  double sleeps = 0.0;
  double migrations = 0.0;
  double switches = 0.0;
  double weighted = 0.0;
  double cells = 0.0;
  for (std::size_t b = 0; b < fleet.batches().size(); ++b) {
    for (const runner::CellResult& cell : fleet.batches()[b]->cold.cells) {
      if (!cell.ok()) {
        continue;
      }
      ++cells;
      const model::TaskSet& set =
          inputs.sets[b * inputs.sets_per_batch + cell.coord.source];
      jobs += static_cast<double>(cell.outcomes.size()) *
              static_cast<double>(kHyperPeriods * set.TotalInstances());
      subs += static_cast<double>(cell.sub_instances);
      migrations += static_cast<double>(cell.outcomes.front().migrations);
      weighted += cell.outcomes.front().weighted_cores;
      for (const core::MethodOutcome& outcome : cell.outcomes) {
        sleeps += static_cast<double>(outcome.sleeps);
        switches += static_cast<double>(outcome.voltage_switches);
      }
    }
  }
  // The traced round evaluates every cell three times (cold, memory-warm,
  // warm-boot) with identical outcomes.
  constexpr double kPasses = 3.0;
  counts["fps.subs"] = subs;
  counts["sim.jobs"] = kPasses * jobs;
  counts["dpm.sleeps"] = kPasses * sleeps;
  counts["dpm.migrations"] = kPasses * migrations;
  counts["sim.voltage_switches"] = kPasses * switches;
  counts["dpm.weighted_cores"] = cells > 0.0 ? weighted / cells : 0.0;
}

/// Side probe after the traced passes: times the public SolveStore::Load
/// of every entry the cold pass wrote (span "store.load").  The warm-boot
/// pass makes the same calls inside the grid's workers, out of the
/// harness's reach; each entry's own set, model and solver options are
/// the lookup, read from the entry beforehand.
void ProbeStoreLoads(const std::vector<std::string>& dirs) {
  for (const std::string& dir : dirs) {
    const core::SolveStore store(dir, /*read_only=*/true);
    for (const std::uint64_t key : store.DiskKeys()) {
      const core::StoredCell entry =
          core::DeserializeStoredCell(ReadStoreEntry(store, key));
      dvs::obs::Span span("store.load", "perfbench");
      if (!store.Load(entry.set, entry.model, entry.scheduler).has_value()) {
        throw std::runtime_error("store entry does not load: " + dir);
      }
    }
  }
}

}  // namespace

void RunFleetReuse(const RunConfig& config, Gate& gate, Report& report) {
  const std::string store_root = config.work_dir + "/stores";
  Inputs inputs;
  report.info["threads"] = std::to_string(kWorkers);
  if (!config.trace) {
    SetupTimer setup;
    setup.Start(config.smoke ? 1 : kSetupBatches,
                [&] { inputs = Setup(config, store_root); });
    const std::string probe_dir = config.work_dir + "/setup-probe";
    FleetReuse fleet(inputs, config.seed, gate);
    const std::int64_t rounds = config.Rounds(kRoundSeconds);
    const FleetRates rates = fleet.Run(rounds, kWarmSweeps, [&] {
      setup.Batch([&] { Setup(config, probe_dir); });
    });
    EndToEnd e2e;
    e2e.setup_s = setup.MedianSeconds();
    e2e.cells_per_s = rates.cold;
    e2e.cell_ms = rates.cell_ms;
    e2e.warm_cells_per_s = rates.warm;
    e2e.warmboot_cells_per_s = rates.boot;
    std::tie(e2e.acs_energy, e2e.wcs_energy) = fleet.Energies();
    AddEndToEndMetrics(e2e, report);
    report.info["rounds"] = std::to_string(rounds);
    return;
  }

  // Traced run: one round, first untraced and then traced, so counts
  // repeat exactly and the difference is the tracing overhead.
  inputs = Setup(config, store_root);
  const auto timed_round = [&](FleetReuse& fleet) {
    const auto start = std::chrono::steady_clock::now();
    const FleetRates rates = fleet.Run(1, 1);
    return std::make_pair(SecondsSince(start), rates);
  };
  double untraced_s = 0.0;
  {
    FleetReuse untraced(inputs, config.seed, gate);
    untraced_s = timed_round(untraced).first;
  }

  TraceScope trace(/*main_shard=*/false);
  FleetReuse fleet(inputs, config.seed, gate);
  const auto [traced_s, rates] = timed_round(fleet);
  {
    // Side probe after the passes: the reallocation pass on the partitions
    // the grid made (the grid runs it inside mp::EvaluateFleet).
    std::lock_guard<std::mutex> lock(fleet.probe().mutex);
    for (const auto& [set, partition] : fleet.probe().partitions) {
      dvs::obs::Span span("dpm.consolidate", "perfbench");
      dvs::dpm::Consolidate(partition, set, inputs.cpu, inputs.dpm.idle);
    }
  }
  ProbeStoreLoads(fleet.StoreDirs());
  trace.Stop();

  std::map<std::string, double> counts;
  AddStoredSolves(fleet.StoreDirs(), counts);
  AddColdOutcomes(fleet, inputs, counts);
  {
    Probe& probe = fleet.probe();
    counts["mp.powered_cores"] =
        probe.partitions.empty()
            ? 0.0
            : static_cast<double>(probe.powered_cores) /
                  static_cast<double>(probe.partitions.size());
  }
  counts["runner.tail_idle_ms"] = rates.tail_idle_ms;
  ReportTrace(trace, counts, traced_s, untraced_s, config, report);
}

}  // namespace perfbench
