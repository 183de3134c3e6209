// The benchmark's workloads.  Each runs closed-loop (the next cell starts
// when the previous one finished) and fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/// Distinct paper-generator sets across the Fig. 6a axes, each planned
/// (WCS + ACS), audited and briefly simulated; one thread.
void RunPlanCold(const RunConfig& config, Gate& gate, Report& report);

/// CNC, GAP and random sets planned once and run over long DPM missions
/// under bimodal / bursty workloads (acs, acs-online, wcs); one thread.
void RunDispatchLong(const RunConfig& config, Gate& gate, Report& report);

/// A multi-core grid through runner::RunGrid on two workers: cold pass
/// writing a SolveStore, memory-warm re-runs and warm-boot re-runs.
void RunFleetReuse(const RunConfig& config, Gate& gate, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
