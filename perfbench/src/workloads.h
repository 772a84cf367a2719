// The perfbench workloads. Each fills `report` with its metrics, exact
// counters, operation counts and correctness gates. See README.md for what
// each one measures and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Closed loop over an unsharded HNSW index (core + methods dominate).
void RunKnnClosed(const Config& config, Report* report);
/// Open-loop Poisson arrivals against a replicated sharded index behind a
/// serve::Frontend (shard + serve admission dominate).
void RunShardPoisson(const Config& config, Report* report);
/// Searches beside a stream of WAL-logged inserts and deletes, then crash
/// recovery (io + serve update path dominate).
void RunLiveRw(const Config& config, Report* report);
/// Exact work counters of a small fixed problem, for comparing SIMD levels
/// (run.py runs it under GASS_SIMD_LEVEL=scalar and the default level).
void RunSimdCheck(const Config& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
