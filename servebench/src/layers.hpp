// The traced run: per-layer metrics, each taken by timing or reading a
// layer's public function or endpoint from outside it.
#pragma once

#include "harness.hpp"

namespace servebench {

int run_traced(const RunOptions& options, const ServedModel& served,
               const Workload& workload, Report& result, Report& extra,
               std::size_t* attempted, std::size_t* failed);

}  // namespace servebench
