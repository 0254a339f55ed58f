#pragma once

/// \file forecast.h
/// Workload-forecast representation. MB2 assumes a forecasting subsystem
/// (Ma et al., SIGMOD'18) supplies, per fixed interval, the expected arrival
/// rate of each known query template; it never needs exact arrival times
/// (Sec 3). Benches construct forecasts directly from their ground-truth
/// schedules ("perfect forecast", as in Sec 8.7).

#include <memory>
#include <string>
#include <vector>

#include "plan/plan_node.h"

namespace mb2 {

/// One query template forecast to arrive during the interval.
struct ForecastEntry {
  const PlanNode *plan = nullptr;  ///< cached prepared-statement plan
  double arrival_rate = 0.0;       ///< executions per second
  std::string label;               ///< template name (diagnostics)
};

struct WorkloadForecast {
  double interval_s = 10.0;     ///< forecast granularity
  uint32_t num_threads = 1;     ///< worker threads executing the workload
  std::vector<ForecastEntry> entries;
};

}  // namespace mb2
