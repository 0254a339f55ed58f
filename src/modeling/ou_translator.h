#pragma once

/// \file ou_translator.h
/// Extracts OUs and their input features from query plans and self-driving
/// actions (Sec 6.1). A plan's OUs come from the same per-node list the
/// executors record training data from (modeling/node_ous.h): the
/// translator fills each node's row counts from the optimizer's cardinality
/// estimates, where execution fills them with what it measured.

#include <vector>

#include "catalog/settings.h"
#include "modeling/node_ous.h"
#include "modeling/operating_unit.h"
#include "plan/cardinality_estimator.h"
#include "plan/plan_node.h"
#include "selfdriving/action.h"
#include "workload/forecast.h"

namespace mb2 {

class OuTranslator {
 public:
  OuTranslator(Catalog *catalog, CardinalityEstimator *estimator,
               SettingsManager *settings)
      : catalog_(catalog), estimator_(estimator), settings_(settings) {}

  /// OUs for one execution of a (finalized, estimated) query plan in the
  /// execution_mode knob value `exec_mode_override` (0 interpret, 1
  /// compiled, 2 vectorized); < 0 uses the current knob value.
  std::vector<TranslatedOu> TranslateQuery(const PlanNode &plan,
                                           double exec_mode_override = -1.0) const;

  /// OUs for a self-driving action. Index builds become an INDEX_BUILD OU;
  /// knob changes produce no OUs themselves (their effect shows up through
  /// the knob features of subsequent queries).
  std::vector<TranslatedOu> TranslateAction(const Action &action) const;

  /// Batch OUs (WAL serialize/flush, GC) for a whole forecast interval, from
  /// the interval's estimated write volume (Sec 4.2's batch-OU features are
  /// interval totals, independent of individual query plans).
  std::vector<TranslatedOu> TranslateIntervalMaintenance(
      const WorkloadForecast &forecast) const;

  /// Transaction begin/commit OUs for the interval's expected rate.
  std::vector<TranslatedOu> TranslateTransactions(
      const WorkloadForecast &forecast) const;

 private:
  void TranslatePlan(const PlanNode &node, ExecutionMode mode,
                     std::vector<TranslatedOu> *out) const;
  /// A node's row counts from the optimizer's estimates.
  NodeRows EstimatedRows(const PlanNode &node) const;
  /// Estimated bytes a plan writes (redo volume) per execution.
  double EstimateWriteBytes(const PlanNode &node) const;

  Catalog *catalog_;
  CardinalityEstimator *estimator_;
  SettingsManager *settings_;
};

}  // namespace mb2
