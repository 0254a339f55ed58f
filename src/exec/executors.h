#pragma once

/// \file executors.h
/// Operator-at-a-time executors, one per plan node type. Each operator's
/// work phase is wrapped in an OuTrackerScope so training mode yields one
/// clean, non-overlapping OU record per operator instance (two for
/// build/probe operators), and a traced query one span per OU.

#include "common/status.h"
#include "exec/execution_context.h"
#include "plan/plan_node.h"

namespace mb2 {

/// Executes a plan subtree, materializing its output into *out. Returns a
/// non-OK status on write-write conflicts (caller aborts the transaction).
Status ExecuteNode(const PlanNode &node, ExecutionContext *ctx, Batch *out);

}  // namespace mb2
