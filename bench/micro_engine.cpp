// Engine microbenchmarks (google-benchmark): the raw costs that the
// OU-models learn — per-tuple scan/filter/join/sort rates in both execution
// modes, B+tree operations, WAL serialization, and the metrics layer's own
// overhead (Sec 8.1's tracker cost).

#include <benchmark/benchmark.h>

#include "database.h"
#include "exec/expr_program.h"
#include "index/bplus_tree.h"
#include "metrics/resource_tracker.h"
#include "runner/ou_runner.h"
#include "wal/log_record.h"

namespace mb2 {
namespace {

// Shared fixture state (built once; google-benchmark reruns the loops).
Database *g_db = nullptr;
Table *g_table = nullptr;

void EnsureDb() {
  if (g_db != nullptr) return;
  g_db = new Database();
  g_table = MakeSyntheticTable(g_db, "bench_t", 100000, 1000, 7);
  g_db->estimator().RefreshStats();
}

void BM_SeqScan(benchmark::State &state) {
  EnsureDb();
  g_db->settings().SetInt("execution_mode", state.range(0));
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "bench_t";
  scan->columns = {0, 1, 2};
  PlanPtr plan = FinalizePlan(std::move(scan), g_db->catalog());
  g_db->estimator().Estimate(plan.get());
  for (auto _ : state) {
    QueryResult result = g_db->Execute(*plan);
    benchmark::DoNotOptimize(result.batch.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SeqScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FilteredScan(benchmark::State &state) {
  EnsureDb();
  g_db->settings().SetInt("execution_mode", state.range(0));
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "bench_t";
  scan->columns = {0, 1, 2};
  scan->predicate =
      And(Cmp(CmpOp::kGt, Arith(ArithOp::kMul, ColRef(1), ConstInt(3)),
              ConstInt(500)),
          Cmp(CmpOp::kLt, ColRef(2), ConstInt(900)));
  PlanPtr plan = FinalizePlan(std::move(scan), g_db->catalog());
  g_db->estimator().Estimate(plan.get());
  for (auto _ : state) {
    QueryResult result = g_db->Execute(*plan);
    benchmark::DoNotOptimize(result.batch.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_FilteredScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_HashJoin(benchmark::State &state) {
  EnsureDb();
  g_db->settings().SetInt("execution_mode", 1);
  const int64_t build_rows = state.range(0);
  auto build = std::make_unique<SeqScanPlan>();
  build->table = "bench_t";
  build->columns = {0, 1};
  build->predicate = Cmp(CmpOp::kLt, ColRef(0), ConstInt(build_rows));
  auto probe = std::make_unique<SeqScanPlan>();
  probe->table = "bench_t";
  probe->columns = {0, 2};
  auto join = std::make_unique<HashJoinPlan>();
  join->build_keys = {0};
  join->probe_keys = {0};
  join->children.push_back(std::move(build));
  join->children.push_back(std::move(probe));
  PlanPtr plan = FinalizePlan(std::move(join), g_db->catalog());
  g_db->estimator().Estimate(plan.get());
  for (auto _ : state) {
    QueryResult result = g_db->Execute(*plan);
    benchmark::DoNotOptimize(result.batch.rows.size());
  }
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ExpressionInterpreted(benchmark::State &state) {
  auto expr = And(Cmp(CmpOp::kGt, Arith(ArithOp::kMul, ColRef(1), ConstInt(3)),
                      ConstInt(500)),
                  Cmp(CmpOp::kLt, ColRef(2), ConstInt(900)));
  Tuple row = {Value::Integer(5), Value::Integer(400), Value::Integer(100)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->EvaluateBool(row));
  }
}
BENCHMARK(BM_ExpressionInterpreted);

void BM_ExpressionCompiled(benchmark::State &state) {
  auto expr = And(Cmp(CmpOp::kGt, Arith(ArithOp::kMul, ColRef(1), ConstInt(3)),
                      ConstInt(500)),
                  Cmp(CmpOp::kLt, ColRef(2), ConstInt(900)));
  ExprProgram program(*expr);  // the compiled mode's per-row driver
  Tuple row = {Value::Integer(5), Value::Integer(400), Value::Integer(100)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.Run(row).IsTrue());
  }
}
BENCHMARK(BM_ExpressionCompiled);

void BM_BPlusTreeInsert(benchmark::State &state) {
  BPlusTree tree(IndexSchema{"b", "t", {0}, false});
  int64_t key = 0;
  for (auto _ : state) {
    tree.Insert({Value::Integer(key++)}, static_cast<SlotId>(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreePointLookup(benchmark::State &state) {
  BPlusTree tree(IndexSchema{"b", "t", {0}, false});
  for (int64_t i = 0; i < 100000; i++) {
    tree.Insert({Value::Integer(i)}, static_cast<SlotId>(i));
  }
  Rng rng(3);
  std::vector<SlotId> out;
  for (auto _ : state) {
    out.clear();
    tree.ScanKey({Value::Integer(rng.Uniform(0, 99999))}, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_BPlusTreePointLookup);

void BM_WalSerialize(benchmark::State &state) {
  SettingsManager settings;
  LogManager log("/tmp/mb2_micro_wal.log", &settings);
  std::vector<RedoRecord> records;
  for (uint64_t i = 0; i < 64; i++) {
    RedoRecord r;
    r.op = LogOpType::kUpdate;
    r.table_id = 1;
    r.slot = i;
    for (int v = 0; v < 6; v++) r.after.push_back(Value::Integer(v));
    records.push_back(std::move(r));
  }
  for (auto _ : state) {
    log.Serialize(records, 1);
  }
  log.FlushNow();
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WalSerialize);

void BM_ResourceTrackerRoundTrip(benchmark::State &state) {
  ResourceTracker tracker;
  for (auto _ : state) {
    tracker.Start();
    benchmark::DoNotOptimize(tracker.Stop()[0]);
  }
}
BENCHMARK(BM_ResourceTrackerRoundTrip);

void BM_TxnBeginCommit(benchmark::State &state) {
  TransactionManager txns;
  for (auto _ : state) {
    auto txn = txns.Begin();
    txns.Commit(txn.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnBeginCommit);

}  // namespace
}  // namespace mb2

BENCHMARK_MAIN();
