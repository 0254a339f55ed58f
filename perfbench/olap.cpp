// olap: 2 connections, vectorized execution (execution_mode=2). A memory
// fact table, a 64-row dimension table, and a disk-backed table at least 4x
// the buffer pool (64 pages). Heavy class: full GROUP BY aggregate, fact x
// dim hash join plus aggregate, aggregate over the disk table. Light class:
// range filter with an arithmetic aggregate, top-k by ORDER BY <ordinal>
// LIMIT, and a selective filter. Each class has three equally weighted
// templates, so its median sits on the middle one instead of flipping
// between two modes. Literals come from the seed and barely move a
// template's cost.
//
// Check: every response's checksum must equal the checksum of the same
// statement run in-process by the interpreter (execution_mode=0).

#include <memory>

#include "common/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kWindows = 10;
constexpr size_t kConns = 2;
constexpr size_t kTemplates = 6;  ///< 0-2 heavy, 3-5 light
constexpr size_t kVariants = 8;   ///< literal sets per template
const std::vector<std::string> kKinds = {"group_by", "join_agg", "disk_agg",
                                         "range_arith", "top_k", "selective"};

struct Sizes {
  uint64_t fact_rows;
  uint64_t disk_rows;
  int64_t pool_pages;
};

/// The run's statements: kTemplates x kVariants, literals from the seed.
std::vector<SqlOp> MakeStatements(uint64_t seed, const Sizes &sz) {
  mb2::Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  std::vector<SqlOp> out;
  for (size_t t = 0; t < kTemplates; t++) {
    for (size_t v = 0; v < kVariants; v++) {
      SqlOp op;
      op.kind = t;
      op.heavy = t < 3;
      op.scanned_rows = static_cast<double>(sz.fact_rows);
      switch (t) {
        case 0:
          op.sql = "SELECT grp, COUNT(*), SUM(qty), AVG(price) FROM fact WHERE dim_id <> " +
                   std::to_string(rng.Uniform(0, 63)) + " GROUP BY grp";
          break;
        case 1:
          op.sql =
              "SELECT dim.region, COUNT(*), SUM(fact.qty) FROM fact JOIN dim ON "
              "fact.dim_id = dim.id WHERE fact.grp < " +
              std::to_string(rng.Uniform(600, 620)) + " GROUP BY dim.region";
          op.scanned_rows += 64;
          break;
        case 2:
          op.sql = "SELECT COUNT(*), SUM(v), MAX(v) FROM events WHERE v > " +
                   std::to_string(rng.Uniform(0, 99));
          op.scanned_rows = static_cast<double>(sz.disk_rows);
          op.disk = true;
          break;
        case 3: {
          const int64_t lo = rng.Uniform(100, 79000);
          op.sql = "SELECT COUNT(*), SUM(qty * price) FROM fact WHERE price > " +
                   std::to_string(lo) + " AND price < " + std::to_string(lo + 20000);
          break;
        }
        case 4:
          op.sql = "SELECT id, qty FROM fact WHERE grp = " +
                   std::to_string(rng.Uniform(0, 999)) + " ORDER BY 1 DESC LIMIT 10";
          break;
        default:
          op.sql = "SELECT COUNT(*), MIN(price), MAX(price) FROM fact WHERE qty = " +
                   std::to_string(rng.Uniform(1, 100)) + " AND dim_id < 8";
          break;
      }
      out.push_back(std::move(op));
    }
  }
  return out;
}

struct Live {
  std::unique_ptr<mb2::Database> db;
  std::unique_ptr<mb2::net::Server> server;
};

Live SetUp(const RunConfig &cfg, const Sizes &sz, int index, Report *r) {
  const int64_t t0 = NowNs();
  Live s;
  mb2::Database::Options opts;
  opts.heap_path = cfg.workdir + "/olap-heap-" + std::to_string(index) + ".bin";
  s.db = std::make_unique<mb2::Database>(opts);
  mb2::Database &db = *s.db;
  db.settings().SetInt("execution_mode", 2, "perfbench");
  db.settings().SetInt("buffer_pool_pages", sz.pool_pages, "perfbench");
  MustExecute(db, "CREATE TABLE fact (id INTEGER, grp INTEGER, dim_id INTEGER, "
                  "qty INTEGER, price DOUBLE)", r);
  MustExecute(db, "CREATE TABLE dim (id INTEGER, region INTEGER)", r);
  MustExecute(db, "CREATE TABLE events (id INTEGER, v INTEGER, tag VARCHAR) "
                  "WITH (storage = disk)", r);
  mb2::Rng rng(cfg.seed);
  for (uint64_t base = 0; base < sz.fact_rows; base += 1000) {
    std::string sql = "INSERT INTO fact VALUES ";
    for (uint64_t id = base; id < std::min(sz.fact_rows, base + 1000); id++) {
      if (id > base) sql += ", ";
      sql += "(" + std::to_string(id) + ", " + std::to_string(rng.Uniform(0, 999)) +
             ", " + std::to_string(rng.Uniform(0, 63)) + ", " +
             std::to_string(rng.Uniform(1, 100)) + ", " +
             std::to_string(rng.Uniform(100, 99999)) + ".25)";
    }
    MustExecute(db, sql, r);
  }
  std::string dim = "INSERT INTO dim VALUES ";
  for (int i = 0; i < 64; i++) {
    dim += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " + std::to_string(i % 8) + ")";
  }
  MustExecute(db, dim, r);
  for (uint64_t base = 0; base < sz.disk_rows; base += 500) {
    std::string sql = "INSERT INTO events VALUES ";
    for (uint64_t id = base; id < std::min(sz.disk_rows, base + 500); id++) {
      if (id > base) sql += ", ";
      // A 40-byte tag keeps rows wide enough that the table spans
      // several times the pool.
      sql += "(" + std::to_string(id) + ", " + std::to_string(rng.Uniform(0, 9999)) +
             ", '" + rng.AlphaString(40) + "')";
    }
    MustExecute(db, sql, r);
  }
  db.estimator().RefreshStats();
  s.server = std::make_unique<mb2::net::Server>(s.db.get(), nullptr, BenchServerOptions());
  if (!s.server->Start().ok()) r->Fail("server start");
  r->setup_s.push_back(SecondsSince(t0));
  return s;
}

/// Seeded statement order of one connection: every block of kTemplates
/// operations runs each template once, in shuffled order, so the class and
/// template mix is exact in every run.
class OlapGen {
 public:
  OlapGen(uint64_t seed, size_t conn) : rng_(seed * 0x9e3779b97f4a7c15ULL + conn + 101) {}

  size_t Next() {
    if (pos_ == block_.size()) {
      block_.resize(kTemplates);
      for (size_t t = 0; t < kTemplates; t++) block_[t] = t;
      rng_.Shuffle(&block_);
      pos_ = 0;
    }
    const size_t t = block_[pos_++];
    return t * kVariants + static_cast<size_t>(rng_.Uniform(0, kVariants - 1));
  }

 private:
  mb2::Rng rng_;
  std::vector<size_t> block_;
  size_t pos_ = 0;
};

}  // namespace

Report RunOlap(const RunConfig &cfg) {
  Report r;
  r.workload = "olap";
  r.connections = kConns;
  r.min_ops_per_class = cfg.smoke ? 5 : 200;
  const Sizes sz = cfg.smoke ? Sizes{10000, 4000, 16} : Sizes{100000, 20000, 64};
  const double warmup_s = cfg.smoke ? 0.2 : 1.0;
  const std::vector<SqlOp> statements = MakeStatements(cfg.seed, sz);

  Live live;
  const int setups = (cfg.smoke || cfg.trace) ? 1 : kSqlSetups;
  for (int i = 0; i < setups; i++) {
    live.server.reset();
    live.db.reset();
    live = SetUp(cfg, sz, i, &r);
  }
  if (!r.errors.empty()) return r;
  if (live.db->buffer_pool() == nullptr ||
      live.db->catalog().GetTable("events")->heap() == nullptr) {
    r.Fail("events is not disk-backed");
    return r;
  }

  std::vector<OlapGen> gens;
  for (size_t c = 0; c < kConns; c++) gens.emplace_back(cfg.seed, c);
  // (statement, checksum) of every answered operation, per connection.
  std::vector<std::vector<std::pair<size_t, uint64_t>>> answers(kConns);
  const OpFn op = [&](size_t c, mb2::net::Client &client, uint64_t) {
    const size_t id = gens[c].Next();
    const SqlOp &st = statements[id];
    OpOutcome out;
    out.heavy = st.heavy;
    auto res = client.ExecuteSql(st.sql);
    if (!res.ok() || res.value().aborted) return out;
    out.ok = true;
    out.server_us = res.value().elapsed_us;
    answers[c].emplace_back(id, ChecksumRows(res.value().rows));
    return out;
  };

  r.loop = RunClosedLoop(*live.server, kConns, warmup_s, cfg.seconds, kWindows, op, nullptr);

  SpanLog spans;
  if (cfg.trace) {
    r.traced = RunTracedSqlLoop(*live.db, *live.server, kConns, cfg.seconds, kWindows, op,
                              r.loop, &spans, &r);
  }
  live.server->Stop();

  // Reference answers from the interpreter, in-process.
  mb2::Database &db = *live.db;
  db.settings().SetInt("execution_mode", 0, "perfbench");
  std::vector<uint64_t> reference(statements.size());
  for (size_t i = 0; i < statements.size(); i++) {
    reference[i] = ChecksumRows(MustExecute(db, statements[i].sql, &r).batch.rows);
  }
  db.settings().SetInt("execution_mode", 2, "perfbench");
  for (const auto &per_conn : answers) {
    for (const auto &[id, sum] : per_conn) r.wrong_answers += sum != reference[id];
  }
  if (r.wrong_answers > 0) {
    r.Fail(std::to_string(r.wrong_answers) + " answers differ from the interpreter's");
  }

  if (cfg.trace) {
    mb2::Rng rng(cfg.seed ^ 0x5eed);
    std::vector<SqlOp> frontend, chain;
    const size_t n = cfg.smoke ? 12 : 60;
    for (size_t i = 0; i < n; i++) {
      frontend.push_back(statements[i % kTemplates * kVariants +
                                    static_cast<size_t>(rng.Uniform(0, kVariants - 1))]);
      chain.push_back(statements[i % kTemplates * kVariants +
                                 static_cast<size_t>(rng.Uniform(0, kVariants - 1))]);
    }
    ReplaySqlOps(db, frontend, chain, kKinds, r.traced, &spans, &r);
    FinishTrace(cfg, spans, &r);
  }
  return r;
}

}  // namespace perfbench
