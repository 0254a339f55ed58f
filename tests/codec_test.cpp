// Byte codec tests. The Value codec: the one tag+payload layout a Value takes
// in WAL redo records, heap-page rows and SQL_QUERY result rows. Golden bytes
// pin the layout; every truncation point of an encoded record must read as
// "need more bytes" (WAL stream) or a clean decode failure (page, wire); and
// a bad type tag or an oversized varchar length must read as corruption,
// never as a torn tail the WAL applier would wait on forever. The wire
// payloads: every request, the status head and every reply body of the
// network protocol, pinned byte for byte and fed the same truncations and
// corruptions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "database.h"
#include "net/wire.h"
#include "storage/page.h"
#include "wal/log_applier.h"
#include "wal/log_record.h"

namespace mb2 {
namespace {

using Bytes = std::vector<uint8_t>;

/// An integer whose bytes expose the byte order, a double, a varchar and an
/// empty varchar.
Tuple GoldenRow() {
  return {Value::Integer(0x0102030405060708LL), Value::Double(1.5),
          Value::Varchar("mb2"), Value::Varchar("")};
}

/// GoldenRow() encoded: per value a 1-byte TypeId tag, then the 8-byte
/// little-endian payload or a u32 length followed by the varchar bytes.
const Bytes kGoldenValues = {
    0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // INTEGER
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // DOUBLE 1.5
    0x02, 0x03, 0x00, 0x00, 0x00, 'm',  'b',  '2',         // VARCHAR "mb2"
    0x02, 0x00, 0x00, 0x00, 0x00,                          // VARCHAR ""
};
/// Offsets of the DOUBLE's tag and of the "mb2" length within kGoldenValues.
constexpr size_t kDoubleTagAt = 9;
constexpr size_t kVarcharLenAt = 19;
constexpr uint32_t kOversizedVarcharLen = (1u << 24) + 1;

Bytes Concat(const Bytes &a, const Bytes &b) {
  Bytes out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

template <typename T>
Bytes Le(T v) {
  Bytes out(sizeof(T));
  std::memcpy(out.data(), &v, sizeof(T));
  return out;
}

Schema GoldenSchema() {
  return Schema({{"i", TypeId::kInteger, 0},
                 {"d", TypeId::kDouble, 0},
                 {"s", TypeId::kVarchar, 8},
                 {"e", TypeId::kVarchar, 8}});
}

// --- WAL redo records ---------------------------------------------------------

class WalCodecTest : public ::testing::Test {
 protected:
  WalCodecTest() {
    table_ = db_.catalog().CreateTable("t", GoldenSchema());
  }

  RedoRecord GoldenRecord() const {
    RedoRecord r;
    r.op = LogOpType::kInsert;
    r.table_id = table_->table_id();
    r.slot = 5;
    r.after = GoldenRow();
    return r;
  }

  /// [u8 op][u32 table][u64 slot][u64 txn][u32 nvalues] before the values.
  static constexpr size_t kRecordHeader = 25;

  Database db_;
  Table *table_ = nullptr;
};

TEST_F(WalCodecTest, GoldenBytes) {
  Bytes buf;
  const size_t n = SerializeRedoRecord(GoldenRecord(), /*txn_id=*/7, &buf);
  Bytes expected = {static_cast<uint8_t>(LogOpType::kInsert)};
  expected = Concat(expected, Le<uint32_t>(table_->table_id()));
  expected = Concat(expected, Le<uint64_t>(5));
  expected = Concat(expected, Le<uint64_t>(7));
  expected = Concat(expected, Le<uint32_t>(4));
  expected = Concat(expected, kGoldenValues);
  EXPECT_EQ(buf, expected);
  EXPECT_EQ(n, expected.size());
  EXPECT_EQ(RedoRecordSize(GoldenRecord()), expected.size());
}

TEST_F(WalCodecTest, EveryTruncationPointIsBufferedNotApplied) {
  Bytes buf;
  SerializeRedoRecord(GoldenRecord(), 7, &buf);
  for (size_t cut = 1; cut < buf.size(); cut++) {
    LogApplier applier(&db_.catalog(), &db_.txn_manager());
    ASSERT_TRUE(applier.Apply(0, buf.data(), cut).ok()) << "cut at " << cut;
    EXPECT_EQ(applier.total().records_applied, 0u) << "cut at " << cut;
    EXPECT_TRUE(applier.has_partial_record()) << "cut at " << cut;
    EXPECT_EQ(applier.applied_offset(), 0u) << "cut at " << cut;
  }
  // The rest of the bytes completes the record exactly once.
  LogApplier applier(&db_.catalog(), &db_.txn_manager());
  const size_t cut = buf.size() / 2;
  ASSERT_TRUE(applier.Apply(0, buf.data(), cut).ok());
  ASSERT_TRUE(applier.Apply(cut, buf.data() + cut, buf.size() - cut).ok());
  EXPECT_EQ(applier.total().inserts, 1u);
  EXPECT_FALSE(applier.has_partial_record());
  EXPECT_EQ(applier.applied_offset(), buf.size());
}

TEST_F(WalCodecTest, CorruptionIsReportedNotBuffered) {
  Bytes clean;
  SerializeRedoRecord(GoldenRecord(), 7, &clean);

  std::vector<std::pair<const char *, Bytes>> cases;
  Bytes bad_type = clean;
  bad_type[kRecordHeader + kDoubleTagAt] = 0x07;
  cases.emplace_back("bad type tag", bad_type);
  Bytes long_varchar = clean;
  std::memcpy(&long_varchar[kRecordHeader + kVarcharLenAt],
              &kOversizedVarcharLen, sizeof(uint32_t));
  cases.emplace_back("varchar longer than 1<<24", long_varchar);
  Bytes bad_op = clean;
  bad_op[0] = 0x09;
  cases.emplace_back("bad op tag", bad_op);
  Bytes many_values = clean;
  const uint32_t too_many = (1u << 16) + 1;
  std::memcpy(&many_values[21], &too_many, sizeof(uint32_t));
  cases.emplace_back("more than 1<<16 values", many_values);

  for (const auto &[name, bytes] : cases) {
    LogApplier applier(&db_.catalog(), &db_.txn_manager());
    EXPECT_FALSE(applier.Apply(0, bytes.data(), bytes.size()).ok()) << name;
    EXPECT_EQ(applier.total().records_applied, 0u) << name;
    // A corrupt stream refuses further input rather than waiting for more.
    EXPECT_FALSE(applier.Apply(bytes.size(), clean.data(), clean.size()).ok())
        << name;
  }
}

// --- Heap pages -----------------------------------------------------------------

constexpr PageId kPage = 3;
constexpr SlotId kSlot = 11;
/// [u64 slot][u32 nvalues] before the values.
constexpr size_t kRowHeader = 12;

Page GoldenPage() {
  Page p;
  page::Init(&p, kPage);
  EXPECT_TRUE(page::AppendRow(&p, kSlot, GoldenRow()));
  return p;
}

void SetUsedBytes(Page *p, uint32_t used) {
  std::memcpy(p->bytes + 16, &used, sizeof(used));
}

TEST(PageCodecTest, GoldenBytes) {
  const Page p = GoldenPage();
  Bytes expected = Concat(Le<uint64_t>(kSlot), Le<uint32_t>(4));
  expected = Concat(expected, kGoldenValues);
  EXPECT_EQ(page::NumRows(p), 1u);
  EXPECT_EQ(page::UsedBytes(p), kPageHeaderSize + expected.size());
  EXPECT_EQ(page::RowBytes(GoldenRow()), expected.size());
  const Bytes row(p.bytes + kPageHeaderSize,
                  p.bytes + kPageHeaderSize + expected.size());
  EXPECT_EQ(row, expected);

  std::vector<HeapRow> rows;
  ASSERT_TRUE(page::DecodeRows(p, kPage, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].slot, kSlot);
  EXPECT_EQ(rows[0].row, GoldenRow());
}

TEST(PageCodecTest, EveryTruncationPointIsAnIoError) {
  const size_t row_bytes = kRowHeader + kGoldenValues.size();
  for (size_t cut = 0; cut < row_bytes; cut++) {
    Page p = GoldenPage();
    SetUsedBytes(&p, static_cast<uint32_t>(kPageHeaderSize + cut));
    std::vector<HeapRow> rows;
    const Status s = page::DecodeRows(p, kPage, &rows);
    EXPECT_EQ(s.code(), ErrorCode::kIoError) << "cut at " << cut;
  }
}

TEST(PageCodecTest, CorruptionIsAnIoError) {
  const size_t values_at = kPageHeaderSize + kRowHeader;
  Page bad_type = GoldenPage();
  bad_type.bytes[values_at + kDoubleTagAt] = 0x07;
  Page long_varchar = GoldenPage();
  std::memcpy(long_varchar.bytes + values_at + kVarcharLenAt,
              &kOversizedVarcharLen, sizeof(uint32_t));
  for (const Page *p : {&bad_type, &long_varchar}) {
    std::vector<HeapRow> rows;
    EXPECT_EQ(page::DecodeRows(*p, kPage, &rows).code(), ErrorCode::kIoError);
  }
}

// --- Every wire payload ------------------------------------------------------
// One row per payload kind: six requests, the status head and seven reply
// bodies. Each row holds a sample message and its bytes, written field by
// field. Decoding the bytes must give the sample back, and every cut, one
// trailing byte, an out-of-range tag and an oversized count in any repeated
// field (string bytes and double vectors included) must fail to decode.

/// The codec under test. A request decodes from its first byte; a reply the
/// way a client reads it: the head, then the body behind it.
template <typename Message>
Bytes EncodeRequest(const Message &request) {
  return net::Encode(request);
}
template <typename Message>
bool DecodeRequest(const Bytes &bytes, Message *request) {
  return net::Decode(bytes, 0, request);
}
template <typename Body>
Bytes EncodeReply(const Body &body) {
  return net::Encode(net::ResponseHead{}, body);
}
template <typename Body>
bool DecodeReplyBody(const Bytes &bytes, size_t at, Body *body) {
  return net::Decode(bytes, at, body);
}

/// A status response: the head and nothing behind it.
struct StatusHead {
  net::WireCode code = net::WireCode::kOk;
  std::string message;
};
Bytes EncodeStatus(const StatusHead &head) {
  return net::Encode(net::ResponseHead{head.code, head.message});
}
bool DecodeStatus(const Bytes &bytes, StatusHead *head) {
  size_t body_at = 0;
  return net::DecodeResponseHead(bytes, &head->code, &head->message,
                                 &body_at) &&
         body_at == bytes.size();
}

template <typename Body>
bool DecodeReply(const Bytes &bytes, Body *body) {
  StatusHead head;
  size_t body_at = 0;
  return net::DecodeResponseHead(bytes, &head.code, &head.message, &body_at) &&
         head.code == net::WireCode::kOk &&
         DecodeReplyBody(bytes, body_at, body);
}

/// A payload's expected bytes, written field by field. It notes where each
/// count of a repeated field and each enumerated tag sits, so the corruption
/// cases can break them.
struct Golden {
  Bytes bytes;
  std::vector<std::pair<size_t, size_t>> counts;    ///< offset, width
  std::vector<std::pair<size_t, Bytes>> bad_tags;   ///< offset, tag to write

  template <typename T>
  Golden &Put(T v) {
    bytes = Concat(bytes, Le<T>(v));
    return *this;
  }
  template <typename T>
  Golden &Count(T n) {
    counts.emplace_back(bytes.size(), sizeof(T));
    return Put<T>(n);
  }
  template <typename T>
  Golden &Tag(T tag, T out_of_range) {
    bad_tags.emplace_back(bytes.size(), Le<T>(out_of_range));
    return Put<T>(tag);
  }
  Golden &Str(const std::string &s) {
    Count<uint32_t>(static_cast<uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
    return *this;
  }
};

constexpr uint8_t kBadValueTag = 0x07;
constexpr uint8_t kBadOuType = static_cast<uint8_t>(kNumOuTypes);
constexpr uint16_t kBadWireCode = 9;  // one past NOT_PRIMARY

/// The head of an OK reply: code 0 and an empty message.
Golden OkHead() {
  Golden g;
  g.Tag<uint16_t>(0, kBadWireCode).Str("");
  return g;
}

struct WireCase {
  std::string name;
  Golden golden;
  std::function<Bytes()> encode;
  /// Decodes bytes as this payload kind and encodes the result again, or
  /// nullopt when they do not decode. The golden bytes come back exactly
  /// when every field of the sample survived the trip.
  std::function<std::optional<Bytes>(const Bytes &)> reencode;
};

template <typename Message>
WireCase RequestCase(std::string name, Message sample, Golden golden) {
  return {std::move(name), std::move(golden),
          [sample] { return EncodeRequest(sample); },
          [](const Bytes &bytes) -> std::optional<Bytes> {
            Message out{};
            if (!DecodeRequest(bytes, &out)) return std::nullopt;
            return EncodeRequest(out);
          }};
}

template <typename Body>
WireCase ReplyCase(std::string name, Body sample, Golden golden) {
  return {std::move(name), std::move(golden),
          [sample] { return EncodeReply(sample); },
          [](const Bytes &bytes) -> std::optional<Bytes> {
            Body out{};
            if (!DecodeReply(bytes, &out)) return std::nullopt;
            return EncodeReply(out);
          }};
}

WireCase HeadCase(std::string name, StatusHead sample, Golden golden) {
  return {std::move(name), std::move(golden),
          [sample] { return EncodeStatus(sample); },
          [](const Bytes &bytes) -> std::optional<Bytes> {
            StatusHead out;
            if (!DecodeStatus(bytes, &out)) return std::nullopt;
            return EncodeStatus(out);
          }};
}

std::vector<WireCase> WireCases() {
  std::vector<WireCase> cases;

  cases.push_back(RequestCase("SQL_QUERY request", std::string("SELECT 1"),
                              Golden().Str("SELECT 1")));
  const std::vector<TranslatedOu> ous = {{OuType::kSeqScan, {1.0, -0.0}},
                                         {OuType::kTxnCommit, {}}};
  cases.push_back(RequestCase(
      "PREDICT_OUS request", ous,
      Golden()
          .Count<uint32_t>(2)
          .Tag<uint8_t>(static_cast<uint8_t>(OuType::kSeqScan), kBadOuType)
          .Count<uint64_t>(2)
          .Put<double>(1.0)
          .Put<double>(-0.0)
          .Tag<uint8_t>(static_cast<uint8_t>(OuType::kTxnCommit), kBadOuType)
          .Count<uint64_t>(0)));
  cases.push_back(RequestCase("SLEEP request", uint32_t{250},
                              Golden().Put<uint32_t>(250)));
  cases.push_back(RequestCase(
      "REPL_SUBSCRIBE request", net::ReplSubscribeRequest{"f1", 4096},
      Golden().Str("f1").Put<uint64_t>(4096)));
  cases.push_back(RequestCase(
      "REPL_LOG_BATCH request", net::ReplFetchRequest{"f1", 512, 65536, 3},
      Golden().Str("f1").Put<uint64_t>(512).Put<uint32_t>(65536).Put<uint64_t>(
          3)));
  cases.push_back(RequestCase(
      "REPL_ACK request", net::ReplAckRequest{"f1", 1024, 17},
      Golden().Str("f1").Put<uint64_t>(1024).Put<uint64_t>(17)));

  cases.push_back(HeadCase(
      "status head", StatusHead{net::WireCode::kDeadlineExceeded, "too slow"},
      Golden()
          .Tag<uint16_t>(static_cast<uint16_t>(net::WireCode::kDeadlineExceeded),
                         kBadWireCode)
          .Str("too slow")));

  net::SqlResponseBody sql;
  sql.rows = {GoldenRow(), {Value::Integer(-1)}};
  sql.elapsed_us = 2.0;
  sql.aborted = true;
  cases.push_back(ReplyCase(
      "SQL_QUERY reply", sql,
      OkHead()
          .Put<double>(2.0)
          .Put<uint8_t>(1)
          .Count<uint64_t>(2)
          .Count<uint16_t>(4)
          .Tag<uint8_t>(0, kBadValueTag)
          .Put<int64_t>(0x0102030405060708LL)
          .Tag<uint8_t>(1, kBadValueTag)
          .Put<double>(1.5)
          .Tag<uint8_t>(2, kBadValueTag)
          .Str("mb2")
          .Tag<uint8_t>(2, kBadValueTag)
          .Str("")
          .Count<uint16_t>(1)
          .Tag<uint8_t>(0, kBadValueTag)
          .Put<int64_t>(-1)));

  net::PredictResponseBody predict;
  predict.degraded_ous = 1;
  Golden predict_bytes = OkHead();
  predict_bytes.Put<uint32_t>(1).Count<uint64_t>(2);
  for (size_t i = 0; i < 2; i++) {
    Labels labels{};
    for (size_t j = 0; j < kNumLabels; j++) {
      labels[j] = 0.5 * static_cast<double>(i * kNumLabels + j) - 1.0;
      predict_bytes.Put<double>(labels[j]);
    }
    predict.per_ou.push_back(labels);
  }
  cases.push_back(ReplyCase("PREDICT_OUS reply", predict, predict_bytes));

  cases.push_back(ReplyCase("GET_METRICS reply", std::string("{\"n\":1}"),
                            OkHead().Str("{\"n\":1}")));
  cases.push_back(ReplyCase("REPL_SUBSCRIBE reply",
                            net::ReplSubscribeResponseBody{8192, 3},
                            OkHead().Put<uint64_t>(8192).Put<uint64_t>(3)));

  net::ReplLogBatchBody batch;
  batch.offset = 512;
  batch.data = {0xde, 0xad, 0xbe};
  batch.batch_crc = 0x01020304;
  batch.durable_tip = 515;
  batch.epoch = 3;
  cases.push_back(ReplyCase("REPL_LOG_BATCH reply", batch,
                            OkHead()
                                .Put<uint64_t>(512)
                                .Put<uint64_t>(515)
                                .Put<uint64_t>(3)
                                .Put<uint32_t>(0x01020304)
                                .Count<uint32_t>(3)
                                .Put<uint8_t>(0xde)
                                .Put<uint8_t>(0xad)
                                .Put<uint8_t>(0xbe)));

  net::CtrlStatusBody ctrl;
  ctrl.attached = true;
  ctrl.running = true;
  ctrl.status.ticks = 7;
  ctrl.status.actions_applied = 3;
  ctrl.status.actions_rolled_back = 1;
  ctrl.status.rollback_failures = 2;
  ctrl.status.ous_retrained = 4;
  ctrl.status.templates_tracked = 5;
  ctrl.status.queries_observed = 4242;
  ctrl.status.last_action_us = -6;
  ctrl.status.pending_verification = true;
  ctrl.status.decisions.push_back({1000, "CREATE INDEX i", "apply", 900.5,
                                   150.25, 880.0, 0.5});
  ctrl.knob_changes.push_back({"gc_interval_us", 1000, 10000, "controller", 999});
  ctrl.knob_changes_total = 9;
  cases.push_back(ReplyCase("CTRL_STATUS reply", ctrl,
                            OkHead()
                                .Put<uint8_t>(1)
                                .Put<uint8_t>(1)
                                .Put<uint64_t>(7)
                                .Put<uint64_t>(3)
                                .Put<uint64_t>(1)
                                .Put<uint64_t>(2)
                                .Put<uint64_t>(4)
                                .Put<uint64_t>(5)
                                .Put<uint64_t>(4242)
                                .Put<int64_t>(-6)
                                .Put<uint8_t>(1)
                                .Count<uint32_t>(1)
                                .Put<int64_t>(1000)
                                .Str("CREATE INDEX i")
                                .Str("apply")
                                .Put<double>(900.5)
                                .Put<double>(150.25)
                                .Put<double>(880.0)
                                .Put<double>(0.5)
                                .Count<uint32_t>(1)
                                .Str("gc_interval_us")
                                .Put<double>(1000)
                                .Put<double>(10000)
                                .Str("controller")
                                .Put<int64_t>(999)
                                .Put<uint64_t>(9)));

  cases.push_back(ReplyCase("HEALTH reply", net::HealthInfo{1, 3, 8192, 4096},
                            OkHead()
                                .Put<uint8_t>(1)
                                .Put<uint64_t>(3)
                                .Put<uint64_t>(8192)
                                .Put<uint64_t>(4096)));
  return cases;
}

TEST(WireCodecTest, GoldenBytes) {
  const std::vector<WireCase> cases = WireCases();
  ASSERT_EQ(cases.size(), 14u);
  for (const WireCase &c : cases) {
    EXPECT_EQ(c.encode(), c.golden.bytes) << c.name;
    const std::optional<Bytes> back = c.reencode(c.golden.bytes);
    ASSERT_TRUE(back.has_value()) << c.name;
    EXPECT_EQ(*back, c.golden.bytes) << c.name;
  }
}

TEST(WireCodecTest, EveryTruncationPointFailsToDecode) {
  for (const WireCase &c : WireCases()) {
    const Bytes &bytes = c.golden.bytes;
    for (size_t cut = 0; cut < bytes.size(); cut++) {
      const Bytes truncated(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(c.reencode(truncated).has_value())
          << c.name << ", cut at " << cut;
    }
  }
}

TEST(WireCodecTest, CorruptionFailsToDecode) {
  for (const WireCase &c : WireCases()) {
    const Bytes &clean = c.golden.bytes;
    Bytes trailing = clean;
    trailing.push_back(0);
    EXPECT_FALSE(c.reencode(trailing).has_value()) << c.name << ", trailing byte";

    for (const auto &[at, tag] : c.golden.bad_tags) {
      Bytes bad = clean;
      std::copy(tag.begin(), tag.end(), bad.begin() + static_cast<ptrdiff_t>(at));
      EXPECT_FALSE(c.reencode(bad).has_value()) << c.name << ", tag at " << at;
    }

    // Each count gets the largest value its width holds, and the smallest
    // that the bytes behind it could not hold even at one byte an element.
    for (const auto &[at, width] : c.golden.counts) {
      const uint64_t widest =
          width == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
      const uint64_t behind = clean.size() - at - width;
      for (const uint64_t count : {widest, std::min(widest, behind + 1)}) {
        Bytes bad = clean;
        std::memcpy(&bad[at], &count, width);  // little-endian low bytes
        EXPECT_FALSE(c.reencode(bad).has_value())
            << c.name << ", count " << count << " at " << at;
      }
    }
  }
}

}  // namespace
}  // namespace mb2
