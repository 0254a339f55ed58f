// Value codec tests: the one tag+payload layout a Value takes in WAL redo
// records, heap-page rows and SQL_QUERY result rows. Golden bytes pin the
// layout; every truncation point of an encoded record must read as "need
// more bytes" (WAL stream) or a clean decode failure (page, wire); and a bad
// type tag or an oversized varchar length must read as corruption, never as
// a torn tail the WAL applier would wait on forever.

#include <gtest/gtest.h>

#include <cstring>
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

// --- SQL_QUERY result rows -----------------------------------------------------

Bytes GoldenSqlResponse() {
  net::SqlResponseBody body;
  body.rows.push_back(GoldenRow());
  body.elapsed_us = 2.0;
  body.aborted = false;
  return net::EncodeSqlResponse(body);
}

/// [u16 code][u32 empty message] before the body; the body is
/// [f64 elapsed][u8 aborted][u64 nrows] then per row [u16 ncols]{values}.
constexpr size_t kResponseHead = 6;
constexpr size_t kBodyHeader = 8 + 1 + 8 + 2;

TEST(WireCodecTest, GoldenBytes) {
  Bytes expected = Concat(Le<uint16_t>(0), Le<uint32_t>(0));
  expected = Concat(expected, Le<double>(2.0));
  expected = Concat(expected, Bytes{0x00});
  expected = Concat(expected, Le<uint64_t>(1));
  expected = Concat(expected, Le<uint16_t>(4));
  expected = Concat(expected, kGoldenValues);
  const Bytes payload = GoldenSqlResponse();
  EXPECT_EQ(payload, expected);

  net::WireCode code;
  std::string message;
  size_t offset = 0;
  ASSERT_TRUE(net::DecodeResponseHead(payload, &code, &message, &offset));
  EXPECT_EQ(offset, kResponseHead);
  net::SqlResponseBody out;
  ASSERT_TRUE(net::DecodeSqlResponseBody(payload, offset, &out));
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0], GoldenRow());
  EXPECT_EQ(out.elapsed_us, 2.0);
}

TEST(WireCodecTest, EveryTruncationPointFailsToDecode) {
  const Bytes payload = GoldenSqlResponse();
  for (size_t cut = kResponseHead; cut < payload.size(); cut++) {
    const Bytes truncated(payload.begin(), payload.begin() + cut);
    net::SqlResponseBody out;
    EXPECT_FALSE(net::DecodeSqlResponseBody(truncated, kResponseHead, &out))
        << "cut at " << cut;
  }
}

TEST(WireCodecTest, CorruptionFailsToDecode) {
  const size_t values_at = kResponseHead + kBodyHeader;
  Bytes bad_type = GoldenSqlResponse();
  bad_type[values_at + kDoubleTagAt] = 0x07;
  Bytes long_varchar = GoldenSqlResponse();
  std::memcpy(&long_varchar[values_at + kVarcharLenAt], &kOversizedVarcharLen,
              sizeof(uint32_t));
  for (const Bytes *payload : {&bad_type, &long_varchar}) {
    net::SqlResponseBody out;
    EXPECT_FALSE(net::DecodeSqlResponseBody(*payload, kResponseHead, &out));
  }
}

}  // namespace
}  // namespace mb2
