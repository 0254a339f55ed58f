#pragma once

/// \file value.h
/// Typed runtime values and tuples for the in-memory engine. The engine is
/// row-oriented: a Tuple is a vector of Values matching a Schema.

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace mb2 {

/// SQL types supported by the engine.
enum class TypeId : uint8_t { kInteger, kDouble, kVarchar };

const char *TypeName(TypeId type);

/// Three-way comparison: -1, 0 or 1. NaN is neither less than nor equal to
/// anything, so it compares greater. Value::Compare and every expression
/// driver compare through this one rule.
template <typename T>
inline int ThreeWay(const T &a, const T &b) {
  if (a < b) return -1;
  return a == b ? 0 : 1;
}

/// A dynamically typed runtime value. Comparison across mismatched types is
/// an invariant violation (the planner type-checks expressions up front).
class Value {
 public:
  Value() : type_(TypeId::kInteger), int_(0) {}
  static Value Integer(int64_t v) { Value out; out.type_ = TypeId::kInteger; out.int_ = v; return out; }
  static Value Double(double v) { Value out; out.type_ = TypeId::kDouble; out.double_ = v; return out; }
  static Value Varchar(std::string v) {
    Value out;
    out.type_ = TypeId::kVarchar;
    out.str_ = std::move(v);
    return out;
  }

  TypeId type() const { return type_; }
  int64_t AsInt() const { MB2_ASSERT(type_ == TypeId::kInteger, "not an integer"); return int_; }
  double AsDouble() const {
    if (type_ == TypeId::kInteger) return static_cast<double>(int_);
    MB2_ASSERT(type_ == TypeId::kDouble, "not numeric");
    return double_;
  }
  const std::string &AsVarchar() const { MB2_ASSERT(type_ == TypeId::kVarchar, "not a varchar"); return str_; }

  /// Bytes this value occupies in the row store (used for tuple-size
  /// features and memory accounting).
  uint32_t StorageSize() const;

  /// Three-way comparison; both values must share a type (integers compare
  /// with doubles numerically).
  int Compare(const Value &other) const;

  bool operator==(const Value &other) const { return Compare(other) == 0; }
  bool operator<(const Value &other) const { return Compare(other) < 0; }

  /// 64-bit hash for hash joins / aggregations.
  uint64_t Hash() const;

  std::string ToString() const;

 private:
  TypeId type_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
};

using Tuple = std::vector<Value>;

/// Fits `v` to a column of type `want`, the one rule INSERT's VALUES and
/// UPDATE's SET values share: an integer becomes a double for a DOUBLE
/// column. Returns false, leaving `v` as it was, on any other mismatch.
bool CoerceToType(TypeId want, Value *v);

/// Total storage bytes of a tuple.
uint32_t TupleSize(const Tuple &tuple);

/// Combines two hashes (boost::hash_combine construction).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hash of a subset of tuple columns; used as hash-table key.
uint64_t HashColumns(const Tuple &tuple, const std::vector<uint32_t> &cols);

}  // namespace mb2
