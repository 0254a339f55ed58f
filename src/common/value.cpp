#include "common/value.h"

#include <functional>

namespace mb2 {

const char *TypeName(TypeId type) {
  switch (type) {
    case TypeId::kInteger: return "INTEGER";
    case TypeId::kDouble: return "DOUBLE";
    case TypeId::kVarchar: return "VARCHAR";
  }
  return "UNKNOWN";
}

bool CoerceToType(TypeId want, Value *v) {
  if (want == TypeId::kDouble && v->type() == TypeId::kInteger) {
    *v = Value::Double(static_cast<double>(v->AsInt()));
  }
  return v->type() == want;
}

uint32_t Value::StorageSize() const {
  if (type_ == TypeId::kVarchar) return static_cast<uint32_t>(str_.size());
  return 8;
}

int Value::Compare(const Value &other) const {
  if (type_ == TypeId::kVarchar || other.type_ == TypeId::kVarchar) {
    MB2_ASSERT(type_ == TypeId::kVarchar && other.type_ == TypeId::kVarchar,
               "varchar compared against numeric");
    return ThreeWay(str_, other.str_);
  }
  if (type_ == TypeId::kInteger && other.type_ == TypeId::kInteger) {
    return ThreeWay(int_, other.int_);
  }
  return ThreeWay(AsDouble(), other.AsDouble());
}

uint64_t Value::Hash() const {
  switch (type_) {
    case TypeId::kInteger: {
      // SplitMix64 finalizer: cheap and well distributed for dense keys.
      uint64_t x = static_cast<uint64_t>(int_) + 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    }
    case TypeId::kDouble: {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double_));
      __builtin_memcpy(&bits, &double_, sizeof(bits));
      return Value::Integer(static_cast<int64_t>(bits)).Hash();
    }
    case TypeId::kVarchar: return std::hash<std::string>{}(str_);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kInteger: return std::to_string(int_);
    case TypeId::kDouble: return std::to_string(double_);
    case TypeId::kVarchar: return str_;
  }
  return "";
}

uint32_t TupleSize(const Tuple &tuple) {
  uint32_t size = 0;
  for (const auto &v : tuple) size += v.StorageSize();
  return size;
}

uint64_t HashColumns(const Tuple &tuple, const std::vector<uint32_t> &cols) {
  uint64_t seed = 0x51ed270b7a2cca35ULL;
  for (uint32_t c : cols) seed = HashCombine(seed, tuple[c].Hash());
  return seed;
}

}  // namespace mb2
