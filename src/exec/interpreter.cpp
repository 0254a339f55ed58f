#include "exec/interpreter.h"

namespace mb2 {

namespace {

class InterpretedAccessor final : public TupleAccessor {
 public:
  Value Get(const Tuple &row, uint32_t col) const override { return row[col]; }
};

}  // namespace

const TupleAccessor *GetInterpretedAccessor() {
  static const InterpretedAccessor instance;
  return &instance;
}

}  // namespace mb2
