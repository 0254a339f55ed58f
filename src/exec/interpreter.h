#pragma once

/// \file interpreter.h
/// The interpret-mode tuple accessor: a virtual per-attribute access path
/// modeling the dispatch cost a bytecode interpreter pays on every value.
/// The instance is produced in a separate translation unit so the compiler
/// cannot devirtualize the hot loop (which would silently turn interpret
/// mode into compiled mode).

#include "common/value.h"

namespace mb2 {

class TupleAccessor {
 public:
  virtual ~TupleAccessor() = default;
  virtual Value Get(const Tuple &row, uint32_t col) const = 0;
};

/// Shared interpreted accessor instance (defined in interpreter.cpp).
const TupleAccessor *GetInterpretedAccessor();

}  // namespace mb2
