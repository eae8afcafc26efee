//===- recover/RepairPolicy.h - Single-token repair policy ------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repair policy of the error-recovering runtime. When the LL(*)
/// parser hits a mismatched token outside speculation, it packages the
/// local facts (current/next token, expected set, the viable-follow set
/// past the expected token) into a \ref RepairContext and asks
/// \ref chooseRepair what to do:
///
///   - DeleteToken:   drop the current token as spurious and re-match,
///   - InsertToken:   conjure the expected token and continue without
///                    consuming,
///   - SyncAndReturn: give up locally; the enclosing rule consumes to its
///                    recovery set and returns (panic mode).
///
/// The policy is the classic ANTLR default: deletion when LA(2) matches,
/// insertion when LA(1) is viable after the repair, panic otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RECOVER_REPAIRPOLICY_H
#define LLSTAR_RECOVER_REPAIRPOLICY_H

#include "lexer/Token.h"
#include "support/IntervalSet.h"

#include <cstdint>

namespace llstar {

/// What the parser should do about one mismatched token.
enum class RepairAction : uint8_t {
  DeleteToken,   ///< Consume the offending token and re-match.
  InsertToken,   ///< Conjure the expected token; do not consume.
  SyncAndReturn, ///< Panic: sync the enclosing rule to its recovery set.
};

/// Everything the policy consults for one mismatch event.
struct RepairContext {
  TokenType Current = TokenInvalid; ///< LA(1), the offending token
  TokenType Next = TokenInvalid;    ///< LA(2)
  /// Token types the failed transition would have matched.
  const IntervalSet &Expected;
  /// Tokens viable after a successful match, chained through the dynamic
  /// rule stack by nullability — the test for insertion repairs.
  const IntervalSet &ViableAfter;
  /// Conjured tokens since the last real consume; the policy stops
  /// inserting once this grows (the parser also hard-caps it).
  int32_t InsertionsSinceConsume = 0;
};

/// Decides the repair for one mismatched token. Never called while
/// speculating or with recovery disabled.
RepairAction chooseRepair(const RepairContext &Ctx);

} // namespace llstar

#endif // LLSTAR_RECOVER_REPAIRPOLICY_H
