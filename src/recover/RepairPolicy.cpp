#include "recover/RepairPolicy.h"

using namespace llstar;

RepairAction llstar::chooseRepair(const RepairContext &Ctx) {
  // Deletion first: if the very next token is what we wanted, the current
  // one is almost certainly spurious.
  if (Ctx.Next != TokenEof && Ctx.Expected.contains(Ctx.Next))
    return RepairAction::DeleteToken;
  // Insertion: conjure the expected token when the current one could
  // legally follow it. Never conjure EOF, and stop conjuring when a run of
  // insertions has made no input progress (termination guard).
  if (Ctx.InsertionsSinceConsume < 32 && !Ctx.Expected.empty() &&
      Ctx.Expected.max() >= TokenMinUserType &&
      Ctx.ViableAfter.contains(Ctx.Current))
    return RepairAction::InsertToken;
  return RepairAction::SyncAndReturn;
}
