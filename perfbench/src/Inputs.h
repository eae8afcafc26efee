//===- perfbench/src/Inputs.h - Seeded benchmark inputs ---------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds the program is generated here from the
/// run's seed: documents for the seven shipped grammars (grammars/*.g), the
/// paper-analog grammars' own generators (bench/common), the daemon's
/// request pool and the edit scripts. The same seed always yields the same
/// bytes; sizes are fixed per workload so that changing the seed changes
/// content, not the amount of work.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_PERFBENCH_INPUTS_H
#define LLSTAR_PERFBENCH_INPUTS_H

#include "incremental/EditScript.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// One grammar the benchmark loads: its source text and start rule.
struct GrammarSource {
  std::string Name;
  std::string Text;
  std::string StartRule; ///< empty = the grammar's first rule
  bool Shipped = false;  ///< one of grammars/*.g (has a compiled module)
};

/// The seven shipped grammars, read from <Root>/grammars/.
std::vector<GrammarSource> shippedGrammars(const std::string &Root);
/// The paper analogs that need no host-bound predicate: Java, RatsJava,
/// CSharp, Sql, Basic (RatsC needs isTypeName and is left out).
std::vector<GrammarSource> analogGrammars();

/// A document of roughly \p Units top-level units (records, statements,
/// elements, declarations) in the language of \p G.
std::string generateUnits(const GrammarSource &G, int Units, uint64_t Seed);
/// A document of at least \p Bytes bytes (grown unit by unit).
std::string generateBytes(const GrammarSource &G, size_t Bytes, uint64_t Seed);

/// An input of some grammar: index into the workload's grammar list.
struct Item {
  int Grammar = 0;
  std::string Text;
};

/// bulk: a 64 KiB, a 256 KiB and a 1 MiB document per shipped grammar.
/// Document I is of grammar I mod (grammar count) and size class I mod 3,
/// so a closed loop cycling through them in order alternates grammars and
/// sizes the same way for every seed.
std::vector<Item> bulkCorpus(const std::vector<GrammarSource> &Grammars,
                             uint64_t Seed);
/// Index in \ref bulkCorpus of \p Grammar's document of \p SizeClass
/// (0 = 64 KiB, 1 = 256 KiB, 2 = 1 MiB).
size_t bulkIndex(size_t Grammars, size_t Grammar, size_t SizeClass);

/// daemon: \p Count requests over all grammars, stratified so every seed
/// draws the same mix: 96% carry 1-8 units (analogs: 1-2 declarations,
/// each already a class or procedure), 4% carry 64-256 (analogs: 8-32).
std::vector<Item> daemonPool(const std::vector<GrammarSource> &Grammars,
                             size_t Count, uint64_t Seed);

/// edit: an edit script that leaves the document as it found it. It is a
/// sequence of excursions: one-character typing bursts later deleted as a
/// block, block deletes later pasted back, pastes of copied blocks later
/// removed, and syntax-breaking insertions that stay broken across a few
/// digit edits before being repaired.
std::vector<llstar::incremental::Edit> editScript(const std::string &Doc,
                                                  int Excursions,
                                                  uint64_t Seed);

/// Applies \p E to \p Text in place.
void applyEditTo(std::string &Text, const llstar::incremental::Edit &E);

} // namespace perfbench

#endif // LLSTAR_PERFBENCH_INPUTS_H
