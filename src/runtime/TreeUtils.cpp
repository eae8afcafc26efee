#include "runtime/TreeUtils.h"

using namespace llstar;

void llstar::walkTree(const ArenaParseTree &Root,
                      const TreeListener &Listener) {
  if (Listener.Enter && !Listener.Enter(Root))
    return;
  for (const ArenaParseTree *C = Root.firstChild(); C; C = C->nextSibling())
    walkTree(*C, Listener);
  if (Listener.Exit)
    Listener.Exit(Root);
}

std::vector<const ArenaParseTree *>
llstar::collectRuleNodes(const ArenaParseTree &Root, int32_t RuleIndex) {
  std::vector<const ArenaParseTree *> Result;
  TreeListener L;
  L.Enter = [&](const ArenaParseTree &N) {
    if (!N.isToken() && N.ruleIndex() == RuleIndex)
      Result.push_back(&N);
    return true;
  };
  walkTree(Root, L);
  return Result;
}

std::string llstar::treeText(const ArenaParseTree &Root,
                             const TokenStream &Tokens) {
  std::string Out;
  TreeListener L;
  L.Enter = [&](const ArenaParseTree &N) {
    if (N.isToken() && N.errorKind() != ErrorNodeKind::Missing &&
        N.errorKind() != ErrorNodeKind::Marker) {
      if (!Out.empty())
        Out += ' ';
      Out += Tokens.at(N.tokenIndex()).Text;
    }
    return true;
  };
  walkTree(Root, L);
  return Out;
}
