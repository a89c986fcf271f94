//===- flowtable/FlowTable.cpp - Prioritized match/action tables ----------===//

#include "flowtable/FlowTable.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace eventnet;
using namespace eventnet::flowtable;
using eventnet::netkat::Packet;

//===----------------------------------------------------------------------===//
// Match
//===----------------------------------------------------------------------===//

void Match::require(FieldId F, Value V) {
  auto It = std::lower_bound(
      Cs.begin(), Cs.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  if (It != Cs.end() && It->first == F) {
    It->second = V;
    return;
  }
  Cs.insert(It, {F, V});
}

bool Match::matches(const Packet &Pkt) const {
  for (const auto &[F, V] : Cs)
    if (!Pkt.has(F) || Pkt.get(F) != V)
      return false;
  return true;
}

bool Match::subsumes(const Match &Other) const {
  // Every constraint of this must appear identically in Other.
  size_t J = 0;
  for (const auto &[F, V] : Cs) {
    while (J != Other.Cs.size() && Other.Cs[J].first < F)
      ++J;
    if (J == Other.Cs.size() || Other.Cs[J].first != F ||
        Other.Cs[J].second != V)
      return false;
  }
  return true;
}

bool Match::overlaps(const Match &Other) const {
  size_t I = 0, J = 0;
  while (I != Cs.size() && J != Other.Cs.size()) {
    if (Cs[I].first < Other.Cs[J].first) {
      ++I;
    } else if (Cs[I].first > Other.Cs[J].first) {
      ++J;
    } else {
      if (Cs[I].second != Other.Cs[J].second)
        return false;
      ++I;
      ++J;
    }
  }
  return true;
}

std::string Match::str() const {
  if (Cs.empty())
    return "*";
  std::ostringstream OS;
  for (size_t I = 0; I != Cs.size(); ++I) {
    if (I)
      OS << ", ";
    OS << fieldName(Cs[I].first) << '=' << Cs[I].second;
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Actions
//===----------------------------------------------------------------------===//

ActionSeq flowtable::normalizeActionSeq(
    const std::vector<std::pair<FieldId, Value>> &Writes) {
  ActionSeq Out;
  for (const auto &[F, V] : Writes) {
    auto It = std::lower_bound(
        Out.begin(), Out.end(), F,
        [](const std::pair<FieldId, Value> &P, FieldId X) {
          return P.first < X;
        });
    if (It != Out.end() && It->first == F)
      It->second = V;
    else
      Out.insert(It, {F, V});
  }
  return Out;
}

Packet flowtable::applyActionSeq(const ActionSeq &A, const Packet &Pkt) {
  Packet Out = Pkt;
  for (const auto &[F, V] : A)
    Out.set(F, V);
  return Out;
}

//===----------------------------------------------------------------------===//
// Rule / Table
//===----------------------------------------------------------------------===//

std::string Rule::str() const {
  std::ostringstream OS;
  OS << '[' << Priority << "] " << Pattern.str() << " => ";
  if (Actions.empty()) {
    OS << "drop";
    return OS.str();
  }
  for (size_t I = 0; I != Actions.size(); ++I) {
    if (I)
      OS << " | ";
    if (Actions[I].empty()) {
      OS << "id";
      continue;
    }
    for (size_t J = 0; J != Actions[I].size(); ++J) {
      if (J)
        OS << ", ";
      OS << fieldName(Actions[I][J].first) << ":=" << Actions[I][J].second;
    }
  }
  return OS.str();
}

Table::Table(std::vector<Rule> InRules) {
  for (Rule &R : InRules)
    add(std::move(R));
}

void Table::add(Rule R) {
  auto It = std::find_if(Rules.begin(), Rules.end(), [&R](const Rule &Q) {
    return Q.Priority < R.Priority;
  });
  Rules.insert(It, std::move(R));
}

const Rule *Table::lookup(const Packet &Pkt) const {
  for (const Rule &R : Rules)
    if (R.Pattern.matches(Pkt))
      return &R;
  return nullptr;
}

std::vector<Packet> Table::apply(const Packet &Pkt) const {
  const Rule *R = lookup(Pkt);
  if (!R)
    return {};
  std::vector<Packet> Out;
  Out.reserve(R->Actions.size());
  for (const ActionSeq &A : R->Actions)
    Out.push_back(applyActionSeq(A, Pkt));
  return Out;
}

size_t Table::removeShadowed() {
  std::vector<Rule> Kept;
  size_t Removed = 0;
  for (const Rule &R : Rules) {
    bool Shadowed = false;
    for (const Rule &Earlier : Kept)
      if (Earlier.Pattern.subsumes(R.Pattern)) {
        Shadowed = true;
        break;
      }
    if (Shadowed) {
      ++Removed;
      continue;
    }
    Kept.push_back(R);
  }
  Rules = std::move(Kept);
  return Removed;
}

std::string Table::str() const {
  std::ostringstream OS;
  for (const Rule &R : Rules)
    OS << R.str() << '\n';
  return OS.str();
}
