//===- flowtable/FlowTable.h - Prioritized match/action tables --*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-table intermediate representation that the FDD compiler
/// targets and the simulated switches execute: prioritized rules with
/// exact-match patterns (absent field = wildcard) and multicast action
/// sets. This is the same abstraction as an OpenFlow table restricted to
/// exact matches, which is all NetKAT tests require.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_FLOWTABLE_FLOWTABLE_H
#define EVENTNET_FLOWTABLE_FLOWTABLE_H

#include "netkat/Packet.h"
#include "support/Ids.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace eventnet {
namespace flowtable {

/// An exact-match pattern: a sorted (by field) list of required
/// field=value constraints. A field not mentioned is wildcarded.
class Match {
public:
  Match() = default;

  /// Adds (or overwrites) the constraint \p F == \p V.
  void require(FieldId F, Value V);

  /// Returns true if \p Pkt satisfies every constraint.
  bool matches(const netkat::Packet &Pkt) const;

  /// Returns true if this pattern is at least as general as \p Other,
  /// i.e. every packet matching \p Other also matches this.
  bool subsumes(const Match &Other) const;

  /// Returns true if some packet can match both patterns.
  bool overlaps(const Match &Other) const;

  const std::vector<std::pair<FieldId, Value>> &constraints() const {
    return Cs;
  }
  bool isWildcard() const { return Cs.empty(); }

  std::string str() const;

  friend bool operator==(const Match &A, const Match &B) {
    return A.Cs == B.Cs;
  }
  friend bool operator<(const Match &A, const Match &B) { return A.Cs < B.Cs; }

private:
  std::vector<std::pair<FieldId, Value>> Cs;
};

/// A single action: an ordered set of field writes applied to the packet.
/// Writing the reserved pt field selects the output port; the write set is
/// stored sorted by field (last-write-wins collapse happens at build
/// time), so equality is structural.
using ActionSeq = std::vector<std::pair<FieldId, Value>>;

/// Normalizes \p Writes: sorts by field, later writes win.
ActionSeq normalizeActionSeq(const std::vector<std::pair<FieldId, Value>> &Writes);

/// Applies \p A to \p Pkt, returning the rewritten packet.
netkat::Packet applyActionSeq(const ActionSeq &A, const netkat::Packet &Pkt);

/// A prioritized rule. An empty Actions vector is an explicit drop.
struct Rule {
  int Priority = 0;
  Match Pattern;
  std::vector<ActionSeq> Actions;

  std::string str() const;

  friend bool operator==(const Rule &A, const Rule &B) {
    return A.Priority == B.Priority && A.Pattern == B.Pattern &&
           A.Actions == B.Actions;
  }
};

/// A flow table: rules checked highest priority first; the first match
/// wins; a packet matching no rule is dropped (the OpenFlow table-miss
/// default the paper's firewall discussion relies on).
class Table {
public:
  Table() = default;
  explicit Table(std::vector<Rule> Rules);

  /// Adds a rule, keeping rules sorted by descending priority (stable for
  /// equal priorities).
  void add(Rule R);

  /// Looks up the first matching rule, or nullptr on table miss.
  const Rule *lookup(const netkat::Packet &Pkt) const;

  /// Processes \p Pkt: applies the matched rule's actions, producing zero
  /// (drop / miss) or more output packets.
  std::vector<netkat::Packet> apply(const netkat::Packet &Pkt) const;

  const std::vector<Rule> &rules() const { return Rules; }
  size_t size() const { return Rules.size(); }
  bool empty() const { return Rules.empty(); }

  /// Removes rules that can never be reached because an earlier rule with
  /// a more general pattern shadows them; returns the number removed.
  /// (Purely a size optimization; semantics preserved.)
  size_t removeShadowed();

  std::string str() const;

  friend bool operator==(const Table &A, const Table &B) {
    return A.Rules == B.Rules;
  }

private:
  std::vector<Rule> Rules;
};

} // namespace flowtable
} // namespace eventnet

#endif // EVENTNET_FLOWTABLE_FLOWTABLE_H
