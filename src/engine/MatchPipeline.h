//===- engine/MatchPipeline.h - Flat per-switch match pipeline --*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's lowering of a flowtable::Table into contiguous arrays the
/// hot path can walk without pointer-chasing std::map nodes. The table is
/// recompiled into a forwarding decision diagram
/// (fdd::FddManager::fromTable), the diagram is flattened into a flat
/// node array with interned action lists, and that is lowered one step
/// further into the *classifier program* (engine/Classifier.h): a single
/// arena of multi-way dispatch ops, the engine's only lookup.
///
/// The flattened FDD stays walkable through apply() as the
/// differential-testing oracle: a lookup follows hi/lo indices — at most
/// one test per (field, value) pair on the path — and lands on an
/// interned action list. MatchPipelineTest and ClassifierPropertyTest
/// check classifier == walk == Table::apply on random packets.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_MATCHPIPELINE_H
#define EVENTNET_ENGINE_MATCHPIPELINE_H

#include "engine/Classifier.h"
#include "flowtable/FlowTable.h"
#include "netkat/Packet.h"
#include "support/Ids.h"

#include <cstdint>
#include <vector>

namespace eventnet {
namespace engine {

/// Compact, immutable, thread-safe-for-reads lowering of one table.
class MatchPipeline {
public:
  MatchPipeline() = default;
  explicit MatchPipeline(const flowtable::Table &T);

  /// FDD-walk lookup (the test oracle): appends the matched rule's
  /// rewritten packets to \p Out (nothing on a miss/drop).
  void apply(const netkat::Packet &Pkt,
             std::vector<netkat::Packet> &Out) const;

  /// Classifier-program lookup; same semantics as apply(), emitting into
  /// the recycled buffer (allocation-free once \p Out is warm).
  void applyClassifier(const netkat::Packet &Pkt, PacketBuf &Out) const {
    Cls.apply(Pkt, Out);
  }
  void applyClassifier(const netkat::Packet &Pkt,
                       std::vector<netkat::Packet> &Out) const {
    Cls.apply(Pkt, Out);
  }

  /// The lowered classifier program (for prefetching and stats).
  const Classifier &classifier() const { return Cls; }

  size_t numNodes() const { return Flat.Nodes.size(); }
  size_t numLeaves() const { return Flat.Leaves.size(); }

private:
  void emit(const netkat::Packet &Pkt, int32_t Leaf,
            std::vector<netkat::Packet> &Out) const;

  /// The flattened FDD (walk oracle) and its final lowering.
  FlatFdd Flat;
  Classifier Cls;
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_MATCHPIPELINE_H
