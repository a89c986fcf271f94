//===- engine/MatchPipeline.cpp - Flat per-switch match pipeline ----------===//

#include "engine/MatchPipeline.h"

#include "fdd/Fdd.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace eventnet;
using namespace eventnet::engine;
using eventnet::netkat::Packet;

namespace {

/// Binary search in the packet's sorted field vector.
bool packetField(const Packet &Pkt, FieldId F, Value &Out) {
  const auto &Fs = Pkt.fields();
  auto It = std::lower_bound(
      Fs.begin(), Fs.end(), F,
      [](const std::pair<FieldId, Value> &A, FieldId B) { return A.first < B; });
  if (It == Fs.end() || It->first != F)
    return false;
  Out = It->second;
  return true;
}

} // namespace

MatchPipeline::MatchPipeline(const flowtable::Table &T) {
  //===------------------------------------------------------------------===//
  // Leaf interning.
  //===------------------------------------------------------------------===//
  std::map<fdd::ActionSet, int32_t> LeafIdx;
  auto internLeaf = [&](const fdd::ActionSet &Acts) -> int32_t {
    auto It = LeafIdx.find(Acts);
    if (It != LeafIdx.end())
      return It->second;
    FlatFdd::Leaf L;
    L.First = static_cast<uint32_t>(Flat.Actions.size());
    L.Count = static_cast<uint32_t>(Acts.size());
    for (const flowtable::ActionSeq &A : Acts) {
      FlatFdd::Action AR;
      AR.First = static_cast<uint32_t>(Flat.Writes.size());
      AR.Count = static_cast<uint32_t>(A.size());
      for (const auto &[F, V] : A)
        Flat.Writes.push_back({F, V});
      Flat.Actions.push_back(AR);
    }
    int32_t Idx = static_cast<int32_t>(Flat.Leaves.size());
    Flat.Leaves.push_back(L);
    LeafIdx.emplace(Acts, Idx);
    return Idx;
  };

  //===------------------------------------------------------------------===//
  // Compile the table to a diagram, flatten the DAG.
  //===------------------------------------------------------------------===//
  {
    fdd::FddManager M;
    fdd::NodeId FRoot = M.fromTable(T);
    std::unordered_map<fdd::NodeId, int32_t> Memo;
    // Iterative post-order flatten (children before parents).
    struct Frame {
      fdd::NodeId N;
      bool Expanded;
    };
    std::vector<Frame> Stack{{FRoot, false}};
    while (!Stack.empty()) {
      Frame Fr = Stack.back();
      Stack.pop_back();
      if (Memo.count(Fr.N))
        continue;
      if (M.isLeaf(Fr.N)) {
        Memo[Fr.N] = ~internLeaf(M.leafActions(Fr.N));
        continue;
      }
      if (!Fr.Expanded) {
        Stack.push_back({Fr.N, true});
        Stack.push_back({M.hi(Fr.N), false});
        Stack.push_back({M.lo(Fr.N), false});
        continue;
      }
      fdd::TestKey K = M.testKey(Fr.N);
      FlatFdd::Node NR;
      NR.F = K.F;
      NR.V = K.V;
      NR.Hi = Memo.at(M.hi(Fr.N));
      NR.Lo = Memo.at(M.lo(Fr.N));
      Memo[Fr.N] = static_cast<int32_t>(Flat.Nodes.size());
      Flat.Nodes.push_back(NR);
    }
    Flat.Root = Memo.at(FRoot);
  }

  //===------------------------------------------------------------------===//
  // Final lowering: the contiguous classifier program.
  //===------------------------------------------------------------------===//
  Cls = Classifier(Flat);
}

void MatchPipeline::emit(const Packet &Pkt, int32_t Leaf,
                         std::vector<Packet> &Out) const {
  const FlatFdd::Leaf &L = Flat.Leaves[Leaf];
  for (uint32_t A = L.First; A != L.First + L.Count; ++A) {
    Packet P = Pkt;
    const FlatFdd::Action &AR = Flat.Actions[A];
    for (uint32_t W = AR.First; W != AR.First + AR.Count; ++W)
      P.set(Flat.Writes[W].F, Flat.Writes[W].V);
    Out.push_back(std::move(P));
  }
}

void MatchPipeline::apply(const Packet &Pkt, std::vector<Packet> &Out) const {
  int32_t N = Flat.Root;
  while (N >= 0) {
    const FlatFdd::Node &Nd = Flat.Nodes[N];
    Value V;
    bool Pass = packetField(Pkt, Nd.F, V) && V == Nd.V;
    N = Pass ? Nd.Hi : Nd.Lo;
  }
  emit(Pkt, ~N, Out);
}
