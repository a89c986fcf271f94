//===- tests/engine/MatchPipelineTest.cpp - Flat lowering agreement -------===//
//
// The match pipeline's two lookups (the classifier program and the
// flattened-FDD walk it is lowered from) must agree with the reference
// flowtable::Table on arbitrary packets — both on random tables and on
// every real table the compiler produces for the case-study applications
// (including the tag-guarded union tables).
//
//===----------------------------------------------------------------------===//

#include "engine/MatchPipeline.h"

#include "apps/Programs.h"
#include "flowtable/FlowTable.h"
#include "nes/Pipeline.h"
#include "runtime/Guarded.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace eventnet;
using namespace eventnet::engine;
using eventnet::flowtable::ActionSeq;
using eventnet::flowtable::Rule;
using eventnet::flowtable::Table;
using eventnet::netkat::Packet;

namespace {

/// Sorted (canonical) rendering of an output packet set; the pipeline's
/// multicast order and duplicate handling may differ from Table::apply
/// (it interns action *sets*), so agreement is up to set equality.
std::vector<Packet> canon(std::vector<Packet> V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
  return V;
}

std::vector<Packet> tableOut(const Table &T, const Packet &P) {
  return canon(T.apply(P));
}

std::vector<Packet> fddOut(const MatchPipeline &M, const Packet &P) {
  std::vector<Packet> Out;
  M.apply(P, Out);
  return canon(Out);
}

std::vector<Packet> classifierOut(const MatchPipeline &M, const Packet &P) {
  std::vector<Packet> Out;
  M.applyClassifier(P, Out);
  return canon(Out);
}

/// A random packet over a small field/value universe (fields may be
/// missing to exercise absent-field test semantics).
Packet randomPacket(Rng &R, const std::vector<FieldId> &Fields) {
  Packet P;
  P.setLoc({static_cast<SwitchId>(R.range(1, 4)),
            static_cast<PortId>(R.range(1, 4))});
  for (FieldId F : Fields)
    if (R.chance(0.7))
      P.set(F, R.range(0, 3));
  return P;
}

Table randomTable(Rng &R, const std::vector<FieldId> &Fields) {
  Table T;
  unsigned NumRules = static_cast<unsigned>(R.range(0, 12));
  for (unsigned I = 0; I != NumRules; ++I) {
    Rule Ru;
    Ru.Priority = static_cast<int>(R.range(0, 9));
    for (FieldId F : Fields)
      if (R.chance(0.4))
        Ru.Pattern.require(F, R.range(0, 3));
    unsigned NumActs = static_cast<unsigned>(R.range(0, 2)); // 0 = drop
    for (unsigned A = 0; A != NumActs; ++A) {
      std::vector<std::pair<FieldId, Value>> Writes;
      Writes.push_back({FieldPt, R.range(1, 4)});
      if (R.chance(0.5))
        Writes.push_back({Fields[R.below(Fields.size())], R.range(0, 3)});
      Ru.Actions.push_back(flowtable::normalizeActionSeq(Writes));
    }
    T.add(std::move(Ru));
  }
  return T;
}

void expectAgreement(const Table &T, const Packet &P) {
  MatchPipeline M(T);
  auto Ref = tableOut(T, P);
  EXPECT_EQ(fddOut(M, P), Ref) << "FDD walk diverged on " << P.str()
                               << "\ntable:\n"
                               << T.str();
  EXPECT_EQ(classifierOut(M, P), Ref)
      << "classifier diverged on " << P.str() << "\ntable:\n" << T.str();
}

} // namespace

TEST(MatchPipeline, EmptyTableDropsEverything) {
  Table T;
  MatchPipeline M(T);
  std::vector<Packet> Out;
  M.apply(netkat::makePacket({1, 1}, {}), Out);
  EXPECT_TRUE(Out.empty());
  M.applyClassifier(netkat::makePacket({1, 1}, {}), Out);
  EXPECT_TRUE(Out.empty());
}

TEST(MatchPipeline, FirstMatchAndMulticast) {
  FieldId Dst = fieldOf("ip_dst");
  Table T;
  Rule Hi;
  Hi.Priority = 10;
  Hi.Pattern.require(Dst, 4);
  Hi.Actions = {flowtable::normalizeActionSeq({{FieldPt, 1}}),
                flowtable::normalizeActionSeq({{FieldPt, 3}})};
  Rule Lo;
  Lo.Priority = 1;
  Lo.Actions = {flowtable::normalizeActionSeq({{FieldPt, 2}})};
  T.add(Hi);
  T.add(Lo);

  MatchPipeline M(T);
  Packet P = netkat::makePacket({1, 2}, {{Dst, 4}});
  std::vector<Packet> Out;
  M.apply(P, Out);
  EXPECT_EQ(Out.size(), 2u); // multicast
  expectAgreement(T, P);
  expectAgreement(T, netkat::makePacket({1, 2}, {{Dst, 5}}));
  expectAgreement(T, netkat::makePacket({1, 2}, {}));
}

TEST(MatchPipeline, RandomTablesAgreeWithReference) {
  Rng R(2024);
  std::vector<FieldId> Fields = {fieldOf("ip_dst"), fieldOf("kind"),
                                 fieldOf("__tag")};
  for (int Iter = 0; Iter != 200; ++Iter) {
    Table T = randomTable(R, Fields);
    MatchPipeline M(T);
    for (int I = 0; I != 25; ++I) {
      Packet P = randomPacket(R, Fields);
      auto Ref = tableOut(T, P);
      ASSERT_EQ(fddOut(M, P), Ref)
          << "FDD walk diverged on " << P.str() << "\ntable:\n" << T.str();
      ASSERT_EQ(classifierOut(M, P), Ref)
          << "classifier diverged on " << P.str() << "\ntable:\n" << T.str();
    }
  }
}

TEST(MatchPipeline, CompiledAppTablesAgree) {
  Rng R(7);
  for (const apps::App &A : apps::caseStudyApps()) {
    api::Result<nes::CompiledProgram> CR =
        A.Source.empty() ? nes::compileAst(A.Ast, A.Topo)
                         : nes::compileSource(A.Source, A.Topo);
    ASSERT_TRUE(CR.ok()) << A.Name << ": " << CR.status().str();
    nes::CompiledProgram &C = *CR;

    std::vector<FieldId> Fields = {apps::ipDstField(), apps::probeField(),
                                   runtime::tagField()};
    // Every per-set per-switch table, plus the tag-guarded union table.
    for (nes::SetId S = 0; S != C.N->numSets(); ++S)
      for (SwitchId Sw : A.Topo.switches()) {
        const flowtable::Table &T = C.N->configOf(S).tableFor(Sw);
        MatchPipeline M(T);
        for (int I = 0; I != 40; ++I) {
          Packet P = randomPacket(R, Fields);
          ASSERT_EQ(fddOut(M, P), tableOut(T, P)) << A.Name;
          ASSERT_EQ(classifierOut(M, P), tableOut(T, P)) << A.Name;
        }
      }
    topo::Configuration G = runtime::buildGuardedConfig(*C.N, A.Topo);
    for (SwitchId Sw : A.Topo.switches()) {
      const flowtable::Table &T = G.tableFor(Sw);
      MatchPipeline M(T);
      for (int I = 0; I != 40; ++I) {
        Packet P = randomPacket(R, Fields);
        P.set(runtime::tagField(),
              R.range(0, static_cast<int64_t>(C.N->numSets()) - 1));
        ASSERT_EQ(fddOut(M, P), tableOut(T, P)) << A.Name << " guarded";
        ASSERT_EQ(classifierOut(M, P), tableOut(T, P))
            << A.Name << " guarded";
      }
    }
  }
}
