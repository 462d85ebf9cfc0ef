// Active Byzantine adversary coverage (§III-B): spec grammar, option
// validation at the paper's corruption bounds, and — for every strategy at
// α = 1/4 / β = 1/2 — safety (honest nodes commit the byte-identical chain
// and final GlobalRoot of the adversary-free same-seed run), liveness,
// evidence collection, and export determinism across seeds and threads.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/adversary.h"
#include "core/coordinator.h"
#include "core/system.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "workload/soak.h"

namespace porygon::core {
namespace {

SystemOptions Opts() {
  SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.seed = 7;
  return opt;
}

tx::Transaction Transfer(uint64_t from, uint64_t to, uint64_t amount,
                         uint64_t nonce) {
  tx::Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  return t;
}

AdversarySpec MustParse(const std::string& spec) {
  auto parsed = AdversarySpec::Parse(spec);
  EXPECT_TRUE(parsed.ok()) << spec << ": " << parsed.status().message();
  return parsed.ok() ? *parsed : AdversarySpec{};
}

/// One deployment under `spec` (empty = honest) with a mixed intra/cross
/// workload, run for 10 rounds.
std::unique_ptr<PorygonSystem> RunAdversarial(const std::string& spec,
                                              bool faithful = false,
                                              bool trace = false,
                                              int threads = 0,
                                              int num_stateless = 26) {
  SystemOptions opt = Opts();
  opt.num_stateless_nodes = num_stateless;
  opt.faithful_execution = faithful;
  opt.trace.enabled = trace;
  opt.worker_threads = threads;
  if (!spec.empty()) opt.adversary = MustParse(spec);
  auto sys = std::make_unique<PorygonSystem>(opt);
  sys->CreateAccounts(120, 10'000);
  for (uint64_t f = 1; f <= 12; ++f) {
    // Same parity = same shard under 1 shard bit; +101 flips it.
    sys->SubmitTransaction(Transfer(f, f + 20, 1, 0));
    sys->SubmitTransaction(Transfer(f + 40, f + 101, 2, 0));
  }
  sys->Run(10, net::FromSeconds(600));
  return sys;
}

/// Safety assertions shared with the chaos-soak harness: the adversarial
/// run must commit the clean run's exact chain and final GlobalRoot,
/// replay cleanly, and hold evidence only against corrupted nodes.
void ExpectSameCommittedState(PorygonSystem& sys, PorygonSystem& clean) {
  workload::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckSameChain(sys, clean).ok());
  EXPECT_TRUE(checker
                  .CheckRootsMatch(sys.canonical_state().GlobalRoot(),
                                   clean.canonical_state().GlobalRoot(),
                                   sys.metrics().committed_blocks())
                  .ok());
  EXPECT_TRUE(checker.CheckNoReplayMismatches(sys).ok());
  EXPECT_TRUE(checker.CheckEvidenceOnlyAgainstMalicious(sys).ok());
  for (const std::string& v : checker.violations()) ADD_FAILURE() << v;
}

uint64_t Rejected(const PorygonSystem& sys, const char* reason) {
  const auto* c = sys.metrics_registry().FindCounter("core.rejected",
                                                     {{"reason", reason}});
  return c == nullptr ? 0 : c->value();
}

uint64_t Evidence(const PorygonSystem& sys, const char* type) {
  const auto* c =
      sys.metrics_registry().FindCounter("adversary.evidence", {{"type", type}});
  return c == nullptr ? 0 : c->value();
}

// --- Spec grammar ---------------------------------------------------------

TEST(AdversarySpecTest, ParsesAndRoundTrips) {
  AdversarySpec spec = MustParse("stateless:equivocate,alpha:0.25,seed:9");
  EXPECT_EQ(spec.stateless, AdvStrategy::kEquivocate);
  EXPECT_EQ(spec.storage, AdvStrategy::kHonest);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.25);
  EXPECT_EQ(spec.seed, 9u);

  AdversarySpec again = MustParse(spec.ToString());
  EXPECT_EQ(again.stateless, spec.stateless);
  EXPECT_EQ(again.storage, spec.storage);
  EXPECT_DOUBLE_EQ(again.alpha, spec.alpha);
  EXPECT_DOUBLE_EQ(again.beta, spec.beta);
  EXPECT_EQ(again.seed, spec.seed);

  AdversarySpec both = MustParse(
      "stateless:tamper-exec,alpha:0.2,storage:stale-reply,beta:0.4");
  EXPECT_EQ(both.stateless, AdvStrategy::kTamperExec);
  EXPECT_EQ(both.storage, AdvStrategy::kStaleReply);
  EXPECT_DOUBLE_EQ(both.beta, 0.4);
  AdversarySpec both_again = MustParse(both.ToString());
  EXPECT_EQ(both_again.storage, AdvStrategy::kStaleReply);
  EXPECT_DOUBLE_EQ(both_again.alpha, 0.2);
}

TEST(AdversarySpecTest, DefaultsToThePapersBounds) {
  AdversarySpec s = MustParse("stateless:silent");
  EXPECT_DOUBLE_EQ(s.alpha, 0.25);
  EXPECT_DOUBLE_EQ(s.beta, 0.0);

  AdversarySpec g = MustParse("storage:censor");
  EXPECT_DOUBLE_EQ(g.beta, 0.5);
  EXPECT_DOUBLE_EQ(g.alpha, 0.0);
  EXPECT_TRUE(AdversarySpec{}.empty());
  EXPECT_FALSE(g.empty());
}

TEST(AdversarySpecTest, RejectsMalformedClauses) {
  for (const char* bad : {
           "stateless:nope",       // Unknown strategy name.
           "stateless:withhold",   // Storage strategy in the stateless slot.
           "storage:equivocate",   // And vice versa.
           "alpha:2",              // Fraction outside [0,1].
           "beta:-0.1",            //
           "seed:xyz",             // Not a number.
           "bogus:1",              // Unknown key.
           "stateless",            // Missing value.
       }) {
    auto parsed = AdversarySpec::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
}

// --- Option validation at the paper's bounds (satellite) ------------------

TEST(AdversaryOptionsTest, ValidateEnforcesPaperBounds) {
  {
    SystemOptions opt = Opts();
    opt.adversary = MustParse("stateless:silent,alpha:0.3");
    Status st = opt.Validate();
    ASSERT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.message().find("alpha"), std::string::npos) << st.message();
  }
  {
    SystemOptions opt = Opts();
    opt.adversary = MustParse("storage:withhold,beta:0.6");
    Status st = opt.Validate();
    ASSERT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.message().find("beta"), std::string::npos) << st.message();
  }
  {
    // Every strategy is held to the same bounds.
    SystemOptions opt = Opts();
    opt.adversary = MustParse("stateless:equivocate,alpha:0.3");
    EXPECT_TRUE(opt.Validate().IsInvalidArgument());
    opt.adversary = MustParse("storage:censor,beta:0.6");
    EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  }
  {
    // The bounds themselves are admissible (α = 1/4, β = 1/2).
    SystemOptions opt = Opts();
    opt.adversary =
        MustParse("stateless:silent,alpha:0.25,storage:withhold,beta:0.5");
    EXPECT_TRUE(opt.Validate().ok()) << opt.Validate().message();
    opt = Opts();
    opt.adversary =
        MustParse("stateless:equivocate,alpha:0.25,storage:censor,beta:0.5");
    EXPECT_TRUE(opt.Validate().ok()) << opt.Validate().message();
  }
}

// --- Network drop filter (satellite) --------------------------------------

TEST(AdversaryNetTest, DropFilterCountsReasonLabelledDrops) {
  PorygonSystem sys(Opts());
  sys.CreateAccounts(40, 10'000);
  uint64_t filtered = 0;
  sys.network()->SetDropFilter([&](const net::Message& msg) {
    if (msg.kind == kMsgWitnessUpload && filtered < 5) {
      ++filtered;
      return true;
    }
    return false;
  });
  for (uint64_t f = 1; f <= 8; ++f) {
    sys.SubmitTransaction(Transfer(f, f + 20, 1, 0));
  }
  sys.Run(4, net::FromSeconds(600));
  EXPECT_EQ(filtered, 5u);
  const auto* dropped = sys.metrics_registry()->FindCounter(
      "net.dropped_messages", {{"reason", "drop_filter"}});
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), filtered);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

// --- Safety: chain identity under every strategy --------------------------

TEST(AdversaryTest, HonestChainSurvivesEveryStrategyAtPaperBounds) {
  // §III-B's safety argument assumes every EC cohort keeps an honest
  // majority (the paper sizes committees so this holds with high
  // probability). 26 nodes split into per-shard cohorts of 3-4, where a
  // corrupted pair can outnumber a lone honest member; 38 keeps cohorts
  // large enough that α = 1/4 leaves an honest majority everywhere.
  constexpr int kNodes = 38;
  auto clean = RunAdversarial("", false, false, 0, kNodes);
  const uint64_t clean_blocks = clean->metrics().committed_blocks();
  ASSERT_EQ(clean_blocks, 10u);
  ASSERT_GT(clean->metrics().committed_txs(), 0u);
  EXPECT_EQ(clean->adversary()->actions(), 0u);

  for (const char* spec : {
           "stateless:silent,alpha:0.25",
           "stateless:equivocate,alpha:0.25",
           "stateless:forge-witness,alpha:0.25",
           "stateless:tamper-exec,alpha:0.25",
           "storage:censor,beta:0.5",
       }) {
    SCOPED_TRACE(spec);
    auto sys = RunAdversarial(spec, false, false, 0, kNodes);
    // Liveness: every round still closes. Safety: the honest nodes commit
    // exactly the clean run's blocks and converge on its final state root.
    EXPECT_EQ(sys->metrics().committed_blocks(), clean_blocks);
    ExpectSameCommittedState(*sys, *clean);
    // The adversary really did act; it just didn't get anywhere.
    EXPECT_GT(sys->adversary()->actions(), 0u);
  }
}

TEST(AdversaryTest, EquivocationLeavesAttributableEvidence) {
  auto sys = RunAdversarial("stateless:equivocate,alpha:0.25");
  ASSERT_GE(sys->equivocation_evidence().size(), 1u);
  EXPECT_GT(Evidence(*sys, "equivocation"), 0u);
  EXPECT_GT(sys->adversary()->evidence(), 0u);

  // The record is self-contained and attributable: both votes are for the
  // same (instance, step, kind), carry different values, and verify under
  // the equivocator's own key — enough to convince a third party.
  const auto& ev = sys->equivocation_evidence().front();
  EXPECT_EQ(ev.first.instance, ev.second.instance);
  EXPECT_EQ(ev.first.step, ev.second.step);
  EXPECT_EQ(ev.first.kind, ev.second.kind);
  EXPECT_EQ(ev.first.voter, ev.second.voter);
  EXPECT_NE(ev.first.value, ev.second.value);
  EXPECT_TRUE(sys->provider()->Verify(ev.first.voter, ev.first.SigningBytes(),
                                      ev.first.signature));
  EXPECT_TRUE(sys->provider()->Verify(ev.second.voter,
                                      ev.second.SigningBytes(),
                                      ev.second.signature));
}

TEST(AdversaryTest, ForgedWitnessUploadsAreRejectedAndCounted) {
  auto sys = RunAdversarial("stateless:forge-witness,alpha:0.25");
  // Garbage signatures over real block ids fail verification; uploads for
  // fabricated ("ghost") block ids never match a stored block.
  EXPECT_GT(Rejected(*sys, "bad_witness_sig"), 0u);
  EXPECT_GT(Rejected(*sys, "unknown_block"), 0u);
  EXPECT_GT(sys->adversary()->actions(), 0u);
}

TEST(AdversaryTest, TamperedExecResultsLeaveDivergenceEvidence) {
  auto sys = RunAdversarial("stateless:tamper-exec,alpha:0.25");
  // Honest OC members see conflicting result keys for the same
  // (round, shard) and record the divergence; the honest supermajority
  // outvotes the tampered root at aggregation.
  EXPECT_GT(Evidence(*sys, "divergent_exec_result"), 0u);
  EXPECT_GT(sys->adversary()->evidence(), 0u);
}

// --- Storage-side strategies ----------------------------------------------

TEST(AdversaryTest, TamperedStateRepliesFailTheProofCrossCheck) {
  // Faithful mode: ESC members rebuild PartialStates from storage replies,
  // cross-checking every entry's Merkle proof against committed roots. A
  // tampering storage node doctors values but cannot forge proofs, so the
  // reply is rejected and re-requested from an honest connection.
  auto clean = RunAdversarial("", /*faithful=*/true);
  auto sys = RunAdversarial("storage:tamper-state,beta:0.5", /*faithful=*/true);
  EXPECT_GT(Rejected(*sys, "bad_state_proof"), 0u);
  EXPECT_GT(sys->adversary()->actions(), 0u);
  EXPECT_EQ(sys->metrics().committed_blocks(),
            clean->metrics().committed_blocks());
  ExpectSameCommittedState(*sys, *clean);
}

TEST(AdversaryTest, StaleResyncRepliesAreRejectedWithoutStalling) {
  SystemOptions opt = Opts();
  opt.adversary = MustParse("storage:stale-reply,beta:0.5");
  // Fire the round watchdog between NewRounds so nodes probe/resync often;
  // every resync answered by the stale storage node replays the genesis
  // tip, which the round-regression guard rejects.
  opt.params.storage_watchdog_us = 900'000;
  PorygonSystem sys(opt);
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 10; ++f) {
    sys.SubmitTransaction(Transfer(f, f + 20, 1, 0));
  }
  sys.Run(10, net::FromSeconds(600));
  EXPECT_EQ(sys.metrics().committed_blocks(), 10u);
  EXPECT_GT(sys.metrics().committed_txs(), 0u);
  EXPECT_GT(Rejected(sys, "stale_round"), 0u);
  EXPECT_GT(sys.adversary()->actions(), 0u);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

// --- Cross-shard update hardening -----------------------------------------

TEST(AdversaryCoordinatorTest, UnlockedUpdatesAreDroppedFromUpdateLists) {
  CrossShardCoordinator coord(/*shard_bits=*/1, /*retry_rounds=*/2);
  obs::MetricsRegistry registry;
  obs::Counter* rejected =
      registry.GetCounter("core.rejected", {{"reason", "unlocked_update"}});
  coord.set_rejected_counter(rejected);

  // Lock {2, 5} via one accepted cross-shard transaction.
  auto filtered = coord.FilterAndLock(7, {Transfer(2, 5, 1, 0)});
  ASSERT_EQ(filtered.accepted_cross.size(), 1u);
  ASSERT_TRUE(coord.IsLocked(2));
  ASSERT_TRUE(coord.IsLocked(5));

  // An S set smuggling a write to account 9 (never locked) alongside the
  // legitimate updates: the forged write is dropped, the rest routed.
  tx::StateUpdate good_a;
  good_a.account = 2;
  good_a.value.balance = 99;
  tx::StateUpdate good_b;
  good_b.account = 5;
  good_b.value.balance = 101;
  tx::StateUpdate forged;
  forged.account = 9;
  forged.value.balance = 1'000'000;
  auto lists = coord.BuildUpdateList(7, {{good_a, forged}, {good_b}}, {});
  size_t routed = 0;
  for (const auto& shard : lists) routed += shard.size();
  EXPECT_EQ(routed, 2u);
  EXPECT_EQ(rejected->value(), 1u);

  // With no batch locked at all, every update is a replay: all dropped.
  auto none = coord.BuildUpdateList(8, {{good_a}}, {});
  routed = 0;
  for (const auto& shard : none) routed += shard.size();
  EXPECT_EQ(routed, 0u);
  EXPECT_EQ(rejected->value(), 2u);
}

// --- Determinism ----------------------------------------------------------

TEST(AdversaryTest, SameSeedSameSpecReplaysByteIdentically) {
  const std::string spec =
      "stateless:equivocate,alpha:0.25,storage:censor,beta:0.5,seed:11";
  auto a = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true);
  auto b = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true);
  EXPECT_EQ(a->canonical_state().GlobalRoot(), b->canonical_state().GlobalRoot());
  EXPECT_EQ(a->metrics().ToJson(), b->metrics().ToJson());
  EXPECT_EQ(a->metrics().ToCsv(), b->metrics().ToCsv());
  EXPECT_EQ(a->tracer()->ExportChromeJson(), b->tracer()->ExportChromeJson());
}

TEST(AdversaryThreadInvarianceTest, AdversarialExportsAreThreadInvariant) {
  unsetenv("PORYGON_THREADS");
  const std::string spec = "stateless:tamper-exec,alpha:0.25,seed:11";
  auto serial = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true,
                               /*threads=*/0);
  auto pooled = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true,
                               /*threads=*/4);
  EXPECT_EQ(serial->canonical_state().GlobalRoot(),
            pooled->canonical_state().GlobalRoot());
  EXPECT_EQ(serial->metrics().ToJson(), pooled->metrics().ToJson());
  EXPECT_EQ(serial->tracer()->ExportChromeJson(),
            pooled->tracer()->ExportChromeJson());
}

}  // namespace
}  // namespace porygon::core
