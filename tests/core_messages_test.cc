// Wire-format round-trip tests for every protocol message, plus the
// phase-accounting map (Fig 9b's buckets).

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/rng.h"
#include "core/messages.h"
#include "crypto/provider.h"

namespace porygon::core {
namespace {

crypto::Hash256 H(uint8_t tag) {
  crypto::Hash256 h{};
  h[0] = tag;
  return h;
}

// True when `decode` rejects `valid`, cut at the list count starting at byte
// `at` and followed by a forged 2^40 count plus padding, through the count
// bound rather than a truncation: what a Byzantine peer sends to make a
// decoder size a huge allocation.
template <typename DecodeFn>
bool RejectsForgedCount(DecodeFn decode, const Bytes& valid, size_t at) {
  Encoder forged;
  forged.PutFixed(ByteView(valid.data(), at));
  forged.PutVarint(uint64_t{1} << 40);
  forged.PutFixed(Bytes(16, 0));
  const Status s = decode(forged.buffer()).status();
  return s.IsCorruption() && s.message() == "element count exceeds input";
}

TEST(MessagesTest, RoleAnnounceRoundTrip) {
  crypto::FastProvider provider;
  Rng rng(1);
  auto kp = provider.GenerateKeyPair(&rng);
  RoleAnnounce a;
  a.round = 42;
  a.role = static_cast<uint8_t>(Role::kExecution);
  a.shard = 3;
  a.sortition = 0.125;
  a.node_key = kp.public_key;
  a.proof = provider.Prove(kp.private_key, ToBytes("seed"));
  a.node_id = 17;

  auto d = RoleAnnounce::Decode(a.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->round, 42u);
  EXPECT_EQ(d->shard, 3u);
  EXPECT_EQ(d->sortition, 0.125);
  EXPECT_EQ(d->node_key, kp.public_key);
  EXPECT_EQ(d->proof.output, a.proof.output);
  EXPECT_EQ(d->node_id, 17u);
}

TEST(MessagesTest, WitnessUploadRoundTrip) {
  WitnessUpload w;
  w.round = 5;
  w.shard = 2;
  w.proof.block_id = H(1);
  w.proof.witness.fill(0xAA);
  w.proof.signature.fill(0xBB);
  auto d = WitnessUpload::Decode(w.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->round, 5u);
  EXPECT_EQ(d->proof.block_id, H(1));
  EXPECT_EQ(d->proof.signature, w.proof.signature);
}

TEST(MessagesTest, WitnessBundleRoundTripAndWireSize) {
  WitnessBundle bundle;
  bundle.batch_round = 9;
  WitnessedBlock wb;
  wb.header.shard = 1;
  wb.header.tx_count = 2;
  tx::WitnessProof proof;
  proof.block_id = H(2);
  wb.proofs.push_back(proof);
  wb.accesses.push_back({H(3), 10, 20, 5, 0, 1000});
  wb.accesses.push_back({H(4), 11, 21, 6, 1, 1001});
  bundle.blocks.push_back(wb);

  auto d = WitnessBundle::Decode(bundle.Encode());
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->blocks.size(), 1u);
  EXPECT_EQ(d->blocks[0].accesses.size(), 2u);
  EXPECT_EQ(d->blocks[0].accesses[1].to, 21u);

  // Wire size charges the compressed encoding (6 B/access), far below the
  // in-memory payload.
  EXPECT_LT(bundle.WireSize(), bundle.Encode().size());
}

TEST(MessagesTest, ExecRequestRoundTrip) {
  ExecRequest req;
  req.round = 7;
  req.shard = 1;
  req.block_ids = {H(5), H(6)};
  req.updates = {{100, {2000, 3}}};
  req.discarded = {H(7)};
  req.shard_root = H(8);
  req.all_roots = {H(9), H(10)};
  req.members = {4, 8, 15};

  auto d = ExecRequest::Decode(req.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->block_ids.size(), 2u);
  EXPECT_EQ(d->updates[0].account, 100u);
  EXPECT_EQ(d->updates[0].value.balance, 2000u);
  EXPECT_EQ(d->discarded[0], H(7));
  EXPECT_EQ(d->all_roots[1], H(10));
  EXPECT_EQ(d->members, (std::vector<net::NodeId>{4, 8, 15}));
}

TEST(MessagesTest, StateRequestResponseRoundTrip) {
  StateRequest req;
  req.round = 3;
  req.shard = 0;
  req.accounts = {1, 2, 3};
  auto dreq = StateRequest::Decode(req.Encode());
  ASSERT_TRUE(dreq.ok());
  EXPECT_EQ(dreq->accounts, req.accounts);

  StateResponse resp;
  resp.round = 3;
  resp.shard = 0;
  resp.entries = {{1, true, {500, 2}}, {2, false, {}}};
  resp.proof_bytes = 256;
  resp.proofs = {ToBytes("proof-one"), ToBytes("proof-two")};
  auto dresp = StateResponse::Decode(resp.Encode());
  ASSERT_TRUE(dresp.ok());
  EXPECT_EQ(dresp->entries.size(), 2u);
  EXPECT_TRUE(dresp->entries[0].present);
  EXPECT_FALSE(dresp->entries[1].present);
  EXPECT_EQ(dresp->proof_bytes, 256u);
  EXPECT_EQ(dresp->proofs[1], ToBytes("proof-two"));
}

TEST(MessagesTest, ExecResultAttestationOmitsPayload) {
  crypto::FastProvider provider;
  Rng rng(2);
  auto kp = provider.GenerateKeyPair(&rng);

  ExecResultMsg full;
  full.exec_round = 4;
  full.shard = 1;
  full.new_root = H(11);
  full.s_set = {{7, {70, 1}}, {8, {80, 0}}};
  full.s_hash = ExecResultMsg::HashSSet(full.s_set);
  full.full = true;
  full.signer = kp.public_key;
  full.signature = provider.Sign(kp.private_key, full.SigningBytes());

  ExecResultMsg attest = full;
  attest.full = false;
  attest.s_set.clear();

  // Attestations are much smaller but sign the same content.
  EXPECT_LT(attest.Encode().size(), full.Encode().size());
  EXPECT_EQ(attest.SigningBytes(), full.SigningBytes());

  auto dfull = ExecResultMsg::Decode(full.Encode());
  ASSERT_TRUE(dfull.ok());
  EXPECT_EQ(dfull->s_set.size(), 2u);
  EXPECT_EQ(ExecResultMsg::HashSSet(dfull->s_set), dfull->s_hash);

  auto dattest = ExecResultMsg::Decode(attest.Encode());
  ASSERT_TRUE(dattest.ok());
  EXPECT_TRUE(dattest->s_set.empty());
  EXPECT_EQ(dattest->s_hash, full.s_hash);
}

TEST(MessagesTest, RelayRoundTrip) {
  Relay r;
  r.target = Relay::kToShardCommittee;
  r.round = 12;
  r.shard = 3;
  r.dest = 77;
  r.inner_kind = kMsgExecResult;
  r.inner = ToBytes("inner-bytes");
  auto d = Relay::Decode(r.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->target, Relay::kToShardCommittee);
  EXPECT_EQ(d->round, 12u);
  EXPECT_EQ(d->inner_kind, kMsgExecResult);
  EXPECT_EQ(d->inner, ToBytes("inner-bytes"));
}

TEST(MessagesTest, PhaseMapCoversProtocolKinds) {
  EXPECT_EQ(PhaseOfKind(kMsgTxBlock), 0);
  EXPECT_EQ(PhaseOfKind(kMsgWitnessUpload), 0);
  EXPECT_EQ(PhaseOfKind(kMsgWitnessBundle), 1);
  EXPECT_EQ(PhaseOfKind(kMsgVote), 1);
  EXPECT_EQ(PhaseOfKind(kMsgStateResponse), 2);
  EXPECT_EQ(PhaseOfKind(kMsgExecResult), 2);
  EXPECT_EQ(PhaseOfKind(kMsgCommit), 3);
  EXPECT_EQ(PhaseOfKind(kMsgNewRound), 3);
  EXPECT_EQ(PhaseOfKind(kMsgSubmitTx), -1);
  EXPECT_EQ(PhaseOfKind(kMsgGossip), -1);
}

TEST(MessagesTest, CorruptInputsRejected) {
  EXPECT_FALSE(RoleAnnounce::Decode(ToBytes("short")).ok());
  EXPECT_FALSE(WitnessBundle::Decode(ToBytes("x")).ok());
  EXPECT_FALSE(ExecRequest::Decode(ToBytes("")).ok());
  EXPECT_FALSE(ExecResultMsg::Decode(ToBytes("??")).ok());
  EXPECT_FALSE(Relay::Decode(ToBytes("")).ok());

  // Oversized wire counts: each must be Corruption, not an allocation.
  // Offsets follow the layouts in messages.cc: u64 = 8 bytes, u32 = 4, a
  // header blob = 53, a hash = 32, an empty list = its 1-byte count.
  const Bytes req = ExecRequest{}.Encode();
  for (size_t at : {12, 13, 14, 47, 48}) {  // block_ids ... members.
    EXPECT_TRUE(RejectsForgedCount(ExecRequest::Decode, req, at)) << at;
  }
  const Bytes block = WitnessedBlock{}.Encode();
  for (size_t at : {53, 54}) {  // proofs, accesses.
    EXPECT_TRUE(RejectsForgedCount(WitnessedBlock::Decode, block, at)) << at;
  }
  EXPECT_TRUE(RejectsForgedCount(WitnessBundle::Decode,
                                 WitnessBundle{}.Encode(), 8));
  EXPECT_TRUE(RejectsForgedCount(AggregatedWitness::Decode,
                                 AggregatedWitness{}.Encode(), 16));
  EXPECT_TRUE(RejectsForgedCount(BodyChunk::Decode, BodyChunk{}.Encode(), 71));
  ExecResultMsg full_result;
  full_result.full = true;
  EXPECT_TRUE(
      RejectsForgedCount(ExecResultMsg::Decode, full_result.Encode(), 77));
  AggregatedExecResult with_payload;
  with_payload.has_payload = true;
  const Bytes agg = with_payload.Encode();
  for (size_t at : {85, 90}) {  // s_set, signers.
    EXPECT_TRUE(RejectsForgedCount(AggregatedExecResult::Decode, agg, at))
        << at;
  }
  EXPECT_TRUE(RejectsForgedCount(CompactVoteCert::Decode,
                                 CompactVoteCert{}.Encode(), 53));
  EXPECT_TRUE(RejectsForgedCount(StateRequest::Decode,
                                 StateRequest{}.Encode(), 12));
  const Bytes resp = StateResponse{}.Encode();
  for (size_t at : {12, 21}) {  // entries, proofs.
    EXPECT_TRUE(RejectsForgedCount(StateResponse::Decode, resp, at)) << at;
  }

  // DecisionCert's vote count is a u32: one past its 4096 cap, and one
  // under the cap that the input cannot hold.
  for (uint32_t votes : {4097u, 4096u}) {
    Encoder cert;
    cert.PutU64(1);
    cert.PutArray(H(1));
    cert.PutU32(votes);
    cert.PutFixed(Bytes(16, 0));
    const Status st = consensus::DecisionCert::Decode(cert.buffer()).status();
    EXPECT_TRUE(st.IsCorruption() && st.message() == "oversized cert");
  }
}

}  // namespace
}  // namespace porygon::core
