// Golden wire-format tests: one fixed, fully populated instance of every
// wire type is encoded and its SHA-256 compared against a recorded
// constant. Encoded sizes drive the simulated network's bandwidth model, so
// any byte that moves here moves every sim metric; round-trip tests alone
// would not notice a format change that both sides agree on.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "consensus/ba_star.h"
#include "core/messages.h"
#include "crypto/sha256.h"
#include "tx/blocks.h"
#include "tx/transaction.h"

namespace porygon {
namespace {

std::string Digest(const Bytes& encoded) {
  return crypto::HashToHex(crypto::Sha256::Hash(encoded));
}

/// Array whose byte i is `tag + i`, so every position is distinct.
template <size_t N>
std::array<uint8_t, N> Fill(uint64_t tag) {
  std::array<uint8_t, N> a{};
  for (size_t i = 0; i < N; ++i) a[i] = static_cast<uint8_t>(tag + i);
  return a;
}

crypto::Hash256 H(uint8_t tag) { return Fill<32>(tag); }

// Values past one varint byte (>= 128) and past 32 bits, so multi-byte
// varints and full-width integers are both pinned.
const std::vector<tx::StateUpdate> kUpdates = {
    {300'000, {uint64_t{1} << 40, 7}},
    {5, {127, 128}},
    {uint64_t{1} << 35, {0, 0}},
};

tx::Transaction Tx(uint64_t salt) {
  return {.from = 1'000'003 + salt, .to = 42 + salt, .amount = 99'999,
          .nonce = 3 + salt, .submitted_at = 1'234'567'890,
          .signature = Fill<64>(0x40 + salt)};
}

const tx::TransactionBlockHeader kHeader = {
    .creator_storage_node = 70'000, .round_created = (uint64_t{1} << 33) + 9,
    .shard = 5, .tx_count = 2, .tx_root = H(0x10)};

tx::WitnessProof Proof(uint8_t tag) {
  return {.block_id = H(tag), .witness = Fill<32>(tag + 1),
          .signature = Fill<64>(tag + 2)};
}

consensus::Vote MakeVote(uint8_t tag) {
  return {.instance = (uint64_t{1} << 36) + tag, .step = 70'000u + tag,
          .kind = consensus::Vote::kCert, .value = H(tag),
          .voter = Fill<32>(tag + 3), .signature = Fill<64>(tag + 4)};
}

core::WitnessedBlock Witnessed() {
  return {.header = kHeader,
          .proofs = {Proof(0x20), Proof(0x30)},
          .accesses = {{H(0x50), 11, 300'000, 5, 1, 1'000'000},
                       {H(0x60), 12, 1 << 20, 6, 2, 2'000'000}}};
}

core::ExecResultMsg ExecResult(bool full) {
  return {.exec_round = (uint64_t{1} << 34) + 1, .shard = 3,
          .new_root = H(0x70),
          .s_hash = core::ExecResultMsg::HashSSet(kUpdates), .full = full,
          .s_set = full ? kUpdates : std::vector<tx::StateUpdate>{},
          .intra_applied = 1'000, .cross_pre_executed = 200,
          .signer = Fill<32>(0x80), .signature = Fill<64>(0x90)};
}

TEST(WireGoldenTest, TxTypes) {
  EXPECT_EQ(Digest(Tx(0).Encode()),
            "5299ffee49581fc200cbb0fb640e714ab0eea0cd8df5dcf3b328395903d23067");
  EXPECT_EQ(Digest(kHeader.Encode()),
            "a83230be10d232972263ab8bcc78a558f2bbf4e77f1030743753f3d55c51819b");
  tx::TransactionBlock block{.header = kHeader,
                             .transactions = {Tx(0), Tx(1)}};
  EXPECT_EQ(Digest(block.Encode()),
            "b8548fa8f31c4e7a1d70d04eba66c73c12f7acbbb95281fa82c089e2c2ecddaa");
  EXPECT_EQ(Digest(Proof(0x20).Encode()),
            "fe2f6befaefe3c0fbc2b8f59953ff7da6c79690c46fd00d0e21e45ec55af06d9");

  tx::ProposalBlock p{.height = 1'000, .prev_hash = H(0xA0),
                      .round = (uint64_t{1} << 40) + 3,
                      .leader = Fill<32>(0xB0),
                      .shard_tx_blocks = {{H(1), H(2)}, {}, {H(3)}},
                      .shard_updates = {kUpdates, {}, {kUpdates[1]}},
                      .discarded = {H(4), H(5)},
                      .shard_roots = {H(6), H(7), H(8)}, .state_root = H(9),
                      .ordering_threshold = 0.4375,
                      .execution_threshold = 1.0 / 3.0};
  EXPECT_EQ(Digest(p.Encode()),
            "a727e52c27345c6f51f2be6f9d8fcc502d4099e9c66ec0c64b73f5870586c58b");
}

TEST(WireGoldenTest, ConsensusTypes) {
  consensus::Vote v = MakeVote(0x11);
  EXPECT_EQ(Digest(v.Encode()),
            "14072ca93e32dac8bf4f3cf260907b375d1987086d78ded51efcac350fd3a3c1");
  EXPECT_EQ(Digest(v.SigningBytes()),
            "6bd7cfff6ec356f03c7d1ac47adfce6fa923660551731f2b346fe41467c39a0a");

  consensus::DecisionCert cert{
      .instance = (uint64_t{1} << 36) + 0x11, .value = H(0x11),
      .votes = {MakeVote(0x11), MakeVote(0x22), MakeVote(0x33)}};
  EXPECT_EQ(Digest(cert.Encode()),
            "0e2bb9a118c034627abf2f2d3b4ac45229cf9491cc3b5ea2c910f39e9a564a8a");
}

TEST(WireGoldenTest, MessageTypes) {
  core::RoleAnnounce a{.round = (uint64_t{1} << 33) + 2, .role = 2,
                       .shard = 70'000, .sortition = 0.0625,
                       .node_key = Fill<32>(0x01),
                       .proof = {Fill<64>(0x21), Fill<32>(0x61)},
                       .node_id = 123'456};
  EXPECT_EQ(Digest(a.Encode()),
            "1b5563593ebd99388ba0190dc79e0dae888a4a8e5225b5cf76df680b370930f3");
  core::ResyncRequest resync{.round = (uint64_t{1} << 50) + 1};
  EXPECT_EQ(Digest(resync.Encode()),
            "48a4a42f50e2d44ef29bb977df33248d00423b9d206c10b1347155d1a2ee491f");
  core::WitnessUpload up{.round = 77, .shard = 300, .proof = Proof(0x40)};
  EXPECT_EQ(Digest(up.Encode()),
            "6c33af7b458fc2b4ff5f511633eab272e3e329a6b760a3d798de61f445e3fd57");
  EXPECT_EQ(Digest(Witnessed().Encode()),
            "4f5c2d01a4339b9ee0761ee404d9e8620c82990fd814d14577d7895e3309c32e");
  core::WitnessBundle bundle{.batch_round = 88,
                             .blocks = {Witnessed(), Witnessed()}};
  bundle.blocks[1].header.shard = 6;
  EXPECT_EQ(Digest(bundle.Encode()),
            "1fd268705e05dfd8aa0cda161e4f4a821ada9ad44bc806b8830f78a49af32dba");

  core::ExecRequest req{.round = 1'000'000, .shard = 4,
                        .block_ids = {H(0x01), H(0x02)}, .updates = kUpdates,
                        .discarded = {H(0x03)}, .shard_root = H(0x04),
                        .all_roots = {H(0x05), H(0x06), H(0x07)},
                        .members = {4, 8, 70'000}};
  EXPECT_EQ(Digest(req.Encode()),
            "f520fc0d73a34e34cf4987c227886951704a41d17ef92cc12970818ab2f56cdc");
  core::StateRequest sreq{.round = 9, .shard = 2,
                          .accounts = {1, 300'000, uint64_t{1} << 40}};
  EXPECT_EQ(Digest(sreq.Encode()),
            "33dc153b5200ab04e85e1160ff1a5286eb1825e18ff583dfbc5e2b9557d8fd2d");
  core::StateResponse sresp{
      .round = 9, .shard = 2,
      .entries = {{1, true, {500, 2}}, {300'000, false, {}}},
      .proof_bytes = 4'096,
      .proofs = {ToBytes("proof-one"), Bytes(200, 0x5A)}};
  EXPECT_EQ(Digest(sresp.Encode()),
            "3043cd0346e2ff9cbc9454e606a7aeecc62edbda28f1d9dae94ffef1c9838a11");

  EXPECT_EQ(Digest(ExecResult(true).Encode()),
            "aab4fb37248132169409a3027b51aaf0a1e07cf98d0d3353dc3aaa3cdf01f668");
  EXPECT_EQ(Digest(ExecResult(false).Encode()),
            "9fecdc4ef1776b1541980b6c8af30df5fe6294435d93fcef0bcc5ba4bc542de4");
  EXPECT_EQ(Digest(ExecResult(true).SigningBytes()),
            "f6857b97bd45d6c129d6ad3413e5f6f872135d1fe99a6534708c09b585fb0747");
  EXPECT_EQ(crypto::HashToHex(core::ExecResultMsg::HashSSet(kUpdates)),
            "0fb7f9b00df1d5cfbaca48d4194337ce66b5ec9e04f65cc339c7aee58e2248fe");

  core::Relay relay{.target = core::Relay::kToShardCommittee,
                    .round = (uint64_t{1} << 33) + 5, .shard = 3,
                    .dest = 70'001, .inner_kind = core::kMsgExecResult,
                    .inner = Bytes(300, 0x33), .trace = {}};
  EXPECT_EQ(Digest(relay.Encode()),
            "a183f0478760fb7e2080d1a632dd2a6f3f0d3330661656c4cc66bc6512c47f00");
  relay.trace = {0x1122334455667788, 0x99};  // The optional trace tail.
  EXPECT_EQ(Digest(relay.Encode()),
            "0d1b5c1bb920f11560e9977d5be1c2f7729cc09800d7618875bd415e1d869075");

  core::BodyChunk chunk{.round = 55, .shard = 1, .header = kHeader,
                        .index = 3, .k = 4, .n = 300,
                        .peers = {1, 2, 70'000}, .payload = Bytes(150, 0x44)};
  EXPECT_EQ(Digest(chunk.Encode()),
            "8c335a829d4cf0f7eabb56ee9689190ecb1e33d1f33eacc8816c75726d216467");
  core::AggregatedWitness agg{.batch_round = 66, .shard = 2,
                              .aggregator = 70'002, .blocks = {Witnessed()}};
  EXPECT_EQ(Digest(agg.Encode()),
            "d916be305ebb71380b5e542d67746c6b53114661aa29a9c8e4ab7cfa6ff3801e");

  core::AggregatedExecResult aer{
      .exec_round = (uint64_t{1} << 34) + 1, .shard = 3, .new_root = H(0x70),
      .s_hash = core::ExecResultMsg::HashSSet(kUpdates),
      .intra_applied = 1'000, .cross_pre_executed = 200,
      .has_payload = true, .s_set = kUpdates, .aggregator = 9,
      .signers = {Fill<32>(0x80), Fill<32>(0x81)},
      .signatures = {Fill<64>(0x90), Fill<64>(0x91)}};
  EXPECT_EQ(Digest(aer.Encode()),
            "a1d51c26d7a407862330567c8b0d56e308fd9b4c2cff4bef6e0c0585819feb55");
  EXPECT_EQ(Digest(aer.MemberSigningBytes()),
            "f6857b97bd45d6c129d6ad3413e5f6f872135d1fe99a6534708c09b585fb0747");

  core::CompactVoteCert vc{
      .instance = (uint64_t{1} << 36) + 1, .step = 2,
      .kind = consensus::Vote::kSoft, .value = H(0xC0),
      .bitmap = 0x8000'0000'0000'0005,
      .signatures = {Fill<64>(0xD0), Fill<64>(0xD1), Fill<64>(0xD2)}};
  EXPECT_EQ(Digest(vc.Encode()),
            "40694818b4a9f4220c7c6fd80532faa4bfe35b03da8ebc9e4d5d5a6881c9e1ac");
  core::RelayAck ack{.round = 300, .digest = H(0xE0)};
  EXPECT_EQ(Digest(ack.Encode()),
            "7676d31196e5485a877322ad118d3e0ece6664e4a3db8ff456160f09956a5134");
}

}  // namespace
}  // namespace porygon
