#include "core/messages.h"

#include "common/codec.h"
#include "crypto/sha256.h"

namespace porygon::core {

namespace {
// Encoded TxAccess: id plus five u64 fields.
constexpr size_t kAccessWireSize = 32 + 5 * 8;
// Encoded StateResponse::Entry: account, present flag, balance, nonce.
constexpr size_t kEntryWireSize = 8 + 1 + 8 + 8;
}  // namespace

Bytes WitnessSigningBytes(const tx::TransactionBlockHeader& header) {
  Bytes out = ToBytes("porygon.witness");
  Bytes enc = header.Encode();
  out.insert(out.end(), enc.begin(), enc.end());
  return out;
}

int PhaseOfKind(uint16_t kind) {
  switch (kind) {
    case kMsgTxBlock:
    case kMsgWitnessUpload:
    case kMsgBodyChunk:
      return 0;  // Witness.
    case kMsgWitnessBundle:
    case kMsgProposal:
    case kMsgVote:
    case kMsgAggWitness:
    case kMsgVoteCert:
    case kMsgDecisionCert:
      return 1;  // Ordering.
    case kMsgExecRequest:
    case kMsgStateRequest:
    case kMsgStateResponse:
    case kMsgExecResult:
    case kMsgAggExecResult:
      return 2;  // Execution.
    case kMsgCommit:
    case kMsgNewRound:
      return 3;  // Commit.
    default:
      return -1;
  }
}

const char* MsgKindName(uint16_t kind) {
  switch (kind) {
    case kMsgSubmitTx: return "submit_tx";
    case kMsgTxBlock: return "tx_block";
    case kMsgWitnessUpload: return "witness_upload";
    case kMsgWitnessBundle: return "witness_bundle";
    case kMsgRelay: return "relay";
    case kMsgProposal: return "proposal";
    case kMsgVote: return "vote";
    case kMsgExecRequest: return "exec_request";
    case kMsgStateRequest: return "state_request";
    case kMsgStateResponse: return "state_response";
    case kMsgExecResult: return "exec_result";
    case kMsgCommit: return "commit";
    case kMsgNewRound: return "new_round";
    case kMsgRoleAnnounce: return "role_announce";
    case kMsgGossip: return "gossip";
    case kMsgResync: return "resync";
    case kMsgBodyChunk: return "body_chunk";
    case kMsgAggWitness: return "agg_witness";
    case kMsgAggExecResult: return "agg_exec_result";
    case kMsgVoteCert: return "vote_cert";
    case kMsgRelayAck: return "relay_ack";
    case kMsgDecisionCert: return "decision_cert";
    default: return "unknown";
  }
}

const char* PhaseLabelName(int phase) {
  switch (phase) {
    case 0: return "witness";
    case 1: return "ordering";
    case 2: return "execution";
    case 3: return "commit";
    default: return "other";
  }
}

Bytes RoleAnnounce::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  enc.PutU8(role);
  enc.PutU32(shard);
  enc.PutF64(sortition);
  enc.PutArray(node_key);
  enc.PutArray(proof.proof);
  enc.PutArray(proof.output);
  enc.PutU32(node_id);
  return enc.TakeBuffer();
}

Result<RoleAnnounce> RoleAnnounce::Decode(ByteView data) {
  Decoder dec(data);
  RoleAnnounce a;
  PORYGON_ASSIGN_OR_RETURN(a.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(a.role, dec.GetU8());
  PORYGON_ASSIGN_OR_RETURN(a.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(a.sortition, dec.GetF64());
  PORYGON_ASSIGN_OR_RETURN(a.node_key, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(a.proof.proof, dec.GetArray<64>());
  PORYGON_ASSIGN_OR_RETURN(a.proof.output, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(a.node_id, dec.GetU32());
  PORYGON_RETURN_IF_ERROR(dec.Finish("announce"));
  return a;
}

Bytes ResyncRequest::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  return enc.TakeBuffer();
}

Result<ResyncRequest> ResyncRequest::Decode(ByteView data) {
  Decoder dec(data);
  ResyncRequest req;
  PORYGON_ASSIGN_OR_RETURN(req.round, dec.GetU64());
  PORYGON_RETURN_IF_ERROR(dec.Finish("resync"));
  return req;
}

Bytes WitnessUpload::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  enc.PutU32(shard);
  enc.PutFixed(proof.Encode());
  return enc.TakeBuffer();
}

Result<WitnessUpload> WitnessUpload::Decode(ByteView data) {
  Decoder dec(data);
  WitnessUpload w;
  PORYGON_ASSIGN_OR_RETURN(w.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(w.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(ByteView rest, dec.GetFixedView(dec.remaining()));
  PORYGON_ASSIGN_OR_RETURN(w.proof, tx::WitnessProof::Decode(rest));
  return w;
}

size_t WitnessedBlock::WireSize() const {
  // Access summaries ship compressed (~6 B per transaction amortized:
  // delta-coded varint account pairs for intra-shard transactions, fuller
  // ~16 B entries only for the cross-shard ones the OC's conflict detection
  // inspects, per §IV-D2 "the OC will download states that CTx will
  // access"). The in-memory payload carries the uncompressed struct for
  // implementation convenience; the bandwidth model charges the wire
  // encoding.
  return header.WireSize() + proofs.size() * tx::WitnessProof::kWireSize +
         accesses.size() * 6;
}

Bytes WitnessedBlock::Encode() const {
  Encoder enc;
  enc.PutBytes(header.Encode());
  enc.PutVarint(proofs.size());
  for (const auto& p : proofs) enc.PutFixed(p.Encode());
  enc.PutVarint(accesses.size());
  for (const auto& a : accesses) {
    enc.PutArray(a.id);
    enc.PutU64(a.from);
    enc.PutU64(a.to);
    enc.PutU64(a.amount);
    enc.PutU64(a.nonce);
    enc.PutU64(a.submitted_at);
  }
  return enc.TakeBuffer();
}

Result<WitnessedBlock> WitnessedBlock::Decode(ByteView data) {
  Decoder dec(data);
  WitnessedBlock b;
  PORYGON_ASSIGN_OR_RETURN(ByteView header_raw, dec.GetBytesView());
  PORYGON_ASSIGN_OR_RETURN(b.header,
                           tx::TransactionBlockHeader::Decode(header_raw));
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_proofs,
                           dec.GetCount(tx::WitnessProof::kWireSize));
  b.proofs.reserve(n_proofs);
  for (uint64_t i = 0; i < n_proofs; ++i) {
    PORYGON_ASSIGN_OR_RETURN(ByteView raw,
                             dec.GetFixedView(tx::WitnessProof::kWireSize));
    PORYGON_ASSIGN_OR_RETURN(auto proof, tx::WitnessProof::Decode(raw));
    b.proofs.push_back(proof);
  }
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_access, dec.GetCount(kAccessWireSize));
  b.accesses.resize(n_access);
  for (auto& a : b.accesses) {
    PORYGON_ASSIGN_OR_RETURN(a.id, dec.GetArray<32>());
    PORYGON_ASSIGN_OR_RETURN(a.from, dec.GetU64());
    PORYGON_ASSIGN_OR_RETURN(a.to, dec.GetU64());
    PORYGON_ASSIGN_OR_RETURN(a.amount, dec.GetU64());
    PORYGON_ASSIGN_OR_RETURN(a.nonce, dec.GetU64());
    PORYGON_ASSIGN_OR_RETURN(a.submitted_at, dec.GetU64());
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("witnessed-block"));
  return b;
}

size_t WitnessBundle::WireSize() const {
  size_t total = 8;
  for (const auto& b : blocks) total += b.WireSize();
  return total;
}

Bytes WitnessBundle::Encode() const {
  Encoder enc;
  enc.PutU64(batch_round);
  enc.PutVarint(blocks.size());
  for (const auto& b : blocks) enc.PutBytes(b.Encode());
  return enc.TakeBuffer();
}

Result<WitnessBundle> WitnessBundle::Decode(ByteView data) {
  Decoder dec(data);
  WitnessBundle w;
  PORYGON_ASSIGN_OR_RETURN(w.batch_round, dec.GetU64());
  // Each block costs at least its one-byte length prefix.
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetCount(1));
  w.blocks.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PORYGON_ASSIGN_OR_RETURN(ByteView raw, dec.GetBytesView());
    PORYGON_ASSIGN_OR_RETURN(auto block, WitnessedBlock::Decode(raw));
    w.blocks.push_back(std::move(block));
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("bundle"));
  return w;
}

Bytes ExecRequest::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  enc.PutU32(shard);
  enc.PutVarint(block_ids.size());
  for (const auto& id : block_ids) enc.PutArray(id);
  tx::EncodeUpdates(updates, &enc);
  enc.PutVarint(discarded.size());
  for (const auto& id : discarded) enc.PutArray(id);
  enc.PutArray(shard_root);
  enc.PutVarint(all_roots.size());
  for (const auto& root : all_roots) enc.PutArray(root);
  enc.PutVarint(members.size());
  for (auto m : members) enc.PutU32(m);
  return enc.TakeBuffer();
}

Result<ExecRequest> ExecRequest::Decode(ByteView data) {
  Decoder dec(data);
  ExecRequest r;
  PORYGON_ASSIGN_OR_RETURN(r.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(r.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_blocks, dec.GetCount(32));
  r.block_ids.resize(n_blocks);
  for (auto& id : r.block_ids) {
    PORYGON_ASSIGN_OR_RETURN(id, dec.GetArray<32>());
  }
  PORYGON_ASSIGN_OR_RETURN(r.updates, tx::DecodeUpdates(&dec));
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_disc, dec.GetCount(32));
  r.discarded.resize(n_disc);
  for (auto& id : r.discarded) {
    PORYGON_ASSIGN_OR_RETURN(id, dec.GetArray<32>());
  }
  PORYGON_ASSIGN_OR_RETURN(r.shard_root, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_roots, dec.GetCount(32));
  r.all_roots.resize(n_roots);
  for (auto& root : r.all_roots) {
    PORYGON_ASSIGN_OR_RETURN(root, dec.GetArray<32>());
  }
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_members, dec.GetCount(4));
  r.members.resize(n_members);
  for (auto& m : r.members) {
    PORYGON_ASSIGN_OR_RETURN(m, dec.GetU32());
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("exec-request"));
  return r;
}

Bytes StateRequest::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  enc.PutU32(shard);
  enc.PutVarint(accounts.size());
  for (auto a : accounts) enc.PutU64(a);
  return enc.TakeBuffer();
}

Result<StateRequest> StateRequest::Decode(ByteView data) {
  Decoder dec(data);
  StateRequest r;
  PORYGON_ASSIGN_OR_RETURN(r.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(r.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetCount(8));
  r.accounts.resize(n);
  for (auto& a : r.accounts) {
    PORYGON_ASSIGN_OR_RETURN(a, dec.GetU64());
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("state-request"));
  return r;
}

size_t StateResponse::WireSize() const {
  return 12 + entries.size() * 17 + proof_bytes;
}

Bytes StateResponse::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  enc.PutU32(shard);
  enc.PutVarint(entries.size());
  for (const auto& e : entries) {
    enc.PutU64(e.account);
    enc.PutBool(e.present);
    enc.PutU64(e.value.balance);
    enc.PutU64(e.value.nonce);
  }
  enc.PutU64(proof_bytes);
  enc.PutVarint(proofs.size());
  for (const auto& p : proofs) enc.PutBytes(p);
  return enc.TakeBuffer();
}

Result<StateResponse> StateResponse::Decode(ByteView data) {
  Decoder dec(data);
  StateResponse r;
  PORYGON_ASSIGN_OR_RETURN(r.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(r.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetCount(kEntryWireSize));
  r.entries.resize(n);
  for (auto& e : r.entries) {
    PORYGON_ASSIGN_OR_RETURN(e.account, dec.GetU64());
    PORYGON_ASSIGN_OR_RETURN(e.present, dec.GetBool());
    PORYGON_ASSIGN_OR_RETURN(e.value.balance, dec.GetU64());
    PORYGON_ASSIGN_OR_RETURN(e.value.nonce, dec.GetU64());
  }
  PORYGON_ASSIGN_OR_RETURN(r.proof_bytes, dec.GetU64());
  // Each proof costs at least its one-byte length prefix.
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_proofs, dec.GetCount(1));
  r.proofs.resize(n_proofs);
  for (auto& p : r.proofs) {
    PORYGON_ASSIGN_OR_RETURN(p, dec.GetBytes());
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("state-response"));
  return r;
}

crypto::Hash256 ExecResultMsg::HashSSet(
    const std::vector<tx::StateUpdate>& s) {
  Encoder enc;
  tx::EncodeUpdates(s, &enc);
  return crypto::Sha256::Hash(enc.buffer());
}

std::string ExecResultMsg::ResultKey(const crypto::Hash256& new_root,
                                     const crypto::Hash256& s_hash) {
  std::string key(new_root.begin(), new_root.end());
  key.append(s_hash.begin(), s_hash.end());
  return key;
}

Bytes ExecResultMsg::SigningBytes() const {
  Encoder enc;
  enc.PutString("porygon.exec-result");
  enc.PutU64(exec_round);
  enc.PutU32(shard);
  enc.PutArray(new_root);
  enc.PutArray(s_hash);
  enc.PutU32(intra_applied);
  enc.PutU32(cross_pre_executed);
  return enc.TakeBuffer();
}

Bytes ExecResultMsg::Encode() const {
  Encoder enc;
  enc.PutU64(exec_round);
  enc.PutU32(shard);
  enc.PutArray(new_root);
  enc.PutArray(s_hash);
  enc.PutBool(full);
  if (full) tx::EncodeUpdates(s_set, &enc);
  enc.PutU32(intra_applied);
  enc.PutU32(cross_pre_executed);
  enc.PutArray(signer);
  enc.PutArray(signature);
  return enc.TakeBuffer();
}

Result<ExecResultMsg> ExecResultMsg::Decode(ByteView data) {
  Decoder dec(data);
  ExecResultMsg m;
  PORYGON_ASSIGN_OR_RETURN(m.exec_round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(m.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(m.new_root, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(m.s_hash, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(m.full, dec.GetBool());
  if (m.full) {
    PORYGON_ASSIGN_OR_RETURN(m.s_set, tx::DecodeUpdates(&dec));
  }
  PORYGON_ASSIGN_OR_RETURN(m.intra_applied, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(m.cross_pre_executed, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(m.signer, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(m.signature, dec.GetArray<64>());
  PORYGON_RETURN_IF_ERROR(dec.Finish("exec-result"));
  return m;
}

Bytes Relay::Encode() const {
  Encoder enc;
  enc.PutU8(target);
  enc.PutU64(round);
  enc.PutU32(shard);
  enc.PutU32(dest);
  enc.PutU16(inner_kind);
  enc.PutBytes(inner);
  if (trace.trace_id != 0) {
    enc.PutU64(trace.trace_id);
    enc.PutU64(trace.parent_span);
  }
  return enc.TakeBuffer();
}

Result<Relay> Relay::Decode(ByteView data) {
  Decoder dec(data);
  Relay r;
  PORYGON_ASSIGN_OR_RETURN(r.target, dec.GetU8());
  PORYGON_ASSIGN_OR_RETURN(r.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(r.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(r.dest, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(r.inner_kind, dec.GetU16());
  PORYGON_ASSIGN_OR_RETURN(r.inner, dec.GetBytes());
  if (!dec.Done()) {
    PORYGON_ASSIGN_OR_RETURN(r.trace.trace_id, dec.GetU64());
    PORYGON_ASSIGN_OR_RETURN(r.trace.parent_span, dec.GetU64());
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("relay"));
  return r;
}

size_t BodyChunk::WireSize() const {
  // Fixed fields + member roster + the chunk payload itself.
  return 22 + header.WireSize() + 4 * peers.size() + payload.size();
}

Bytes BodyChunk::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  enc.PutU32(shard);
  enc.PutBytes(header.Encode());
  enc.PutU16(index);
  enc.PutU16(k);
  enc.PutU16(n);
  enc.PutVarint(peers.size());
  for (net::NodeId p : peers) enc.PutU32(p);
  enc.PutBytes(payload);
  return enc.TakeBuffer();
}

Result<BodyChunk> BodyChunk::Decode(ByteView data) {
  Decoder dec(data);
  BodyChunk c;
  PORYGON_ASSIGN_OR_RETURN(c.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(c.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(ByteView header_raw, dec.GetBytesView());
  PORYGON_ASSIGN_OR_RETURN(c.header,
                           tx::TransactionBlockHeader::Decode(header_raw));
  PORYGON_ASSIGN_OR_RETURN(c.index, dec.GetU16());
  PORYGON_ASSIGN_OR_RETURN(c.k, dec.GetU16());
  PORYGON_ASSIGN_OR_RETURN(c.n, dec.GetU16());
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_peers, dec.GetCount(4));
  c.peers.resize(n_peers);
  for (auto& p : c.peers) {
    PORYGON_ASSIGN_OR_RETURN(p, dec.GetU32());
  }
  PORYGON_ASSIGN_OR_RETURN(c.payload, dec.GetBytes());
  PORYGON_RETURN_IF_ERROR(dec.Finish("body-chunk"));
  return c;
}

size_t AggregatedWitness::WireSize() const {
  // Same compressed-access model as WitnessBundle: the aggregate replaces m
  // per-storage bundles with one deduplicated copy, so it must be charged
  // with the identical per-block cost model.
  size_t total = 16;
  for (const auto& b : blocks) total += b.WireSize();
  return total;
}

Bytes AggregatedWitness::Encode() const {
  Encoder enc;
  enc.PutU64(batch_round);
  enc.PutU32(shard);
  enc.PutU32(aggregator);
  enc.PutVarint(blocks.size());
  for (const auto& b : blocks) enc.PutBytes(b.Encode());
  return enc.TakeBuffer();
}

Result<AggregatedWitness> AggregatedWitness::Decode(ByteView data) {
  Decoder dec(data);
  AggregatedWitness a;
  PORYGON_ASSIGN_OR_RETURN(a.batch_round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(a.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(a.aggregator, dec.GetU32());
  // Each block costs at least its one-byte length prefix.
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetCount(1));
  a.blocks.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PORYGON_ASSIGN_OR_RETURN(ByteView raw, dec.GetBytesView());
    PORYGON_ASSIGN_OR_RETURN(auto block, WitnessedBlock::Decode(raw));
    a.blocks.push_back(std::move(block));
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("agg-witness"));
  return a;
}

Bytes AggregatedExecResult::MemberSigningBytes() const {
  ExecResultMsg m;
  m.exec_round = exec_round;
  m.shard = shard;
  m.new_root = new_root;
  m.s_hash = s_hash;
  m.intra_applied = intra_applied;
  m.cross_pre_executed = cross_pre_executed;
  return m.SigningBytes();
}

size_t AggregatedExecResult::WireSize() const {
  // Fixed fields + varint-coded S set (modeled at the same ~8 B/update as
  // the exec-result path) + one 96-byte attestation pair per member.
  return 90 + (has_payload ? 8 * s_set.size() : 0) + 96 * signers.size();
}

Bytes AggregatedExecResult::Encode() const {
  Encoder enc;
  enc.PutU64(exec_round);
  enc.PutU32(shard);
  enc.PutArray(new_root);
  enc.PutArray(s_hash);
  enc.PutU32(intra_applied);
  enc.PutU32(cross_pre_executed);
  enc.PutBool(has_payload);
  if (has_payload) tx::EncodeUpdates(s_set, &enc);
  enc.PutU32(aggregator);
  enc.PutVarint(signers.size());
  for (size_t i = 0; i < signers.size(); ++i) {
    enc.PutArray(signers[i]);
    enc.PutArray(signatures[i]);
  }
  return enc.TakeBuffer();
}

Result<AggregatedExecResult> AggregatedExecResult::Decode(ByteView data) {
  Decoder dec(data);
  AggregatedExecResult a;
  PORYGON_ASSIGN_OR_RETURN(a.exec_round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(a.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(a.new_root, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(a.s_hash, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(a.intra_applied, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(a.cross_pre_executed, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(a.has_payload, dec.GetBool());
  if (a.has_payload) {
    PORYGON_ASSIGN_OR_RETURN(a.s_set, tx::DecodeUpdates(&dec));
  }
  PORYGON_ASSIGN_OR_RETURN(a.aggregator, dec.GetU32());
  // One (signer, signature) pair per attestation.
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_signers, dec.GetCount(32 + 64));
  a.signers.resize(n_signers);
  a.signatures.resize(n_signers);
  for (uint64_t i = 0; i < n_signers; ++i) {
    PORYGON_ASSIGN_OR_RETURN(a.signers[i], dec.GetArray<32>());
    PORYGON_ASSIGN_OR_RETURN(a.signatures[i], dec.GetArray<64>());
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("agg-exec-result"));
  return a;
}

std::vector<consensus::Vote> CompactVoteCert::ToVotes(
    const std::vector<crypto::PublicKey>& committee) const {
  std::vector<consensus::Vote> votes;
  size_t sig_idx = 0;
  for (size_t i = 0; i < 64; ++i) {
    if (!(bitmap & (uint64_t{1} << i))) continue;
    // A bit past the committee or beyond the signature list makes the whole
    // cert malformed — return nothing rather than a partial vote set.
    if (i >= committee.size() || sig_idx >= signatures.size()) return {};
    consensus::Vote v;
    v.instance = instance;
    v.step = step;
    v.kind = kind;
    v.value = value;
    v.voter = committee[i];
    v.signature = signatures[sig_idx++];
    votes.push_back(v);
  }
  if (sig_idx != signatures.size()) return {};  // Unclaimed signatures.
  return votes;
}

size_t CompactVoteCert::WireSize() const {
  return 54 + 64 * signatures.size();
}

Bytes CompactVoteCert::Encode() const {
  Encoder enc;
  enc.PutU64(instance);
  enc.PutU32(step);
  enc.PutU8(kind);
  enc.PutArray(value);
  enc.PutU64(bitmap);
  enc.PutVarint(signatures.size());
  for (const auto& s : signatures) enc.PutArray(s);
  return enc.TakeBuffer();
}

Result<CompactVoteCert> CompactVoteCert::Decode(ByteView data) {
  Decoder dec(data);
  CompactVoteCert c;
  PORYGON_ASSIGN_OR_RETURN(c.instance, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(c.step, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(c.kind, dec.GetU8());
  PORYGON_ASSIGN_OR_RETURN(c.value, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(c.bitmap, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetCount(64));
  c.signatures.resize(n);
  for (auto& sig : c.signatures) {
    PORYGON_ASSIGN_OR_RETURN(sig, dec.GetArray<64>());
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("vote-cert"));
  return c;
}

Bytes RelayAck::Encode() const {
  Encoder enc;
  enc.PutU64(round);
  enc.PutArray(digest);
  return enc.TakeBuffer();
}

Result<RelayAck> RelayAck::Decode(ByteView data) {
  Decoder dec(data);
  RelayAck a;
  PORYGON_ASSIGN_OR_RETURN(a.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(a.digest, dec.GetArray<32>());
  PORYGON_RETURN_IF_ERROR(dec.Finish("relay-ack"));
  return a;
}

}  // namespace porygon::core
