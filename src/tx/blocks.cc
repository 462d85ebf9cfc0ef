#include "tx/blocks.h"

#include "crypto/merkle.h"

namespace porygon::tx {

using crypto::Hash256;

namespace {
// Encoded transaction: five u64 body fields plus the signature.
constexpr size_t kTxEncodedSize = 5 * 8 + sizeof(crypto::Signature);
// Smallest encoded StateUpdate: three one-byte varints.
constexpr size_t kMinUpdateSize = 3;
}  // namespace

void EncodeUpdates(const std::vector<StateUpdate>& updates, Encoder* enc) {
  enc->PutVarint(updates.size());
  for (const auto& u : updates) {
    enc->PutVarint(u.account);
    enc->PutVarint(u.value.balance);
    enc->PutVarint(u.value.nonce);
  }
}

Result<std::vector<StateUpdate>> DecodeUpdates(Decoder* dec) {
  PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec->GetCount(kMinUpdateSize));
  std::vector<StateUpdate> updates(n);
  for (auto& u : updates) {
    PORYGON_ASSIGN_OR_RETURN(u.account, dec->GetVarint());
    PORYGON_ASSIGN_OR_RETURN(u.value.balance, dec->GetVarint());
    PORYGON_ASSIGN_OR_RETURN(u.value.nonce, dec->GetVarint());
  }
  return updates;
}

Bytes TransactionBlockHeader::Encode() const {
  Encoder enc;
  enc.PutU32(creator_storage_node);
  enc.PutU64(round_created);
  enc.PutU32(shard);
  enc.PutU32(tx_count);
  enc.PutArray(tx_root);
  return enc.TakeBuffer();
}

Result<TransactionBlockHeader> TransactionBlockHeader::Decode(ByteView data) {
  Decoder dec(data);
  TransactionBlockHeader h;
  PORYGON_ASSIGN_OR_RETURN(h.creator_storage_node, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(h.round_created, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(h.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(h.tx_count, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(h.tx_root, dec.GetArray<32>());
  PORYGON_RETURN_IF_ERROR(dec.Finish("header"));
  return h;
}

BlockId TransactionBlockHeader::Id() const {
  return crypto::Sha256::Hash(Encode());
}

void TransactionBlock::SealHeader() {
  std::vector<Hash256> ids;
  ids.reserve(transactions.size());
  for (const auto& t : transactions) ids.push_back(t.Id());
  header.tx_root = crypto::ComputeMerkleRoot(ids);
  header.tx_count = static_cast<uint32_t>(transactions.size());
}

bool TransactionBlock::BodyMatchesHeader() const {
  if (transactions.size() != header.tx_count) return false;
  std::vector<Hash256> ids;
  ids.reserve(transactions.size());
  for (const auto& t : transactions) ids.push_back(t.Id());
  return crypto::ComputeMerkleRoot(ids) == header.tx_root;
}

Bytes TransactionBlock::Encode() const {
  Encoder enc;
  enc.PutBytes(header.Encode());
  enc.PutVarint(transactions.size());
  for (const auto& t : transactions) enc.PutFixed(t.Encode());
  return enc.TakeBuffer();
}

Result<TransactionBlock> TransactionBlock::Decode(ByteView data) {
  Decoder dec(data);
  TransactionBlock block;
  // Borrowed-view header read: relay/chunk reassembly paths decode bodies
  // out of buffers they already own, so the nested header needs no copy.
  PORYGON_ASSIGN_OR_RETURN(ByteView header_raw, dec.GetBytesView());
  PORYGON_ASSIGN_OR_RETURN(block.header,
                           TransactionBlockHeader::Decode(header_raw));
  PORYGON_ASSIGN_OR_RETURN(uint64_t count, dec.GetCount(kTxEncodedSize));
  block.transactions.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PORYGON_ASSIGN_OR_RETURN(Transaction t, Transaction::DecodeFrom(&dec));
    block.transactions.push_back(std::move(t));
  }
  PORYGON_RETURN_IF_ERROR(dec.Finish("block"));
  return block;
}

Bytes WitnessProof::Encode() const {
  Encoder enc;
  enc.PutArray(block_id);
  enc.PutArray(witness);
  enc.PutArray(signature);
  return enc.TakeBuffer();
}

Result<WitnessProof> WitnessProof::Decode(ByteView data) {
  Decoder dec(data);
  WitnessProof p;
  PORYGON_ASSIGN_OR_RETURN(p.block_id, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(p.witness, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(p.signature, dec.GetArray<64>());
  PORYGON_RETURN_IF_ERROR(dec.Finish("proof"));
  return p;
}

Bytes ProposalBlock::Encode() const {
  Encoder enc;
  enc.PutU64(height);
  enc.PutArray(prev_hash);
  enc.PutU64(round);
  enc.PutArray(leader);

  enc.PutVarint(shard_tx_blocks.size());
  for (const auto& list : shard_tx_blocks) {
    enc.PutVarint(list.size());
    for (const auto& id : list) enc.PutArray(id);
  }

  enc.PutVarint(shard_updates.size());
  for (const auto& list : shard_updates) EncodeUpdates(list, &enc);

  enc.PutVarint(discarded.size());
  for (const auto& id : discarded) enc.PutArray(id);

  enc.PutVarint(shard_roots.size());
  for (const auto& r : shard_roots) enc.PutArray(r);
  enc.PutArray(state_root);
  enc.PutF64(ordering_threshold);
  enc.PutF64(execution_threshold);
  return enc.TakeBuffer();
}

Result<ProposalBlock> ProposalBlock::Decode(ByteView data) {
  Decoder dec(data);
  ProposalBlock b;
  PORYGON_ASSIGN_OR_RETURN(b.height, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(b.prev_hash, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(b.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(b.leader, dec.GetArray<32>());

  // Each per-shard list costs at least its one-byte count.
  PORYGON_ASSIGN_OR_RETURN(uint64_t n_shards, dec.GetCount(1));
  b.shard_tx_blocks.resize(n_shards);
  for (auto& list : b.shard_tx_blocks) {
    PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetCount(32));
    list.resize(n);
    for (auto& id : list) {
      PORYGON_ASSIGN_OR_RETURN(id, dec.GetArray<32>());
    }
  }

  PORYGON_ASSIGN_OR_RETURN(uint64_t n_update_shards, dec.GetCount(1));
  b.shard_updates.resize(n_update_shards);
  for (auto& list : b.shard_updates) {
    PORYGON_ASSIGN_OR_RETURN(list, DecodeUpdates(&dec));
  }

  PORYGON_ASSIGN_OR_RETURN(uint64_t n_disc, dec.GetCount(32));
  b.discarded.resize(n_disc);
  for (auto& id : b.discarded) {
    PORYGON_ASSIGN_OR_RETURN(id, dec.GetArray<32>());
  }

  PORYGON_ASSIGN_OR_RETURN(uint64_t n_roots, dec.GetCount(32));
  b.shard_roots.resize(n_roots);
  for (auto& r : b.shard_roots) {
    PORYGON_ASSIGN_OR_RETURN(r, dec.GetArray<32>());
  }
  PORYGON_ASSIGN_OR_RETURN(b.state_root, dec.GetArray<32>());
  PORYGON_ASSIGN_OR_RETURN(b.ordering_threshold, dec.GetF64());
  PORYGON_ASSIGN_OR_RETURN(b.execution_threshold, dec.GetF64());
  PORYGON_RETURN_IF_ERROR(dec.Finish("proposal"));
  return b;
}

Hash256 ProposalBlock::Hash() const { return crypto::Sha256::Hash(Encode()); }

}  // namespace porygon::tx
