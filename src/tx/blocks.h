#ifndef PORYGON_TX_BLOCKS_H_
#define PORYGON_TX_BLOCKS_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/status.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "state/account.h"
#include "tx/transaction.h"

namespace porygon::tx {

using BlockId = crypto::Hash256;

/// Header of a transaction block (the unit storage nodes package and
/// stateless nodes witness, §IV-B2). Headers circulate separately from the
/// body: the OC orders blocks from headers + witness proofs alone.
struct TransactionBlockHeader {
  uint32_t creator_storage_node = 0;  ///< Packing storage node.
  uint64_t round_created = 0;
  uint32_t shard = 0;                 ///< Shard its transactions execute in.
  uint32_t tx_count = 0;
  crypto::Hash256 tx_root{};          ///< Merkle root over tx ids.

  BlockId Id() const;
  Bytes Encode() const;
  static Result<TransactionBlockHeader> Decode(ByteView data);
  /// Wire footprint of a header (fixed fields + root).
  size_t WireSize() const { return Encode().size(); }
};

/// Full transaction block: header plus the transaction bodies. The wire
/// size scales with tx_count * Transaction::kWireSize — this is the bulk
/// traffic that the Witness Phase shoulders so the OC never downloads it.
struct TransactionBlock {
  TransactionBlockHeader header;
  std::vector<Transaction> transactions;

  /// Recomputes header.tx_root and header.tx_count from `transactions`.
  void SealHeader();
  /// True iff the body matches the sealed header.
  bool BodyMatchesHeader() const;

  size_t WireSize() const {
    return header.WireSize() + transactions.size() * Transaction::kWireSize;
  }

  Bytes Encode() const;
  static Result<TransactionBlock> Decode(ByteView data);
};

/// A witness proof: one committee member's signature on a transaction-block
/// header, attesting it could download the full body (§IV-C1(a)).
struct WitnessProof {
  BlockId block_id{};
  crypto::PublicKey witness{};
  crypto::Signature signature{};

  static constexpr size_t kWireSize = 32 + 32 + 64;

  Bytes Encode() const;
  static Result<WitnessProof> Decode(ByteView data);
};

/// Per-shard list of state updates distributed by the OC during
/// Multi-Shard Update (the list U in §IV-D2).
struct StateUpdate {
  state::AccountId account = 0;
  state::Account value{};

  bool operator==(const StateUpdate&) const = default;
};

/// The StateUpdate list codec: a varint count, then varint account, balance
/// and nonce per entry. Typical entries (20-bit accounts, sub-2^32 balances,
/// tiny nonces) cost ~8 bytes instead of 24; these lists are the bulk of a
/// proposal block under cross-shard load and of the exec-result fan-in.
void EncodeUpdates(const std::vector<StateUpdate>& updates, Encoder* enc);
Result<std::vector<StateUpdate>> DecodeUpdates(Decoder* dec);

/// Proposal block: the small block the Ordering Committee agrees on each
/// round (Fig 3). It chains by prev_hash, lists witnessed transaction
/// blocks per shard (L), carries the cross-shard update lists (U) and the
/// shard subtree roots plus aggregated state root (T).
struct ProposalBlock {
  uint64_t height = 0;
  crypto::Hash256 prev_hash{};
  uint64_t round = 0;
  crypto::PublicKey leader{};
  /// L[d]: ordered transaction-block ids for shard d.
  std::vector<std::vector<BlockId>> shard_tx_blocks;
  /// U[d]: state updates shard d must apply (cross-shard commits).
  std::vector<std::vector<StateUpdate>> shard_updates;
  /// Conflict-discarded transactions (kept in their blocks for integrity,
  /// "while including them in the block for integrity, and notes their
  /// indexes", §IV-D2).
  std::vector<TxId> discarded;
  /// T: subtree root per shard, as agreed this round.
  std::vector<crypto::Hash256> shard_roots;
  /// Aggregated global state root.
  crypto::Hash256 state_root{};
  /// Committee-selection thresholds for the next round (§IV-B3).
  double ordering_threshold = 0.0;
  double execution_threshold = 0.0;

  crypto::Hash256 Hash() const;
  Bytes Encode() const;
  static Result<ProposalBlock> Decode(ByteView data);
  size_t WireSize() const { return Encode().size(); }
};

}  // namespace porygon::tx

#endif  // PORYGON_TX_BLOCKS_H_
