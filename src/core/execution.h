#ifndef PORYGON_CORE_EXECUTION_H_
#define PORYGON_CORE_EXECUTION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "crypto/sha256.h"
#include "state/sharded_state.h"
#include "state/view.h"
#include "tx/blocks.h"
#include "tx/transaction.h"

namespace porygon::core {

/// Why a transaction was abandoned rather than applied. Failed transactions
/// stay recorded in their block for integrity (§IV-C1(c)).
enum class TxFailure {
  kInsufficientBalance,
  kBadNonce,       ///< Replay or out-of-order nonce.
  kWrongShard,     ///< Sender does not belong to the executing shard.
};

struct FailedTx {
  tx::TxId id;
  TxFailure reason;
};

/// Inputs for one ESC's Execution Phase in one round (§IV-D2 step 3/5):
/// the shard's intra-shard sub-list, the cross-shard transactions it must
/// pre-execute (its accounts initiate them), and the update list U from the
/// OC for cross-shard commits.
struct ExecutionInput {
  uint32_t shard = 0;
  std::vector<tx::Transaction> intra_shard;
  std::vector<tx::Transaction> cross_shard;
  std::vector<tx::StateUpdate> updates;
};

/// A listed block's transactions, or nullptr when the caller does not hold
/// the block (it is then skipped).
using ListedTxs =
    std::function<const std::vector<tx::Transaction>*(const tx::BlockId&)>;

/// Assembles one shard's ExecutionInput from its listing: the transactions
/// of `block_ids` minus the conflict-`discarded` ones, split into
/// cross-shard (pre-executed) and intra-shard, plus the OC's update list.
/// The storage-side replay and executing ESC members build it the same way.
ExecutionInput BuildExecutionInput(uint32_t shard, int shard_bits,
                                   const std::vector<tx::BlockId>& block_ids,
                                   const std::vector<tx::TxId>& discarded,
                                   std::vector<tx::StateUpdate> updates,
                                   const ListedTxs& txs_of);

/// Outputs returned to the OC: the new subtree root T', the updated
/// key-value pairs S from cross-shard pre-execution (not yet applied to any
/// subtree), and failure accounting.
struct ExecutionResult {
  crypto::Hash256 shard_root{};
  std::vector<tx::StateUpdate> cross_updates;
  uint32_t intra_applied = 0;
  uint32_t cross_pre_executed = 0;
  std::vector<FailedTx> failed;
};

/// Deterministic shard executor. Every honest ESC member runs this over the
/// same inputs and must produce bit-identical results (Lemma 3 relies on the
/// execution process being deterministic).
///
/// Transfer semantics: valid iff tx.nonce == sender.nonce and
/// sender.balance >= amount; apply debits sender, bumps its nonce, credits
/// receiver (creating it if absent).
class ShardExecutor {
 public:
  /// Executes in order: (1) OC update list U, (2) intra-shard transactions,
  /// (3) cross-shard pre-execution (reads state, emits S, mutates nothing).
  /// `state` is the executing members' materialized view (downloaded from
  /// storage nodes); only the `input.shard` subtree is mutated, except that
  /// cross-shard pre-execution may *read* foreign accounts.
  static ExecutionResult Execute(state::StateView* state,
                                 const ExecutionInput& input);

  /// Validity check without side effects.
  static bool IsValidTransfer(const state::Account& sender,
                              const tx::Transaction& t);
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_EXECUTION_H_
