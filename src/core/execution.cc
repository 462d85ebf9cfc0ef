#include "core/execution.h"

#include <map>
#include <set>

namespace porygon::core {

using state::Account;
using state::AccountId;
using state::ShardedState;
using tx::StateUpdate;
using tx::Transaction;

ExecutionInput BuildExecutionInput(uint32_t shard, int shard_bits,
                                   const std::vector<tx::BlockId>& block_ids,
                                   const std::vector<tx::TxId>& discarded,
                                   std::vector<StateUpdate> updates,
                                   const ListedTxs& txs_of) {
  ExecutionInput input;
  input.shard = shard;
  input.updates = std::move(updates);
  const std::set<tx::TxId> dropped(discarded.begin(), discarded.end());
  for (const tx::BlockId& id : block_ids) {
    const std::vector<Transaction>* txs = txs_of(id);
    if (txs == nullptr) continue;
    for (const Transaction& t : *txs) {
      if (dropped.count(t.Id()) > 0) continue;
      if (t.IsCrossShard(shard_bits)) {
        input.cross_shard.push_back(t);
      } else {
        input.intra_shard.push_back(t);
      }
    }
  }
  return input;
}

bool ShardExecutor::IsValidTransfer(const Account& sender,
                                    const Transaction& t) {
  return t.nonce == sender.nonce && sender.balance >= t.amount;
}

ExecutionResult ShardExecutor::Execute(state::StateView* state,
                                       const ExecutionInput& input) {
  ExecutionResult result;
  const uint32_t shard = input.shard;

  // All reads/writes go through an overlay; committed writes flush in one
  // batched Merkle update at the end (see SparseMerkleTree::PutBatch).
  std::map<AccountId, Account> overlay;
  auto read = [&](AccountId id) -> Account {
    auto it = overlay.find(id);
    return it != overlay.end() ? it->second : state->GetOrDefault(id);
  };

  // (1) Apply the OC's cross-shard update list U for this shard: these are
  // already-agreed final values (Multi-Shard Update, §IV-D2(b)).
  for (const StateUpdate& u : input.updates) {
    if (state->ShardOf(u.account) != shard) continue;  // Defensive.
    overlay[u.account] = u.value;
  }

  // (2) Intra-shard transactions, sequentially and deterministically.
  for (const Transaction& t : input.intra_shard) {
    if (state->ShardOf(t.from) != shard) {
      result.failed.push_back({t.Id(), TxFailure::kWrongShard});
      continue;
    }
    Account sender = read(t.from);
    if (t.nonce != sender.nonce) {
      result.failed.push_back({t.Id(), TxFailure::kBadNonce});
      continue;
    }
    if (sender.balance < t.amount) {
      result.failed.push_back({t.Id(), TxFailure::kInsufficientBalance});
      continue;
    }
    sender.balance -= t.amount;
    sender.nonce += 1;
    Account receiver = read(t.to);
    receiver.balance += t.amount;
    overlay[t.from] = sender;
    overlay[t.to] = receiver;
    ++result.intra_applied;
  }

  // Flush committed writes (updates + intra effects) into the subtree.
  {
    std::vector<std::pair<AccountId, Account>> writes;
    writes.reserve(overlay.size());
    for (const auto& [id, account] : overlay) {
      if (state->ShardOf(id) == shard) writes.emplace_back(id, account);
    }
    state->PutAccountBatch(shard, writes);
  }

  // (3) Cross-shard pre-execution (Single-Shard Execution, §IV-D2(a)):
  // compute results against a scratch overlay (so same-round transactions
  // in this shard compose), return updated pairs without touching any
  // subtree. The OC has excluded cross-shard conflicts *between* shards, so
  // reading foreign-account values from the downloaded snapshot is safe;
  // conflicts *within* the shard and round are resolved here sequentially
  // ("they can be handled by each ESC independently", §IV-D2).
  std::map<AccountId, Account> scratch;
  auto read_scratch = [&](AccountId id) -> Account {
    auto it = scratch.find(id);
    if (it != scratch.end()) return it->second;
    auto it2 = overlay.find(id);
    return it2 != overlay.end() ? it2->second : state->GetOrDefault(id);
  };
  for (const Transaction& t : input.cross_shard) {
    if (state->ShardOf(t.from) != shard) {
      result.failed.push_back({t.Id(), TxFailure::kWrongShard});
      continue;
    }
    Account sender = read_scratch(t.from);
    if (t.nonce != sender.nonce) {
      result.failed.push_back({t.Id(), TxFailure::kBadNonce});
      continue;
    }
    if (sender.balance < t.amount) {
      result.failed.push_back({t.Id(), TxFailure::kInsufficientBalance});
      continue;
    }
    sender.balance -= t.amount;
    sender.nonce += 1;
    Account receiver = read_scratch(t.to);
    receiver.balance += t.amount;
    scratch[t.from] = sender;
    scratch[t.to] = receiver;
    ++result.cross_pre_executed;
  }
  // Deterministic order (sorted by account id), final value per account.
  for (const auto& [account, value] : scratch) {
    result.cross_updates.push_back({account, value});
  }

  result.shard_root = state->ShardRoot(shard);
  return result;
}

}  // namespace porygon::core
