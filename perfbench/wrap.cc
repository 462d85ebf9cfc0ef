// Link-time span wrappers for the traced benchmark binary. The binary is
// linked with -Wl,--wrap=<symbol> for every symbol below (the list lives in
// CMakeLists.txt), so each call from one object file of the simulator into
// another lands in __wrap_<symbol>, which opens a span and forwards to the
// real definition. Calls inside one object file are not rerouted: spans
// mark cross-module calls only, and src/ is left untouched.
//
// A wrapper takes the object as its first parameter, which is how the
// Itanium C++ ABI passes `this`. Return types are read off the real
// declarations, so a changed return type cannot silently mismatch; a
// renamed entry point or changed parameter list fails the traced link
// (undefined __real_ symbol), naming the wrapper to update.

#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/erasure.h"
#include "consensus/ba_star.h"
#include "core/committee.h"
#include "core/coordinator.h"
#include "core/execution.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "crypto/vrf.h"
#include "net/event_queue.h"
#include "net/network.h"
#include "runtime/task_pool.h"
#include "spans.h"
#include "state/sharded_state.h"
#include "state/smt.h"
#include "storage/db.h"
#include "tx/blocks.h"
#include "tx/transaction.h"
#include "tx/txpool.h"

namespace {

template <typename F>
struct ReturnOf;
template <typename R, typename... A>
struct ReturnOf<R (*)(A...)> {
  using type = R;
};
template <typename R, typename C, typename... A>
struct ReturnOf<R (C::*)(A...)> {
  using type = R;
};
template <typename R, typename C, typename... A>
struct ReturnOf<R (C::*)(A...) const> {
  using type = R;
};

}  // namespace

using namespace porygon;  // NOLINT: keeps the wrapper table readable.
namespace pt = perfbench::trace;

#define PB_WRAP(SYM, FN, SCOPE, KIND, PARAMS, ARGS)                    \
  extern "C" ReturnOf<decltype(&FN)>::type __real_##SYM PARAMS;        \
  extern "C" ReturnOf<decltype(&FN)>::type __wrap_##SYM PARAMS {       \
    pt::SCOPE span(pt::KIND);                                          \
    return __real_##SYM ARGS;                                          \
  }

#define PB_COUNT(SYM, FN, PARAMS, ARGS)                                \
  extern "C" ReturnOf<decltype(&FN)>::type __real_##SYM PARAMS;        \
  extern "C" ReturnOf<decltype(&FN)>::type __wrap_##SYM PARAMS {       \
    pt::Count(pt::kEncoderPut);                                        \
    return __real_##SYM ARGS;                                          \
  }

// crypto
PB_WRAP(_ZN7porygon6crypto6Sha2566UpdateENS_8ByteViewE,
        crypto::Sha256::Update, LeafScope, kSha256Update,
        (crypto::Sha256 * self, ByteView data), (self, data))
PB_WRAP(_ZN7porygon6crypto6Sha2566FinishEv, crypto::Sha256::Finish,
        LeafScope, kSha256Finish, (crypto::Sha256 * self), (self))
PB_WRAP(_ZN7porygon6crypto6Sha2564HashENS_8ByteViewE, crypto::Sha256::Hash,
        LeafScope, kSha256Hash, (ByteView data), (data))
PB_WRAP(_ZN7porygon6crypto6Sha2568HashPairENS_8ByteViewES2_,
        crypto::Sha256::HashPair, LeafScope, kSha256HashPair,
        (ByteView a, ByteView b), (a, b))
PB_WRAP(
    _ZN7porygon6crypto14CryptoProvider11VerifyBatchERKSt6vectorINS1_9VerifyJobESaIS3_EE,
    crypto::CryptoProvider::VerifyBatch, Scope, kVerifyBatch,
    (crypto::CryptoProvider * self,
     const std::vector<crypto::CryptoProvider::VerifyJob>& jobs),
    (self, jobs))
PB_WRAP(
    _ZN7porygon6crypto14CryptoProvider16VerifyProofBatchERKSt6vectorINS1_14ProofVerifyJobESaIS3_EE,
    crypto::CryptoProvider::VerifyProofBatch, Scope, kVerifyProofBatch,
    (crypto::CryptoProvider * self,
     const std::vector<crypto::CryptoProvider::ProofVerifyJob>& jobs),
    (self, jobs))
PB_WRAP(_ZN7porygon6crypto8VrfProveERKSt5arrayIhLm32EENS_8ByteViewE,
        crypto::VrfProve, Scope, kVrfProve,
        (const crypto::PrivateKey& seed, ByteView input), (seed, input))
PB_WRAP(
    _ZN7porygon6crypto9VrfVerifyERKSt5arrayIhLm32EENS_8ByteViewERKNS0_8VrfProofE,
    crypto::VrfVerify, Scope, kVrfVerify,
    (const crypto::PublicKey& pub, ByteView input,
     const crypto::VrfProof& proof),
    (pub, input, proof))

// tx
PB_WRAP(_ZNK7porygon2tx11Transaction2IdEv, tx::Transaction::Id, Scope, kTxId,
        (const tx::Transaction* self), (self))
PB_WRAP(_ZNK7porygon2tx11Transaction6EncodeEv, tx::Transaction::Encode,
        Scope, kTxEncode, (const tx::Transaction* self), (self))
PB_WRAP(_ZN7porygon2tx11Transaction6DecodeENS_8ByteViewE,
        tx::Transaction::Decode, Scope, kTxDecode, (ByteView data), (data))
PB_WRAP(_ZNK7porygon2tx16TransactionBlock6EncodeEv,
        tx::TransactionBlock::Encode, Scope, kTxBlockEncode,
        (const tx::TransactionBlock* self), (self))
PB_WRAP(_ZN7porygon2tx16TransactionBlock6DecodeENS_8ByteViewE,
        tx::TransactionBlock::Decode, Scope, kTxBlockDecode, (ByteView data),
        (data))
PB_WRAP(_ZNK7porygon2tx13ProposalBlock6EncodeEv, tx::ProposalBlock::Encode,
        Scope, kProposalEncode, (const tx::ProposalBlock* self), (self))
PB_WRAP(_ZNK7porygon2tx13ProposalBlock4HashEv, tx::ProposalBlock::Hash,
        Scope, kProposalHash, (const tx::ProposalBlock* self), (self))
PB_WRAP(_ZN7porygon2tx6TxPool3AddERKNS0_11TransactionE, tx::TxPool::Add,
        Scope, kPoolAdd, (tx::TxPool * self, const tx::Transaction& t),
        (self, t))
PB_WRAP(_ZN7porygon2tx6TxPool9PackBlockEjmjm, tx::TxPool::PackBlock, Scope,
        kPoolPackBlock,
        (tx::TxPool * self, uint32_t shard, size_t max_count,
         uint32_t creator, uint64_t round),
        (self, shard, max_count, creator, round))

// state
// SMT writes also count the keys they write, for the per-key cost.
extern "C" void __real__ZN7porygon5state16SparseMerkleTree3PutEmNS_8ByteViewE(
    state::SparseMerkleTree* self, uint64_t key, ByteView value);
extern "C" void __wrap__ZN7porygon5state16SparseMerkleTree3PutEmNS_8ByteViewE(
    state::SparseMerkleTree* self, uint64_t key, ByteView value) {
  pt::Scope span(pt::kSmtPut);
  pt::AddItems(pt::kSmtPut, 1);
  __real__ZN7porygon5state16SparseMerkleTree3PutEmNS_8ByteViewE(self, key,
                                                                 value);
}
extern "C" void
__real__ZN7porygon5state16SparseMerkleTree8PutBatchERKSt6vectorISt4pairImS2_IhSaIhEEESaIS6_EE(
    state::SparseMerkleTree* self,
    const std::vector<std::pair<uint64_t, Bytes>>& writes);
extern "C" void
__wrap__ZN7porygon5state16SparseMerkleTree8PutBatchERKSt6vectorISt4pairImS2_IhSaIhEEESaIS6_EE(
    state::SparseMerkleTree* self,
    const std::vector<std::pair<uint64_t, Bytes>>& writes) {
  pt::Scope span(pt::kSmtPutBatch);
  pt::AddItems(pt::kSmtPutBatch, writes.size());
  __real__ZN7porygon5state16SparseMerkleTree8PutBatchERKSt6vectorISt4pairImS2_IhSaIhEEESaIS6_EE(
      self, writes);
}
PB_WRAP(_ZNK7porygon5state16SparseMerkleTree4RootEv,
        state::SparseMerkleTree::Root, Scope, kSmtRoot,
        (const state::SparseMerkleTree* self), (self))
PB_WRAP(_ZNK7porygon5state16SparseMerkleTree5ProveEm,
        state::SparseMerkleTree::Prove, Scope, kSmtProve,
        (const state::SparseMerkleTree* self, uint64_t key), (self, key))
PB_WRAP(_ZNK7porygon5state12ShardedState10GetAccountEm,
        state::ShardedState::GetAccount, Scope, kShardedGetAccount,
        (const state::ShardedState* self, state::AccountId id), (self, id))
PB_WRAP(
    _ZN7porygon5state12ShardedState15PutAccountBatchEjRKSt6vectorISt4pairImNS0_7AccountEESaIS5_EE,
    state::ShardedState::PutAccountBatch, Scope, kShardedPutAccountBatch,
    (state::ShardedState * self, uint32_t shard,
     const std::vector<std::pair<uint64_t, state::Account>>& accounts),
    (self, shard, accounts))
PB_WRAP(_ZNK7porygon5state12ShardedState10GlobalRootEv,
        state::ShardedState::GlobalRoot, Scope, kShardedGlobalRoot,
        (const state::ShardedState* self), (self))

// storage
PB_WRAP(_ZN7porygon7storage2Db3PutENS_8ByteViewES2_, storage::Db::Put, Scope,
        kDbPut, (storage::Db * self, ByteView key, ByteView value),
        (self, key, value))
PB_WRAP(_ZN7porygon7storage2Db5WriteERKNS1_10WriteBatchE, storage::Db::Write,
        Scope, kDbWrite,
        (storage::Db * self, const storage::Db::WriteBatch& batch),
        (self, batch))
PB_WRAP(_ZNK7porygon7storage2Db3GetENS_8ByteViewE, storage::Db::Get, Scope,
        kDbGet, (const storage::Db* self, ByteView key), (self, key))

// common
PB_WRAP(_ZN7porygon7erasure6EncodeENS_8ByteViewEii, erasure::Encode, Scope,
        kErasureEncode, (ByteView payload, int k, int n), (payload, k, n))
PB_WRAP(
    _ZN7porygon7erasure6DecodeERKSt6vectorISt8optionalIS1_IhSaIhEEESaIS5_EEii,
    erasure::Decode, Scope, kErasureDecode,
    (const std::vector<std::optional<Bytes>>& chunks, int k, int n),
    (chunks, k, n))
PB_COUNT(_ZN7porygon7Encoder6PutU16Et, Encoder::PutU16,
         (Encoder * self, uint16_t v), (self, v))
PB_COUNT(_ZN7porygon7Encoder6PutU32Ej, Encoder::PutU32,
         (Encoder * self, uint32_t v), (self, v))
PB_COUNT(_ZN7porygon7Encoder6PutU64Em, Encoder::PutU64,
         (Encoder * self, uint64_t v), (self, v))
PB_COUNT(_ZN7porygon7Encoder9PutVarintEm, Encoder::PutVarint,
         (Encoder * self, uint64_t v), (self, v))
PB_COUNT(_ZN7porygon7Encoder8PutBytesENS_8ByteViewE, Encoder::PutBytes,
         (Encoder * self, ByteView data), (self, data))
PB_COUNT(_ZN7porygon7Encoder8PutFixedENS_8ByteViewE, Encoder::PutFixed,
         (Encoder * self, ByteView data), (self, data))

// net
PB_WRAP(_ZN7porygon3net10EventQueue7RunNextEv, net::EventQueue::RunNext,
        Scope, kEventRunNext, (net::EventQueue * self), (self))
PB_WRAP(_ZN7porygon3net10SimNetwork4SendENS0_7MessageE,
        net::SimNetwork::Send, Scope, kNetSend,
        (net::SimNetwork * self, net::Message msg), (self, std::move(msg)))

// consensus
PB_WRAP(_ZN7porygon9consensus6BaStar6OnVoteERKNS0_4VoteE,
        consensus::BaStar::OnVote, Scope, kBaOnVote,
        (consensus::BaStar * self, const consensus::Vote& vote), (self, vote))
PB_WRAP(
    _ZN7porygon9consensus6BaStar7OnVotesERKSt6vectorINS0_4VoteESaIS3_EE,
    consensus::BaStar::OnVotes, Scope, kBaOnVotes,
    (consensus::BaStar * self, const std::vector<consensus::Vote>& votes),
    (self, votes))
PB_WRAP(_ZN7porygon9consensus6BaStar9OnTimeoutEv,
        consensus::BaStar::OnTimeout, Scope, kBaOnTimeout,
        (consensus::BaStar * self), (self))

// core
PB_WRAP(
    _ZN7porygon4core21CrossShardCoordinator13FilterAndLockEmRKSt6vectorINS_2tx11TransactionESaIS4_EE,
    core::CrossShardCoordinator::FilterAndLock, Scope, kFilterAndLock,
    (core::CrossShardCoordinator * self, uint64_t round,
     const std::vector<tx::Transaction>& txs),
    (self, round, txs))
PB_WRAP(
    _ZN7porygon4core13ShardExecutor7ExecuteEPNS_5state9StateViewERKNS0_14ExecutionInputE,
    core::ShardExecutor::Execute, Scope, kShardExecute,
    (state::StateView * state, const core::ExecutionInput& input),
    (state, input))
PB_WRAP(
    _ZN7porygon4core9Sortition6AssignEPNS_6crypto14CryptoProviderERKSt5arrayIhLm32EEmS8_ddi,
    core::Sortition::Assign, Scope, kSortitionAssign,
    (crypto::CryptoProvider * provider, const crypto::PrivateKey& key,
     uint64_t round, const crypto::Hash256& prev_hash, double ord,
     double exec, int shard_bits),
    (provider, key, round, prev_hash, ord, exec, shard_bits))
PB_WRAP(
    _ZN7porygon4core9Sortition6VerifyEPNS_6crypto14CryptoProviderERKSt5arrayIhLm32EEmS8_ddiRKNS0_10AssignmentE,
    core::Sortition::Verify, Scope, kSortitionVerify,
    (crypto::CryptoProvider * provider, const crypto::PublicKey& pub,
     uint64_t round, const crypto::Hash256& prev_hash, double ord,
     double exec, int shard_bits, const core::Assignment& claimed),
    (provider, pub, round, prev_hash, ord, exec, shard_bits, claimed))

// runtime: work the pool runs on its threads is parented to this span.
extern "C" ReturnOf<decltype(&runtime::TaskPool::ParallelFor)>::type
__real__ZN7porygon7runtime8TaskPool11ParallelForEmRKSt8functionIFvmEE(
    runtime::TaskPool* self, size_t n,
    const std::function<void(size_t)>& body);
extern "C" ReturnOf<decltype(&runtime::TaskPool::ParallelFor)>::type
__wrap__ZN7porygon7runtime8TaskPool11ParallelForEmRKSt8functionIFvmEE(
    runtime::TaskPool* self, size_t n,
    const std::function<void(size_t)>& body) {
  pt::Scope span(pt::kParallelFor);
  pt::DispatchScope dispatch;
  return __real__ZN7porygon7runtime8TaskPool11ParallelForEmRKSt8functionIFvmEE(
      self, n, body);
}
