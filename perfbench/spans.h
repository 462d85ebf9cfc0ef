#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder for the traced benchmark binary. wrap.cc opens a
// span around every cross-module call into a layer's entry point; spans
// stay in per-thread buffers until Collect() reduces them to per-kind call
// counts and self times after the measured window.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Every traced entry point. kEncoderPut is counted only: each call takes
/// well under a microsecond, so timing it would cost more than it measures.
enum Kind : uint16_t {
  kSha256Update,
  kSha256Finish,
  kSha256Hash,
  kSha256HashPair,
  kVerifyBatch,
  kVerifyProofBatch,
  kVrfProve,
  kVrfVerify,
  kTxId,
  kTxEncode,
  kTxDecode,
  kTxBlockEncode,
  kTxBlockDecode,
  kProposalEncode,
  kProposalHash,
  kPoolAdd,
  kPoolPackBlock,
  kSmtPut,
  kSmtPutBatch,
  kSmtRoot,
  kSmtProve,
  kShardedGetAccount,
  kShardedPutAccountBatch,
  kShardedGlobalRoot,
  kDbPut,
  kDbWrite,
  kDbGet,
  kErasureEncode,
  kErasureDecode,
  kEventRunNext,
  kNetSend,
  kBaOnVote,
  kBaOnVotes,
  kBaOnTimeout,
  kFilterAndLock,
  kShardExecute,
  kSortitionAssign,
  kSortitionVerify,
  kParallelFor,
  kEncoderPut,
  kNumKinds
};

/// "Sha256::Update", "Transaction::Id", ... (stable names for output).
const char* KindName(Kind kind);
/// The src/ module the entry point belongs to: "crypto", "tx", ...
const char* KindModule(Kind kind);

/// Starts or stops recording. Toggle only while no span is open (between
/// simulator calls on the driver thread).
void SetEnabled(bool enabled);

/// Stored span: name, start, end and parent (the innermost open span on
/// this thread, or the dispatching ParallelFor for a pool thread).
class Scope {
 public:
  explicit Scope(Kind kind);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

/// Leaf span that cannot contain another traced call (SHA-256). Inside an
/// open span it is folded — counted and its duration charged to the
/// enclosing span as covered time — instead of stored, which keeps memory
/// bounded at hundreds of hashes per transaction. With no enclosing span
/// on its thread it is stored like a Scope.
class LeafScope {
 public:
  explicit LeafScope(Kind kind);
  ~LeafScope();
  LeafScope(const LeafScope&) = delete;
  LeafScope& operator=(const LeafScope&) = delete;

 private:
  Kind kind_;
  bool active_;
  uint64_t start_ns_ = 0;
};

/// Marks the span on top of this thread's stack as the parent of root
/// spans opened on other threads until destroyed (ParallelFor dispatch).
class DispatchScope {
 public:
  DispatchScope();
  ~DispatchScope();
  DispatchScope(const DispatchScope&) = delete;
  DispatchScope& operator=(const DispatchScope&) = delete;

 private:
  uint64_t saved_;
};

/// Counts one untimed call.
void Count(Kind kind);

/// Adds `n` units of work done by a call of `kind` (keys in a batch write).
void AddItems(Kind kind, uint64_t n);

struct KindTotals {
  uint64_t calls = 0;
  uint64_t items = 0;
  uint64_t self_ns = 0;
  uint64_t inclusive_ns = 0;
};

struct Summary {
  std::vector<KindTotals> kinds;  ///< Indexed by Kind.
  uint64_t stored_spans = 0;
  bool overflowed = false;  ///< A thread buffer hit its cap: incomplete.
  uint64_t root_ns = 0;  ///< Summed duration of parentless spans.
};

/// Reduces every buffer recorded so far (self times via
/// perfbench::SelfTimes) and clears them.
Summary Collect();

}  // namespace perfbench::trace

#endif  // PERFBENCH_SPANS_H_
