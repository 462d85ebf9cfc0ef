#include "spans.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "stats.h"

namespace perfbench::trace {

namespace {

// Hard cap on stored spans per thread (32 bytes each). The traced windows
// stay far below it; on overflow the traced driver fails the run rather
// than report partial self times.
constexpr size_t kMaxSpansPerThread = size_t{8} << 20;
constexpr uint64_t kNoDispatch = ~uint64_t{0};

struct RawSpan {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t folded_ns;
  uint32_t parent_idx;
  uint16_t parent_tid;
  uint16_t kind;
};

struct ThreadBuf {
  uint16_t tid = 0;
  std::vector<RawSpan> spans;
  std::vector<uint32_t> stack;
  uint64_t leaf_calls[kNumKinds] = {};
  uint64_t leaf_ns[kNumKinds] = {};
  uint64_t counts[kNumKinds] = {};
  uint64_t items[kNumKinds] = {};
  bool overflowed = false;
};

std::atomic<bool> g_enabled{false};
// (tid << 32 | span index) of the ParallelFor currently dispatching work.
std::atomic<uint64_t> g_dispatch{kNoDispatch};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // Guarded by g_mu.
thread_local ThreadBuf* t_buf = nullptr;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Enabled() { return g_enabled.load(std::memory_order_acquire); }

ThreadBuf* Buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
    t_buf->tid = static_cast<uint16_t>(g_bufs.size() - 1);
  }
  return t_buf;
}

// Appends a span whose parent is the innermost open span on this thread,
// else the dispatching ParallelFor when it runs on another thread.
// Returns false when the buffer is full.
bool Push(ThreadBuf* b, Kind kind, uint64_t start, uint64_t end) {
  if (b->spans.size() >= kMaxSpansPerThread) {
    b->overflowed = true;
    return false;
  }
  RawSpan s{start, end, 0, Span::kNoParent, 0, static_cast<uint16_t>(kind)};
  if (!b->stack.empty()) {
    s.parent_idx = b->stack.back();
    s.parent_tid = b->tid;
  } else {
    const uint64_t d = g_dispatch.load(std::memory_order_acquire);
    if (d != kNoDispatch && (d >> 32) != b->tid) {
      s.parent_idx = static_cast<uint32_t>(d);
      s.parent_tid = static_cast<uint16_t>(d >> 32);
    }
  }
  b->spans.push_back(s);
  return true;
}

struct KindInfo {
  const char* name;
  const char* module;
};

constexpr KindInfo kKinds[kNumKinds] = {
    {"Sha256::Update", "crypto"},
    {"Sha256::Finish", "crypto"},
    {"Sha256::Hash", "crypto"},
    {"Sha256::HashPair", "crypto"},
    {"CryptoProvider::VerifyBatch", "crypto"},
    {"CryptoProvider::VerifyProofBatch", "crypto"},
    {"VrfProve", "crypto"},
    {"VrfVerify", "crypto"},
    {"Transaction::Id", "tx"},
    {"Transaction::Encode", "tx"},
    {"Transaction::Decode", "tx"},
    {"TransactionBlock::Encode", "tx"},
    {"TransactionBlock::Decode", "tx"},
    {"ProposalBlock::Encode", "tx"},
    {"ProposalBlock::Hash", "tx"},
    {"TxPool::Add", "tx"},
    {"TxPool::PackBlock", "tx"},
    {"SparseMerkleTree::Put", "state"},
    {"SparseMerkleTree::PutBatch", "state"},
    {"SparseMerkleTree::Root", "state"},
    {"SparseMerkleTree::Prove", "state"},
    {"ShardedState::GetAccount", "state"},
    {"ShardedState::PutAccountBatch", "state"},
    {"ShardedState::GlobalRoot", "state"},
    {"Db::Put", "storage"},
    {"Db::Write", "storage"},
    {"Db::Get", "storage"},
    {"erasure::Encode", "common"},
    {"erasure::Decode", "common"},
    {"EventQueue::RunNext", "net"},
    {"SimNetwork::Send", "net"},
    {"BaStar::OnVote", "consensus"},
    {"BaStar::OnVotes", "consensus"},
    {"BaStar::OnTimeout", "consensus"},
    {"CrossShardCoordinator::FilterAndLock", "core"},
    {"ShardExecutor::Execute", "core"},
    {"Sortition::Assign", "core"},
    {"Sortition::Verify", "core"},
    {"TaskPool::ParallelFor", "runtime"},
    {"Encoder::Put*", "common"},
};

}  // namespace

const char* KindName(Kind kind) {
  return kind < kNumKinds ? kKinds[kind].name : "?";
}

const char* KindModule(Kind kind) {
  return kind < kNumKinds ? kKinds[kind].module : "?";
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_release);
}

Scope::Scope(Kind kind) : active_(false) {
  if (!Enabled()) return;
  ThreadBuf* b = Buf();
  if (!Push(b, kind, NowNs(), 0)) return;
  b->stack.push_back(static_cast<uint32_t>(b->spans.size() - 1));
  active_ = true;
}

Scope::~Scope() {
  if (!active_) return;
  ThreadBuf* b = t_buf;
  b->spans[b->stack.back()].end_ns = NowNs();
  b->stack.pop_back();
}

LeafScope::LeafScope(Kind kind) : kind_(kind), active_(Enabled()) {
  if (active_) start_ns_ = NowNs();
}

LeafScope::~LeafScope() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadBuf* b = Buf();
  if (b->stack.empty()) {
    Push(b, kind_, start_ns_, end);
    return;
  }
  b->spans[b->stack.back()].folded_ns += end - start_ns_;
  ++b->leaf_calls[kind_];
  b->leaf_ns[kind_] += end - start_ns_;
}

DispatchScope::DispatchScope() : saved_(g_dispatch.load()) {
  ThreadBuf* b = Enabled() ? Buf() : nullptr;
  if (b != nullptr && !b->stack.empty()) {
    g_dispatch.store(uint64_t{b->tid} << 32 | b->stack.back(),
                     std::memory_order_release);
  }
}

DispatchScope::~DispatchScope() {
  g_dispatch.store(saved_, std::memory_order_release);
}

void Count(Kind kind) {
  if (Enabled()) ++Buf()->counts[kind];
}

void AddItems(Kind kind, uint64_t n) {
  if (Enabled()) Buf()->items[kind] += n;
}

Summary Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  Summary out;
  out.kinds.assign(kNumKinds, KindTotals{});
  std::vector<size_t> offset(g_bufs.size(), 0);
  size_t total = 0;
  for (size_t t = 0; t < g_bufs.size(); ++t) {
    offset[t] = total;
    total += g_bufs[t]->spans.size();
  }
  std::vector<Span> spans;
  spans.reserve(total);
  for (const auto& b : g_bufs) {
    out.overflowed |= b->overflowed;
    std::vector<RawSpan> raw;
    raw.swap(b->spans);  // Released after conversion to bound peak memory.
    for (const RawSpan& r : raw) {
      Span s;
      s.start_ns = r.start_ns;
      s.end_ns = r.end_ns;
      s.folded_ns = r.folded_ns;
      s.kind = r.kind;
      if (r.parent_idx != Span::kNoParent) {
        s.parent = static_cast<uint32_t>(offset[r.parent_tid] + r.parent_idx);
      }
      spans.push_back(s);
    }
  }
  const std::vector<uint64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    KindTotals& k = out.kinds[spans[i].kind];
    const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    ++k.calls;
    k.self_ns += self[i];
    k.inclusive_ns += dur;
    if (spans[i].parent == Span::kNoParent) out.root_ns += dur;
  }
  for (const auto& b : g_bufs) {
    for (int k = 0; k < kNumKinds; ++k) {
      out.kinds[k].calls += b->leaf_calls[k] + b->counts[k];
      out.kinds[k].items += b->items[k];
      out.kinds[k].self_ns += b->leaf_ns[k];
      out.kinds[k].inclusive_ns += b->leaf_ns[k];
    }
    const uint16_t tid = b->tid;
    *b = ThreadBuf{};
    b->tid = tid;
  }
  out.stored_spans = spans.size();
  return out;
}

}  // namespace perfbench::trace
