#include "core/system.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/codec.h"
#include "common/log.h"
#include "net/fault.h"
#include "net/topology.h"
#include "obs/export.h"

namespace porygon::core {

namespace {
/// Read-only snapshot wrapper: own-shard reads/writes hit the live state,
/// foreign reads come from a pre-captured snapshot so every shard's
/// cross-shard pre-execution observes the same pre-round values (each real
/// ESC downloads the same committed snapshot).
class SnapshotForeignView : public state::StateView {
 public:
  SnapshotForeignView(state::ShardedState* base, uint32_t own_shard,
                      std::unordered_map<state::AccountId, state::Account>
                          foreign_snapshot)
      : base_(base),
        own_shard_(own_shard),
        foreign_(std::move(foreign_snapshot)) {}

  uint32_t ShardOf(state::AccountId id) const override {
    return base_->ShardOf(id);
  }
  state::Account GetOrDefault(state::AccountId id) const override {
    if (base_->ShardOf(id) == own_shard_) return base_->GetOrDefault(id);
    auto it = foreign_.find(id);
    return it != foreign_.end() ? it->second : state::Account{};
  }
  void PutAccountBatch(
      uint32_t shard,
      const std::vector<std::pair<state::AccountId, state::Account>>& ws)
      override {
    if (shard == own_shard_) base_->PutAccountBatch(shard, ws);
  }
  crypto::Hash256 ShardRoot(uint32_t shard) const override {
    return base_->ShardRoot(shard);
  }

 private:
  state::ShardedState* base_;
  uint32_t own_shard_;
  std::unordered_map<state::AccountId, state::Account> foreign_;
};
}  // namespace

Status SystemOptions::Validate() const {
  auto fraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (num_storage_nodes < 1) {
    return Status::InvalidArgument("num_storage_nodes must be >= 1");
  }
  if (num_stateless_nodes < 1) {
    return Status::InvalidArgument("num_stateless_nodes must be >= 1");
  }
  if (oc_size < 1) return Status::InvalidArgument("oc_size must be >= 1");
  if (oc_size > num_stateless_nodes) {
    return Status::InvalidArgument("oc_size exceeds num_stateless_nodes");
  }
  if (blocks_per_shard_round < 1) {
    return Status::InvalidArgument("blocks_per_shard_round must be >= 1");
  }
  if (epoch_length == 1) {
    return Status::InvalidArgument(
        "epoch_length must be 0 (disabled) or >= 2");
  }
  if (adversary.stateless != AdvStrategy::kHonest &&
      !IsStatelessStrategy(adversary.stateless)) {
    return Status::InvalidArgument(
        "adversary.stateless is not a stateless strategy");
  }
  if (adversary.storage != AdvStrategy::kHonest &&
      !IsStorageStrategy(adversary.storage)) {
    return Status::InvalidArgument(
        "adversary.storage is not a storage strategy");
  }
  if (adversary.alpha < 0 || adversary.alpha > 0.25) {
    return Status::InvalidArgument(
        "adversary.alpha outside the paper's bound [0,1/4]");
  }
  if (adversary.beta < 0 || adversary.beta > 0.5) {
    return Status::InvalidArgument(
        "adversary.beta outside the paper's bound [0,1/2]");
  }
  if (mean_session_s < 0) {
    return Status::InvalidArgument("mean_session_s must be >= 0");
  }
  if (worker_threads < 0) {
    return Status::InvalidArgument("worker_threads must be >= 0");
  }
  if (params.shard_bits < 0 || params.shard_bits > 20) {
    return Status::InvalidArgument("shard_bits outside [0,20]");
  }
  if (!fraction(params.ordering_fraction)) {
    return Status::InvalidArgument("ordering_fraction outside [0,1]");
  }
  if (!fraction(params.execution_fraction)) {
    return Status::InvalidArgument("execution_fraction outside [0,1]");
  }
  if (params.witness_threshold < 1) {
    return Status::InvalidArgument("witness_threshold must be >= 1");
  }
  if (params.execution_threshold < 1) {
    return Status::InvalidArgument("execution_threshold must be >= 1");
  }
  if (params.block_tx_limit < 1) {
    return Status::InvalidArgument("block_tx_limit must be >= 1");
  }
  if (params.storage_connections < 1) {
    return Status::InvalidArgument("storage_connections must be >= 1");
  }
  if (params.consensus_backoff_cap_us < 1) {
    return Status::InvalidArgument("consensus_backoff_cap_us must be >= 1");
  }
  if (params.storage_timeout_us < 1) {
    return Status::InvalidArgument("storage_timeout_us must be >= 1");
  }
  if (params.storage_backoff_cap_us < params.storage_timeout_us) {
    return Status::InvalidArgument(
        "storage_backoff_cap_us below storage_timeout_us");
  }
  if (params.storage_failover_strikes < 1) {
    return Status::InvalidArgument("storage_failover_strikes must be >= 1");
  }
  if (params.storage_retry_limit < 1) {
    return Status::InvalidArgument("storage_retry_limit must be >= 1");
  }
  if (params.storage_watchdog_us < 1) {
    return Status::InvalidArgument("storage_watchdog_us must be >= 1");
  }
  if (params.storage_resync_budget < 0) {
    return Status::InvalidArgument("storage_resync_budget must be >= 0");
  }
  if (params.storage_probe_us < 1) {
    return Status::InvalidArgument("storage_probe_us must be >= 1");
  }
  if (params.storage_probe_limit < 0) {
    return Status::InvalidArgument("storage_probe_limit must be >= 0");
  }
  PORYGON_RETURN_IF_ERROR(dissemination.Validate());
  if (dissemination.tree() && oc_size > 64) {
    // CompactVoteCert names voters with a 64-bit committee bitmap.
    return Status::InvalidArgument(
        "tree dissemination requires oc_size <= 64");
  }
  return Status::Ok();
}

uint64_t SystemMetrics::CounterOr0(const char* name,
                                   const obs::Labels& labels) const {
  return registry_ != nullptr ? registry_->CounterValue(name, labels) : 0;
}

obs::HistogramSummary SystemMetrics::SummaryOf(
    const char* name, const obs::Labels& labels) const {
  if (registry_ == nullptr) return {};
  const obs::Histogram* h = registry_->FindHistogram(name, labels);
  return h != nullptr ? h->Summary() : obs::HistogramSummary{};
}

uint64_t SystemMetrics::committed_intra_txs() const {
  return CounterOr0("porygon.committed_txs", {{"scope", "intra"}});
}
uint64_t SystemMetrics::committed_cross_txs() const {
  return CounterOr0("porygon.committed_txs", {{"scope", "cross"}});
}
uint64_t SystemMetrics::discarded_txs() const {
  return CounterOr0("porygon.discarded_txs", {});
}
uint64_t SystemMetrics::failed_txs() const {
  return CounterOr0("porygon.failed_txs", {});
}
uint64_t SystemMetrics::committed_blocks() const {
  return CounterOr0("porygon.committed_blocks", {});
}
uint64_t SystemMetrics::empty_rounds() const {
  return CounterOr0("porygon.empty_rounds", {});
}
uint64_t SystemMetrics::replay_mismatches() const {
  return CounterOr0("porygon.replay_mismatches", {});
}

obs::HistogramSummary SystemMetrics::BlockLatency() const {
  return SummaryOf("porygon.latency_seconds", {{"kind", "block"}});
}
obs::HistogramSummary SystemMetrics::CommitLatency() const {
  return SummaryOf("porygon.latency_seconds", {{"kind", "commit"}});
}
obs::HistogramSummary SystemMetrics::UserLatency() const {
  return SummaryOf("porygon.latency_seconds", {{"kind", "user"}});
}
obs::HistogramSummary SystemMetrics::PhaseDuration(Phase phase) const {
  return SummaryOf("porygon.phase_seconds",
                   {{"phase", PhaseLabelName(static_cast<int>(phase))}});
}

std::string SystemMetrics::ToJson() const {
  return registry_ != nullptr ? obs::ExportJson(*registry_) : "{}";
}
std::string SystemMetrics::ToCsv() const {
  return registry_ != nullptr ? obs::ExportCsv(*registry_) : "";
}

PorygonSystem::PorygonSystem(const SystemOptions& options)
    : options_(options), rng_(options.seed) {
  if (Status valid = options_.Validate(); !valid.ok()) {
    PORYGON_LOG(kError) << "invalid SystemOptions: " << valid.ToString();
    std::abort();
  }

  // Resolve every hot-path instrument up front: actors record through these
  // pointers, never through registry lookups.
  obs_.submitted_txs = metrics_registry_.GetCounter("porygon.submitted_txs");
  obs_.rejected_duplicate = metrics_registry_.GetCounter(
      "porygon.rejected_txs", {{"reason", "duplicate"}});
  obs_.rejected_invalid = metrics_registry_.GetCounter(
      "porygon.rejected_txs", {{"reason", "invalid"}});
  obs_.committed_intra = metrics_registry_.GetCounter(
      "porygon.committed_txs", {{"scope", "intra"}});
  obs_.committed_cross = metrics_registry_.GetCounter(
      "porygon.committed_txs", {{"scope", "cross"}});
  obs_.discarded_txs = metrics_registry_.GetCounter("porygon.discarded_txs");
  obs_.failed_txs = metrics_registry_.GetCounter("porygon.failed_txs");
  obs_.committed_blocks =
      metrics_registry_.GetCounter("porygon.committed_blocks");
  obs_.empty_rounds = metrics_registry_.GetCounter("porygon.empty_rounds");
  obs_.replay_mismatches =
      metrics_registry_.GetCounter("porygon.replay_mismatches");
  obs_.gossip_dedup_hits =
      metrics_registry_.GetCounter("core.gossip_dedup_hits");
  obs_.exec_cache_hits = metrics_registry_.GetCounter("core.exec_cache_hits");
  obs_.exec_cache_misses =
      metrics_registry_.GetCounter("core.exec_cache_misses");
  obs_.block_latency = metrics_registry_.GetHistogram(
      "porygon.latency_seconds", {{"kind", "block"}});
  obs_.commit_latency = metrics_registry_.GetHistogram(
      "porygon.latency_seconds", {{"kind", "commit"}});
  obs_.user_latency = metrics_registry_.GetHistogram(
      "porygon.latency_seconds", {{"kind", "user"}});
  obs_.phase_witness = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(0)}});
  obs_.phase_ordering = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(1)}});
  obs_.phase_execution = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(2)}});
  obs_.phase_commit = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(3)}});
  obs_.consensus.instances =
      metrics_registry_.GetCounter("consensus.instances");
  obs_.consensus.votes_cast =
      metrics_registry_.GetCounter("consensus.votes_cast");
  obs_.consensus.votes_received =
      metrics_registry_.GetCounter("consensus.votes_received");
  obs_.consensus.timeouts = metrics_registry_.GetCounter("consensus.timeouts");
  obs_.consensus.decisions =
      metrics_registry_.GetCounter("consensus.decisions");
  obs_.consensus.registry = &metrics_registry_;
  obs_.rejected_unavailable = metrics_registry_.GetCounter(
      "porygon.rejected_txs", {{"reason", "unavailable"}});
  // Protocol-side hardening: every rejection of a forged/tampered/stale
  // input lands in a reason-labelled series, so adversarial runs show
  // exactly which defenses fired.
  auto rejected = [this](const char* reason) {
    return metrics_registry_.GetCounter("core.rejected", {{"reason", reason}});
  };
  obs_.rejected_bad_witness_sig = rejected("bad_witness_sig");
  obs_.rejected_unknown_witness = rejected("unknown_witness");
  obs_.rejected_unknown_block = rejected("unknown_block");
  obs_.rejected_bad_exec_sig = rejected("bad_exec_sig");
  obs_.rejected_unknown_signer = rejected("unknown_signer");
  obs_.rejected_s_hash_mismatch = rejected("s_hash_mismatch");
  obs_.rejected_bad_state_proof = rejected("bad_state_proof");
  obs_.rejected_stale_round = rejected("stale_round");
  obs_.rejected_bad_shard = rejected("bad_shard");
  obs_.rejected_unlocked_update = rejected("unlocked_update");
  obs_.failover_timeouts =
      metrics_registry_.GetCounter("core.failover.request_timeouts");
  obs_.failover_retransmits =
      metrics_registry_.GetCounter("core.failover.retransmits");
  obs_.failover_rotations =
      metrics_registry_.GetCounter("core.failover.rotations");
  obs_.failover_resyncs =
      metrics_registry_.GetCounter("core.failover.resyncs");
  obs_.failover_readoptions =
      metrics_registry_.GetCounter("core.failover.readoptions");
  obs_.failover_requeued_txs =
      metrics_registry_.GetCounter("core.failover.requeued_txs");
  obs_.storage_rejoins = metrics_registry_.GetCounter("core.storage_rejoins");
  obs_.epochs = metrics_registry_.GetCounter("core.epochs");
  // Compute-pool fan-out. Task counts are index counts — deterministic for
  // any thread configuration; wall time is volatile (kept off the exports).
  obs_.runtime_exec_tasks =
      metrics_registry_.GetCounter("runtime.tasks", {{"phase", "exec"}});
  obs_.runtime_accounts_tasks =
      metrics_registry_.GetCounter("runtime.tasks", {{"phase", "accounts"}});
  obs_.runtime_verify_tasks =
      metrics_registry_.GetCounter("runtime.tasks", {{"phase", "verify"}});
  obs_.runtime_exec_wall_us =
      metrics_registry_.GetVolatileGauge("runtime.wall_us",
                                         {{"phase", "exec"}});
  obs_.runtime_accounts_wall_us =
      metrics_registry_.GetVolatileGauge("runtime.wall_us",
                                         {{"phase", "accounts"}});
  obs_.runtime_verify_wall_us =
      metrics_registry_.GetVolatileGauge("runtime.wall_us",
                                         {{"phase", "verify"}});

  tracer_.Configure(options_.trace, [this] { return events_.now(); });
  events_.EnableMetrics(&metrics_registry_);
  // Stamp PORYGON_LOG lines with virtual time for the life of this system
  // (cleared in the destructor; last-constructed system wins if several
  // coexist, which only affects log cosmetics).
  Logger::SetClock([this] { return sim_seconds(); });

  network_ = std::make_unique<net::SimNetwork>(&events_, rng_.Fork());
  network_->EnableMetrics(
      &metrics_registry_,
      [](uint16_t kind) { return std::string(MsgKindName(kind)); },
      [](uint16_t kind) {
        return std::string(PhaseLabelName(PhaseOfKind(kind)));
      });
  network_->SetLatency(options_.params.latency_us,
                       options_.params.latency_jitter_us);
  // Compute pool for shard execution, batch verification, and storage
  // maintenance (see runtime/task_pool.h for the determinism contract).
  pool_ = std::make_unique<runtime::TaskPool>(
      runtime::TaskPool::ResolveThreads(options_.worker_threads));
  if (options_.use_ed25519) {
    provider_ = std::make_unique<crypto::Ed25519Provider>();
  } else {
    provider_ = std::make_unique<crypto::FastProvider>();
  }
  provider_->SetTaskPool(pool_.get());
  exec_state_ =
      std::make_unique<state::ShardedState>(options_.params.shard_bits);

  // --- Adversary ----------------------------------------------------------
  adversary_ = std::make_unique<AdversaryController>(
      options_.adversary, &metrics_registry_, &tracer_);

  // --- Nodes --------------------------------------------------------------
  // One Topology materializes every node (storage first, then stateless);
  // the actor loops below attach behavior to the prebuilt ids.
  const net::Topology::Built built =
      net::Topology()
          .WithStorage(options_.num_storage_nodes, options_.params.storage_bps)
          .WithStateless(options_.num_stateless_nodes,
                         options_.params.stateless_bps)
          .Materialize(network_.get());

  // --- Storage nodes ------------------------------------------------------
  const std::vector<AdvStrategy> storage_strategies =
      adversary_->PlaceStorage(options_.num_storage_nodes);
  for (int i = 0; i < options_.num_storage_nodes; ++i) {
    net::NodeId nid = built.storage_ids[static_cast<size_t>(i)];
    auto actor = std::make_unique<StorageNodeActor>(this, i, nid,
                                                    storage_strategies[i]);
    StorageNodeActor* raw = actor.get();
    network_->SetHandler(nid,
                         [raw](const net::Message& m) { raw->HandleMessage(m); });
    storage_nodes_.push_back(std::move(actor));
  }

  // --- Stateless nodes ----------------------------------------------------
  // Genesis sortition decides the stable Ordering Committee: the oc_size
  // lowest values (the paper lets the OC outlive rotating ECs, §IV-C2).
  struct Draft {
    crypto::KeyPair keys;
    double genesis_sortition;
  };
  std::vector<Draft> drafts;
  for (int i = 0; i < options_.num_stateless_nodes; ++i) {
    Draft d;
    d.keys = provider_->GenerateKeyPair(&rng_);
    auto a = Sortition::Assign(provider_.get(), d.keys.private_key, 0,
                               crypto::ZeroHash(), 1.0, 0.0, 0);
    d.genesis_sortition = a.sortition;
    stateless_keys_.insert(d.keys.public_key);
    drafts.push_back(std::move(d));
  }
  std::vector<int> order(drafts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return drafts[a].genesis_sortition < drafts[b].genesis_sortition;
  });
  std::set<int> oc_set;
  for (int i = 0;
       i < static_cast<int>(order.size()) &&
       static_cast<int>(oc_set.size()) < options_.oc_size;
       ++i) {
    oc_set.insert(order[i]);
  }

  // Leader: the lowest genesis sortition (always an OC member). Chosen
  // before adversary placement and exempt from it, so the honest-leader
  // proposal stream — and thus the committed chain — of an adversarial
  // run is byte-comparable to the adversary-free run with the same seed.
  const int leader_idx = order.empty() ? 0 : order[0];
  const std::vector<AdvStrategy> stateless_strategies =
      adversary_->PlaceStateless(order, options_.oc_size, leader_idx);

  for (int i = 0; i < options_.num_stateless_nodes; ++i) {
    net::NodeId nid = built.stateless_ids[static_cast<size_t>(i)];
    // m random storage connections (with one honest among them whp).
    std::vector<net::NodeId> conns;
    int m = std::min(options_.params.storage_connections,
                     options_.num_storage_nodes);
    std::set<int> chosen;
    while (static_cast<int>(chosen.size()) < m) {
      chosen.insert(
          static_cast<int>(rng_.NextBelow(options_.num_storage_nodes)));
    }
    // Connection order is the draw order (ascending storage index, fixed by
    // the seeded chooser above). No honesty oracle: an unresponsive primary
    // is detected and rotated away from at runtime (storage-link failover).
    for (int s : chosen) conns.push_back(storage_nodes_[s]->net_id());

    bool in_oc = oc_set.count(i) > 0;
    auto actor = std::make_unique<StatelessNodeActor>(
        this, i, nid, drafts[i].keys, std::move(conns),
        stateless_strategies[i], in_oc);
    StatelessNodeActor* raw = actor.get();
    network_->SetHandler(nid,
                         [raw](const net::Message& m) { raw->HandleMessage(m); });
    if (in_oc) {
      oc_keys_.push_back(drafts[i].keys.public_key);
      oc_net_ids_.push_back(nid);
    }
    stateless_nodes_.push_back(std::move(actor));
  }

  leader_net_id_ = stateless_nodes_[leader_idx]->net_id();

  // Bandwidth-ledger roles, before any traffic flows: the OC leader's
  // links are where the fan-in bottleneck lives (ROADMAP item 1), so it
  // gets its own role; storage and non-OC stateless keep their class
  // names. Roles refine the net.* counter labels and name the link
  // windows the critical-path analyzer attributes ("oc_leader.downlink").
  for (net::NodeId nid : oc_net_ids_) {
    network_->SetNodeRole(nid, nid == leader_net_id_ ? "oc_leader" : "oc");
  }
  // Propagation segment: base one-way latency times the store-and-forward
  // hops on the commit chain (round start -> block -> witness upload ->
  // bundle relay x2 -> proposal relay x2 -> vote -> commit).
  critical_path_.SetPropagationModel(options_.params.latency_us, 8);

  genesis_.height = 0;
  genesis_.round = 0;
  genesis_.shard_tx_blocks.assign(options_.params.shard_count(), {});
  genesis_.shard_updates.assign(options_.params.shard_count(), {});
}

PorygonSystem::~PorygonSystem() {
  // The log clock captures this system's event queue; detach before it dies.
  Logger::SetClock(nullptr);
}

const StatelessNodeActor* PorygonSystem::StatelessByNetId(
    net::NodeId id) const {
  for (const auto& node : stateless_nodes_) {
    if (node->net_id() == id) return node.get();
  }
  return nullptr;
}

void PorygonSystem::CreateAccounts(uint64_t count, uint64_t balance) {
  // Batched per shard: one Merkle path-rehash pass per shard instead of one
  // per account (million-account benches set up in seconds).
  std::vector<std::vector<std::pair<state::AccountId, state::Account>>> by_shard(
      options_.params.shard_count());
  for (uint64_t i = 0; i < count; ++i) {
    state::AccountId id = next_account_hint_ + i;
    by_shard[exec_state_->ShardOf(id)].emplace_back(
        id, state::Account{balance, 0});
  }
  // Shard subtrees are disjoint, so the per-shard rehash passes fan out on
  // the compute pool (byte-identical roots for any thread count).
  const int shards = options_.params.shard_count();
  const uint64_t wall_before = pool_->wall_us();
  pool_->ParallelFor(static_cast<size_t>(shards), [&](size_t d) {
    exec_state_->PutAccountBatch(static_cast<uint32_t>(d), by_shard[d]);
  });
  obs_.runtime_accounts_tasks->Add(static_cast<uint64_t>(shards));
  obs_.runtime_accounts_wall_us->Add(
      static_cast<double>(pool_->wall_us() - wall_before));
  next_account_hint_ += count;
}

void PorygonSystem::CreateAccountsLazy(uint64_t count, uint64_t balance) {
  // O(1): record the declaration on the canonical state; stateless nodes
  // mirror it into their proof-built PartialState each Execution Phase (the
  // declaration is part of genesis config, not per-round state). Leaves
  // materialize on first write, so roots and absence proofs for untouched
  // ids are identical to a freshly created state.
  exec_state_->SetImplicitAccounts(count, balance);
  if (next_account_hint_ <= count) next_account_hint_ = count + 1;
}

Status PorygonSystem::AdmitStamped(const tx::Transaction& t) {
  if (t.from == 0 || t.to == 0) {
    return Status::InvalidArgument("transaction endpoints must be non-zero");
  }
  if (t.from == t.to) {
    return Status::InvalidArgument("self-transfers are not allowed");
  }
  // Deterministic home storage node by tx id; clients talk to storage
  // directly (client-side bandwidth is out of the model). A crashed home is
  // skipped the way a real client would retry the next endpoint: advance
  // deterministically until a live node is found.
  const int n = static_cast<int>(storage_nodes_.size());
  int home = static_cast<int>(crypto::HashPrefixU64(t.Id()) % n);
  int probed = 0;
  while (probed < n &&
         network_->IsCrashed(storage_nodes_[home]->net_id())) {
    home = (home + 1) % n;
    ++probed;
  }
  if (probed == n) {
    return Status::Unavailable("all storage nodes are down");
  }
  if (!storage_nodes_[home]->pool_.Add(t)) {
    return Status::AlreadyExists("duplicate transaction");
  }
  if (tracer_.enabled()) TraceSubmit(t);
  return Status::Ok();
}

Status PorygonSystem::SubmitTransaction(tx::Transaction t) {
  t.submitted_at = static_cast<uint64_t>(events_.now());
  Status s = AdmitStamped(t);
  switch (s.code()) {
    case StatusCode::kOk:
      obs_.submitted_txs->Increment();
      break;
    case StatusCode::kAlreadyExists:
      obs_.rejected_duplicate->Increment();
      break;
    case StatusCode::kUnavailable:
      obs_.rejected_unavailable->Increment();
      break;
    default:
      obs_.rejected_invalid->Increment();
      break;
  }
  return s;
}

std::vector<Status> PorygonSystem::SubmitBatch(
    const std::vector<tx::Transaction>& batch) {
  std::vector<Status> statuses;
  statuses.reserve(batch.size());
  const uint64_t now = static_cast<uint64_t>(events_.now());
  uint64_t admitted = 0, duplicate = 0, unavailable = 0, invalid = 0;
  for (tx::Transaction t : batch) {
    t.submitted_at = now;
    Status s = AdmitStamped(t);
    switch (s.code()) {
      case StatusCode::kOk: ++admitted; break;
      case StatusCode::kAlreadyExists: ++duplicate; break;
      case StatusCode::kUnavailable: ++unavailable; break;
      default: ++invalid; break;
    }
    statuses.push_back(std::move(s));
  }
  // One metrics flush for the whole batch.
  if (admitted) obs_.submitted_txs->Add(admitted);
  if (duplicate) obs_.rejected_duplicate->Add(duplicate);
  if (unavailable) obs_.rejected_unavailable->Add(unavailable);
  if (invalid) obs_.rejected_invalid->Add(invalid);
  return statuses;
}

void PorygonSystem::RecordEquivocationEvidence(
    const consensus::EquivocationEvidence& ev) {
  // Bounded: an adversary re-equivocating every round must not grow this
  // without limit. (Each BA★ instance already dedupes per voter/step/kind,
  // so the cap is generous.)
  constexpr size_t kMaxEvidence = 4096;
  if (equivocation_evidence_.size() >= kMaxEvidence) return;
  equivocation_evidence_.push_back(ev);
}

void PorygonSystem::RegisterAnnounce(const RoleAnnounce& announce) {
  RoundRegistry& reg = registry_[announce.round];
  if (static_cast<Role>(announce.role) == Role::kExecution) {
    auto& members = reg.ec_by_shard[announce.shard];
    if (std::find(members.begin(), members.end(), announce.node_id) ==
        members.end()) {
      members.push_back(announce.node_id);
    }
  } else if (static_cast<Role>(announce.role) == Role::kOrdering) {
    // Epoch-boundary OC announces (per-round EC announces never carry
    // kOrdering — the genesis OC is implicit).
    auto& members = reg.oc_members;
    if (std::find(members.begin(), members.end(), announce.node_id) ==
        members.end()) {
      members.push_back(announce.node_id);
    }
  }
  // Bound memory.
  while (!registry_.empty() && registry_.begin()->first + 6 < announce.round) {
    registry_.erase(registry_.begin());
  }
}

const PorygonSystem::RoundRegistry* PorygonSystem::RegistryFor(
    uint64_t round) const {
  auto it = registry_.find(round);
  return it == registry_.end() ? nullptr : &it->second;
}

void PorygonSystem::AdvanceExecState(uint64_t exec_round) {
  // Applies the inputs of proposal block B_{exec_round} to the canonical
  // state, recording per-shard results. This equals what every honest ESC
  // computes for that proposal (determinism, Lemma 3).
  if (exec_round < 1 || exec_round >= chain_.size()) return;
  if (exec_cache_.count(exec_round) > 0) return;
  const tx::ProposalBlock& basis = chain_[exec_round];
  const int shards = options_.params.shard_count();

  // Pre-capture foreign-account values for cross-shard pre-execution so all
  // shards observe the same snapshot.
  std::vector<ExecutionInput> inputs;
  std::unordered_map<state::AccountId, state::Account> snapshot;
  const ListedTxs stored_txs =
      [this](const tx::BlockId& id) -> const std::vector<tx::Transaction>* {
    auto stored = block_store_.find(IdKey(id));
    return stored == block_store_.end() ? nullptr
                                        : &stored->second.block.transactions;
  };
  for (int d = 0; d < shards; ++d) {
    const size_t i = static_cast<size_t>(d);
    inputs.push_back(BuildExecutionInput(
        d, options_.params.shard_bits,
        i < basis.shard_tx_blocks.size() ? basis.shard_tx_blocks[i]
                                         : std::vector<tx::BlockId>{},
        basis.discarded,
        i < basis.shard_updates.size() ? basis.shard_updates[i]
                                       : std::vector<tx::StateUpdate>{},
        stored_txs));
    for (const auto& t : inputs.back().cross_shard) {
      snapshot[t.from] = exec_state_->GetOrDefault(t.from);
      snapshot[t.to] = exec_state_->GetOrDefault(t.to);
    }
  }

  // Fan the per-shard executions out on the compute pool: each body writes
  // only its own shard's subtree (SnapshotForeignView confines writes, and
  // foreign reads come from the per-body snapshot copy), and each result
  // lands in its own slot. The cross-shard merge below runs on the caller
  // in index order, so the cache is identical for any thread count.
  std::vector<ExecutionResult> results(shards);
  const uint64_t wall_before = pool_->wall_us();
  pool_->ParallelFor(static_cast<size_t>(shards), [&](size_t d) {
    SnapshotForeignView view(exec_state_.get(), static_cast<uint32_t>(d),
                             snapshot);
    results[d] = ShardExecutor::Execute(&view, inputs[d]);
  });
  obs_.runtime_exec_tasks->Add(static_cast<uint64_t>(shards));
  obs_.runtime_exec_wall_us->Add(
      static_cast<double>(pool_->wall_us() - wall_before));

  CachedExec cache;
  cache.roots.resize(shards);
  cache.s_sets.resize(shards);
  cache.intra_applied.resize(shards);
  cache.cross_pre.resize(shards);
  cache.failed.resize(shards);
  for (int d = 0; d < shards; ++d) {
    ExecutionResult& r = results[d];
    cache.roots[d] = r.shard_root;
    cache.s_sets[d] = std::move(r.cross_updates);
    cache.intra_applied[d] = r.intra_applied;
    cache.cross_pre[d] = r.cross_pre_executed;
    cache.failed[d] = static_cast<uint32_t>(r.failed.size());
    for (const auto& f : r.failed) {
      cache.failed_ids.insert(IdKey(f.id));
    }
  }
  exec_cache_[exec_round] = std::move(cache);
  // Bound memory.
  while (!exec_cache_.empty() &&
         exec_cache_.begin()->first + 8 < exec_round) {
    exec_cache_.erase(exec_cache_.begin());
  }
}

void PorygonSystem::ReconfigureEpoch(uint64_t round) {
  // Re-run VRF sortition over the committed tip — the §III-B committee
  // re-formation. Pure function of (tip hash, node keys, adversary spec):
  // nothing is drawn from rng_, so enabling epochs perturbs no other
  // randomness and exports stay byte-identical across thread counts.
  const size_t n = stateless_nodes_.size();
  std::vector<Assignment> draws(n);
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) {
    draws[i] = Sortition::Assign(provider_.get(),
                                 stateless_nodes_[i]->keys_.private_key,
                                 round, tip_hash_, 1.0, 0.0, 0);
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return draws[a].sortition < draws[b].sortition;
  });
  std::set<int> new_oc;
  for (size_t i = 0; i < order.size() &&
                     static_cast<int>(new_oc.size()) < options_.oc_size;
       ++i) {
    new_oc.insert(order[i]);
  }
  const int leader_idx = order[0];
  StatelessNodeActor* new_leader = stateless_nodes_[leader_idx].get();

  StatelessNodeActor* old_leader = nullptr;
  for (auto& node : stateless_nodes_) {
    if (node->net_id() == leader_net_id_) {
      old_leader = node.get();
      break;
    }
  }

  // Re-deal adversary placement for the new membership: same α budget and
  // placement rules, keyed by the epoch ordinal, with the incoming leader
  // exempt (the honest proposal stream stays comparable to the clean run).
  const uint64_t epoch = round / options_.epoch_length;
  const std::vector<AdvStrategy> strategies =
      adversary_->PlaceStateless(order, options_.oc_size, leader_idx, epoch);
  for (size_t i = 0; i < n; ++i) {
    stateless_nodes_[i]->strategy_ = strategies[i];
    if (strategies[i] != AdvStrategy::kHonest) {
      stateless_nodes_[i]->ever_malicious_ = true;
    }
  }

  // Leadership hand-off, captured before membership churn: the outgoing
  // leader's coordinator carries the locked S-sets and retry bookkeeping
  // still in flight across the boundary, and its bundle / exec-result
  // pools cover batches witnessed under the previous committee that the
  // incoming leader must still list (pipeline depth 3).
  std::unique_ptr<CrossShardCoordinator> handoff;
  std::map<uint64_t, std::map<std::string, WitnessedBlock>> handoff_bundles;
  std::map<std::pair<uint64_t, uint32_t>, StatelessNodeActor::PendingExec>
      handoff_results;
  const bool leader_changed =
      old_leader != nullptr && old_leader != new_leader;
  if (leader_changed) {
    handoff = std::move(old_leader->coordinator_);
    handoff_bundles = old_leader->bundles_;
    handoff_results = old_leader->exec_results_;
  }

  // Membership churn. Retiring members shed their OC scratch (their
  // in_oc_ guards then drop stale committee traffic); joiners get fresh
  // scratch plus a coordinator — the hand-off one for a fresh leader.
  for (size_t i = 0; i < n; ++i) {
    StatelessNodeActor* node = stateless_nodes_[i].get();
    const bool member = new_oc.count(static_cast<int>(i)) > 0;
    if (node->in_oc_ && !member) {
      node->RetireFromOc();
      network_->SetNodeRole(node->net_id(), "stateless");
    } else if (!node->in_oc_ && member) {
      std::unique_ptr<CrossShardCoordinator> coord;
      if (node == new_leader) coord = std::move(handoff);
      node->JoinOc(std::move(coord));
    }
  }
  if (handoff != nullptr) {
    // The incoming leader was already an OC member: swap the hand-off
    // coordinator in for its own (the locked S-sets live only there).
    new_leader->coordinator_ = std::move(handoff);
    new_leader->coordinator_->EnableTracing(&tracer_,
                                            new_leader->TraceName());
    new_leader->coordinator_->set_rejected_counter(
        obs_.rejected_unlocked_update);
  }
  if (leader_changed) {
    new_leader->AdoptOcHandoff(handoff_bundles, handoff_results);
    if (old_leader->in_oc_ && old_leader->coordinator_ == nullptr) {
      // The demoted leader stays a plain member: restore the
      // every-member-owns-a-coordinator construction invariant.
      old_leader->coordinator_ = std::make_unique<CrossShardCoordinator>(
          options_.params.shard_bits,
          options_.params.cross_shard_retry_rounds);
      old_leader->coordinator_->EnableTracing(&tracer_,
                                              old_leader->TraceName());
      old_leader->coordinator_->set_rejected_counter(
          obs_.rejected_unlocked_update);
    }
  }

  // Canonical committee ordering (ascending node index — the CompactVoteCert
  // bitmap and BA* quorum math both key off this order), leader identity,
  // and bandwidth-ledger role labels.
  oc_keys_.clear();
  oc_net_ids_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (new_oc.count(static_cast<int>(i)) == 0) continue;
    oc_keys_.push_back(stateless_nodes_[i]->keys_.public_key);
    oc_net_ids_.push_back(stateless_nodes_[i]->net_id());
  }
  leader_net_id_ = new_leader->net_id();
  for (net::NodeId nid : oc_net_ids_) {
    network_->SetNodeRole(nid, nid == leader_net_id_ ? "oc_leader" : "oc");
  }

  // Every member of the new committee re-announces kOrdering over the
  // network: storage nodes verify the sortition proof against the same tip
  // and record the membership (and the modeled wire traffic lands in this
  // round's critical-path window).
  for (size_t i = 0; i < n; ++i) {
    if (new_oc.count(static_cast<int>(i)) == 0) continue;
    StatelessNodeActor* node = stateless_nodes_[i].get();
    RoleAnnounce announce;
    announce.round = round;
    announce.role = static_cast<uint8_t>(Role::kOrdering);
    announce.shard = draws[i].shard;
    announce.sortition = draws[i].sortition;
    announce.node_key = node->keys_.public_key;
    announce.proof = draws[i].proof;
    announce.node_id = node->net_id();
    node->SendToAllStorages(kMsgRoleAnnounce, announce.Encode());
  }
  obs_.epochs->Increment();
}

void PorygonSystem::StartRound(uint64_t round) {
  RoundRecord& rec = rounds_[round];
  rec.start = events_.now();
  rec.witness_end = 0;
  rec.decision = 0;
  // Snapshot the bandwidth ledger so the commit can difference the window
  // (a committed round never commits again, so its restart takes none),
  // and re-base the windowed high-watermarks (event-queue depth, per-role
  // in-flight) to this round.
  if (!rec.commit) {
    rec.baseline.resize(network_->node_count());
    for (net::NodeId n = 0; n < network_->node_count(); ++n) {
      rec.baseline[n] = network_->ActivityFor(n);
    }
  }
  events_.ResetDepthHighWatermark();
  network_->ResetInflightHighWatermarks();
  if (tracer_.enabled()) {
    // Open this round's lane: a "round" span covering start -> commit, with
    // the witness phase as its first child (closed by RecordWitnessReached).
    rec.round_span =
        tracer_.BeginSpan(tracer_.RoundContext(round), "round", "system");
    rec.witness_span =
        tracer_.BeginSpan(RoundLane(round), "witness", "system");
  }
  // Epoch boundary: re-draw the committee before any of this round's work
  // is distributed (the new OC must be in place for witness bundles and
  // proposals of round `round`), and after the ledger snapshot above so
  // the re-announce traffic is attributed to this round's window.
  if (options_.epoch_length > 0 && round > 0 &&
      round % options_.epoch_length == 0) {
    ReconfigureEpoch(round);
  }
  // Advance the canonical state. Fast mode leads by one round (results are
  // pre-computed for adopting ESCs); faithful mode lags so state requests
  // during this round serve the snapshot the executing ESC must see.
  if (options_.faithful_execution) {
    if (round >= 2) AdvanceExecState(round - 2);
  } else {
    AdvanceExecState(round - 1);
  }
  // Tree mode: label this round's base witness-relay election "relay" so
  // the bandwidth ledger and critical-path reports attribute their links
  // separately (observability only — senders re-run the election with
  // strike/crash skips, so a degraded round may route past these nodes).
  if (tree_mode()) {
    for (net::NodeId prev : labeled_relays_) {
      // An epoch boundary may have just promoted last round's relay into
      // the OC; only reset nodes still wearing the relay label.
      if (network_->RoleName(prev) == "relay") {
        network_->SetNodeRole(prev, "stateless");
      }
    }
    labeled_relays_.clear();
    if (const RoundRegistry* reg = RegistryFor(round - 1)) {
      for (const auto& [shard, members] : reg->ec_by_shard) {
        net::NodeId relay =
            net::Dissemination::AggregatorFor(members, round - 1, 0);
        // Never clobber the OC labels — an OC member moonlighting as a
        // relay keeps its (rarer, more load-bearing) committee role.
        if (relay == net::kInvalidNode ||
            network_->RoleName(relay) != "stateless") {
          continue;
        }
        network_->SetNodeRole(relay, "relay");
        labeled_relays_.push_back(relay);
      }
    }
  }
  for (auto& storage : storage_nodes_) {
    // A crashed storage node neither announces the round nor packages
    // blocks; it catches up through OnRejoin when recovered.
    if (network_->IsCrashed(storage->net_id())) continue;
    storage->OnRoundStart(round);
  }
}

void PorygonSystem::OnBlockCommitted(const tx::ProposalBlock& block,
                                     net::SimTime when) {
  RoundRecord& rec = rounds_[block.round];
  if (rec.commit) return;  // First receipt wins.
  rec.commit = when;
  if (chain_.size() != block.round) {
    // Out-of-order commit (should not happen with a single leader).
    PORYGON_LOG(kWarn) << "out-of-order commit of round " << block.round;
    return;
  }
  chain_.push_back(block);
  tip_hash_ = block.Hash();
  ++committed_rounds_;
  obs_.committed_blocks->Increment();

  bool empty = true;
  for (const auto& list : block.shard_tx_blocks) {
    if (!list.empty()) empty = false;
  }
  if (empty) obs_.empty_rounds->Increment();

  if (auto prev = rounds_.find(block.round - 1);
      block.round >= 1 && prev != rounds_.end() && prev->second.commit) {
    obs_.block_latency->Observe(net::ToSeconds(when - *prev->second.commit));
  }
  obs_.discarded_txs->Add(block.discarded.size());

  // Commit phase: the leader's ordering decision to the block landing back
  // at storage.
  if (rec.decision_pending != 0) {
    obs_.phase_commit->Observe(net::ToSeconds(when - rec.decision_pending));
    if (tracer_.enabled()) {
      tracer_.RecordSpan(RoundLane(block.round), "commit", "system",
                         rec.decision_pending, when);
    }
    rec.decision_pending = 0;
  }
  // Close this round's lane.
  tracer_.EndSpan(rec.round_span);
  rec.round_span = 0;

  // Critical-path decomposition: difference the ledger against the
  // round-start snapshot, attribute the window, publish utilizations.
  if (rec.start) {
    std::vector<obs::ExecInterval> exec;
    for (auto it = rounds_.lower_bound(exec_floor_); it != rounds_.end();
         ++it) {
      if (it->second.exec.start != 0) exec.push_back(it->second.exec);
    }
    const obs::RoundReport* report = critical_path_.CommitRound(
        {block.round, *rec.start, rec.witness_end, rec.decision, when}, exec,
        LinkWindowsSince(rec.baseline));
    rec.baseline = {};
    // Bound memory: closed intervals older than the metric lookback drop
    // out, oldest first; an open interval is never pruned and holds the
    // floor.
    for (auto it = rounds_.lower_bound(exec_floor_);
         it != rounds_.end() && it->first + 8 < block.round; ++it) {
      obs::ExecInterval& iv = it->second.exec;
      if (iv.start != 0 && iv.end == 0) break;
      iv = {};
      exec_floor_ = it->first + 1;
    }
    if (report != nullptr) {
      for (size_t i = 0; i < report->links.size(); ++i) {
        const uint32_t util_pm = report->link_util_pm[i];
        UtilGauge(report->links[i].link)->Set(static_cast<double>(util_pm));
        if (tracer_.enabled()) {
          tracer_.RecordCounterSample("util_pm." + report->links[i].link,
                                      static_cast<int64_t>(util_pm));
        }
      }
    }
  }

  // Replay verification: committed roots must match the canonical replay
  // of the inputs that produced them (exec round = block.round - 2).
  if (block.round >= 2) {
    auto cached = exec_cache_.find(block.round - 2);
    if (cached != exec_cache_.end()) {
      for (size_t d = 0; d < block.shard_roots.size() &&
                         d < cached->second.roots.size();
           ++d) {
        // A shard without accepted results keeps its previous root, which
        // is also consistent; only flag mismatches on changed roots.
        const auto& prev_roots = chain_[block.round - 1].shard_roots;
        bool unchanged = d < prev_roots.size() &&
                         block.shard_roots[d] == prev_roots[d];
        if (!unchanged && block.shard_roots[d] != cached->second.roots[d]) {
          obs_.replay_mismatches->Increment();
        }
      }
    }
  }

  AccountCommittedBatch(block);

  // Prune transaction blocks that can no longer be referenced (metrics look
  // back at most 4 rounds; executions at most 2).
  if (block.round > 8) {
    for (auto it = block_store_.begin(); it != block_store_.end();) {
      if (it->second.batch_round + 8 < block.round) {
        it = block_store_.erase(it);
      } else {
        ++it;
      }
    }
  }

  MaybeScheduleNextRound();
}

void PorygonSystem::MaybeScheduleNextRound() {
  // Schedule the next round after the reconfiguration interval plus jitter
  // ("a fixed interval of 2 seconds plus random numerical values", §VI).
  if (round_scheduled_) return;
  if (static_cast<int>(committed_rounds_) >= target_rounds_) return;
  if (chain_.empty()) return;
  round_scheduled_ = true;
  net::SimTime jitter = static_cast<net::SimTime>(
      rng_.NextBelow(options_.params.reconfig_interval_us / 10 + 1));
  uint64_t next = chain_.back().round + 1;
  events_.ScheduleAfter(options_.params.reconfig_interval_us + jitter,
                        [this, next] {
                          round_scheduled_ = false;
                          StartRound(next);
                        });
}

void PorygonSystem::AccountCommittedBatch(const tx::ProposalBlock& block) {
  const uint64_t r = block.round;
  const double now_s = net::ToSeconds(events_.now());
  const bool tracing = tracer_.enabled();

  // Intra-shard transactions of the blocks listed in L_{r-2} finalize now
  // (their execution roots are committed in B_r): batch witnessed at round
  // r-3, commit at r (+3 rounds, §IV-D2).
  auto account_list = [&](const tx::ProposalBlock& listing, bool want_cross,
                          uint64_t exec_round) {
    std::set<std::string> discarded;
    for (const auto& id : listing.discarded) discarded.insert(IdKey(id));
    const std::set<std::string>* failed = nullptr;
    auto cached = exec_cache_.find(exec_round);
    if (cached != exec_cache_.end()) failed = &cached->second.failed_ids;

    for (const auto& shard_list : listing.shard_tx_blocks) {
      for (const auto& block_id : shard_list) {
        auto stored = block_store_.find(IdKey(block_id));
        if (stored == block_store_.end()) continue;
        for (const auto& t : stored->second.block.transactions) {
          if (t.IsCrossShard(options_.params.shard_bits) != want_cross) {
            continue;
          }
          std::string tid = IdKey(t.Id());
          if (discarded.count(tid) > 0) continue;
          if (failed != nullptr && failed->count(tid) > 0) {
            obs_.failed_txs->Increment();
            if (tracing) TraceTxFinal(tid, want_cross, true, listing.round);
            continue;
          }
          if (want_cross) {
            obs_.committed_cross->Increment();
          } else {
            obs_.committed_intra->Increment();
          }
          if (tracing) TraceTxFinal(tid, want_cross, false, listing.round);
          obs_.user_latency->Observe(
              now_s - net::ToSeconds(static_cast<net::SimTime>(
                          t.submitted_at)));
          auto created =
              rounds_.find(stored->second.block.header.round_created);
          if (created != rounds_.end() && created->second.start) {
            obs_.commit_latency->Observe(
                now_s - net::ToSeconds(*created->second.start));
          }
        }
      }
    }
  };

  if (r >= 2 && chain_.size() > r - 2) {
    account_list(chain_[r - 2], /*want_cross=*/false, /*exec_round=*/r - 2);
  }
  if (r >= 4 && chain_.size() > r - 4) {
    account_list(chain_[r - 4], /*want_cross=*/true, /*exec_round=*/r - 4);
  }
  // Listings older than r-4 have had both their intra and cross commits.
  while (!traced_by_listing_.empty() &&
         traced_by_listing_.begin()->first + 4 < r) {
    traced_by_listing_.erase(traced_by_listing_.begin());
  }
}

void PorygonSystem::Run(int rounds, net::SimTime max_sim_time) {
  if (!started_) {
    started_ = true;
    // Seal genesis with the funded state.
    genesis_.shard_roots.clear();
    for (int d = 0; d < options_.params.shard_count(); ++d) {
      genesis_.shard_roots.push_back(exec_state_->ShardRoot(d));
    }
    genesis_.state_root = exec_state_->GlobalRoot();
    genesis_.ordering_threshold = options_.params.ordering_fraction;
    genesis_.execution_threshold = options_.params.execution_fraction;
    chain_.push_back(genesis_);
    tip_hash_ = genesis_.Hash();
    rounds_[0].commit = events_.now();
    round_scheduled_ = true;
    events_.ScheduleAfter(options_.params.reconfig_interval_us, [this] {
      round_scheduled_ = false;
      StartRound(1);
    });
  }
  target_rounds_ = static_cast<int>(committed_rounds_) + rounds;
  MaybeScheduleNextRound();

  while (static_cast<int>(committed_rounds_) < target_rounds_ &&
         events_.now() <= max_sim_time) {
    if (!events_.RunNext()) break;  // Queue drained: the protocol stalled.
  }
}

Status PorygonSystem::InjectFaults(const net::FaultPlan& plan) {
  if (fault_injector_ != nullptr) {
    return Status::FailedPrecondition("a fault plan is already active");
  }
  if (plan.empty()) {
    return Status::InvalidArgument("fault plan is empty");
  }
  fault_injector_ = std::make_unique<net::FaultInjector>(
      plan, network_.get(), &metrics_registry_, &tracer_,
      [this](net::NodeId node, bool crashed) {
        if (crashed) {
          CrashNode(node);
        } else {
          RecoverNode(node);
        }
      });
  return Status::Ok();
}

void PorygonSystem::CrashNode(net::NodeId node) {
  network_->SetCrashed(node, true);
}

void PorygonSystem::RecoverNode(net::NodeId node) {
  network_->SetCrashed(node, false);
  // Storage nodes rejoin: fresh per-round bookkeeping plus an immediate
  // catch-up on the committed tip (the shared block store / canonical state
  // stand in for its durable replica, which survived the crash).
  for (auto& storage : storage_nodes_) {
    if (storage->net_id() != node) continue;
    obs_.storage_rejoins->Increment();
    const uint64_t tip = chain_.empty() ? 0 : chain_.back().round;
    storage->OnRejoin(tip + 1);
    break;
  }
}

size_t PorygonSystem::RegisteredEcMembers(uint64_t round) const {
  auto it = registry_.find(round);
  if (it == registry_.end()) return 0;
  size_t n = 0;
  for (const auto& [shard, members] : it->second.ec_by_shard) {
    n += members.size();
  }
  return n;
}

size_t PorygonSystem::RegisteredOcMembers(uint64_t round) const {
  auto it = registry_.find(round);
  return it == registry_.end() ? 0 : it->second.oc_members.size();
}

std::vector<obs::LinkWindow> PorygonSystem::LinkWindowsSince(
    const std::vector<net::LinkActivity>& baseline) const {
  // One window per role and direction, carrying the per-node mean of that
  // role. The mean — not the max — is the committee's representative link:
  // quorum thresholds mask straggling members, and max-of-N inflates
  // multi-node roles by pure order statistics, which would let a random
  // committee member outrank the leader's structurally identical link.
  // Singleton roles (oc_leader) pass through exactly. Integer division
  // keeps the windows byte-deterministic.
  struct RoleSum {
    obs::LinkWindow sum;
    uint64_t nodes = 0;
  };
  std::map<std::string, RoleSum> sums;
  const auto add = [&sums](obs::LinkWindow lw) {
    RoleSum& rs = sums[lw.link];
    rs.sum.link = lw.link;
    rs.sum.bytes += lw.bytes;
    rs.sum.queue_us += lw.queue_us;
    rs.sum.busy_us += lw.busy_us;
    ++rs.nodes;
  };
  const size_t n = std::min(baseline.size(), network_->node_count());
  for (net::NodeId nid = 0; nid < n; ++nid) {
    const net::LinkActivity& cur = network_->ActivityFor(nid);
    const net::LinkActivity& base = baseline[nid];
    const std::string& role = network_->RoleName(nid);
    add(obs::LinkWindow{role + ".uplink", cur.bytes_up - base.bytes_up,
                        cur.queue_up_us - base.queue_up_us,
                        cur.busy_up_us - base.busy_up_us});
    add(obs::LinkWindow{role + ".downlink", cur.bytes_down - base.bytes_down,
                        cur.queue_down_us - base.queue_down_us,
                        cur.busy_down_us - base.busy_down_us});
  }
  std::vector<obs::LinkWindow> out;
  out.reserve(sums.size());
  for (auto& [link, rs] : sums) {
    (void)link;
    obs::LinkWindow lw = std::move(rs.sum);
    lw.bytes /= rs.nodes;
    lw.queue_us /= static_cast<net::SimTime>(rs.nodes);
    lw.busy_us /= static_cast<net::SimTime>(rs.nodes);
    out.push_back(std::move(lw));
  }
  return out;
}

obs::Gauge* PorygonSystem::UtilGauge(const std::string& link) {
  auto it = util_gauges_.find(link);
  if (it != util_gauges_.end()) return it->second;
  obs::Gauge* g = metrics_registry_.GetGauge("net.link_utilization_pm",
                                             {{"link", link}});
  util_gauges_.emplace(link, g);
  return g;
}

void PorygonSystem::RecordWitnessReached(uint64_t batch_round) {
  // One sample per batch round: the first block of the batch to cross Tw
  // marks the end of the witness phase for that round.
  RoundRecord& rec = rounds_[batch_round];
  if (rec.witnessed) return;
  rec.witnessed = true;
  rec.witness_end = events_.now();
  tracer_.EndSpan(rec.witness_span);
  rec.witness_span = 0;
  if (!rec.start) return;
  obs_.phase_witness->Observe(net::ToSeconds(events_.now() - *rec.start));
}

void PorygonSystem::RecordOrderingDecision(uint64_t round) {
  RoundRecord& rec = rounds_[round];
  if (rec.decision_pending != 0) return;
  rec.decision_pending = events_.now();
  rec.decision = events_.now();
  if (!rec.start) return;
  obs_.phase_ordering->Observe(net::ToSeconds(events_.now() - *rec.start));
  if (tracer_.enabled()) {
    tracer_.RecordSpan(RoundLane(round), "ordering", "system", *rec.start,
                       events_.now());
  }
}

void PorygonSystem::NoteExecPhaseStart(uint64_t exec_round) {
  // Every storage node that fans out exec requests calls this; the first
  // one arms the histogram clock and opens the analyzer's interval. A
  // repeat start while the clock runs observes a zero-length sample, which
  // the exported histogram includes (ROADMAP item 1 plans to drop it).
  RoundRecord& rec = rounds_[exec_round];
  if (rec.exec_clock) {
    obs_.phase_execution->Observe(0.0);
  } else {
    rec.exec_clock = events_.now();
    if (tracer_.enabled()) {
      rec.exec_span =
          tracer_.BeginSpan(RoundLane(exec_round), "execution", "system");
    }
  }
  if (rec.exec.start == 0) {
    rec.exec.start = events_.now();
    exec_floor_ = std::min(exec_floor_, exec_round);
  }
}

void PorygonSystem::NoteExecPhaseEnd(uint64_t exec_round) {
  auto it = rounds_.find(exec_round);
  if (it == rounds_.end() || !it->second.exec_clock) return;
  RoundRecord& rec = it->second;
  if (rec.exec.start != 0 && rec.exec.end == 0) rec.exec.end = events_.now();
  // Seconds at the end minus seconds at the start: ToSeconds(end - start)
  // rounds differently in the last bit and would change the export.
  obs_.phase_execution->Observe(sim_seconds() -
                                net::ToSeconds(*rec.exec_clock));
  rec.exec_clock.reset();
  tracer_.EndSpan(rec.exec_span);
  rec.exec_span = 0;
  if (tracer_.enabled()) TraceListingExecuted(exec_round);
}

obs::TraceContext PorygonSystem::RoundLane(uint64_t round) {
  obs::TraceContext lane = tracer_.RoundContext(round);
  auto it = rounds_.find(round);
  if (it != rounds_.end()) lane.parent_span = it->second.round_span;
  return lane;
}

void PorygonSystem::TraceSubmit(const tx::Transaction& t) {
  obs::TraceContext ctx = tracer_.NewTransactionTrace();
  if (!ctx.active()) return;  // Sampling budget exhausted.
  TxTraceState st;
  st.ctx = ctx;
  st.root_span = tracer_.BeginSpan(ctx, "tx", "client");
  st.prev_end = events_.now();
  traced_txs_[IdKey(t.Id())] = std::move(st);
}

void PorygonSystem::TraceTxPackaged(const tx::Transaction& t,
                                    const std::string& node) {
  auto it = traced_txs_.find(IdKey(t.Id()));
  if (it == traced_txs_.end() || it->second.stage != 0) return;
  TxTraceState& st = it->second;
  const net::SimTime now = events_.now();
  tracer_.RecordSpan(obs::Tracer::ChildOf(st.ctx, st.root_span), "submit",
                     node, st.prev_end, now);
  st.prev_end = now;
  st.stage = 1;
}

void PorygonSystem::TraceBlockWitnessed(const tx::BlockId& block_id,
                                        const std::string& node) {
  if (traced_txs_.empty()) return;
  auto stored = block_store_.find(IdKey(block_id));
  if (stored == block_store_.end()) return;
  const net::SimTime now = events_.now();
  for (const auto& t : stored->second.block.transactions) {
    auto it = traced_txs_.find(IdKey(t.Id()));
    if (it == traced_txs_.end() || it->second.stage != 1) continue;
    TxTraceState& st = it->second;
    tracer_.RecordSpan(obs::Tracer::ChildOf(st.ctx, st.root_span), "witness",
                       node, st.prev_end, now);
    st.prev_end = now;
    st.stage = 2;
  }
}

void PorygonSystem::TraceTxOrdered(const tx::TxId& id, uint64_t listing_round,
                                   bool accepted, const std::string& node) {
  std::string tid = IdKey(id);
  auto it = traced_txs_.find(tid);
  if (it == traced_txs_.end()) return;
  TxTraceState& st = it->second;
  const net::SimTime now = events_.now();
  obs::TraceContext child = obs::Tracer::ChildOf(st.ctx, st.root_span);
  if (!accepted) {
    // Conflict-discarded: terminal for this attempt (clients resubmit).
    tracer_.RecordSpan(child, "discarded", node, st.prev_end, now);
    tracer_.EndSpan(st.root_span);
    traced_txs_.erase(it);
    return;
  }
  if (st.stage != 2) return;
  tracer_.RecordSpan(child, "ordering", node, st.prev_end, now);
  st.prev_end = now;
  st.stage = 3;
  traced_by_listing_[listing_round].push_back(std::move(tid));
}

void PorygonSystem::TraceListingExecuted(uint64_t exec_round) {
  auto listed = traced_by_listing_.find(exec_round);
  if (listed == traced_by_listing_.end()) return;
  const net::SimTime now = events_.now();
  for (const std::string& tid : listed->second) {
    auto it = traced_txs_.find(tid);
    if (it == traced_txs_.end() || it->second.stage != 3) continue;
    TxTraceState& st = it->second;
    tracer_.RecordSpan(obs::Tracer::ChildOf(st.ctx, st.root_span), "sse",
                       "oc", st.prev_end, now);
    st.prev_end = now;
    st.stage = 4;
  }
}

void PorygonSystem::TraceTxFinal(const std::string& tid, bool cross,
                                 bool failed, uint64_t listing_round) {
  auto it = traced_txs_.find(tid);
  if (it == traced_txs_.end()) return;
  TxTraceState& st = it->second;
  const net::SimTime now = events_.now();
  obs::TraceContext child = obs::Tracer::ChildOf(st.ctx, st.root_span);
  if (failed) {
    tracer_.RecordSpan(child, "failed", "oc", st.prev_end, now);
  } else if (cross) {
    // The Multi-Shard Update ships with proposal L+2; its commit marks the
    // hand-off from "msu" to final commit certification.
    net::SimTime msu_end = now;
    auto shipped = rounds_.find(listing_round + 2);
    if (shipped != rounds_.end() && shipped->second.commit &&
        *shipped->second.commit > st.prev_end &&
        *shipped->second.commit < now) {
      msu_end = *shipped->second.commit;
    }
    tracer_.RecordSpan(child, "msu", "oc", st.prev_end, msu_end);
    tracer_.RecordSpan(child, "commit", "oc", msu_end, now);
  } else {
    tracer_.RecordSpan(child, "commit", "oc", st.prev_end, now);
  }
  tracer_.EndSpan(st.root_span);
  traced_txs_.erase(it);
}

net::SimTime PorygonSystem::DrawSessionEnd() {
  return events_.now() +
         net::FromSeconds(rng_.NextExponential(options_.mean_session_s));
}

std::map<int, double> PorygonSystem::StatelessPhaseTraffic() const {
  // Derived entirely from the registry's labelled net counters: sum the
  // stateless class's sent+received bytes per phase, averaged per node per
  // committed round. Equivalent to the former per-node TrafficStats sweep.
  std::map<int, double> per_phase;
  auto phase_of_label = [](const std::string& label) {
    for (int p = -1; p <= 3; ++p) {
      if (label == PhaseLabelName(p)) return p;
    }
    return -1;
  };
  auto accumulate = [&](const std::string& name, const obs::Labels& labels,
                        const obs::Counter& counter) {
    if (name != "net.sent_bytes" && name != "net.recv_bytes") return;
    std::string node_class, phase_label;
    for (const auto& [key, value] : labels) {
      if (key == "class") node_class = value;
      if (key == "phase") phase_label = value;
    }
    if (node_class != "stateless") return;
    per_phase[phase_of_label(phase_label)] +=
        static_cast<double>(counter.value());
  };
  metrics_registry_.VisitCounters(accumulate);

  uint64_t rounds = committed_rounds_ > 0 ? committed_rounds_ : 1;
  size_t nodes = stateless_nodes_.size() > 0 ? stateless_nodes_.size() : 1;
  for (auto& [phase, bytes] : per_phase) {
    bytes /= static_cast<double>(rounds) * static_cast<double>(nodes);
  }
  return per_phase;
}

}  // namespace porygon::core
