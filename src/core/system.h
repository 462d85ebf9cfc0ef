#ifndef PORYGON_CORE_SYSTEM_H_
#define PORYGON_CORE_SYSTEM_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "consensus/ba_star.h"
#include "core/adversary.h"
#include "core/committee.h"
#include "core/coordinator.h"
#include "core/execution.h"
#include "core/messages.h"
#include "core/params.h"
#include "core/pipeline.h"
#include "crypto/provider.h"
#include "net/dissemination.h"
#include "net/network.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "runtime/task_pool.h"
#include "state/sharded_state.h"
#include "storage/db.h"
#include "storage/env.h"
#include "tx/blocks.h"
#include "tx/txpool.h"

namespace porygon::net {
struct FaultPlan;
class FaultInjector;
}  // namespace porygon::net

namespace porygon::core {

class PorygonSystem;

/// Construction-time options beyond protocol Params.
struct SystemOptions {
  Params params;
  int num_storage_nodes = 2;
  int num_stateless_nodes = 100;
  /// Fixed Ordering Committee size, drawn from the lowest genesis-VRF
  /// sortition values. The paper lets the OC outlive ECs (§IV-C2); this
  /// implementation keeps one OC for the run and rotates ECs every round.
  int oc_size = 10;
  /// Transaction blocks each storage node packages per shard per round.
  size_t blocks_per_shard_round = 2;
  /// Epoch length in rounds; 0 disables epochs (the historical single
  /// static committee assignment — byte-identical to builds that predate
  /// them). When > 0, every `epoch_length`-th round start re-runs VRF
  /// sortition over the committed tip to re-draw the OC (and its leader),
  /// re-deals adversary placement for the new membership, migrates the
  /// coordinator's in-flight locked S-sets to the new leader, and has the
  /// new members re-announce their roles over the network — §III-B's
  /// periodic committee re-formation. Must be 0 or >= 2.
  uint64_t epoch_length = 0;
  /// Deterministic seed for keys, topology, jitter, adversary placement.
  uint64_t seed = 1;
  /// Worker threads for the compute pool (shard execution, batch signature
  /// verification, compaction, bloom builds). 0 = serial on the event-loop
  /// thread; the PORYGON_THREADS environment variable overrides when set.
  /// Results are byte-identical for any value (see runtime/task_pool.h).
  int worker_threads = 0;
  /// Real Ed25519 instead of the fast MAC backend (slow; small tests only).
  bool use_ed25519 = false;
  /// Faithful mode: storage nodes materialize real Merkle proofs in state
  /// responses and every ESC member independently rebuilds a PartialState
  /// and executes. Off: one representative execution per (round, shard) is
  /// computed and shared (identical by determinism), with network costs
  /// still charged per member.
  bool faithful_execution = false;
  /// Modeled multiproof cost per account when proofs are not materialized.
  size_t state_proof_bytes_per_account = 128;
  /// Active Byzantine adversary for this run (see core/adversary.h);
  /// empty = honest.
  AdversarySpec adversary;
  /// Message-flow shaping for the run (see net/dissemination.h): `direct`
  /// is the legacy leader-centric star and is byte-identical to builds
  /// that predate the strategy layer; `tree` routes witness bundles,
  /// exec-result votes, and BA* votes through per-shard aggregation
  /// relays and erasure-codes body propagation across each EC.
  net::DisseminationSpec dissemination;
  /// Mean stateless-node session length in seconds (0 = nodes never
  /// leave) — churn experiments (Fig 8d). Expired nodes skip a round to
  /// "rejoin", then resume with a fresh session. Porygon tolerates this
  /// well because EC lifecycles are only 3 rounds; the Blockene baseline's
  /// 50-block committees stall instead. The stable OC (long-lived per
  /// §IV-C2) is exempt.
  double mean_session_s = 0;
  /// Sim-time distributed tracing (off by default; see obs/trace.h). When
  /// `trace.enabled`, the run records lifecycle spans for the first
  /// `trace.sample_transactions` submitted transactions plus always-on
  /// per-round pipeline lanes, exportable as Chrome trace_event JSON via
  /// PorygonSystem::tracer()->ExportChromeJson() (loads in Perfetto).
  obs::Tracer::Options trace;

  /// Rejects nonsense configurations (negative counts, fractions outside
  /// [0,1], an OC larger than the stateless population, ...) with
  /// kInvalidArgument naming the offending field. The PorygonSystem
  /// constructor calls this and aborts on failure.
  Status Validate() const;
};

/// Everything the experiments measure: a read-only facade over the
/// system's MetricsRegistry. Actors record through the registry; this class
/// only derives values at call time, so it is cheap to copy (one pointer)
/// and valid for as long as the owning PorygonSystem lives.
class SystemMetrics {
 public:
  explicit SystemMetrics(const obs::MetricsRegistry* registry)
      : registry_(registry) {}

  uint64_t committed_intra_txs() const;
  uint64_t committed_cross_txs() const;
  uint64_t committed_txs() const {
    return committed_intra_txs() + committed_cross_txs();
  }
  uint64_t discarded_txs() const;
  uint64_t failed_txs() const;
  uint64_t committed_blocks() const;
  uint64_t empty_rounds() const;
  /// Root mismatches detected during storage replay (0 in honest runs).
  uint64_t replay_mismatches() const;

  double Tps(double duration_s) const {
    return duration_s > 0
               ? static_cast<double>(committed_txs()) / duration_s
               : 0;
  }

  /// Consecutive commit-to-commit gaps (seconds).
  obs::HistogramSummary BlockLatency() const;
  /// Witness-to-commit per transaction (seconds).
  obs::HistogramSummary CommitLatency() const;
  /// Submission-to-commit per transaction (seconds).
  obs::HistogramSummary UserLatency() const;
  /// Duration of one pipeline phase per round (seconds).
  obs::HistogramSummary PhaseDuration(Phase phase) const;

  /// Full registry export (see obs/export.h for the formats).
  std::string ToJson() const;
  std::string ToCsv() const;

  /// Escape hatch for series without a dedicated accessor.
  const obs::MetricsRegistry* registry() const { return registry_; }

 private:
  uint64_t CounterOr0(const char* name, const obs::Labels& labels) const;
  obs::HistogramSummary SummaryOf(const char* name,
                                  const obs::Labels& labels) const;

  const obs::MetricsRegistry* registry_;
};

/// A storage node: holds the full state and the block store, packages
/// transaction blocks, routes stateless-node traffic, collects witness
/// proofs, serves state downloads, and applies committed blocks (§IV-B1).
class StorageNodeActor {
 public:
  StorageNodeActor(PorygonSystem* system, int index, net::NodeId net_id,
                   AdvStrategy strategy);

  void HandleMessage(const net::Message& msg);
  /// Round r has started: notify primaries; then (after a grace period)
  /// package blocks for batch r, push the witness bundle of batch r-1 to
  /// OC members, and push exec requests from B_{r-1}.
  void OnRoundStart(uint64_t round);
  /// The deferred part of OnRoundStart (blocks/bundles/exec requests).
  void DistributeRoundWork(uint64_t round);
  /// Called after a crash -> recover cycle: the node is back on the
  /// network and will catch up on the current round (fresh per-round
  /// bookkeeping; durable state survived in db_/block store).
  void OnRejoin(uint64_t round);

  int index() const { return index_; }
  net::NodeId net_id() const { return net_id_; }
  bool malicious() const { return strategy_ != AdvStrategy::kHonest; }
  AdvStrategy strategy() const { return strategy_; }
  uint64_t db_bytes() const;
  /// Diagnostics: blocks that reached Tw in batch `round`.
  size_t WitnessedInBatch(uint64_t round) const {
    auto it = witnessed_by_batch_.find(round);
    return it == witnessed_by_batch_.end() ? 0 : it->second.size();
  }
  size_t pool_pending() const { return pool_.PendingTotal(); }

 private:
  friend class PorygonSystem;

  void OnSubmitTx(const net::Message& msg);
  void OnWitnessUpload(const net::Message& msg, bool from_gossip);
  void OnRelay(const net::Message& msg);
  void OnStateRequest(const net::Message& msg);
  void OnResync(const net::Message& msg);
  void OnCommit(const net::Message& msg, bool from_gossip);
  void OnRoleAnnounce(const net::Message& msg, bool from_gossip);
  void OnGossip(const net::Message& msg);

  void GossipToPeers(uint16_t inner_kind, const Bytes& payload,
                     size_t wire_size);

  /// Node label on trace spans (only built when tracing is enabled).
  std::string TraceName() const { return "storage" + std::to_string(index_); }

  // Strategy predicates: kWithhold is the legacy data-availability
  // adversary (bodies withheld, relays dropped, gossip suppressed);
  // the other strategies each misbehave on exactly one surface.
  bool withholds_bodies() const { return strategy_ == AdvStrategy::kWithhold; }
  bool suppresses_gossip() const {
    return strategy_ == AdvStrategy::kWithhold;
  }
  bool drops_relays() const {
    return strategy_ == AdvStrategy::kWithhold ||
           strategy_ == AdvStrategy::kCensor;
  }
  bool tampers_state() const { return strategy_ == AdvStrategy::kTamperState; }
  bool stale_replies() const { return strategy_ == AdvStrategy::kStaleReply; }

  PorygonSystem* system_;
  int index_;
  net::NodeId net_id_;
  AdvStrategy strategy_;

  tx::TxPool pool_;
  std::unique_ptr<storage::MemEnv> env_;
  std::unique_ptr<storage::Db> db_;

  // Witness bookkeeping: block id -> distinct proofs; per-batch witnessed
  // block ids (reached Tw).
  struct WitnessState {
    std::map<crypto::PublicKey, tx::WitnessProof> proofs;
    bool announced_to_oc = false;
  };
  std::unordered_map<std::string, WitnessState> witness_state_;
  std::map<uint64_t, std::vector<tx::BlockId>> witnessed_by_batch_;

  // Deduplication of gossiped payloads.
  std::unordered_set<std::string> gossip_seen_;

  // Blocks offered this round, per shard (serves late role announcements).
  uint64_t last_distributed_round_ = 0;
  std::map<uint32_t, std::vector<std::string>> offered_blocks_;

  // Blocks we packaged whose ids have not yet appeared in a committed
  // listing (block-id key -> batch round). Normally pruned by OnCommit;
  // whatever survives a crash -> rejoin cycle is orphaned (its witness
  // bundle died with us) and its transactions are re-queued into the pool.
  std::map<std::string, uint64_t> unlisted_blocks_;

  // --- Tree dissemination (storage side) ---------------------------------
  // Sub-bundles handed to witness relays, settled against the committed
  // listing of `listing_round` in OnCommit: an aggregate that dropped any
  // of our offered blocks strikes its relay; a clean listing resets. A
  // relay with >= DisseminationSpec::relay_strikes strikes is skipped at
  // election time, and with every candidate struck or crashed the sender
  // degrades to the legacy direct bundle push.
  struct RelayAudit {
    uint64_t listing_round = 0;
    net::NodeId relay = net::kInvalidNode;
    std::vector<std::string> block_ids;
  };
  std::vector<RelayAudit> pending_relay_audit_;
  std::map<net::NodeId, int> relay_strikes_;

  // --- Served-state memo -------------------------------------------------
  // Every ESC member of a shard asks for the same account list in the same
  // round. The last encoded StateResponse per requested shard is kept with
  // what fixes its bytes: the round, the account list, and every shard root
  // (equal roots mean equal state). A request matching all three resends
  // the stored payload instead of re-reading and re-proving the accounts.
  struct ServedState {
    uint64_t round = 0;
    std::vector<state::AccountId> accounts;
    std::vector<crypto::Hash256> roots;
    Bytes payload;
    size_t wire_size = 0;
  };
  std::unordered_map<uint32_t, ServedState> served_state_;
};

/// A stateless node: ~5 MB footprint, joins committees by VRF, witnesses,
/// orders (if OC), executes (ESC), and votes.
class StatelessNodeActor {
 public:
  StatelessNodeActor(PorygonSystem* system, int index, net::NodeId net_id,
                     crypto::KeyPair keys, std::vector<net::NodeId> storages,
                     AdvStrategy strategy, bool in_oc);

  void HandleMessage(const net::Message& msg);
  /// Storage primary told us a new round started (B_{r-1} attached).
  void OnNewRound(const tx::ProposalBlock& prev_block, uint64_t round);

  int index() const { return index_; }
  net::NodeId net_id() const { return net_id_; }
  const crypto::PublicKey& public_key() const { return keys_.public_key; }
  /// The storage node this stateless node downloads bundles/blocks from.
  /// Starts as the first connection; the runtime failover logic rotates it
  /// when the current primary goes silent (see RotatePrimary).
  net::NodeId primary_storage() const {
    return storages_.empty() ? net::kInvalidNode : storages_[primary_idx_];
  }
  /// Diagnostics: index into the connection list currently used as primary.
  size_t primary_index() const { return primary_idx_; }
  bool in_oc() const { return in_oc_; }
  bool malicious() const { return strategy_ != AdvStrategy::kHonest; }
  /// True if any epoch's placement ever corrupted this node. Evidence
  /// records outlive re-deals, so "evidence only against malicious nodes"
  /// must be judged against the whole history, not the current strategy.
  bool ever_malicious() const { return ever_malicious_; }
  AdvStrategy strategy() const { return strategy_; }
  /// Modeled storage footprint in bytes (Fig 9a): latest proposal block,
  /// committee public keys, and transiently-held witnessed block bodies.
  uint64_t StorageFootprintBytes() const;
  /// Diagnostics: merged witnessed blocks this OC member holds for batch r.
  size_t BundleSizeFor(uint64_t round) const {
    auto it = bundles_.find(round);
    return it == bundles_.end() ? 0 : it->second.size();
  }
  uint64_t current_round() const { return current_round_; }

 private:
  friend class PorygonSystem;

  // --- EC paths ---------------------------------------------------------
  void OnTxBlock(const net::Message& msg);
  void OnExecRequest(const net::Message& msg);
  void OnStateResponse(const net::Message& msg);
  /// Faithful-mode cross-check of a storage state reply: every entry's
  /// Merkle proof must verify against the committed roots the exec
  /// request carried. A tampering storage node fails this (proofs attest
  /// the true values), triggering a re-request from another connection.
  bool VerifyStateResponse(const StateResponse& resp) const;
  void RunExecution();

  // --- Tree-dissemination paths (net::DisseminationMode::kTree only) -----
  /// Erasure-coded body chunk: store, forward our seed chunk to the next k
  /// mesh peers, and reconstruct + witness once k+1 chunks arrived.
  void OnBodyChunk(const net::Message& msg);
  /// Shared tail of OnTxBlock / chunk reassembly: verify the body against
  /// its header, hold it, and upload witness proofs to all connections.
  void WitnessBody(tx::TransactionBlock block, uint64_t round,
                   obs::TraceContext trace);
  /// Relay-side attestation pool: flushed as one AggregatedExecResult to
  /// every OC member once enough distinct signers agree on one key.
  void CollectExecAttestation(const ExecResultMsg& result);
  /// Elected vote relay for a BA* instance (rotates; never the leader;
  /// kInvalidNode for committees too small to benefit).
  net::NodeId VoteRelayFor(uint64_t instance) const;
  /// Sends a vote to the elected relay (tree mode) or broadcasts it
  /// (direct mode, degraded relay, or relay self-election).
  void RouteVote(const consensus::Vote& v, obs::TraceContext lane);
  /// Vote-relay pool: emits one CompactVoteCert per (instance, step, kind,
  /// value) the moment it reaches quorum.
  void CollectVote(const consensus::Vote& v);
  /// Witness aggregate: as the elected relay, merge storage sub-bundles
  /// and flush one aggregate to the leader; as the leader, merge into
  /// bundles_ (detecting relay equivocation) and maybe propose.
  void OnAggWitness(const net::Message& msg);
  /// Flushes this node's merged witness aggregate for (batch, shard) to
  /// the OC leader (deadline event or all-senders-arrived trigger).
  void FlushWitnessAgg(uint64_t batch_round, uint32_t shard);
  /// Batched exec-result attestations (relay -> OC member).
  void OnAggExecResult(const net::Message& msg);
  /// Compact BA* vote certificate (vote relay -> OC member).
  void OnVoteCert(const net::Message& msg);
  /// Tree-mode delivery ack replacing the suppressed broadcast echo.
  void OnRelayAck(const net::Message& msg);

  // --- OC paths ---------------------------------------------------------
  void OnWitnessBundle(const net::Message& msg);
  void OnProposal(const net::Message& msg);
  void OnVote(const net::Message& msg);
  void OnDecisionCert(const net::Message& msg);
  void OnExecResult(const net::Message& msg);
  void MaybePropose();
  void BroadcastToOc(uint16_t kind, const Bytes& payload,
                     obs::TraceContext trace = {});
  void StartConsensus(const tx::ProposalBlock& proposal);
  void OnDecision(const consensus::DecisionCert& cert);
  /// (Re)broadcasts the stored decision cert to the committee; the leader
  /// also (re)publishes the committed block to storage. Called on first
  /// decision and again from the timeout driver while the round is open.
  void PublishDecision();

  void SendToPrimary(uint16_t kind, Bytes payload, size_t wire_size = 0,
                     obs::TraceContext trace = {});
  void SendToAllStorages(uint16_t kind, const Bytes& payload,
                         size_t wire_size = 0, obs::TraceContext trace = {});

  // --- Epoch reconfiguration (driven by PorygonSystem::ReconfigureEpoch) --
  struct PendingExec;  // Defined in the OC-state section below.
  /// Drops out of the ordering committee: clears every piece of OC scratch
  /// (consensus instance, vote buffers, bundles, exec-result pools, relay
  /// aggregation state) and releases the coordinator. EC-side state
  /// (held blocks, a pending exec task, the current assignment) survives —
  /// a drafted-out member may still owe an earlier cohort its execution.
  void RetireFromOc();
  /// Joins the ordering committee: fresh OC scratch plus a coordinator —
  /// `handoff` (the outgoing leader's, with its locked S-sets and retry
  /// bookkeeping in flight across the boundary) when this node is the
  /// incoming leader, or a newly-built one otherwise. ReconfigureEpoch
  /// sends the kOrdering re-announce separately.
  void JoinOc(std::unique_ptr<CrossShardCoordinator> handoff);
  /// Leader-to-leader state hand-off across an epoch boundary: merges the
  /// outgoing leader's witnessed bundles and exec-result pools so the
  /// incoming leader can still propose listings for batches witnessed —
  /// and results produced — under the previous committee.
  void AdoptOcHandoff(
      const std::map<uint64_t, std::map<std::string, WitnessedBlock>>&
          bundles,
      const std::map<std::pair<uint64_t, uint32_t>, PendingExec>& results);

  // --- Storage-link failover (runtime health model) -----------------------
  // Storage-bound requests (relays, state requests) carry a per-request
  // sim-time deadline. A deadline firing with no traffic heard from the
  // primary since the send counts a strike and retransmits with exponential
  // backoff; enough strikes rotate the primary through the connection list.
  // A round watchdog covers full stalls between requests, and a probe chain
  // readopts the preferred primary once it answers again.
  void TrackRequest(uint16_t kind, const Bytes& payload, size_t wire_size,
                    obs::TraceContext trace);
  void OnRequestDeadline(uint64_t req_id);
  void RotatePrimary();
  void NoteHeardFrom(net::NodeId from);
  void NoteEcho(const net::Message& msg);
  void OnWatchdog();
  void SendProbe();
  void SendResync(net::NodeId target);

  /// Node label on trace spans (only built when tracing is enabled).
  std::string TraceName() const { return "node" + std::to_string(index_); }

  PorygonSystem* system_;
  int index_;
  net::NodeId net_id_;
  crypto::KeyPair keys_;
  std::vector<net::NodeId> storages_;  // m connections; [0] is primary.
  AdvStrategy strategy_;
  bool ever_malicious_ = false;
  bool in_oc_;

  uint64_t current_round_ = 0;
  net::SimTime session_end_ = net::kSimTimeNever;  // Churn (Fig 8d).

  // --- Storage-link failover state ---------------------------------------
  struct PendingReq {
    uint16_t kind = 0;
    Bytes payload;
    size_t wire_size = 0;
    obs::TraceContext trace;
    /// For OC-broadcast relays: the inner (kind, payload) the primary must
    /// echo back to us (OnRelay forwards to every OC member, sender
    /// included). Receiving the echo is positive proof of delivery.
    uint16_t echo_kind = 0;
    Bytes echo_payload;
    uint64_t round = 0;         ///< Round the request was issued in.
    size_t target_idx = 0;      ///< Connection the last send went to.
    net::SimTime sent_at = 0;   ///< Last (re)transmission time.
    int attempts = 0;           ///< Deadline firings so far.
  };
  size_t primary_idx_ = 0;    ///< Current primary (index into storages_).
  size_t preferred_idx_ = 0;  ///< Probe/readoption target after rotation.
  int primary_strikes_ = 0;   ///< Consecutive silent-primary deadline hits.
  /// Times the preferred primary was rotated away from. After the second
  /// failure (it was readopted and struck out again) it is never probed
  /// again: a live-but-useless (censoring) node must not oscillate.
  int preferred_failures_ = 0;
  uint64_t next_req_id_ = 1;
  std::map<uint64_t, PendingReq> pending_reqs_;
  std::vector<net::SimTime> heard_at_;  ///< Last traffic per connection.
  net::SimTime last_new_round_at_ = 0;
  int resync_budget_ = 0;        ///< Watchdog rotations left this stretch.
  bool watchdog_armed_ = false;  ///< A watchdog event chain is live.
  /// Connection index the watchdog last resynced during the current stall
  /// (-1 once a fresh round arrives). Lets the watchdog distinguish "this
  /// primary never got a chance to answer a resync" (try it before
  /// rotating — per-request strikes may have just moved us to a live
  /// storage node) from "we already asked this one and it did not help"
  /// (rotate). Without it the watchdog rotates unconditionally, which can
  /// resonate with strike-based rotations and bounce the node back onto a
  /// dead primary every window until the budget dies.
  int watchdog_resynced_idx_ = -1;
  bool probe_chain_active_ = false;
  bool probe_inflight_ = false;  ///< Readopt only on a probe answer.
  int probes_left_ = 0;
  crypto::Hash256 prev_hash_{};
  tx::ProposalBlock last_block_;
  std::optional<Assignment> assignment_;  // EC role for current round.

  // Witnessed blocks held between Witness and Execution phases, keyed by
  // block id: bodies + access lists (pruned after execution).
  struct HeldBlock {
    tx::TransactionBlockHeader header;
    std::vector<tx::Transaction> txs;
    uint64_t witnessed_round = 0;
  };
  std::map<std::string, HeldBlock> held_blocks_;

  // Execution-phase scratch (ESC member).
  struct ExecTask {
    ExecRequest request;
    uint64_t started_round = 0;
    bool state_requested = false;
    std::optional<StateResponse> state;
    uint64_t trace_span = 0;  ///< Open "exec" span (0 = untraced).
    /// Accounts the state request asked for (re-requests after a failed
    /// proof cross-check reuse the same set).
    std::vector<state::AccountId> state_accounts;
    int state_retries = 0;  ///< Re-requests issued after bad replies.
  };
  std::optional<ExecTask> exec_task_;

  // --- OC state (only used when in_oc_) ----------------------------------
  struct PendingExec {
    std::map<std::string, int> result_votes;            // Result key -> count.
    std::map<std::string, ExecResultMsg> payloads;      // Result key -> data.
    std::set<crypto::PublicKey> voters;
  };
  // Merged witnessed blocks per batch round (id -> block).
  std::map<uint64_t, std::map<std::string, WitnessedBlock>> bundles_;
  // Exec results per (exec round, shard).
  std::map<std::pair<uint64_t, uint32_t>, PendingExec> exec_results_;
  std::unique_ptr<consensus::BaStar> ba_;
  std::vector<consensus::Vote> pending_votes_;  // Early votes pre-proposal.
  std::unique_ptr<CrossShardCoordinator> coordinator_;  // Leader only.
  bool proposed_this_round_ = false;
  tx::ProposalBlock pending_proposal_;  // Leader's own proposal content.
  std::map<std::string, tx::ProposalBlock> proposals_seen_;  // By hash.
  std::optional<crypto::Hash256> decided_hash_;
  // The deciding cert-quorum, kept for retransmission: while the round
  // stays open the timeout driver re-sends it (and the leader re-sends the
  // commit), so lost hand-offs cannot strand a partially-decided committee.
  std::optional<consensus::DecisionCert> decided_cert_;

  // --- Tree dissemination state (kTree only; empty in direct runs) --------
  // EC-side chunk reassembly, by block id: chunks received so far plus the
  // header to validate the reconstruction against. Pruned on round change.
  struct ChunkState {
    tx::TransactionBlockHeader header{};
    uint16_t k = 0;
    uint16_t n = 0;
    std::vector<std::optional<Bytes>> chunks;
    size_t have = 0;
    bool done = false;       ///< Reconstructed (or arrived whole).
    bool forwarded = false;  ///< Our seed chunk went to the mesh peers.
  };
  std::map<std::string, ChunkState> chunk_state_;
  // Witness-relay scratch (this node elected for a shard): merged blocks
  // per (batch round, shard), flushed to the leader when all storage
  // sub-bundles arrived or the deadline event fires.
  struct WitnessAgg {
    std::map<std::string, WitnessedBlock> blocks;  // By block id.
    std::set<net::NodeId> senders;
    bool flushed = false;
    bool deadline_armed = false;
  };
  std::map<std::pair<uint64_t, uint32_t>, WitnessAgg> witness_agg_;
  // Leader-side relay-equivocation detection: first aggregate hash seen
  // per (batch round, shard, aggregator).
  std::map<std::tuple<uint64_t, uint32_t, net::NodeId>, crypto::Hash256>
      agg_seen_;
  // Exec-result attestation relay scratch: attestations per result key
  // (root || s_hash) for (exec round, shard); a key flushes once when it
  // reaches the aggregation target.
  struct ExecAgg {
    std::map<std::string, std::vector<ExecResultMsg>> by_key;
    std::set<std::string> flushed_keys;
  };
  std::map<std::pair<uint64_t, uint32_t>, ExecAgg> exec_agg_;
  // Vote-relay scratch: votes per (instance, step, kind, value), emitted
  // as one CompactVoteCert at quorum.
  struct VoteAgg {
    std::vector<consensus::Vote> votes;
    std::set<crypto::PublicKey> voters;
    bool emitted = false;
  };
  std::map<std::tuple<uint64_t, uint32_t, uint8_t, std::string>, VoteAgg>
      vote_agg_;
  // Degradation latch: a BA* step timeout firing in tree mode means the
  // vote relay may be eating votes — this node's later votes go direct.
  bool vote_relay_direct_ = false;
};

/// Builds and drives a full Porygon deployment over the discrete-event
/// network: storage nodes, stateless nodes, clients, rounds, and metrics.
class PorygonSystem {
 public:
  explicit PorygonSystem(const SystemOptions& options);
  ~PorygonSystem();

  PorygonSystem(const PorygonSystem&) = delete;
  PorygonSystem& operator=(const PorygonSystem&) = delete;

  /// Creates `count` funded accounts (balance each) spread over shards.
  void CreateAccounts(uint64_t count, uint64_t balance);

  /// Declares ids [1, count] funded with `balance` without materializing
  /// any Merkle leaves: O(1), so million-account benches start instantly.
  /// An account's leaf appears on its first write; reads of untouched ids
  /// see the declared balance through every state view (canonical and the
  /// stateless nodes' proof-built partial views alike, so faithful
  /// execution stays byte-identical to the fast path). Call once, before
  /// Run(); ids above `next account hint` are reserved like CreateAccounts.
  void CreateAccountsLazy(uint64_t count, uint64_t balance);

  /// Client-submits a transaction to a deterministic storage node at the
  /// current virtual time. Returns kInvalidArgument for malformed
  /// transactions (missing endpoints, self-transfers) and kAlreadyExists
  /// for mempool duplicates.
  Status SubmitTransaction(tx::Transaction t);

  /// Submits a batch with one timestamp read and one metrics flush for the
  /// whole vector; statuses[i] is SubmitTransaction's status for batch[i].
  std::vector<Status> SubmitBatch(const std::vector<tx::Transaction>& batch);

  /// Starts the protocol (genesis block, first round) and runs until
  /// `rounds` proposal blocks have committed (or `max_sim_time` passes).
  void Run(int rounds, net::SimTime max_sim_time = net::kSimTimeNever);

  /// Arms a deterministic fault-injection plan against this deployment's
  /// network (loss/duplication/delay/partitions via the SimNetwork fault
  /// hook; scheduled crashes and recoveries routed through the storage
  /// rejoin path below). Call before or between Run() segments; at most one
  /// plan may be active per system. Returns kFailedPrecondition on a second
  /// call and kInvalidArgument for an empty plan.
  Status InjectFaults(const net::FaultPlan& plan);

  /// Crash semantics for storage nodes: the network drops their traffic
  /// while crashed; recovery puts them back and has them catch up on the
  /// committed tip (OnRejoin). Stateless ids only toggle the network flag.
  void CrashNode(net::NodeId node);
  void RecoverNode(net::NodeId node);

  SystemMetrics metrics() const { return SystemMetrics(&metrics_registry_); }
  /// The registry every layer of this deployment records into (network,
  /// consensus, storage engines, pipeline actors).
  obs::MetricsRegistry* metrics_registry() { return &metrics_registry_; }
  const obs::MetricsRegistry& metrics_registry() const {
    return metrics_registry_;
  }
  /// The deployment's tracer (inert unless SystemOptions::trace.enabled).
  /// Call tracer()->ExportChromeJson() after Run() for a Perfetto-loadable
  /// trace of the sampled transactions and the per-round pipeline lanes.
  obs::Tracer* tracer() { return &tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Per-round commit-latency decompositions over the bandwidth ledger
  /// (always on — pure sim-time arithmetic). One RoundReport per committed
  /// round: latency segments, the dominant edge (e.g. "oc_leader.downlink")
  /// with its utilization share, and per-role link windows. Byte-identical
  /// JSON for a given seed at any thread count.
  const obs::CriticalPathAnalyzer& critical_path() const {
    return critical_path_;
  }
  const std::vector<tx::ProposalBlock>& chain() const { return chain_; }
  /// Hash of chain().back(), computed once where each block is appended.
  const crypto::Hash256& tip_hash() const { return tip_hash_; }
  const state::ShardedState& canonical_state() const { return *exec_state_; }
  net::SimNetwork* network() { return network_.get(); }
  net::EventQueue* events() { return &events_; }
  const SystemOptions& options() const { return options_; }
  const Params& params() const { return options_.params; }
  crypto::CryptoProvider* provider() { return provider_.get(); }
  /// The deployment's adversary controller (never null; inert — and its
  /// action counters zero — when no adversary is configured).
  AdversaryController* adversary() { return adversary_.get(); }
  /// Equivocation evidence reported by honest OC members' BA★ instances,
  /// in detection order (bounded; empty in honest runs).
  const std::vector<consensus::EquivocationEvidence>& equivocation_evidence()
      const {
    return equivocation_evidence_;
  }
  /// The deployment's compute pool (never null; 0-worker pools run serial).
  runtime::TaskPool* task_pool() { return pool_.get(); }
  double sim_seconds() const { return net::ToSeconds(events_.now()); }

  StorageNodeActor* storage_node(int i) { return storage_nodes_[i].get(); }
  StatelessNodeActor* stateless_node(int i) {
    return stateless_nodes_[i].get();
  }
  /// Stateless node by simulated network address (nullptr if unknown).
  const StatelessNodeActor* StatelessByNetId(net::NodeId id) const;
  int num_storage_nodes() const {
    return static_cast<int>(storage_nodes_.size());
  }
  int num_stateless_nodes() const {
    return static_cast<int>(stateless_nodes_.size());
  }

  /// Aggregate traffic of stateless nodes per pipeline phase (Fig 9b),
  /// bytes per node per committed round, averaged.
  std::map<int, double> StatelessPhaseTraffic() const;

  /// Draws the end time of a fresh node session (churn model).
  net::SimTime DrawSessionEnd();

  /// Registered EC members for `round` (diagnostics).
  size_t RegisteredEcMembers(uint64_t round) const;
  /// OC members whose epoch re-announce registered for `round`
  /// (diagnostics; non-zero only at epoch boundaries).
  size_t RegisteredOcMembers(uint64_t round) const;

 private:
  friend class StorageNodeActor;
  friend class StatelessNodeActor;

  // --- Shared infrastructure accessed by actors --------------------------
  struct StoredBlock {
    tx::TransactionBlock block;
    uint64_t batch_round;
  };

  // Block store shared by honest storage nodes (replication elided).
  std::unordered_map<std::string, StoredBlock> block_store_;

  // Canonical execution state (honest storage nodes replicate identically;
  // kept once). Advanced each round by applying proposal-block inputs.
  std::unique_ptr<state::ShardedState> exec_state_;

  // Execution-result cache per exec round: per-shard results, computed once
  // when the state advances (fast mode) or verified against (faithful).
  struct CachedExec {
    std::vector<crypto::Hash256> roots;
    std::vector<std::vector<tx::StateUpdate>> s_sets;
    std::vector<uint32_t> intra_applied;
    std::vector<uint32_t> cross_pre;
    std::vector<uint32_t> failed;
    std::set<std::string> failed_ids;
  };
  std::map<uint64_t, CachedExec> exec_cache_;

  // Committee registry (as known to storage nodes via announcements; kept
  // centrally because honest storage nodes converge on it within a hop).
  struct RoundRegistry {
    std::vector<net::NodeId> oc_members;
    std::map<uint32_t, std::vector<net::NodeId>> ec_by_shard;
  };
  std::map<uint64_t, RoundRegistry> registry_;

  void RegisterAnnounce(const RoleAnnounce& announce);
  const RoundRegistry* RegistryFor(uint64_t round) const;

  /// Appends one equivocation-evidence record (called from honest OC
  /// members' BA★ evidence sinks; bounded so a vote-spamming adversary
  /// cannot grow memory without limit).
  void RecordEquivocationEvidence(const consensus::EquivocationEvidence& ev);

  // --- Observability -----------------------------------------------------
  // Phase hooks the actors call, each writing the round's RoundRecord:
  // witness when blocks reach Tw, ordering at the leader's BA* decision,
  // execution from exec-request fan-out to the first result back at the
  // leader. Commit (decision to block application) closes in
  // OnBlockCommitted. All in sim time.
  void RecordWitnessReached(uint64_t batch_round);
  void RecordOrderingDecision(uint64_t round);
  void NoteExecPhaseStart(uint64_t exec_round);
  void NoteExecPhaseEnd(uint64_t exec_round);

  // --- Distributed tracing ------------------------------------------------
  // Sampled transactions carry a TxTraceState through the pipeline: a root
  // "tx" span plus a chain of consecutive child spans (submit -> witness ->
  // ordering -> sse [-> msu] -> commit), each starting where the previous
  // one ended (`prev_end`), so the tree renders nested and non-overlapping.
  // `stage` makes the hooks idempotent: gossip delivers witness thresholds
  // and commits to every storage node, but only the first call advances.
  // All hooks are no-ops when the transaction is not traced; actors guard
  // calls with tracer_.enabled() so the disabled cost is one inline bool.
  struct TxTraceState {
    obs::TraceContext ctx;
    uint64_t root_span = 0;
    net::SimTime prev_end = 0;
    int stage = 0;  // 0 submitted, 1 packaged, 2 witnessed, 3 ordered, 4 sse.
  };
  /// Round-lane context: spans parented under the open "round" span.
  obs::TraceContext RoundLane(uint64_t round);
  /// Admission core shared by SubmitTransaction/SubmitBatch: `t` is already
  /// stamped; touches no counters (callers aggregate per call/batch).
  Status AdmitStamped(const tx::Transaction& t);
  void TraceSubmit(const tx::Transaction& t);
  void TraceTxPackaged(const tx::Transaction& t, const std::string& node);
  void TraceBlockWitnessed(const tx::BlockId& block_id,
                           const std::string& node);
  void TraceTxOrdered(const tx::TxId& id, uint64_t listing_round,
                      bool accepted, const std::string& node);
  void TraceListingExecuted(uint64_t exec_round);
  void TraceTxFinal(const std::string& tid, bool cross, bool failed,
                    uint64_t listing_round);

  /// Hot-path instrument pointers, resolved once at construction so actors
  /// record without registry lookups.
  struct Instruments {
    obs::Counter* submitted_txs = nullptr;
    obs::Counter* rejected_duplicate = nullptr;
    obs::Counter* rejected_invalid = nullptr;
    obs::Counter* committed_intra = nullptr;
    obs::Counter* committed_cross = nullptr;
    obs::Counter* discarded_txs = nullptr;
    obs::Counter* failed_txs = nullptr;
    obs::Counter* committed_blocks = nullptr;
    obs::Counter* empty_rounds = nullptr;
    obs::Counter* replay_mismatches = nullptr;
    obs::Counter* gossip_dedup_hits = nullptr;
    obs::Counter* exec_cache_hits = nullptr;
    obs::Counter* exec_cache_misses = nullptr;
    obs::Counter* rejected_unavailable = nullptr;
    // Protocol-side hardening: reason-labelled `core.rejected{reason}`
    // rejections of forged / tampered / stale inputs. All zero in honest
    // runs except stale_round (benign duplicate deliveries) and
    // unknown_block (witness uploads racing a rejoin requeue).
    obs::Counter* rejected_bad_witness_sig = nullptr;
    obs::Counter* rejected_unknown_witness = nullptr;
    obs::Counter* rejected_unknown_block = nullptr;
    obs::Counter* rejected_bad_exec_sig = nullptr;
    obs::Counter* rejected_unknown_signer = nullptr;
    obs::Counter* rejected_s_hash_mismatch = nullptr;
    obs::Counter* rejected_bad_state_proof = nullptr;
    obs::Counter* rejected_stale_round = nullptr;
    obs::Counter* rejected_bad_shard = nullptr;
    obs::Counter* rejected_unlocked_update = nullptr;
    // Storage-link failover (stateless-node health model).
    obs::Counter* failover_timeouts = nullptr;
    obs::Counter* failover_retransmits = nullptr;
    obs::Counter* failover_rotations = nullptr;
    obs::Counter* failover_resyncs = nullptr;
    obs::Counter* failover_readoptions = nullptr;
    obs::Counter* failover_requeued_txs = nullptr;
    obs::Counter* storage_rejoins = nullptr;
    /// Completed committee reconfigurations (`core.epochs`); 0 when
    /// epoch_length is 0.
    obs::Counter* epochs = nullptr;
    // Compute-pool fan-out (index counts: deterministic for any thread
    // count). Wall-clock time lives in volatile gauges, off the exports.
    obs::Counter* runtime_exec_tasks = nullptr;
    obs::Counter* runtime_accounts_tasks = nullptr;
    obs::Counter* runtime_verify_tasks = nullptr;
    // Volatile (never exported), one per phase.
    obs::Gauge* runtime_exec_wall_us = nullptr;
    obs::Gauge* runtime_accounts_wall_us = nullptr;
    obs::Gauge* runtime_verify_wall_us = nullptr;
    obs::Histogram* block_latency = nullptr;
    obs::Histogram* commit_latency = nullptr;
    obs::Histogram* user_latency = nullptr;
    obs::Histogram* phase_witness = nullptr;
    obs::Histogram* phase_ordering = nullptr;
    obs::Histogram* phase_execution = nullptr;
    obs::Histogram* phase_commit = nullptr;
    consensus::BaStar::Instruments consensus;
  };

  // --- Round record ------------------------------------------------------
  // Everything the round driver observes about one round's timeline, kept
  // once. The phase histograms, round-lane spans, commit latency and the
  // critical-path reports all read it. A round can start more than once
  // (Run() may schedule a second StartRound while the round is in flight),
  // so each field states how a restart and the commit treat it.
  struct RoundRecord {
    /// Latest StartRound: a restart overwrites it. Kept for the whole run,
    /// because commit latency looks up the start of arbitrarily old
    /// re-offered blocks.
    std::optional<net::SimTime> start;
    /// First commit receipt; later receipts are ignored.
    std::optional<net::SimTime> commit;
    /// Critical-path marks since the latest start (0 = not observed): a
    /// restart resets them, and CommitRound reads them.
    net::SimTime witness_end = 0;
    net::SimTime decision = 0;
    /// First ordering decision not yet committed: the commit-phase clock.
    /// Survives a restart; the commit clears it.
    net::SimTime decision_pending = 0;
    /// Tw sample taken. Once per batch, even across a restart.
    bool witnessed = false;
    /// The analyzer's execution interval (start 0 = none). First start
    /// wins; only pruning (closed, 8 rounds behind a commit) clears it.
    obs::ExecInterval exec;
    /// Execution-histogram clock: armed by the first start after an end.
    std::optional<net::SimTime> exec_clock;
    /// Open round-lane spans (0 = none). A restart opens new round and
    /// witness spans; the ones it replaces stay open.
    uint64_t round_span = 0;
    uint64_t witness_span = 0;
    uint64_t exec_span = 0;
    /// Bandwidth-ledger snapshot at the latest start of an uncommitted
    /// round; the commit differences and releases it.
    std::vector<net::LinkActivity> baseline;
  };

  // --- Critical-path analysis --------------------------------------------
  // The bandwidth-ledger side of the analyzer: OnBlockCommitted differences
  // the round record's baseline into per-role LinkWindows (the per-node
  // mean per role and direction), feeds CommitRound with the record's
  // marks and the tracked execution intervals, and publishes the per-link
  // utilization as windowed net.link_utilization_pm gauges plus Perfetto
  // counter-track samples.
  std::vector<obs::LinkWindow> LinkWindowsSince(
      const std::vector<net::LinkActivity>& baseline) const;
  obs::Gauge* UtilGauge(const std::string& link);

  // --- Round driving -----------------------------------------------------
  void StartRound(uint64_t round);
  /// Epoch boundary (round % epoch_length == 0, round > 0): re-runs VRF
  /// sortition over the committed tip to re-draw the OC and its leader,
  /// re-deals adversary placement for the new membership (leader exempt,
  /// same α budget), migrates the outgoing leader's coordinator state and
  /// witnessed-bundle pools to the incoming leader, rebuilds the canonical
  /// oc_keys_/oc_net_ids_ vote-cert ordering, relabels node roles for link
  /// attribution, and has every new member re-announce kOrdering to the
  /// storage layer. Pure function of (chain tip, node keys, adversary
  /// spec): draws nothing from rng_, so exports stay byte-identical across
  /// thread counts. Called by StartRound before work distribution.
  void ReconfigureEpoch(uint64_t round);
  void MaybeScheduleNextRound();
  void OnBlockCommitted(const tx::ProposalBlock& block, net::SimTime when);
  void AdvanceExecState(uint64_t exec_round);
  void AccountCommittedBatch(const tx::ProposalBlock& committed);

  tx::ProposalBlock genesis_;
  std::vector<tx::ProposalBlock> chain_;
  crypto::Hash256 tip_hash_{};
  std::map<uint64_t, RoundRecord> rounds_;
  // Rounds below this hold no execution interval the analyzer still sees.
  uint64_t exec_floor_ = 0;
  uint64_t committed_rounds_ = 0;
  int target_rounds_ = 0;
  bool started_ = false;
  bool round_scheduled_ = false;

  SystemOptions options_;
  Rng rng_;
  // Declared before the network and actors: they cache pointers into the
  // registry and must be destroyed first.
  obs::MetricsRegistry metrics_registry_;
  Instruments obs_;
  // Tracer is declared with the registry (before the network and actors,
  // which cache the pointer) and clocked off events_ — both outlive nothing
  // that records into them.
  obs::Tracer tracer_;
  // Declared after the registry and tracer (it caches counter pointers
  // and the tracer) and before the actors that consult it.
  std::unique_ptr<AdversaryController> adversary_;
  // Registered stateless identities: witness proofs and exec results
  // from keys outside this set are rejected before signature checks.
  std::set<crypto::PublicKey> stateless_keys_;
  std::vector<consensus::EquivocationEvidence> equivocation_evidence_;
  std::unordered_map<std::string, TxTraceState> traced_txs_;  // By tx id.
  // Listing round -> traced tx ids listed there (drives sse/commit spans).
  std::map<uint64_t, std::vector<std::string>> traced_by_listing_;
  obs::CriticalPathAnalyzer critical_path_;
  std::map<std::string, obs::Gauge*> util_gauges_;  // By link name.
  net::EventQueue events_;
  std::unique_ptr<net::SimNetwork> network_;
  // Owns the active FaultPlan's hook into network_; declared after it so
  // the injector (which clears the hook in its dtor) is destroyed first.
  std::unique_ptr<net::FaultInjector> fault_injector_;
  // Declared before the provider and actors, which hold pointers into it
  // (batch verification, storage-engine maintenance) — destroyed after them.
  std::unique_ptr<runtime::TaskPool> pool_;
  std::unique_ptr<crypto::CryptoProvider> provider_;
  std::vector<std::unique_ptr<StorageNodeActor>> storage_nodes_;
  std::vector<std::unique_ptr<StatelessNodeActor>> stateless_nodes_;
  net::NodeId leader_net_id_ = net::kInvalidNode;
  std::vector<crypto::PublicKey> oc_keys_;
  std::vector<net::NodeId> oc_net_ids_;
  // Tree mode: nodes currently labeled "relay" for critical-path / link
  // attribution (base witness-relay election for the round; observability
  // only — senders re-run the election with strike/crash skips).
  std::vector<net::NodeId> labeled_relays_;
  uint64_t next_account_hint_ = 1;

 public:
  /// True when the run disseminates via aggregation relay trees.
  bool tree_mode() const { return options_.dissemination.tree(); }
  const net::DisseminationSpec& dissemination() const {
    return options_.dissemination;
  }
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_SYSTEM_H_
