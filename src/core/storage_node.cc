#include <algorithm>
#include <unordered_set>

#include "common/codec.h"
#include "common/erasure.h"
#include "common/log.h"
#include "core/system.h"
#include "crypto/sha256.h"

namespace porygon::core {

namespace {
// The OC-bound form of a stored block: header, the witness proofs gathered
// so far, and each transaction's access list.
WitnessedBlock ToWitnessed(
    const tx::TransactionBlock& block,
    const std::map<crypto::PublicKey, tx::WitnessProof>& proofs) {
  WitnessedBlock wb;
  wb.header = block.header;
  for (const auto& [pk, proof] : proofs) wb.proofs.push_back(proof);
  for (const auto& t : block.transactions) {
    wb.accesses.push_back(
        TxAccess{t.Id(), t.from, t.to, t.amount, t.nonce, t.submitted_at});
  }
  return wb;
}
}  // namespace

StorageNodeActor::StorageNodeActor(PorygonSystem* system, int index,
                                   net::NodeId net_id, AdvStrategy strategy)
    : system_(system),
      index_(index),
      net_id_(net_id),
      strategy_(strategy),
      pool_(system->params().shard_bits),
      env_(new storage::MemEnv()) {
  storage::DbOptions db_options;
  db_options.metrics = system->metrics_registry();
  db_options.metrics_node = std::to_string(index);
  db_options.pool = system->task_pool();
  auto db = storage::Db::Open(env_.get(), "db", db_options);
  db_ = std::move(db).value();
}

uint64_t StorageNodeActor::db_bytes() const { return env_->TotalBytes(); }

void StorageNodeActor::HandleMessage(const net::Message& msg) {
  switch (msg.kind) {
    case kMsgSubmitTx:
      OnSubmitTx(msg);
      break;
    case kMsgWitnessUpload:
      OnWitnessUpload(msg, /*from_gossip=*/false);
      break;
    case kMsgRelay:
      OnRelay(msg);
      break;
    case kMsgStateRequest:
      OnStateRequest(msg);
      break;
    case kMsgResync:
      OnResync(msg);
      break;
    case kMsgCommit:
      OnCommit(msg, /*from_gossip=*/false);
      break;
    case kMsgRoleAnnounce:
      OnRoleAnnounce(msg, /*from_gossip=*/false);
      break;
    case kMsgGossip:
      OnGossip(msg);
      break;
    default:
      break;
  }
}

void StorageNodeActor::OnSubmitTx(const net::Message& msg) {
  auto t = tx::Transaction::Decode(msg.payload);
  if (!t.ok()) return;
  pool_.Add(*t);
}

void StorageNodeActor::OnRoundStart(uint64_t round) {
  net::SimNetwork* net = system_->network();

  // 1. Tell our primary stateless nodes the round has started, attaching
  // the committed proposal block B_{r-1}.
  const tx::ProposalBlock& prev = system_->chain().back();
  Bytes prev_enc = prev.Encode();
  const bool tracing = system_->tracer()->enabled();
  for (const auto& node : system_->stateless_nodes_) {
    if (node->primary_storage() != net_id_) continue;
    net::Message m;
    m.from = net_id_;
    m.to = node->net_id();
    m.kind = kMsgNewRound;
    if (tracing) m.trace = system_->tracer()->RoundContext(round);
    m.payload = prev_enc;
    // OC members track the full proposal block; everyone else only needs
    // the compact header (hash, round, thresholds) to run sortition —
    // execution inputs arrive separately as per-shard ExecRequests ("both
    // the list and the state tree are not completely sent to each shard",
    // §IV-D2). The payload stays complete for implementation convenience;
    // the bandwidth model charges what the node actually downloads. Tree
    // mode charges the compact header for OC members too: they already
    // hold the decided block from consensus, so the round-start push only
    // needs the digest confirming which tip the storage node committed.
    m.wire_size = node->in_oc() && !system_->tree_mode() ? prev_enc.size()
                                                         : 256;
    net->Send(std::move(m));
  }

  // 2. After a short grace period (role announcements propagate), package
  // and distribute transaction blocks and push bundles / exec requests.
  system_->events()->ScheduleAfter(net::FromMillis(200), [this, round] {
    DistributeRoundWork(round);
  });
}

void StorageNodeActor::GossipToPeers(uint16_t inner_kind, const Bytes& payload,
                                     size_t wire_size) {
  net::SimNetwork* net = system_->network();
  Encoder enc;
  enc.PutU16(inner_kind);
  enc.PutBytes(payload);
  Bytes wrapped = enc.TakeBuffer();
  for (const auto& peer : system_->storage_nodes_) {
    if (peer->net_id() == net_id_) continue;
    net::Message m;
    m.from = net_id_;
    m.to = peer->net_id();
    m.kind = kMsgGossip;
    m.payload = wrapped;
    m.wire_size = wire_size + 8;
    net->Send(std::move(m));
  }
}

void StorageNodeActor::OnGossip(const net::Message& msg) {
  Decoder dec(msg.payload);
  auto kind = dec.GetU16();
  auto inner = dec.GetBytes();
  if (!kind.ok() || !inner.ok()) return;

  net::Message unwrapped;
  unwrapped.from = msg.from;
  unwrapped.to = msg.to;
  unwrapped.kind = *kind;
  unwrapped.payload = std::move(*inner);
  unwrapped.wire_size = msg.wire_size;
  switch (*kind) {
    case kMsgWitnessUpload:
      OnWitnessUpload(unwrapped, /*from_gossip=*/true);
      break;
    case kMsgCommit:
      OnCommit(unwrapped, /*from_gossip=*/true);
      break;
    case kMsgRoleAnnounce:
      OnRoleAnnounce(unwrapped, /*from_gossip=*/true);
      break;
    default:
      break;
  }
}

void StorageNodeActor::OnRoleAnnounce(const net::Message& msg,
                                      bool from_gossip) {
  auto a = RoleAnnounce::Decode(msg.payload);
  if (!a.ok()) return;
  // Verify the sortition proof before accepting the claimed role.
  Assignment claimed;
  claimed.role = static_cast<Role>(a->role);
  claimed.shard = a->shard;
  claimed.sortition = a->sortition;
  claimed.proof = a->proof;
  // Per-round EC announces draw against the execution thresholds;
  // epoch-boundary OC announces (ReconfigureEpoch) against the ordering
  // thresholds with no shard bits.
  const bool ordering = static_cast<Role>(a->role) == Role::kOrdering;
  if (!Sortition::Verify(system_->provider(), a->node_key, a->round,
                         system_->tip_hash(),
                         ordering ? 1.0 : 0.0, ordering ? 0.0 : 1.0,
                         ordering ? 0 : system_->params().shard_bits,
                         claimed)) {
    // Announcements referencing an older tip can fail the hash check during
    // handoff; tolerate only exact-match proofs.
    return;
  }
  system_->RegisterAnnounce(*a);
  // If this node's shard blocks were already distributed this round, the
  // announcement simply arrived after the grace period (large proposal
  // blocks delay NewRound); ship the blocks to it directly.
  if (static_cast<Role>(a->role) == Role::kExecution &&
      a->round == last_distributed_round_ && !withholds_bodies()) {
    auto it = offered_blocks_.find(a->shard);
    if (it != offered_blocks_.end()) {
      for (const auto& block_id : it->second) {
        auto stored = system_->block_store_.find(block_id);
        if (stored == system_->block_store_.end()) continue;
        tx::TransactionBlock outgoing;
        outgoing.header = stored->second.block.header;
        outgoing.transactions = stored->second.block.transactions;
        net::Message m;
        m.from = net_id_;
        m.to = a->node_id;
        m.kind = kMsgTxBlock;
        if (system_->tracer()->enabled()) {
          m.trace = system_->tracer()->RoundContext(a->round);
        }
        m.payload = outgoing.Encode();
        m.wire_size = outgoing.WireSize();
        system_->network()->Send(std::move(m));
      }
    }
  }
  if (!from_gossip && !suppresses_gossip()) {
    std::string key = "ra" + std::to_string(a->round) +
                      std::string(reinterpret_cast<const char*>(
                                      a->node_key.data()),
                                  32);
    if (gossip_seen_.insert(key).second) {
      GossipToPeers(kMsgRoleAnnounce, msg.payload, msg.payload.size());
    } else {
      system_->obs_.gossip_dedup_hits->Increment();
    }
  }
}

void StorageNodeActor::DistributeRoundWork(uint64_t round) {
  // The grace-period event may outlive a crash that happened meanwhile; a
  // down node distributes nothing (it rejoins through OnRejoin).
  if (system_->network()->IsCrashed(net_id_)) return;
  const Params& p = system_->params();
  const SystemOptions& opt = system_->options();
  net::SimNetwork* net = system_->network();
  const auto* reg = system_->RegistryFor(round);
  obs::Tracer* tracer = system_->tracer();
  const bool tracing = tracer->enabled();

  // --- Package new transaction blocks for batch `round` ------------------
  size_t quota = opt.blocks_per_shard_round / system_->num_storage_nodes();
  if (static_cast<size_t>(index_) <
      opt.blocks_per_shard_round % system_->num_storage_nodes()) {
    ++quota;
  }
  // Every storage node drains its own mempool: nobody else can package the
  // transactions submitted to it.
  if (quota == 0) quota = 1;
  std::vector<tx::TransactionBlock> fresh;
  for (int shard = 0; shard < p.shard_count(); ++shard) {
    for (size_t b = 0; b < quota; ++b) {
      if (pool_.PendingInShard(shard) == 0) break;
      tx::TransactionBlock block = pool_.PackBlock(
          shard, p.block_tx_limit, static_cast<uint32_t>(index_), round);
      if (block.transactions.empty()) break;
      system_->block_store_[IdKey(block.header.Id())] =
          PorygonSystem::StoredBlock{block, round};
      unlisted_blocks_[IdKey(block.header.Id())] = round;
      if (tracing) {
        // Sampled transactions close their "submit" (mempool wait) span.
        for (const auto& t : block.transactions) {
          system_->TraceTxPackaged(t, TraceName());
        }
      }
      fresh.push_back(std::move(block));
    }
  }

  // --- Send blocks to this round's EC members (witness phase). Blocks that
  // missed Tw in their own round are re-offered to the next round's EC —
  // the Cross-Batch Witness path (§IV-C2).
  std::vector<const tx::TransactionBlock*> to_offer;
  for (const auto& b : fresh) {
    to_offer.push_back(
        &system_->block_store_[IdKey(b.header.Id())].block);
  }
  for (auto& [key, stored] : system_->block_store_) {
    if (stored.batch_round + 1 == round &&
        stored.block.header.creator_storage_node ==
            static_cast<uint32_t>(index_) &&
        witness_state_.find(key) != witness_state_.end() &&
        witness_state_[key].proofs.size() <
            static_cast<size_t>(p.witness_threshold)) {
      stored.batch_round = round;  // Rolls into the next batch.
      to_offer.push_back(&stored.block);
    }
  }
  last_distributed_round_ = round;
  offered_blocks_.clear();
  for (const tx::TransactionBlock* block : to_offer) {
    offered_blocks_[block->header.shard].push_back(
        IdKey(block->header.Id()));
  }
  if (reg != nullptr) {
    const net::DisseminationSpec& diss = system_->dissemination();
    for (const tx::TransactionBlock* block : to_offer) {
      uint32_t shard = block->header.shard;
      auto it = reg->ec_by_shard.find(shard);
      if (it == reg->ec_by_shard.end()) continue;
      const std::vector<net::NodeId>& members = it->second;
      // Tree mode: erasure-code the body across the EC instead of shipping
      // |EC| full copies. One chunk per member (n = |EC|, any chunk_k
      // reconstruct); each member forwards its seed chunk to the next
      // chunk_k peers, so our uplink carries |EC|/k bodies instead of
      // |EC|. Small committees (no headroom over k) keep the direct ship.
      const size_t min_members = static_cast<size_t>(
          std::max(diss.chunk_n, diss.chunk_k + 2));
      if (diss.tree() && members.size() >= min_members &&
          members.size() <= erasure::kMaxChunks) {
        const int k = diss.chunk_k;
        const int n = static_cast<int>(members.size());
        std::vector<Bytes> chunks;
        if (withholds_bodies()) {
          // Header-only chunks: receivers can never gather k payloads, the
          // exact tree-mode analogue of the bodyless direct ship.
          system_->adversary()->NoteAction(strategy_, "withhold_body",
                                           TraceName(), /*trace=*/false);
        } else {
          auto encoded = erasure::Encode(block->Encode(), k, n);
          if (encoded.ok()) chunks = std::move(*encoded);
        }
        for (size_t j = 0; j < members.size(); ++j) {
          BodyChunk c;
          c.round = round;
          c.shard = shard;
          c.header = block->header;
          c.index = static_cast<uint16_t>(j);
          c.k = static_cast<uint16_t>(k);
          c.n = static_cast<uint16_t>(n);
          c.peers = members;
          if (!chunks.empty()) c.payload = chunks[j];
          net::Message m;
          m.from = net_id_;
          m.to = members[j];
          m.kind = kMsgBodyChunk;
          if (tracing) m.trace = tracer->RoundContext(round);
          m.wire_size = c.WireSize();
          m.payload = c.Encode();
          net->Send(std::move(m));
        }
        continue;
      }
      // A withholding storage node ships headers with no bodies: members
      // cannot witness what they cannot download (Challenge 2).
      tx::TransactionBlock outgoing;
      outgoing.header = block->header;
      if (withholds_bodies()) {
        system_->adversary()->NoteAction(strategy_, "withhold_body",
                                         TraceName(), /*trace=*/false);
      } else {
        outgoing.transactions = block->transactions;
      }
      Bytes enc = outgoing.Encode();
      for (net::NodeId member : members) {
        net::Message m;
        m.from = net_id_;
        m.to = member;
        m.kind = kMsgTxBlock;
        if (tracing) m.trace = tracer->RoundContext(round);
        m.payload = enc;
        m.wire_size = outgoing.WireSize();
        net->Send(std::move(m));
      }
    }
  }

  // --- Push the witnessed bundle of batch round-1 to OC members we serve.
  if (round >= 1) {
    WitnessBundle bundle;
    bundle.batch_round = round - 1;
    auto wit = witnessed_by_batch_.find(round - 1);
    if (wit != witnessed_by_batch_.end()) {
      for (const auto& id : wit->second) {
        auto stored = system_->block_store_.find(IdKey(id));
        auto wstate = witness_state_.find(IdKey(id));
        if (stored == system_->block_store_.end() ||
            wstate == witness_state_.end()) {
          continue;
        }
        bundle.blocks.push_back(
            ToWitnessed(stored->second.block, wstate->second.proofs));
      }
    }
    // Orphan recovery: our packaged blocks that reached Tw in an earlier
    // batch but never made a committed listing — their bundle window passed
    // while the OC members' primary was unreachable — ride the current
    // bundle (the OC merges by block id, so re-offers are idempotent). The
    // stored value is the batch of the last push; waiting two rounds before
    // re-pushing leaves a normal listing time to commit and prune.
    for (auto& [key, last_push] : unlisted_blocks_) {
      if (last_push + 2 > round) continue;
      auto stored = system_->block_store_.find(key);
      auto wstate = witness_state_.find(key);
      if (stored == system_->block_store_.end() ||
          wstate == witness_state_.end() ||
          wstate->second.proofs.size() <
              static_cast<size_t>(p.witness_threshold)) {
        continue;
      }
      bundle.blocks.push_back(
          ToWitnessed(stored->second.block, wstate->second.proofs));
      last_push = round - 1;  // Joins batch round-1's listing window.
    }
    // Tree mode: hand the bundle to per-shard aggregation relays instead
    // of pushing a full copy onto every served OC member's downlink. The
    // election is the same arithmetic every honest node runs
    // (Dissemination::AggregatorFor over the batch's EC), refined with a
    // skip-scan past crashed and struck relays; if any shard has no viable
    // relay left, the whole bundle degrades to the legacy direct push.
    bool tree_routed = false;
    if (system_->tree_mode() && !bundle.blocks.empty()) {
      const int strike_limit = system_->dissemination().relay_strikes;
      const auto* batch_reg = system_->RegistryFor(round - 1);
      auto elect = [&](const std::vector<net::NodeId>& members)
          -> net::NodeId {
        if (members.size() < 2) return net::kInvalidNode;
        int base = net::Dissemination::AggregatorIndex(members.size(),
                                                       round - 1, 0);
        if (base < 0) return net::kInvalidNode;
        for (size_t off = 0; off < members.size(); ++off) {
          net::NodeId cand =
              members[(static_cast<size_t>(base) + off) % members.size()];
          auto struck = relay_strikes_.find(cand);
          if (struck != relay_strikes_.end() &&
              struck->second >= strike_limit) {
            continue;
          }
          if (net->IsCrashed(cand)) continue;
          return cand;
        }
        return net::kInvalidNode;
      };
      if (batch_reg != nullptr) {
        std::map<uint32_t, std::vector<WitnessedBlock>> by_shard;
        for (const auto& wb : bundle.blocks) {
          by_shard[wb.header.shard].push_back(wb);
        }
        std::map<uint32_t, net::NodeId> relays;
        tree_routed = true;
        for (const auto& [shard, blocks] : by_shard) {
          auto mem = batch_reg->ec_by_shard.find(shard);
          net::NodeId relay = mem == batch_reg->ec_by_shard.end()
                                  ? net::kInvalidNode
                                  : elect(mem->second);
          if (relay == net::kInvalidNode) {
            tree_routed = false;
            break;
          }
          relays[shard] = relay;
        }
        if (tree_routed) {
          for (auto& [shard, blocks] : by_shard) {
            AggregatedWitness sub;
            sub.batch_round = round - 1;
            sub.shard = shard;
            sub.aggregator = net_id_;
            sub.blocks = std::move(blocks);
            RelayAudit audit;
            audit.listing_round = round;
            audit.relay = relays[shard];
            for (const auto& wb : sub.blocks) {
              audit.block_ids.push_back(IdKey(wb.header.Id()));
            }
            pending_relay_audit_.push_back(std::move(audit));
            net::Message m;
            m.from = net_id_;
            m.to = relays[shard];
            m.kind = kMsgAggWitness;
            if (tracing) m.trace = tracer->RoundContext(round - 1);
            m.wire_size = sub.WireSize();
            m.payload = sub.Encode();
            net->Send(std::move(m));
          }
        }
      }
    }
    if (!tree_routed) {
      Bytes enc = bundle.Encode();
      for (net::NodeId oc : system_->oc_net_ids_) {
        // Only the member's primary storage node ships the bundle.
        const auto* member = system_->StatelessByNetId(oc);
        if (member == nullptr || member->primary_storage() != net_id_) {
          continue;
        }
        net::Message m;
        m.from = net_id_;
        m.to = oc;
        m.kind = kMsgWitnessBundle;
        if (tracing) m.trace = tracer->RoundContext(round - 1);
        m.payload = enc;
        m.wire_size = bundle.WireSize();
        net->Send(std::move(m));
      }
    }
  }

  // --- Push execution requests derived from B_{r-1} to the ESCs formed at
  // round r-2 (they witnessed the bodies they are about to execute).
  if (round >= 2 && system_->chain().size() > round - 1) {
    const tx::ProposalBlock& basis = system_->chain()[round - 1];
    const auto* exec_reg = system_->RegistryFor(round - 2);
    bool exec_requests_sent = false;
    if (exec_reg != nullptr && !basis.shard_tx_blocks.empty()) {
      for (int shard = 0; shard < p.shard_count(); ++shard) {
        ExecRequest req;
        req.round = round - 1;
        req.shard = shard;
        if (shard < static_cast<int>(basis.shard_tx_blocks.size())) {
          req.block_ids = basis.shard_tx_blocks[shard];
        }
        if (shard < static_cast<int>(basis.shard_updates.size())) {
          req.updates = basis.shard_updates[shard];
        }
        req.discarded = basis.discarded;
        if (shard < static_cast<int>(basis.shard_roots.size())) {
          req.shard_root = basis.shard_roots[shard];
        }
        req.all_roots = basis.shard_roots;
        if (req.block_ids.empty() && req.updates.empty()) continue;
        auto it = exec_reg->ec_by_shard.find(shard);
        if (it == exec_reg->ec_by_shard.end()) continue;
        req.members = it->second;
        Bytes enc = req.Encode();
        for (net::NodeId member : it->second) {
          const auto* node = system_->StatelessByNetId(member);
          if (node == nullptr || node->primary_storage() != net_id_) continue;
          net::Message m;
          m.from = net_id_;
          m.to = member;
          m.kind = kMsgExecRequest;
          if (tracing) m.trace = tracer->RoundContext(req.round);
          m.payload = enc;
          m.wire_size = enc.size();
          net->Send(std::move(m));
          exec_requests_sent = true;
        }
      }
    }
    if (exec_requests_sent) system_->NoteExecPhaseStart(round - 1);
  }
}

void StorageNodeActor::OnWitnessUpload(const net::Message& msg,
                                       bool from_gossip) {
  auto up = WitnessUpload::Decode(msg.payload);
  if (!up.ok()) return;
  const std::string key = IdKey(up->proof.block_id);
  auto stored = system_->block_store_.find(key);
  if (stored == system_->block_store_.end()) {
    // No such block: a proof over a ghost id (or, benignly, an upload for a
    // block this node pruned/erased around a crash window).
    system_->obs_.rejected_unknown_block->Increment();
    return;
  }

  // Identity check: only registered stateless nodes can witness.
  if (system_->stateless_keys_.count(up->proof.witness) == 0) {
    system_->obs_.rejected_unknown_witness->Increment();
    return;
  }

  // Verify the witness signature over the block header.
  Bytes signing = WitnessSigningBytes(stored->second.block.header);
  if (!system_->provider()->Verify(up->proof.witness, signing,
                                   up->proof.signature)) {
    system_->obs_.rejected_bad_witness_sig->Increment();
    return;
  }

  WitnessState& w = witness_state_[key];
  bool inserted = w.proofs.emplace(up->proof.witness, up->proof).second;
  if (!inserted) return;

  if (w.proofs.size() ==
      static_cast<size_t>(system_->params().witness_threshold)) {
    // Eligible for ordering: joins the batch of the round it completed in.
    uint64_t batch = std::max(stored->second.batch_round, up->round);
    witnessed_by_batch_[batch].push_back(up->proof.block_id);
    system_->RecordWitnessReached(batch);
    if (system_->tracer()->enabled()) {
      system_->TraceBlockWitnessed(up->proof.block_id, TraceName());
    }
  }

  if (!from_gossip && !suppresses_gossip()) {
    std::string gossip_key =
        "wu" + key +
        std::string(reinterpret_cast<const char*>(up->proof.witness.data()),
                    32);
    if (gossip_seen_.insert(gossip_key).second) {
      GossipToPeers(kMsgWitnessUpload, msg.payload, msg.payload.size());
    } else {
      system_->obs_.gossip_dedup_hits->Increment();
    }
  }
}

void StorageNodeActor::OnRelay(const net::Message& msg) {
  auto relay = Relay::Decode(msg.payload);
  if (!relay.ok()) return;
  if (drops_relays()) {
    // Withholding and censoring storage both drop routed traffic; the
    // sender's failover layer retries through its other connections.
    system_->adversary()->NoteAction(strategy_, "censor_relay", TraceName(),
                                     /*trace=*/false);
    return;
  }
  net::SimNetwork* net = system_->network();

  auto forward = [&](net::NodeId dest) {
    net::Message m;
    m.from = net_id_;
    m.to = dest;
    m.kind = relay->inner_kind;
    m.trace = relay->trace;  // The sender's trace survives the storage hop.
    m.payload = relay->inner;
    m.wire_size = relay->inner.size();
    net->Send(std::move(m));
  };

  switch (relay->target) {
    case Relay::kToNode:
      if (relay->dest != net::kInvalidNode) forward(relay->dest);
      break;
    case Relay::kToOrderingCommittee: {
      // Tree mode: an in-committee sender does not need its own broadcast
      // echoed back as a full copy — suppress it and answer with a 40-byte
      // digest ack instead, which the failover layer accepts as the same
      // proof of delivery.
      const bool ack_sender =
          system_->tree_mode() &&
          std::find(system_->oc_net_ids_.begin(), system_->oc_net_ids_.end(),
                    msg.from) != system_->oc_net_ids_.end();
      for (net::NodeId oc : system_->oc_net_ids_) {
        if (ack_sender && oc == msg.from) continue;
        forward(oc);
      }
      if (ack_sender) {
        RelayAck ack;
        ack.round = relay->round;
        ack.digest = crypto::Sha256::Hash(msg.payload);
        net::Message m;
        m.from = net_id_;
        m.to = msg.from;
        m.kind = kMsgRelayAck;
        m.wire_size = 40;
        m.payload = ack.Encode();
        net->Send(std::move(m));
      }
      break;
    }
    case Relay::kToShardCommittee: {
      const auto* reg = system_->RegistryFor(relay->round);
      if (reg == nullptr) break;
      auto it = reg->ec_by_shard.find(relay->shard);
      if (it == reg->ec_by_shard.end()) break;
      for (net::NodeId member : it->second) forward(member);
      break;
    }
    default:
      break;
  }
}

void StorageNodeActor::OnStateRequest(const net::Message& msg) {
  auto req = StateRequest::Decode(msg.payload);
  if (!req.ok()) return;
  if (system_->tracer()->enabled() && msg.trace.active()) {
    system_->tracer()->Instant(msg.trace, "state_read", TraceName());
  }

  const state::ShardedState& st = system_->canonical_state();
  std::vector<crypto::Hash256> roots(st.shard_count());
  for (int d = 0; d < st.shard_count(); ++d) roots[d] = st.ShardRoot(d);
  ServedState& served = served_state_[req->shard];
  if (served.payload.empty() || served.round != req->round ||
      served.accounts != req->accounts || served.roots != roots) {
    const SystemOptions& opt = system_->options();
    StateResponse resp;
    resp.round = req->round;
    resp.shard = req->shard;
    for (state::AccountId id : req->accounts) {
      StateResponse::Entry e;
      e.account = id;
      auto acc = st.GetAccount(id);
      e.present = acc.ok();
      if (acc.ok()) e.value = *acc;
      resp.entries.push_back(e);
      if (opt.faithful_execution) {
        state::MerkleProof proof = st.ProveAccount(id);
        resp.proof_bytes += proof.WireSize();
        resp.proofs.push_back(proof.Encode());
      } else {
        resp.proof_bytes += opt.state_proof_bytes_per_account;
      }
      if (tampers_state()) {
        // Doctor the entry *after* proving: the proof commits to the true
        // value, so the mismatch is exactly what the stateless node's
        // cross-check (VerifyStateResponse) catches. The perturbation is a
        // pure hash of (round, account) — deterministic and non-zero.
        StateResponse::Entry& doctored = resp.entries.back();
        doctored.value.balance +=
            1 + crypto::HashPrefixU64(system_->adversary()->ForgedValue(
                    "state", req->round, id)) %
                    997;
        doctored.present = true;
      }
    }
    served.round = req->round;
    served.accounts = std::move(req->accounts);
    served.roots = std::move(roots);
    served.payload = resp.Encode();
    served.wire_size = resp.WireSize();
  }
  if (tampers_state() && !served.accounts.empty()) {
    system_->adversary()->NoteAction(strategy_, "tamper_state", TraceName());
  }

  net::Message m;
  m.from = net_id_;
  m.to = msg.from;
  m.kind = kMsgStateResponse;
  m.payload = served.payload;
  m.wire_size = served.wire_size;
  system_->network()->Send(std::move(m));
}

void StorageNodeActor::OnResync(const net::Message& msg) {
  auto req = ResyncRequest::Decode(msg.payload);
  if (!req.ok()) return;
  // Reply with our committed tip as a NewRound. The receiver's stale-round
  // check makes this idempotent; a node that fell behind catches up. Like
  // state serving, this answers even on malicious nodes (withholding the
  // tip would be instantly detectable; the modeled attacks are on bodies or
  // on freshness: a stale-replying node always answers with genesis, which
  // the receiver's stale-round check rejects and counts).
  if (stale_replies()) {
    system_->adversary()->NoteAction(strategy_, "stale_reply", TraceName());
  }
  const tx::ProposalBlock& tip =
      stale_replies() ? system_->chain().front() : system_->chain().back();
  Bytes enc = tip.Encode();
  net::Message m;
  m.from = net_id_;
  m.to = msg.from;
  m.kind = kMsgNewRound;
  const StatelessNodeActor* node = system_->StatelessByNetId(msg.from);
  m.wire_size = node != nullptr && node->in_oc() && !system_->tree_mode()
                    ? enc.size()
                    : 256;
  m.payload = std::move(enc);
  system_->network()->Send(std::move(m));
}

void StorageNodeActor::OnRejoin(uint64_t round) {
  PORYGON_LOG(kInfo) << "storage" << index_ << " rejoining at round "
                     << round;
  // Per-round offer bookkeeping is stale after the outage; rebuilt when the
  // next round distributes. Durable state (db_, pool, the shared block
  // store) survived the crash, so catching up is joining the current round.
  offered_blocks_.clear();
  last_distributed_round_ = 0;

  // We missed every commit during the outage, so first settle
  // unlisted_blocks_ against the chain, then re-queue the transactions of
  // blocks that genuinely never made a listing — their witness bundle died
  // with us. Re-queuing is replay-safe: anything that somehow committed
  // anyway fails the nonce check at execution.
  for (const auto& committed : system_->chain()) {
    for (const auto& shard_list : committed.shard_tx_blocks) {
      for (const auto& id : shard_list) unlisted_blocks_.erase(IdKey(id));
    }
  }
  for (auto it = unlisted_blocks_.begin(); it != unlisted_blocks_.end();) {
    auto stored = system_->block_store_.find(it->first);
    // Blocks pruned from the store are past the pipeline's lookback and
    // unrecoverable; blocks of the still-in-flight batch may yet be listed.
    if (stored == system_->block_store_.end()) {
      it = unlisted_blocks_.erase(it);
      continue;
    }
    if (stored->second.batch_round + 1 >= round) {
      ++it;
      continue;
    }
    // Blocks that already reached Tw stay put: the bundle push re-offers
    // them to the OC directly (see DistributeRoundWork). Re-queuing those
    // too would list the same transactions under two block ids.
    auto wstate = witness_state_.find(it->first);
    if (wstate != witness_state_.end() &&
        wstate->second.proofs.size() >=
            static_cast<size_t>(system_->params().witness_threshold)) {
      ++it;
      continue;
    }
    uint64_t requeued = 0;
    for (const auto& t : stored->second.block.transactions) {
      if (pool_.Add(t)) ++requeued;
    }
    if (requeued > 0) system_->obs_.failover_requeued_txs->Add(requeued);
    system_->block_store_.erase(stored);
    it = unlisted_blocks_.erase(it);
  }

  if (round > 0 && round == system_->chain().back().round + 1) {
    OnRoundStart(round);
  }
}

void StorageNodeActor::OnCommit(const net::Message& msg, bool from_gossip) {
  auto block = tx::ProposalBlock::Decode(msg.payload);
  if (!block.ok()) return;
  std::string key = "cm" + std::to_string(block->round);
  if (!gossip_seen_.insert(key).second) {
    system_->obs_.gossip_dedup_hits->Increment();
    return;
  }

  // Persist the proposal block (storage nodes keep the chain).
  (void)db_->Put(ToBytes("block/" + std::to_string(block->round)),
                 msg.payload);
  if (system_->tracer()->enabled()) {
    system_->tracer()->Instant(system_->tracer()->RoundContext(block->round),
                               "apply_block", TraceName());
  }

  // Our packaged blocks that made this listing are no longer orphan
  // candidates.
  for (const auto& shard_list : block->shard_tx_blocks) {
    for (const auto& id : shard_list) unlisted_blocks_.erase(IdKey(id));
  }

  // Tree mode: settle witness-relay audits against this listing. A relay
  // whose aggregate dropped any of the blocks we offered it collects a
  // strike (enough strikes and the election skips it); a clean listing
  // resets. Audits whose window passed during an outage are dropped
  // unjudged — we cannot tell a withholding relay from our own absence.
  if (system_->tree_mode() && !pending_relay_audit_.empty()) {
    std::unordered_set<std::string> listed;
    for (const auto& shard_list : block->shard_tx_blocks) {
      for (const auto& id : shard_list) listed.insert(IdKey(id));
    }
    for (auto it = pending_relay_audit_.begin();
         it != pending_relay_audit_.end();) {
      if (it->listing_round > block->round) {
        ++it;
        continue;
      }
      if (it->listing_round == block->round) {
        bool all_listed = true;
        for (const auto& id : it->block_ids) {
          if (listed.count(id) == 0) {
            all_listed = false;
            break;
          }
        }
        if (all_listed) {
          relay_strikes_[it->relay] = 0;
        } else {
          ++relay_strikes_[it->relay];
        }
      }
      it = pending_relay_audit_.erase(it);
    }
  }

  system_->OnBlockCommitted(*block, system_->events()->now());

  if (!from_gossip && !suppresses_gossip()) {
    GossipToPeers(kMsgCommit, msg.payload, msg.payload.size());
  }
}

}  // namespace porygon::core
