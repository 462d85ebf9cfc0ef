#ifndef PORYGON_CORE_PARAMS_H_
#define PORYGON_CORE_PARAMS_H_

#include <cstddef>
#include <cstdint>

namespace porygon::core {

/// System-wide protocol parameters (paper §III, §VI "Implementation and
/// Setup"). Defaults reproduce the prototype configuration: 1 MB/s stateless
/// nodes, ~2,000-tx transaction blocks, Tw = 10 witness signatures.
struct Params {
  // --- Sharding ---------------------------------------------------------
  /// Accounts and ESCs shard by the last `shard_bits` bits; 2^shard_bits
  /// shards.
  int shard_bits = 1;

  // --- Committees -------------------------------------------------------
  /// Fraction of the stateless pool whose VRF values select them into the
  /// Ordering Committee each round (smallest values, §IV-B3).
  double ordering_fraction = 0.1;
  /// Fraction selected into the round's new Execution Committee.
  double execution_fraction = 0.6;
  /// Witness threshold Tw: proofs required before a transaction block is
  /// eligible for ordering (> upper bound of corrupted members; prototype
  /// uses 10).
  int witness_threshold = 10;
  /// Execution threshold Te: identical signed roots required per shard
  /// (> number of malicious members).
  int execution_threshold = 3;
  /// EC lifetime in rounds (witness, cross-batch witness, execute).
  int pipeline_depth = 3;

  // --- Blocks & transactions --------------------------------------------
  /// Max transactions per transaction block (prototype: ~2,000).
  size_t block_tx_limit = 2000;
  /// Rounds a cross-shard transaction may stay uncommitted before the OC
  /// triggers a rollback (§IV-D2: "e.g., two rounds").
  int cross_shard_retry_rounds = 2;

  // --- Network -----------------------------------------------------------
  /// Stateless-node bandwidth (bytes/s); paper: 1 MB/s.
  double stateless_bps = 1e6;
  /// Storage-node bandwidth (well-provisioned servers).
  double storage_bps = 100e6;
  /// Base one-way latency between storage and stateless nodes (µs);
  /// paper simulation: 0.5 ms.
  int64_t latency_us = 500;
  /// Uniform jitter added to latency (µs).
  int64_t latency_jitter_us = 100;
  /// Storage connections per stateless node (m = 20, §V).
  int storage_connections = 20;

  // --- Round pacing ------------------------------------------------------
  /// Committee (re)formation interval: the paper's simulation models this as
  /// "a fixed interval of 2 seconds plus random numerical values".
  int64_t reconfig_interval_us = 2'000'000;
  /// Per-phase budget within a round (prototype: phases average 1.7 s).
  int64_t phase_interval_us = 1'700'000;
  /// BA* retry backoff cap: retry r waits min(phase_interval_us << r, cap).
  int64_t consensus_backoff_cap_us = 6'800'000;

  // --- Storage-link failover (runtime health model, §IV-B Challenge 1) ----
  /// Per-request deadline on storage-bound traffic (relays, state
  /// requests): if the primary stays silent past it, the request is
  /// retransmitted and a strike is recorded. Sized above the worst healthy
  /// commit -> next-NewRound gap so quiet-but-live primaries don't strike.
  int64_t storage_timeout_us = 2'500'000;
  /// Retransmission backoff cap (deadline k waits
  /// min(storage_timeout_us << k, cap)).
  int64_t storage_backoff_cap_us = 10'000'000;
  /// Consecutive silent-primary strikes before rotating to the next
  /// connected storage node.
  int storage_failover_strikes = 3;
  /// Deadline firings per tracked request before it is abandoned (bounds
  /// the event chain so a dead system drains its queue).
  int storage_retry_limit = 5;
  /// Round watchdog: with no fresh NewRound for this long, rotate the
  /// primary and ask the new one for the chain tip (kMsgResync).
  int64_t storage_watchdog_us = 8'000'000;
  /// Watchdog rotations+resyncs allowed per silent stretch (refilled on
  /// every fresh NewRound; bounds the watchdog event chain).
  int storage_resync_budget = 3;
  /// Recovery probing: after rotating away from the preferred (original)
  /// primary, probe it at this interval and readopt it if it answers.
  int64_t storage_probe_us = 4'000'000;
  /// Probes per rotation before giving up on readoption.
  int storage_probe_limit = 4;

  int shard_count() const { return 1 << shard_bits; }
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_PARAMS_H_
