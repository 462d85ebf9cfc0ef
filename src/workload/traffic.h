#ifndef PORYGON_WORKLOAD_TRAFFIC_H_
#define PORYGON_WORKLOAD_TRAFFIC_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "state/account.h"
#include "tx/transaction.h"

namespace porygon::workload {

/// What a traffic source looks like to every driver (benches, examples,
/// the scenario matrix): a deterministic stream of executable transactions
/// plus a self-description for the bench JSON envelope. Implementations own
/// their RNG (seeded from their Spec), track client-side nonces so streams
/// are executable, and never touch global state — two models with the same
/// spec produce byte-identical streams on any thread count.
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  /// Next transaction (submitted_at is stamped by the target system).
  virtual tx::Transaction Next() = 0;

  /// Convenience: `n` transactions via Next().
  virtual std::vector<tx::Transaction> Batch(size_t n);

  /// Deterministic JSON object describing this model's shape — embedded
  /// verbatim in bench envelopes and scenario-matrix rows.
  virtual std::string Describe() const = 0;
};

/// When transactions arrive, decoupled from what they contain. An arrival
/// process is a deterministic rate-multiplier curve over sim time with mean
/// ~1, so `offered_tps` in a driver stays the long-run average while the
/// instantaneous rate models constant, bursty on/off, diurnal, or
/// flash-crowd load.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Rate multiplier at sim time `t_s` (seconds). Pure function of time —
  /// no internal state, so replaying a window yields the same counts.
  virtual double RateAt(double t_s) const = 0;

  /// Deterministic JSON object for the bench envelope.
  virtual std::string Describe() const = 0;

  /// Transactions to offer for the window [t_s, t_s + len_s) at a long-run
  /// average of `base_tps`: numerically integrates RateAt over the window.
  size_t CountFor(double t_s, double len_s, double base_tps) const;
};

/// Parsed `--workload=<spec>` clause list: which TrafficModel to build, its
/// parameters, and the arrival process shaping submission timing. Like
/// net::FaultPlan and core::AdversarySpec, a Spec is data — parsed from a
/// CLI string, built programmatically in tests, logged canonically, and
/// replayed.
struct Spec {
  enum class Model { kUniform, kZipf, kFlashCrowd, kContract };
  enum class Arrival { kConstant, kBursty, kDiurnal, kFlash };

  Model model = Model::kUniform;
  /// Total distinct account ids the stream may touch (ids 1..num_accounts).
  /// Models materialize nothing up front — pair with
  /// PorygonSystem::CreateAccountsLazy for O(1) setup at any account count.
  uint64_t num_accounts = 10'000;
  /// Shard bits of the target system (drives the uniform model's controlled
  /// cross-shard ratio). Not a CLI clause: drivers copy it from their
  /// SystemOptions after parsing.
  int shard_bits = 1;
  /// Uniform model: probability a transfer crosses shards (negative =
  /// natural ratio from uniform receivers).
  double cross_shard_ratio = -1.0;
  /// Zipf exponent: sender skew for `uniform` (0 = uniform draw), endpoint
  /// skew for `zipf`, contract-popularity skew for `contract`.
  double zipf_s = 0.0;
  uint64_t amount_min = 1;
  uint64_t amount_max = 100;
  uint64_t seed = 1;

  // --- flashcrowd parameters --------------------------------------------
  /// Accounts in the current hot set.
  uint64_t hot_size = 64;
  /// Fraction of traffic aimed at the hot set.
  double hot_fraction = 0.9;
  /// Transactions between hot-set rotations.
  uint64_t rotate_every = 20'000;

  // --- contract parameters ----------------------------------------------
  /// Accounts touched per contract call (1 contract + keys-1 user keys).
  uint32_t contract_keys = 4;
  /// Distinct contract accounts (ids 1..num_contracts, Zipf-popular).
  uint64_t num_contracts = 16;

  // --- arrival process ---------------------------------------------------
  Arrival arrival = Arrival::kConstant;
  double period_s = 60.0;  ///< bursty/diurnal cycle length.
  double duty = 0.25;      ///< bursty: fraction of the period spent "on".
  double peak = 4.0;       ///< bursty/diurnal/flash peak rate multiplier.
  double at_s = 20.0;      ///< flash: spike start (sim seconds).
  double dur_s = 10.0;     ///< flash: spike duration.

  /// Parses a CLI spec of comma-separated clauses. The first kind of clause
  /// names the model (default `uniform`):
  ///
  ///   uniform                     uniform transfers (UniformTrafficModel)
  ///   zipf[:<s>]                  Zipfian endpoint skew, exponent s (0.99)
  ///   flashcrowd[:<hot_size>]     rotating hot account sets
  ///   contract[:<keys>]           multi-key contract-like calls
  ///
  /// plus parameter clauses:
  ///
  ///   accounts:<n>   account-space size (default 10000)
  ///   cross:<f>      uniform: controlled cross-shard ratio
  ///   skew:<s>       Zipf exponent override (any model)
  ///   amount:<lo>:<hi>  transfer amounts (default 1:100)
  ///   hot:<f>        flashcrowd: hot-set traffic fraction (default 0.9)
  ///   rotate:<n>     flashcrowd: txs per hot-set rotation (default 20000)
  ///   contracts:<n>  contract: distinct contract accounts (default 16)
  ///   seed:<n>       model RNG seed (default 1)
  ///
  /// and arrival clauses:
  ///
  ///   arrival:<constant|bursty|diurnal|flash>   (default constant)
  ///   period:<s>  duty:<f>  peak:<x>  at:<s>  dur:<s>
  ///
  /// e.g. "zipf:0.99,accounts:1000000" or
  /// "flashcrowd:64,hot:0.9,rotate:20000,arrival:bursty,peak:4,duty:0.25".
  /// Returns kInvalidArgument naming the bad clause.
  static Result<Spec> Parse(const std::string& spec);

  /// Canonical round-trippable form (Parse(ToString()) == *this).
  std::string ToString() const;

  /// Builds the model this spec describes (never null).
  std::unique_ptr<TrafficModel> BuildModel() const;
  /// Builds the arrival process (never null; constant by default).
  std::unique_ptr<ArrivalProcess> BuildArrival() const;
};

/// Uniform transfer workload, the paper's default traffic: senders uniform
/// over the account space (Zipf-skewed when `zipf_s > 0`); receivers any
/// other account, or drawn to hit `cross_shard_ratio` when it is set (>= 0)
/// and the system is sharded. Account ids are 1..num_accounts — fund them
/// via CreateAccounts (or lazily via CreateAccountsLazy) before running.
class UniformTrafficModel : public TrafficModel {
 public:
  explicit UniformTrafficModel(const Spec& spec);

  tx::Transaction Next() override;
  std::string Describe() const override;

 private:
  state::AccountId PickSender();
  state::AccountId PickReceiver(state::AccountId sender);

  Spec spec_;
  Rng rng_;
  std::unordered_map<state::AccountId, uint64_t> nonces_;
};

/// Zipfian hot-account workload: both endpoints are drawn from a Zipf
/// distribution over the account space (rank 0 = account 1 is hottest), so
/// a small set of accounts carries most of the traffic and inter-transaction
/// conflicts concentrate — the regime where parallel execution engines
/// differentiate (Reddio parallel-EVM, PAPERS.md).
class ZipfTrafficModel : public TrafficModel {
 public:
  explicit ZipfTrafficModel(const Spec& spec);

  tx::Transaction Next() override;
  std::string Describe() const override;

 private:
  Spec spec_;
  Rng rng_;
  std::unordered_map<state::AccountId, uint64_t> nonces_;
};

/// Flash-crowd workload: a rotating hot set of `hot_size` accounts absorbs
/// `hot_fraction` of all receivers (an NFT mint / exchange listing pattern);
/// every `rotate_every` transactions the crowd moves to a fresh window of
/// the account space, so hot shards change over a run.
class FlashCrowdTrafficModel : public TrafficModel {
 public:
  explicit FlashCrowdTrafficModel(const Spec& spec);

  tx::Transaction Next() override;
  std::string Describe() const override;

  /// First account id of the hot set active for transaction ordinal `n`
  /// (exposed for tests; deterministic in `n` alone).
  state::AccountId HotBaseFor(uint64_t n) const;

 private:
  Spec spec_;
  Rng rng_;
  uint64_t emitted_ = 0;
  std::unordered_map<state::AccountId, uint64_t> nonces_;
};

/// Contract-like workload: each "call" touches one Zipf-popular contract
/// account plus `contract_keys - 1` uniform user keys, emitted as a burst
/// of deposits that all share the contract account (the declared
/// read/write set of each transfer is {from, to}, so a k-key call's
/// explicit read/write set is the union of its transfers' access sets:
/// the contract plus its users). Every call serializes on its contract —
/// maximal write contention on a few keys, the worst case for §IV-D2
/// conflict discards.
class ContractTrafficModel : public TrafficModel {
 public:
  explicit ContractTrafficModel(const Spec& spec);

  tx::Transaction Next() override;
  std::string Describe() const override;

 private:
  void GenerateCall();

  Spec spec_;
  Rng rng_;
  std::deque<tx::Transaction> queue_;  ///< Remaining transfers of the call.
  std::unordered_map<state::AccountId, uint64_t> nonces_;
};

/// Constant-rate arrival: multiplier 1 everywhere.
class ConstantArrival : public ArrivalProcess {
 public:
  double RateAt(double) const override { return 1.0; }
  std::string Describe() const override;
};

/// On/off square wave: rate `peak` for the first `duty` of each period,
/// then a reduced off-rate chosen so the long-run mean stays 1 (0 when
/// duty * peak >= 1).
class BurstyArrival : public ArrivalProcess {
 public:
  BurstyArrival(double period_s, double duty, double peak);
  double RateAt(double t_s) const override;
  std::string Describe() const override;

 private:
  double period_s_, duty_, peak_, off_rate_;
};

/// Sinusoidal day/night curve with mean 1: 1 + a*sin(2*pi*t/period), where
/// the amplitude a = min(peak - 1, 1) keeps the rate non-negative.
class DiurnalArrival : public ArrivalProcess {
 public:
  DiurnalArrival(double period_s, double peak);
  double RateAt(double t_s) const override;
  std::string Describe() const override;

 private:
  double period_s_, amplitude_;
};

/// Baseline 1 with a flash spike: rate `peak` during [at, at + dur).
class FlashArrival : public ArrivalProcess {
 public:
  FlashArrival(double at_s, double dur_s, double peak);
  double RateAt(double t_s) const override;
  std::string Describe() const override;

 private:
  double at_s_, dur_s_, peak_;
};

}  // namespace porygon::workload

#endif  // PORYGON_WORKLOAD_TRAFFIC_H_
