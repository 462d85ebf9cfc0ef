#ifndef PORYGON_CONSENSUS_BA_STAR_H_
#define PORYGON_CONSENSUS_BA_STAR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/status.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace porygon::consensus {

/// One committee vote. BA★ (Gilad et al., used by Blockene and Porygon's
/// OC) proceeds in two vote kinds per step: soft votes (graded consensus)
/// then cert votes; 2/3 of the committee certifying a value decides it. The
/// same structure serves the ByShard baseline's Tendermint-style engine
/// (prevote/precommit map to soft/cert).
struct Vote {
  uint64_t instance = 0;  ///< Consensus instance (round).
  uint32_t step = 0;      ///< Retry step within the instance.
  uint8_t kind = 0;       ///< 0 = soft, 1 = cert.
  crypto::Hash256 value{};
  crypto::PublicKey voter{};
  crypto::Signature signature{};

  static constexpr uint8_t kSoft = 0;
  static constexpr uint8_t kCert = 1;
  /// Encoded size: instance, step, kind, value, voter, signature.
  static constexpr size_t kWireSize = 8 + 4 + 1 + 32 + 32 + 64;

  Bytes Encode() const;
  static Result<Vote> Decode(ByteView data);
  /// Streamed forms of Encode/Decode (for DecisionCert's vote list).
  void EncodeTo(Encoder* enc) const;
  static Result<Vote> DecodeFrom(Decoder* dec);
  /// The signed portion (everything but voter + signature).
  Bytes SigningBytes() const;
};

/// Attributable proof that one committee member cast two conflicting
/// votes for the same (instance, step, kind). Both votes carry valid
/// signatures over different values, so the pair is self-certifying:
/// anyone holding the committee membership can verify the misbehavior
/// without trusting the reporter.
struct EquivocationEvidence {
  uint64_t instance = 0;
  uint32_t step = 0;
  uint8_t kind = 0;
  Vote first;   ///< The vote that was counted (first-vote-wins).
  Vote second;  ///< The conflicting vote that was rejected.
};

/// A decision certificate: the cert votes that crossed the threshold.
/// Anyone can verify it against the committee membership — this is what
/// lets messages "be verified ... even if the lifecycle of this committee
/// has ended" (§IV-B1).
struct DecisionCert {
  uint64_t instance = 0;
  crypto::Hash256 value{};
  std::vector<Vote> votes;

  size_t WireSize() const;
  Bytes Encode() const;
  static Result<DecisionCert> Decode(ByteView data);
};

/// Message-driven BA★ instance for one committee and one decision.
///
/// Happy path: each member soft-votes the leader proposal it saw; on a 2/3
/// soft quorum for v it cert-votes v; on a 2/3 cert quorum it decides v and
/// emits the certificate. `OnTimeout` implements the retry step: members
/// re-soft-vote their best-known value at a higher step, which converges
/// once the network stabilizes (honest-majority assumption per Lemma 1).
///
/// Votes are verified (signature + membership) before counting; equivocating
/// voters have only their first vote per (step, kind) counted, and the
/// conflicting pair is recorded as EquivocationEvidence (first-vote-wins
/// *plus evidence*): both votes passed signature + membership checks, so
/// a conflicting second value is attributable misbehavior, not noise.
class BaStar {
 public:
  using VoteBroadcast = std::function<void(const Vote&)>;
  using Decision = std::function<void(const DecisionCert&)>;
  using EvidenceSink = std::function<void(const EquivocationEvidence&)>;

  BaStar(crypto::CryptoProvider* provider, crypto::KeyPair identity,
         std::vector<crypto::PublicKey> committee, VoteBroadcast broadcast,
         Decision on_decision);

  /// Registry counters an embedding system can hand every BA★ instance it
  /// creates. All pointers optional; null entries are skipped.
  struct Instruments {
    obs::Counter* instances = nullptr;       ///< Propose() calls.
    obs::Counter* votes_cast = nullptr;      ///< Own soft+cert votes sent.
    obs::Counter* votes_received = nullptr;  ///< Verified peer votes.
    obs::Counter* timeouts = nullptr;        ///< Retry steps taken.
    obs::Counter* decisions = nullptr;       ///< Certificates emitted.
    /// When set, each retry step also increments a per-delay series
    /// `consensus.timeouts{delay_us=...}` so exports show the backoff
    /// schedule actually taken.
    obs::MetricsRegistry* registry = nullptr;
  };
  void set_instruments(const Instruments& instruments) {
    instruments_ = instruments;
  }

  /// Optional distributed tracing: this instance records a "ba_star" span
  /// (Propose -> decision) into `ctx`'s trace, attributed to `node`. Each
  /// committee member's instance contributes its own span, so the round
  /// lane shows consensus progress per node.
  void set_trace(obs::Tracer* tracer, const obs::TraceContext& ctx,
                 std::string node) {
    tracer_ = tracer;
    trace_ctx_ = ctx;
    trace_node_ = std::move(node);
  }

  /// Configures the retry backoff: step r waits min(base_us << r, cap_us)
  /// before OnTimeout fires again. Defaults keep a flat schedule (cap ==
  /// base) so drivers that poll at a fixed cadence are unaffected.
  void set_backoff(int64_t base_us, int64_t cap_us) {
    backoff_base_us_ = base_us;
    backoff_cap_us_ = cap_us < base_us ? base_us : cap_us;
  }

  /// Delay the timeout driver should wait before the next OnTimeout, given
  /// the current retry step: min(base << step, cap). Exposed so embedding
  /// actors can schedule without duplicating the doubling rule.
  int64_t NextTimeoutDelay() const {
    const int shift = step_ > 6 ? 6 : static_cast<int>(step_);
    const int64_t raw = backoff_base_us_ << shift;
    return raw > backoff_cap_us_ ? backoff_cap_us_ : raw;
  }

  /// Called once per newly detected equivocation (deduped per voter,
  /// step, kind). Evidence also accumulates in `evidence()` regardless.
  void set_evidence_sink(EvidenceSink sink) { evidence_sink_ = std::move(sink); }

  /// Equivocation evidence collected by this instance, in detection order.
  const std::vector<EquivocationEvidence>& evidence() const {
    return evidence_;
  }

  /// Starts the instance by soft-voting `proposal` at step 0.
  void Propose(uint64_t instance, const crypto::Hash256& proposal);

  /// Feeds a vote received from the network (self-votes are internal).
  void OnVote(const Vote& vote);

  /// Feeds a batch of buffered votes: signature checks fan out in one
  /// CryptoProvider::VerifyBatch call, then votes are counted in input
  /// order — observationally identical to a serial OnVote loop (including
  /// the early exit once a quorum decides mid-batch).
  void OnVotes(const std::vector<Vote>& votes);

  /// Advances to the next step, re-voting the value with the most soft
  /// support (fallback for lossy/adversarial schedules).
  void OnTimeout();

  /// Adopts a transferable decision certificate: verifies the cert as a
  /// unit (a cert-quorum of distinct committee signatures over the same
  /// value) and decides on it directly. Certs deliberately bypass the
  /// per-vote equivocation dedup — an equivocator whose salted cert vote
  /// reached us first has burned its (step, cert) slot in the tally, so a
  /// valid quorum that includes that voter's honest vote could never be
  /// re-assembled vote-by-vote. Returns true if the cert was adopted.
  bool AdoptCert(const DecisionCert& cert);

  bool decided() const { return decided_; }
  const crypto::Hash256& decision() const { return decision_value_; }
  uint64_t instance() const { return instance_; }
  uint32_t step() const { return step_; }
  /// Votes needed for a quorum: floor(2n/3) + 1.
  size_t QuorumSize() const { return committee_.size() * 2 / 3 + 1; }

 private:
  void CastVote(uint8_t kind, const crypto::Hash256& value);
  void Count(const Vote& vote);
  void RecordEquivocation(const Vote& second);
  bool IsMember(const crypto::PublicKey& key) const;

  crypto::CryptoProvider* provider_;
  crypto::KeyPair identity_;
  Instruments instruments_;
  obs::Tracer* tracer_ = nullptr;
  obs::TraceContext trace_ctx_;
  std::string trace_node_;
  uint64_t trace_span_ = 0;
  std::vector<crypto::PublicKey> committee_;
  VoteBroadcast broadcast_;
  Decision on_decision_;

  uint64_t instance_ = 0;
  uint32_t step_ = 0;
  int64_t backoff_base_us_ = 1'700'000;
  int64_t backoff_cap_us_ = 1'700'000;
  bool started_ = false;
  bool cert_voted_ = false;
  bool decided_ = false;
  crypto::Hash256 proposal_{};
  crypto::Hash256 decision_value_{};

  struct Key {
    uint32_t step;
    uint8_t kind;
    crypto::Hash256 value;
    bool operator<(const Key& o) const;
  };
  // (step, kind, value) -> voters counted; and voter dedupe per (step,kind).
  std::map<Key, std::set<crypto::PublicKey>> tally_;
  std::map<std::pair<uint32_t, uint8_t>, std::set<crypto::PublicKey>> voted_;
  std::map<Key, std::vector<Vote>> vote_store_;  // For certificates.

  EvidenceSink evidence_sink_;
  std::vector<EquivocationEvidence> evidence_;
  // One evidence record per (voter, step, kind): re-broadcasts of the
  // same conflicting vote do not re-report.
  std::set<std::tuple<uint32_t, uint8_t, crypto::PublicKey>> evidenced_;
};

}  // namespace porygon::consensus

#endif  // PORYGON_CONSENSUS_BA_STAR_H_
