#include "workload/traffic.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace porygon::workload {

namespace {

std::string FmtF(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string FmtU(uint64_t v) { return std::to_string(v); }

/// Splits "a,b,c" into clauses; "key:rest" into (key, rest).
std::vector<std::string> SplitClauses(const std::string& spec) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > start) out.push_back(spec.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

Status BadClause(const std::string& clause, const char* why) {
  return Status::InvalidArgument("workload clause '" + clause + "': " + why);
}

bool ParseF(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool ParseU(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

std::vector<tx::Transaction> TrafficModel::Batch(size_t n) {
  std::vector<tx::Transaction> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

size_t ArrivalProcess::CountFor(double t_s, double len_s,
                                double base_tps) const {
  if (len_s <= 0 || base_tps <= 0) return 0;
  // Midpoint rule over a fixed grid: deterministic, and fine-grained enough
  // that on/off edges land within 1/16 of a window.
  constexpr int kSteps = 16;
  const double h = len_s / kSteps;
  double total = 0;
  for (int i = 0; i < kSteps; ++i) {
    total += RateAt(t_s + (i + 0.5) * h) * h * base_tps;
  }
  return static_cast<size_t>(total + 0.5);
}

Result<Spec> Spec::Parse(const std::string& spec) {
  Spec out;
  bool model_named = false;
  for (const std::string& clause : SplitClauses(spec)) {
    const size_t colon = clause.find(':');
    const std::string key = clause.substr(0, colon);
    const std::string rest =
        colon == std::string::npos ? "" : clause.substr(colon + 1);
    auto name_model = [&](Model m) -> Status {
      if (model_named) return BadClause(clause, "second model clause");
      model_named = true;
      out.model = m;
      return Status::Ok();
    };
    if (key == "uniform") {
      PORYGON_RETURN_IF_ERROR(name_model(Model::kUniform));
      if (!rest.empty()) return BadClause(clause, "uniform takes no value");
    } else if (key == "zipf") {
      PORYGON_RETURN_IF_ERROR(name_model(Model::kZipf));
      out.zipf_s = 0.99;
      if (!rest.empty() && (!ParseF(rest, &out.zipf_s) || out.zipf_s <= 0)) {
        return BadClause(clause, "exponent must be a positive number");
      }
    } else if (key == "flashcrowd") {
      PORYGON_RETURN_IF_ERROR(name_model(Model::kFlashCrowd));
      if (!rest.empty() &&
          (!ParseU(rest, &out.hot_size) || out.hot_size == 0)) {
        return BadClause(clause, "hot-set size must be a positive integer");
      }
    } else if (key == "contract") {
      PORYGON_RETURN_IF_ERROR(name_model(Model::kContract));
      if (out.zipf_s == 0) out.zipf_s = 0.8;  // Popular contracts by default.
      uint64_t keys = 0;
      if (!rest.empty()) {
        if (!ParseU(rest, &keys) || keys < 2 || keys > 64) {
          return BadClause(clause, "keys per call must be in [2,64]");
        }
        out.contract_keys = static_cast<uint32_t>(keys);
      }
    } else if (key == "accounts") {
      if (!ParseU(rest, &out.num_accounts) || out.num_accounts < 2) {
        return BadClause(clause, "expected an integer >= 2");
      }
    } else if (key == "cross") {
      if (!ParseF(rest, &out.cross_shard_ratio) || out.cross_shard_ratio > 1) {
        return BadClause(clause, "expected a ratio in [0,1] (or negative "
                                 "for natural)");
      }
    } else if (key == "skew") {
      if (!ParseF(rest, &out.zipf_s) || out.zipf_s < 0) {
        return BadClause(clause, "expected a non-negative exponent");
      }
    } else if (key == "amount") {
      const size_t colon2 = rest.find(':');
      if (colon2 == std::string::npos ||
          !ParseU(rest.substr(0, colon2), &out.amount_min) ||
          !ParseU(rest.substr(colon2 + 1), &out.amount_max) ||
          out.amount_min < 1 || out.amount_max < out.amount_min) {
        return BadClause(clause, "expected amount:<lo>:<hi> with 1<=lo<=hi");
      }
    } else if (key == "hot") {
      if (!ParseF(rest, &out.hot_fraction) || out.hot_fraction < 0 ||
          out.hot_fraction > 1) {
        return BadClause(clause, "expected a fraction in [0,1]");
      }
    } else if (key == "rotate") {
      if (!ParseU(rest, &out.rotate_every) || out.rotate_every == 0) {
        return BadClause(clause, "expected a positive integer");
      }
    } else if (key == "contracts") {
      if (!ParseU(rest, &out.num_contracts) || out.num_contracts == 0) {
        return BadClause(clause, "expected a positive integer");
      }
    } else if (key == "seed") {
      if (!ParseU(rest, &out.seed)) {
        return BadClause(clause, "expected an integer");
      }
    } else if (key == "arrival") {
      if (rest == "constant") {
        out.arrival = Arrival::kConstant;
      } else if (rest == "bursty") {
        out.arrival = Arrival::kBursty;
      } else if (rest == "diurnal") {
        out.arrival = Arrival::kDiurnal;
      } else if (rest == "flash") {
        out.arrival = Arrival::kFlash;
      } else {
        return BadClause(clause,
                         "expected constant, bursty, diurnal, or flash");
      }
    } else if (key == "period") {
      if (!ParseF(rest, &out.period_s) || out.period_s <= 0) {
        return BadClause(clause, "expected a positive duration (seconds)");
      }
    } else if (key == "duty") {
      if (!ParseF(rest, &out.duty) || out.duty <= 0 || out.duty >= 1) {
        return BadClause(clause, "expected a fraction in (0,1)");
      }
    } else if (key == "peak") {
      if (!ParseF(rest, &out.peak) || out.peak < 1) {
        return BadClause(clause, "expected a multiplier >= 1");
      }
    } else if (key == "at") {
      if (!ParseF(rest, &out.at_s) || out.at_s < 0) {
        return BadClause(clause, "expected a non-negative time (seconds)");
      }
    } else if (key == "dur") {
      if (!ParseF(rest, &out.dur_s) || out.dur_s <= 0) {
        return BadClause(clause, "expected a positive duration (seconds)");
      }
    } else {
      return BadClause(clause, "unknown clause");
    }
  }
  if (out.model == Model::kContract &&
      out.num_contracts >= out.num_accounts) {
    return Status::InvalidArgument(
        "workload: contracts must be < accounts (contract ids occupy the "
        "bottom of the account space)");
  }
  if (out.model == Model::kFlashCrowd && out.hot_size >= out.num_accounts) {
    return Status::InvalidArgument("workload: hot-set size must be < accounts");
  }
  return out;
}

std::string Spec::ToString() const {
  std::string s;
  switch (model) {
    case Model::kUniform: s = "uniform"; break;
    case Model::kZipf: s = "zipf:" + FmtF(zipf_s); break;
    case Model::kFlashCrowd: s = "flashcrowd:" + FmtU(hot_size); break;
    case Model::kContract:
      s = "contract:" + FmtU(contract_keys);
      break;
  }
  s += ",accounts:" + FmtU(num_accounts);
  if (model == Model::kUniform && cross_shard_ratio >= 0) {
    s += ",cross:" + FmtF(cross_shard_ratio);
  }
  if (model != Model::kZipf && zipf_s > 0) s += ",skew:" + FmtF(zipf_s);
  if (amount_min != 1 || amount_max != 100) {
    s += ",amount:" + FmtU(amount_min) + ":" + FmtU(amount_max);
  }
  if (model == Model::kFlashCrowd) {
    s += ",hot:" + FmtF(hot_fraction) + ",rotate:" + FmtU(rotate_every);
  }
  if (model == Model::kContract) s += ",contracts:" + FmtU(num_contracts);
  switch (arrival) {
    case Arrival::kConstant:
      break;
    case Arrival::kBursty:
      s += ",arrival:bursty,period:" + FmtF(period_s) + ",duty:" +
           FmtF(duty) + ",peak:" + FmtF(peak);
      break;
    case Arrival::kDiurnal:
      s += ",arrival:diurnal,period:" + FmtF(period_s) + ",peak:" + FmtF(peak);
      break;
    case Arrival::kFlash:
      s += ",arrival:flash,at:" + FmtF(at_s) + ",dur:" + FmtF(dur_s) +
           ",peak:" + FmtF(peak);
      break;
  }
  s += ",seed:" + FmtU(seed);
  return s;
}

std::unique_ptr<TrafficModel> Spec::BuildModel() const {
  switch (model) {
    case Model::kUniform:
      return std::make_unique<UniformTrafficModel>(*this);
    case Model::kZipf:
      return std::make_unique<ZipfTrafficModel>(*this);
    case Model::kFlashCrowd:
      return std::make_unique<FlashCrowdTrafficModel>(*this);
    case Model::kContract:
      return std::make_unique<ContractTrafficModel>(*this);
  }
  return std::make_unique<ZipfTrafficModel>(*this);
}

std::unique_ptr<ArrivalProcess> Spec::BuildArrival() const {
  switch (arrival) {
    case Arrival::kConstant:
      return std::make_unique<ConstantArrival>();
    case Arrival::kBursty:
      return std::make_unique<BurstyArrival>(period_s, duty, peak);
    case Arrival::kDiurnal:
      return std::make_unique<DiurnalArrival>(period_s, peak);
    case Arrival::kFlash:
      return std::make_unique<FlashArrival>(at_s, dur_s, peak);
  }
  return std::make_unique<ConstantArrival>();
}

// --- UniformTrafficModel ---------------------------------------------------

UniformTrafficModel::UniformTrafficModel(const Spec& spec)
    : spec_(spec), rng_(spec.seed) {}

state::AccountId UniformTrafficModel::PickSender() {
  if (spec_.zipf_s > 0) {
    return 1 + rng_.NextZipf(spec_.num_accounts, spec_.zipf_s);
  }
  return 1 + rng_.NextBelow(spec_.num_accounts);
}

state::AccountId UniformTrafficModel::PickReceiver(state::AccountId sender) {
  const int bits = spec_.shard_bits;
  if (spec_.cross_shard_ratio < 0 || bits == 0) {
    // Natural: any other account.
    for (int tries = 0; tries < 64; ++tries) {
      state::AccountId r = 1 + rng_.NextBelow(spec_.num_accounts);
      if (r != sender) return r;
    }
    return sender == 1 ? 2 : 1;
  }
  const bool want_cross = rng_.NextBernoulli(spec_.cross_shard_ratio);
  const uint32_t sender_shard = state::ShardOfAccount(sender, bits);
  for (int tries = 0; tries < 256; ++tries) {
    state::AccountId r = 1 + rng_.NextBelow(spec_.num_accounts);
    if (r == sender) continue;
    bool cross = state::ShardOfAccount(r, bits) != sender_shard;
    if (cross == want_cross) return r;
  }
  return sender == 1 ? 2 : 1;  // Degenerate account spaces.
}

tx::Transaction UniformTrafficModel::Next() {
  tx::Transaction t;
  t.from = PickSender();
  t.to = PickReceiver(t.from);
  t.amount = rng_.NextInRange(spec_.amount_min, spec_.amount_max);
  t.nonce = nonces_[t.from]++;
  return t;
}

std::string UniformTrafficModel::Describe() const {
  std::string s = "{\"model\":\"uniform\",\"accounts\":" +
                  FmtU(spec_.num_accounts);
  if (spec_.cross_shard_ratio >= 0) {
    s += ",\"cross\":" + FmtF(spec_.cross_shard_ratio);
  }
  if (spec_.zipf_s > 0) s += ",\"s\":" + FmtF(spec_.zipf_s);
  s += ",\"seed\":" + FmtU(spec_.seed) + "}";
  return s;
}

// --- ZipfTrafficModel ------------------------------------------------------

ZipfTrafficModel::ZipfTrafficModel(const Spec& spec)
    : spec_(spec), rng_(spec.seed) {
  if (spec_.zipf_s <= 0) spec_.zipf_s = 0.99;
}

tx::Transaction ZipfTrafficModel::Next() {
  const uint64_t n = spec_.num_accounts;
  tx::Transaction t;
  t.from = 1 + rng_.NextZipf(n, spec_.zipf_s);
  for (int tries = 0; tries < 64; ++tries) {
    state::AccountId r = 1 + rng_.NextZipf(n, spec_.zipf_s);
    if (r != t.from) {
      t.to = r;
      break;
    }
  }
  if (t.to == 0) t.to = t.from == 1 ? 2 : 1;
  t.amount = rng_.NextInRange(spec_.amount_min, spec_.amount_max);
  t.nonce = nonces_[t.from]++;
  return t;
}

std::string ZipfTrafficModel::Describe() const {
  return "{\"model\":\"zipf\",\"s\":" + FmtF(spec_.zipf_s) +
         ",\"accounts\":" + FmtU(spec_.num_accounts) +
         ",\"seed\":" + FmtU(spec_.seed) + "}";
}

// --- FlashCrowdTrafficModel ------------------------------------------------

FlashCrowdTrafficModel::FlashCrowdTrafficModel(const Spec& spec)
    : spec_(spec), rng_(spec.seed) {}

state::AccountId FlashCrowdTrafficModel::HotBaseFor(uint64_t n) const {
  const uint64_t epoch = n / spec_.rotate_every;
  const uint64_t span = spec_.num_accounts - spec_.hot_size;
  // Large odd stride walks the account space without revisiting quickly.
  return 1 + (epoch * (spec_.hot_size * 17 + 1)) % (span + 1);
}

tx::Transaction FlashCrowdTrafficModel::Next() {
  const uint64_t n = spec_.num_accounts;
  const state::AccountId hot_base = HotBaseFor(emitted_);
  ++emitted_;
  tx::Transaction t;
  t.from = 1 + rng_.NextBelow(n);
  const bool hot = rng_.NextBernoulli(spec_.hot_fraction);
  for (int tries = 0; tries < 64; ++tries) {
    state::AccountId r = hot ? hot_base + rng_.NextBelow(spec_.hot_size)
                             : 1 + rng_.NextBelow(n);
    if (r != t.from) {
      t.to = r;
      break;
    }
  }
  if (t.to == 0) t.to = t.from == 1 ? 2 : 1;
  t.amount = rng_.NextInRange(spec_.amount_min, spec_.amount_max);
  t.nonce = nonces_[t.from]++;
  return t;
}

std::string FlashCrowdTrafficModel::Describe() const {
  return "{\"model\":\"flashcrowd\",\"hot_size\":" + FmtU(spec_.hot_size) +
         ",\"hot_fraction\":" + FmtF(spec_.hot_fraction) +
         ",\"rotate_every\":" + FmtU(spec_.rotate_every) +
         ",\"accounts\":" + FmtU(spec_.num_accounts) +
         ",\"seed\":" + FmtU(spec_.seed) + "}";
}

// --- ContractTrafficModel --------------------------------------------------

ContractTrafficModel::ContractTrafficModel(const Spec& spec)
    : spec_(spec), rng_(spec.seed) {
  if (spec_.zipf_s <= 0) spec_.zipf_s = 0.8;
}

void ContractTrafficModel::GenerateCall() {
  // Contract ids occupy [1, num_contracts]; user keys the rest of the space.
  // Every transfer of a call deposits into the call's contract: the
  // contract never spends, so its client-side nonce never diverges when a
  // conflicting transfer is discarded, and a call's contention comes purely
  // from its shared write target (the §IV-D2 conflict-discard regime).
  const state::AccountId contract =
      1 + rng_.NextZipf(spec_.num_contracts, spec_.zipf_s);
  const uint64_t user_span = spec_.num_accounts - spec_.num_contracts;
  for (uint32_t i = 0; i + 1 < spec_.contract_keys; ++i) {
    state::AccountId user =
        spec_.num_contracts + 1 + rng_.NextBelow(user_span);
    tx::Transaction t;
    t.from = user;
    t.to = contract;
    t.amount = rng_.NextInRange(spec_.amount_min, spec_.amount_max);
    t.nonce = nonces_[t.from]++;
    queue_.push_back(t);
  }
}

tx::Transaction ContractTrafficModel::Next() {
  if (queue_.empty()) GenerateCall();
  tx::Transaction t = queue_.front();
  queue_.pop_front();
  return t;
}

std::string ContractTrafficModel::Describe() const {
  return "{\"model\":\"contract\",\"keys_per_call\":" +
         FmtU(spec_.contract_keys) +
         ",\"contracts\":" + FmtU(spec_.num_contracts) +
         ",\"contract_skew\":" + FmtF(spec_.zipf_s) +
         ",\"accounts\":" + FmtU(spec_.num_accounts) +
         ",\"seed\":" + FmtU(spec_.seed) + "}";
}

// --- Arrival processes -----------------------------------------------------

std::string ConstantArrival::Describe() const {
  return "{\"arrival\":\"constant\"}";
}

BurstyArrival::BurstyArrival(double period_s, double duty, double peak)
    : period_s_(period_s), duty_(duty), peak_(peak) {
  // Off-rate keeps the long-run mean at 1 while the on-window runs at
  // `peak`; saturating at 0 when the bursts alone exceed the mean budget.
  const double off = (1.0 - duty_ * peak_) / (1.0 - duty_);
  off_rate_ = off > 0 ? off : 0;
}

double BurstyArrival::RateAt(double t_s) const {
  const double phase = std::fmod(t_s, period_s_);
  return phase < duty_ * period_s_ ? peak_ : off_rate_;
}

std::string BurstyArrival::Describe() const {
  return "{\"arrival\":\"bursty\",\"period_s\":" + FmtF(period_s_) +
         ",\"duty\":" + FmtF(duty_) + ",\"peak\":" + FmtF(peak_) + "}";
}

DiurnalArrival::DiurnalArrival(double period_s, double peak)
    : period_s_(period_s),
      amplitude_(peak - 1 < 1 ? (peak - 1 > 0 ? peak - 1 : 0) : 1) {}

double DiurnalArrival::RateAt(double t_s) const {
  constexpr double kTau = 6.283185307179586;
  return 1.0 + amplitude_ * std::sin(kTau * t_s / period_s_);
}

std::string DiurnalArrival::Describe() const {
  return "{\"arrival\":\"diurnal\",\"period_s\":" + FmtF(period_s_) +
         ",\"amplitude\":" + FmtF(amplitude_) + "}";
}

FlashArrival::FlashArrival(double at_s, double dur_s, double peak)
    : at_s_(at_s), dur_s_(dur_s), peak_(peak) {}

double FlashArrival::RateAt(double t_s) const {
  return (t_s >= at_s_ && t_s < at_s_ + dur_s_) ? peak_ : 1.0;
}

std::string FlashArrival::Describe() const {
  return "{\"arrival\":\"flash\",\"at_s\":" + FmtF(at_s_) +
         ",\"dur_s\":" + FmtF(dur_s_) + ",\"peak\":" + FmtF(peak_) + "}";
}

}  // namespace porygon::workload
