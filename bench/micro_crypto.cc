// Substrate microbenchmarks: hashing, Ed25519, VRF sortition.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/sha512.h"
#include "crypto/vrf.h"

namespace {
using namespace porygon;
using namespace porygon::crypto;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 40 B is a transaction body (Transaction::Id), 65 B an SMT inner node.
BENCHMARK(BM_Sha256)->Arg(40)->Arg(64)->Arg(65)->Arg(1024)->Arg(65536);

// One 64-byte block through each compression kernel, without padding or
// the dispatch Sha256 does.
void BM_Sha256Kernel(benchmark::State& state,
                     detail::Sha256CompressFn compress) {
  Rng rng(7);
  Bytes block = rng.NextBytes(64);
  uint32_t chain[8] = {};
  for (auto _ : state) {
    compress(chain, block.data(), 1);
    benchmark::DoNotOptimize(chain);
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK_CAPTURE(BM_Sha256Kernel, scalar, detail::Sha256CompressScalar);

void BM_Sha256KernelShaNi(benchmark::State& state) {
  if (!detail::Sha256HasShaNi()) {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  BM_Sha256Kernel(state, detail::Sha256CompressShaNi);
}
BENCHMARK(BM_Sha256KernelShaNi);

void BM_Sha512(benchmark::State& state) {
  Rng rng(2);
  Bytes data = rng.NextBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(65536);

void BM_Ed25519Sign(benchmark::State& state) {
  Rng rng(3);
  KeyPair kp = Ed25519GenerateKeyPair(&rng);
  Bytes msg = rng.NextBytes(112);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Sign(kp.private_key, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  Rng rng(4);
  KeyPair kp = Ed25519GenerateKeyPair(&rng);
  Bytes msg = rng.NextBytes(112);
  Signature sig = Ed25519Sign(kp.private_key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_VrfProveAndVerify(benchmark::State& state) {
  Rng rng(5);
  KeyPair kp = Ed25519GenerateKeyPair(&rng);
  Bytes input = rng.NextBytes(40);
  for (auto _ : state) {
    VrfProof p = VrfProve(kp.private_key, input);
    benchmark::DoNotOptimize(VrfVerify(kp.public_key, input, p));
  }
}
BENCHMARK(BM_VrfProveAndVerify);

void BM_FastProviderSign(benchmark::State& state) {
  Rng rng(6);
  FastProvider provider;
  KeyPair kp = provider.GenerateKeyPair(&rng);
  Bytes msg = rng.NextBytes(112);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Sign(kp.private_key, msg));
  }
}
BENCHMARK(BM_FastProviderSign);

}  // namespace

BENCHMARK_MAIN();
