#ifndef PORYGON_CRYPTO_SHA256_KERNELS_H_
#define PORYGON_CRYPTO_SHA256_KERNELS_H_

// SHA-256 block-compression kernels behind Sha256. Internal: callers hash
// through Sha256; tests and micro benches reach the kernels here to check
// and time each one on its own.

#include <cstddef>
#include <cstdint>

namespace porygon::crypto::detail {

/// A compression kernel: folds `blocks` consecutive 64-byte blocks at
/// `data` into the eight-word chaining `state`.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                                  size_t blocks);

/// Portable FIPS 180-4 rounds; runs on every host.
void Sha256CompressScalar(uint32_t state[8], const uint8_t* data,
                          size_t blocks);

/// x86 SHA extensions kernel. Call only when Sha256HasShaNi() is true.
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* data,
                         size_t blocks);

/// True when the CPU has the SHA extensions plus SSSE3 and SSE4.1.
bool Sha256HasShaNi();

/// The kernel Sha256 uses, chosen once per process: SHA-NI when the CPU
/// has it, the scalar rounds otherwise.
Sha256CompressFn Sha256Compress();

}  // namespace porygon::crypto::detail

#endif  // PORYGON_CRYPTO_SHA256_KERNELS_H_
