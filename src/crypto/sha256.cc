#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/sha256_kernels.h"

namespace porygon::crypto {

namespace {
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

namespace detail {

void Sha256CompressScalar(uint32_t state[8], const uint8_t* data,
                          size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = LoadBigEndian32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

bool Sha256HasShaNi() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool sse = (c & bit_SSSE3) != 0 && (c & bit_SSE4_1) != 0;
  if (!sse || !__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_SHA) != 0;
}

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH (high lane first). sha256rnds2 runs two rounds on the low two
// message+constant words; sha256msg1/msg2 extend the schedule one quad of
// words at a time from the four quads before it.
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[i & 3] holds W[4i..4i+3] for the quad of rounds being run.
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i wk = _mm_add_epi32(
          msg[q & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (q < 12) {
        __m128i next = _mm_sha256msg1_epu32(msg[q & 3], msg[(q + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(msg[(q + 3) & 3], msg[(q + 2) & 3], 4));
        msg[q & 3] = _mm_sha256msg2_epu32(next, msg[(q + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#else

bool Sha256HasShaNi() { return false; }

void Sha256CompressShaNi(uint32_t state[8], const uint8_t* data,
                         size_t blocks) {
  Sha256CompressScalar(state, data, blocks);
}

#endif

Sha256CompressFn Sha256Compress() {
  static const Sha256CompressFn kernel =
      Sha256HasShaNi() ? Sha256CompressShaNi : Sha256CompressScalar;
  return kernel;
}

}  // namespace detail

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::Update(ByteView data) {
  length_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  const detail::Sha256CompressFn compress = detail::Sha256Compress();
  if (buffered_ > 0) {
    size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof(buffer_)) {
      compress(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  if (n >= 64) {
    compress(state_, p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Hash256 Sha256::Finish() {
  // Padding: 0x80, zeros up to byte 56 of the last block (spilling into one
  // extra block when fewer than 8 bytes are left), then the bit length.
  const detail::Sha256CompressFn compress = detail::Sha256Compress();
  const uint64_t bit_length = length_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
    compress(state_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  StoreBigEndian64(buffer_ + 56, bit_length);
  compress(state_, buffer_, 1);
  Hash256 out;
  for (int i = 0; i < 8; ++i) StoreBigEndian32(out.data() + 4 * i, state_[i]);
  return out;
}

Hash256 Sha256::Hash(ByteView data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Hash256 Sha256::HashPair(ByteView a, ByteView b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

std::string HashToHex(const Hash256& h) {
  return HexEncode(ByteView(h.data(), h.size()));
}

bool HashLess(const Hash256& a, const Hash256& b) {
  return std::memcmp(a.data(), b.data(), a.size()) < 0;
}

uint64_t HashPrefixU64(const Hash256& h) { return LoadBigEndian64(h.data()); }

Hash256 ZeroHash() {
  Hash256 h;
  h.fill(0);
  return h;
}

}  // namespace porygon::crypto
