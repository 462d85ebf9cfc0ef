// Tests for SHA-256 and SHA-512 against FIPS 180-4 / NIST example vectors.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/sha512.h"

namespace porygon::crypto {
namespace {

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(std::string_view("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(std::string_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(std::string_view(msg)))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(ByteView(std::string_view(chunk)));
  EXPECT_EQ(HashToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries at odd offsets. 0123456789.";
  auto oneshot = Sha256::Hash(ByteView(std::string_view(msg)));
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.Update(ByteView(std::string_view(msg).substr(0, split)));
    h.Update(ByteView(std::string_view(msg).substr(split)));
    EXPECT_EQ(h.Finish(), oneshot) << "split at " << split;
  }
}

TEST(Sha256Test, HashPairMatchesConcatenation) {
  Bytes a = ToBytes("left-subtree");
  Bytes b = ToBytes("right-subtree");
  Bytes ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(Sha256::HashPair(a, b), Sha256::Hash(ab));
}

TEST(Sha256Test, PrefixU64IsBigEndian) {
  Hash256 h;
  h.fill(0);
  h[0] = 0x01;
  h[7] = 0xff;
  EXPECT_EQ(HashPrefixU64(h), 0x01000000000000ffULL);
}

// Lengths on both sides of every padding boundary: Finish() spills into a
// second block once the 0x80 marker leaves fewer than 8 bytes for the
// length (55 fits in one block, 56 does not), and 64/119/120/128 repeat the
// split one block later. Digests of n x 'a' from an independent
// implementation.
TEST(Sha256Test, PaddingBoundaryVectors) {
  const struct {
    size_t length;
    const char* hex;
  } kVectors[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"},
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
      {128,
       "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
  };
  for (const auto& v : kVectors) {
    const std::string msg(v.length, 'a');
    const std::string_view view(msg);
    EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(view))), v.hex)
        << "length " << v.length;
    for (size_t split = 0; split <= msg.size(); ++split) {
      Sha256 h;
      h.Update(ByteView(view.substr(0, split)));
      h.Update(ByteView(view.substr(split)));
      EXPECT_EQ(HashToHex(h.Finish()), v.hex)
          << "length " << v.length << " split at " << split;
    }
  }
}

// The scalar rounds and the SHA-NI kernel must agree on every block, from
// any chaining state, whether blocks arrive one at a time or in a run.
TEST(Sha256Test, KernelsAgreeBlockByBlock) {
  if (!detail::Sha256HasShaNi()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; only the scalar kernel runs";
  }
  Rng rng(7);
  uint32_t scalar[8], shani[8];
  for (uint32_t& w : scalar) w = static_cast<uint32_t>(rng.NextU64());
  std::memcpy(shani, scalar, sizeof(scalar));
  for (int i = 0; i < 256; ++i) {
    Bytes block = rng.NextBytes(64);
    detail::Sha256CompressScalar(scalar, block.data(), 1);
    detail::Sha256CompressShaNi(shani, block.data(), 1);
    ASSERT_EQ(std::memcmp(scalar, shani, sizeof(scalar)), 0) << "block " << i;
  }
  Bytes run = rng.NextBytes(64 * 9);
  detail::Sha256CompressScalar(scalar, run.data(), 9);
  detail::Sha256CompressShaNi(shani, run.data(), 9);
  EXPECT_EQ(std::memcmp(scalar, shani, sizeof(scalar)), 0);
}

TEST(Sha256Test, DispatchPicksShaNiWhenPresent) {
  EXPECT_EQ(detail::Sha256Compress(), detail::Sha256HasShaNi()
                                          ? detail::Sha256CompressShaNi
                                          : detail::Sha256CompressScalar);
}

TEST(Sha512Test, EmptyInput) {
  auto d = Sha512::Hash(ByteView(std::string_view("")));
  EXPECT_EQ(HexEncode(ByteView(d.data(), d.size())),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  auto d = Sha512::Hash(ByteView(std::string_view("abc")));
  EXPECT_EQ(HexEncode(ByteView(d.data(), d.size())),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  const std::string msg =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  auto d = Sha512::Hash(ByteView(std::string_view(msg)));
  EXPECT_EQ(HexEncode(ByteView(d.data(), d.size())),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, IncrementalMatchesOneShot) {
  std::string msg(300, 'x');
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<char>(i * 7);
  auto oneshot = Sha512::Hash(ByteView(std::string_view(msg)));
  Sha512 h;
  h.Update(ByteView(std::string_view(msg).substr(0, 129)));
  h.Update(ByteView(std::string_view(msg).substr(129)));
  EXPECT_EQ(h.Finish(), oneshot);
}

}  // namespace
}  // namespace porygon::crypto
