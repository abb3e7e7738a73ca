// Unit tests for the util substrate: MD5 (RFC 1321 vectors), AUIDs, byte
// parsing, strings, stats and the deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "util/auid.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strf.hpp"
#include "util/strings.hpp"

namespace bitdew {
namespace {

using util::Auid;
using util::Md5;

// --- MD5: the complete RFC 1321 appendix A.5 test suite -------------------

struct Md5Vector {
  const char* input;
  const char* digest;
};

class Md5Rfc1321 : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5Rfc1321, MatchesReferenceDigest) {
  EXPECT_EQ(Md5::of(GetParam().input).hex(), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Rfc1321,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678901234"
                  "5678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, StreamingMatchesOneShot) {
  // Splitting the input at every possible position must not change the digest
  // (exercises the 64-byte block buffering edge cases).
  const std::string input =
      "The quick brown fox jumps over the lazy dog, repeatedly, until the "
      "message is comfortably longer than one 64-byte MD5 block.";
  const std::string expected = Md5::of(input).hex();
  for (std::size_t split = 0; split <= input.size(); ++split) {
    Md5 hasher;
    hasher.update(input.substr(0, split));
    hasher.update(input.substr(split));
    EXPECT_EQ(hasher.finish().hex(), expected) << "split at " << split;
  }
}

TEST(Md5, MillionAVector) {
  // RFC 1321's "a" x 10^6 vector: 15625 full blocks, then a padding block.
  EXPECT_EQ(Md5::of(std::string(1000000, 'a')).hex(), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Md5, DigestOfDigestsOverEveryLengthUpTo200) {
  // The digests of every prefix (0..200 bytes) of a fixed byte pattern, fed
  // into one outer MD5. Covers both padding branches (tail < 56 and >= 56
  // bytes) at every block count from 1 to 5. The constant comes from an
  // independent implementation:
  //   python3 -c "import hashlib; p=bytes((i*167+13)&255 for i in range(200));
  //     print(hashlib.md5(b''.join(hashlib.md5(p[:n]).digest()
  //                                for n in range(201))).hexdigest())"
  std::string pattern;
  for (int i = 0; i < 200; ++i) pattern.push_back(static_cast<char>((i * 167 + 13) & 0xff));
  Md5 outer;
  for (std::size_t length = 0; length <= pattern.size(); ++length) {
    const auto digest = Md5::of(std::string_view(pattern).substr(0, length));
    outer.update(digest.bytes.data(), digest.bytes.size());
  }
  EXPECT_EQ(outer.finish().hex(), "4fafd5e7deb5e76f6b4d408d3aff52e0");
}

TEST(Md5, RandomPiecesMatchOneShot) {
  // 1 MiB of seeded bytes fed in random-size pieces (0..3000 bytes, so
  // pieces start and end at every offset within a block).
  util::Rng rng(0x6d35);
  std::string input(1 << 20, '\0');
  for (char& byte : input) byte = static_cast<char>(rng.below(256));
  const std::string expected = Md5::of(input).hex();
  for (int round = 0; round < 4; ++round) {
    Md5 hasher;
    std::size_t at = 0;
    while (at < input.size()) {
      const std::size_t piece =
          std::min<std::size_t>(static_cast<std::size_t>(rng.below(3001)), input.size() - at);
      hasher.update(input.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(hasher.finish().hex(), expected) << "round " << round;
  }
}

TEST(Md5, Prefix64IsBigEndianOfFirstEightBytes) {
  const auto digest = Md5::of("abc");
  // 900150983cd24fb0...
  EXPECT_EQ(digest.prefix64(), 0x900150983cd24fb0ULL);
}

TEST(Md5, ReusableAfterFinish) {
  Md5 hasher;
  hasher.update("abc");
  EXPECT_EQ(hasher.finish().hex(), "900150983cd24fb0d6963f7d28e17f72");
  hasher.update("a");
  EXPECT_EQ(hasher.finish().hex(), "0cc175b9c0f1b6a831c399e269772661");
}

// --- AUID ------------------------------------------------------------------

TEST(Auid, GeneratesUniqueIds) {
  util::reseed_auid(42);
  std::set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(util::next_auid().str()).second);
  }
}

TEST(Auid, RoundTripsThroughString) {
  util::reseed_auid(7);
  for (int i = 0; i < 100; ++i) {
    const Auid id = util::next_auid();
    EXPECT_EQ(Auid::parse(id.str()), id);
  }
}

TEST(Auid, ParseRejectsMalformedInput) {
  EXPECT_TRUE(Auid::parse("").is_nil());
  EXPECT_TRUE(Auid::parse("not-a-uid").is_nil());
  EXPECT_TRUE(Auid::parse("00000000-0000-0000-0000-00000000000g").is_nil());
  EXPECT_TRUE(Auid::parse("00000000:0000:0000:0000:000000000000").is_nil());
}

TEST(Auid, ThreadedGenerationStaysUnique) {
  util::reseed_auid(11);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Auid>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] {
      results[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        results[static_cast<std::size_t>(t)].push_back(util::next_auid());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<Auid> all;
  for (const auto& chunk : results) all.insert(chunk.begin(), chunk.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

// --- bytes -------------------------------------------------------------------

TEST(Bytes, HumanReadable) {
  EXPECT_EQ(util::human_bytes(17), "17 B");
  EXPECT_EQ(util::human_bytes(1500), "1.50 KB");
  EXPECT_EQ(util::human_bytes(500 * util::kMB), "500.00 MB");
  EXPECT_EQ(util::human_bytes(static_cast<std::int64_t>(2.68 * 1e9)), "2.68 GB");
}

struct ByteParseCase {
  const char* text;
  std::int64_t expected;
};

class BytesParse : public ::testing::TestWithParam<ByteParseCase> {};

TEST_P(BytesParse, Parses) { EXPECT_EQ(util::parse_bytes(GetParam().text), GetParam().expected); }

INSTANTIATE_TEST_SUITE_P(
    Units, BytesParse,
    ::testing::Values(ByteParseCase{"512", 512}, ByteParseCase{"10kb", 10000},
                      ByteParseCase{"10 KB", 10000}, ByteParseCase{"500MB", 500000000},
                      ByteParseCase{"2.68GB", 2680000000}, ByteParseCase{"0", 0},
                      ByteParseCase{"1.5m", 1500000}, ByteParseCase{"junk", -1},
                      ByteParseCase{"10xb", -1}, ByteParseCase{"-3", -1}));

// --- strings -----------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(util::trim("  abc \t\n"), "abc");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim(" \t "), "");
  EXPECT_EQ(util::trim("x"), "x");
}

TEST(Strings, Split) {
  EXPECT_EQ(util::split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(util::split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(util::split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, CaseHelpers) {
  EXPECT_TRUE(util::iequals("BitTorrent", "bittorrent"));
  EXPECT_FALSE(util::iequals("ftp", "ftps"));
  EXPECT_EQ(util::to_lower("FTP"), "ftp");
  EXPECT_TRUE(util::starts_with("attr update", "attr"));
  EXPECT_FALSE(util::starts_with("at", "attr"));
}

TEST(Strings, Join) {
  EXPECT_EQ(util::join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(util::join({}, ", "), "");
}

// --- strf ---------------------------------------------------------------------

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(util::strf("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(util::strf("empty"), "empty");
}

TEST(Strf, HandlesLongOutput) {
  const std::string big(5000, 'a');
  EXPECT_EQ(util::strf("%s!", big.c_str()).size(), big.size() + 1);
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MeanMinMaxStddev) {
  util::RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(Stats, EmptyIsSafe) {
  const util::RunningStats stats;
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_DOUBLE_EQ(util::percentile(values, 50), 50.0);
  EXPECT_DOUBLE_EQ(util::percentile(values, 99), 99.0);
  EXPECT_DOUBLE_EQ(util::percentile(values, 100), 100.0);
  EXPECT_DOUBLE_EQ(util::percentile({}, 50), 0.0);
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiffersAcrossSeeds) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  util::Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeIsInclusive) {
  util::Rng rng(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsCentered) {
  util::Rng rng(11);
  double sum = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanApproximatesParameter) {
  util::Rng rng(12);
  double sum = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / kSamples, 3.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  util::Rng parent(99);
  util::Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

// --- clocks -----------------------------------------------------------------

TEST(Clock, ManualClockAdvances) {
  util::ManualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.set(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
}

TEST(Clock, SystemClockIsMonotonic) {
  util::SystemClock clock;
  const double a = clock.now();
  const double b = clock.now();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace bitdew
