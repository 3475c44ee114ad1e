// Unit tests for src/common: Status/Result, RNG, binary serialization,
// string utilities, JSON writer, parallel helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace graft {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing vertex");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing vertex");
  EXPECT_EQ(s.ToString(), "NotFound: missing vertex");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

Status FailingHelper() { return Status::IOError("disk gone"); }

Status PropagatesViaMacro() {
  GRAFT_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(PropagatesViaMacro().IsIOError());
}

// ---------------------------------------------------------------- Result --

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(0), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(42), 42);
}

Result<int> DoubledViaMacro(int x) {
  GRAFT_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(DoubledViaMacro(5).value(), 10);
  EXPECT_TRUE(DoubledViaMacro(0).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 3);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, StateRestoresStream) {
  Rng a(77);
  a.Next64();
  uint64_t mid_state = a.state();
  std::vector<uint64_t> tail;
  for (int i = 0; i < 10; ++i) tail.push_back(a.Next64());
  Rng restored(mid_state);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(restored.Next64(), tail[i]);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(3);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, StreamsAreIndependent) {
  Rng a = Rng::ForStream(100, 1, 5);
  Rng b = Rng::ForStream(100, 1, 6);
  Rng c = Rng::ForStream(100, 2, 5);
  EXPECT_NE(a.Next64(), b.Next64());
  EXPECT_NE(a.Next64(), c.Next64());
  // Same stream coordinates give the same stream.
  Rng a2 = Rng::ForStream(100, 1, 5);
  Rng a3 = Rng::ForStream(100, 1, 5);
  EXPECT_EQ(a2.Next64(), a3.Next64());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------- binary_io --

TEST(BinaryIoTest, VarintRoundTripSmall) {
  BinaryWriter w;
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL}) {
    w.WriteVarint(v);
  }
  BinaryReader r(w.buffer());
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL}) {
    EXPECT_EQ(r.ReadVarint().value(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  BinaryWriter w;
  w.WriteVarint(GetParam());
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadVarint().value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 0x7fULL, 0x80ULL,
                                           0x3fffULL, 0x4000ULL, 0xffffffffULL,
                                           0x100000000ULL,
                                           0xffffffffffffffffULL));

class SignedVarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SignedVarintRoundTrip, RoundTrips) {
  BinaryWriter w;
  w.WriteSignedVarint(GetParam());
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadSignedVarint().value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, SignedVarintRoundTrip,
                         ::testing::Values(int64_t{0}, int64_t{-1}, int64_t{1},
                                           int64_t{-64}, int64_t{64},
                                           INT64_MIN, INT64_MAX));

TEST(BinaryIoTest, RandomVarintRoundTripSweep) {
  Rng rng(11);
  BinaryWriter w;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Next64() >> (rng.NextBounded(64));
    values.push_back(v);
    w.WriteVarint(v);
  }
  BinaryReader r(w.buffer());
  for (uint64_t v : values) EXPECT_EQ(r.ReadVarint().value(), v);
}

TEST(BinaryIoTest, DoubleAndFloatRoundTrip) {
  BinaryWriter w;
  w.WriteDouble(3.14159);
  w.WriteDouble(-0.0);
  w.WriteDouble(std::numeric_limits<double>::infinity());
  w.WriteFloat(2.5f);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadDouble().value(), 3.14159);
  EXPECT_EQ(r.ReadDouble().value(), -0.0);
  EXPECT_TRUE(std::isinf(r.ReadDouble().value()));
  EXPECT_EQ(r.ReadFloat().value(), 2.5f);
}

TEST(BinaryIoTest, StringRoundTripIncludingEmbeddedNul) {
  BinaryWriter w;
  w.WriteString("hello");
  w.WriteString(std::string("a\0b", 3));
  w.WriteString("");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), std::string("a\0b", 3));
  EXPECT_EQ(r.ReadString().value(), "");
}

TEST(BinaryIoTest, ReadPastEndIsError) {
  BinaryReader r("");
  EXPECT_TRUE(r.ReadU8().status().IsOutOfRange());
  EXPECT_TRUE(r.ReadVarint().status().IsOutOfRange());
  EXPECT_TRUE(r.ReadFixed64().status().IsOutOfRange());
}

TEST(BinaryIoTest, TruncatedVarintIsError) {
  std::string data = "\xff\xff";  // continuation bits set, then EOF
  BinaryReader r(data);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(BinaryIoTest, OverlongVarintIsError) {
  std::string data(11, '\xff');  // more than 10 continuation bytes
  BinaryReader r(data);
  EXPECT_TRUE(r.ReadVarint().status().IsOutOfRange());
}

TEST(BinaryIoTest, TruncatedStringIsError) {
  BinaryWriter w;
  w.WriteVarint(100);  // claims 100 bytes follow
  w.WriteRaw("abc", 3);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BinaryIoTest, SkipAdvancesAndBoundsChecks) {
  BinaryWriter w;
  w.WriteRaw("abcdef", 6);
  BinaryReader r(w.buffer());
  ASSERT_TRUE(r.Skip(4).ok());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.Skip(3).ok());
}

TEST(BinaryIoTest, ZigzagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagDecode(ZigzagEncode(-123456789)), -123456789);
}

// ------------------------------------------------------------ string_util --

TEST(StringUtilTest, SplitString) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  auto skipping = SplitString("a,b,,c", ',', /*skip_empty=*/true);
  EXPECT_EQ(skipping.size(), 3u);
}

TEST(StringUtilTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  one\ttwo \n three  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, TrimString) {
  EXPECT_EQ(TrimString("  x  "), "x");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString(" \t\n "), "");
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%s", std::string(500, 'y').c_str()).size(), 500u);
}

TEST(StringUtilTest, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1234567890), "1,234,567,890");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("x12", &v));
}

TEST(StringUtilTest, ParseInt64AcceptsOnlyOptionalMinusAndDigits) {
  int64_t v = 7;
  for (const char* bad : {" 1", "1 ", "+1", " +1", "\t1", "\n1", "-", "+",
                          "--1", "-+1", "0x10", "1e3", "1.0",
                          "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_FALSE(ParseInt64(bad, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7) << "a rejected parse must not write the output";
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("-0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("007", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
}

TEST(StringUtilTest, ParseNumberedDir) {
  EXPECT_EQ(ParseNumberedDir("superstep_000012/worker_000.vtrace",
                             "superstep_"),
            12);
  EXPECT_EQ(ParseNumberedDir("s000003/part-000", "s"), 3);
  for (const char* stray : {"superstep_/COMMIT", "superstep_x/COMMIT",
                            "superstep_-1/COMMIT", "superstep_ 4/COMMIT",
                            "superstep_12", "topology_000001/part-000",
                            "manifest.idx", ""}) {
    EXPECT_EQ(ParseNumberedDir(stray, "superstep_"), std::nullopt) << stray;
  }
}

TEST(StringUtilTest, ParseDouble) {
  double v;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_FALSE(ParseDouble("2.5q", &v));
}

TEST(StringUtilTest, Ellipsize) {
  EXPECT_EQ(Ellipsize("short", 10), "short");
  EXPECT_EQ(Ellipsize("0123456789", 8), "01234...");
}

// ------------------------------------------------------------ json_writer --

TEST(JsonWriterTest, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "graft");
  w.KV("count", int64_t{3});
  w.KV("ratio", 0.5);
  w.KV("ok", true);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"graft\",\"count\":3,\"ratio\":0.5,\"ok\":true}");
}

TEST(JsonWriterTest, NestedArraysAndObjects) {
  JsonWriter w;
  w.BeginObject();
  w.Key("items");
  w.BeginArray();
  w.Int(1);
  w.BeginObject();
  w.KV("k", "v");
  w.EndObject();
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"items\":[1,{\"k\":\"v\"},null]}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::Escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// --------------------------------------------------------------- parallel --

TEST(ParallelTest, ShardRangesPartitionExactly) {
  for (size_t n : {0u, 1u, 7u, 100u, 101u}) {
    for (int shards : {1, 2, 3, 8}) {
      size_t total = 0;
      size_t prev_end = 0;
      for (int s = 0; s < shards; ++s) {
        ShardRange range = ComputeShardRange(n, shards, s);
        EXPECT_EQ(range.begin, prev_end);
        prev_end = range.end;
        total += range.end - range.begin;
      }
      EXPECT_EQ(total, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ParallelTest, RunOnWorkersRunsEachIndexOnce) {
  std::vector<std::atomic<int>> hits(8);
  RunOnWorkers(8, [&](int w) { hits[static_cast<size_t>(w)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SingleWorkerRunsInline) {
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  RunOnWorkers(1, [&](int) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.ElapsedMicros(), 9000);
  sw.Restart();
  EXPECT_LT(sw.ElapsedMicros(), 5000);
}

// Restores the process log level (and GRAFT_LOG_LEVEL) around a test so
// failures here can't silence logging in later tests.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = GetLogLevel();
    const char* env = std::getenv("GRAFT_LOG_LEVEL");
    if (env != nullptr) saved_env_ = env;
  }
  void TearDown() override {
    if (saved_env_.has_value()) {
      ::setenv("GRAFT_LOG_LEVEL", saved_env_->c_str(), 1);
    } else {
      ::unsetenv("GRAFT_LOG_LEVEL");
    }
    SetLogLevel(saved_level_);
  }

 private:
  LogLevel saved_level_ = LogLevel::kInfo;
  std::optional<std::string> saved_env_;
};

TEST_F(LoggingTest, ParseLogLevelAcceptsValidLevels) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("0", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("4", &level));
  EXPECT_EQ(level, LogLevel::kFatal);
}

TEST_F(LoggingTest, ParseLogLevelRejectsInvalidInput) {
  LogLevel level = LogLevel::kWarning;
  EXPECT_FALSE(ParseLogLevel(nullptr, &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("-1", &level));
  EXPECT_FALSE(ParseLogLevel("5", &level));
  EXPECT_FALSE(ParseLogLevel("abc", &level));
  EXPECT_FALSE(ParseLogLevel("2abc", &level));
  EXPECT_EQ(level, LogLevel::kWarning) << "failed parse must not write";
}

TEST_F(LoggingTest, SetLogLevelRoundTrips) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarning,
                         LogLevel::kError, LogLevel::kFatal}) {
    SetLogLevel(level);
    EXPECT_EQ(GetLogLevel(), level);
  }
}

TEST_F(LoggingTest, ReloadLogLevelFromEnvAppliesVariable) {
  ::setenv("GRAFT_LOG_LEVEL", "3", 1);
  EXPECT_EQ(ReloadLogLevelFromEnv(), LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  ::setenv("GRAFT_LOG_LEVEL", "0", 1);
  EXPECT_EQ(ReloadLogLevelFromEnv(), LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
}

TEST_F(LoggingTest, ReloadLogLevelFromEnvFallsBackToInfo) {
  ::unsetenv("GRAFT_LOG_LEVEL");
  EXPECT_EQ(ReloadLogLevelFromEnv(), LogLevel::kInfo);

  ::setenv("GRAFT_LOG_LEVEL", "99", 1);
  EXPECT_EQ(ReloadLogLevelFromEnv(), LogLevel::kInfo);

  ::setenv("GRAFT_LOG_LEVEL", "garbage", 1);
  EXPECT_EQ(ReloadLogLevelFromEnv(), LogLevel::kInfo);
}

// ------------------------------------------------- binary_io properties --
//
// Any byte sequence, however truncated or corrupted, decodes to either a
// value or a Status; never UB, never a crash, never unbounded allocation.
// All randomness is seeded, so a failure reproduces byte-for-byte.

// Boundary values around every 7-bit group edge, plus the extremes.
std::vector<uint64_t> VarintBoundaryValues() {
  std::vector<uint64_t> values = {0, 1, 2,
                                  std::numeric_limits<uint64_t>::max()};
  for (int shift = 7; shift < 64; shift += 7) {
    const uint64_t edge = uint64_t{1} << shift;
    values.push_back(edge - 1);
    values.push_back(edge);
    values.push_back(edge + 1);
  }
  return values;
}

TEST(VarintProperty, BoundaryRoundTrip) {
  for (uint64_t v : VarintBoundaryValues()) {
    BinaryWriter w;
    w.WriteVarint(v);
    BinaryReader r(w.buffer());
    Result<uint64_t> back = r.ReadVarint();
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintProperty, RandomRoundTrip) {
  std::mt19937_64 rng(0xC0DEC'5EEDULL);
  for (int i = 0; i < 20'000; ++i) {
    // Skew toward small values (shift a full-width draw by a random amount)
    // so every encoded length 1..10 is exercised.
    const uint64_t v = rng() >> (rng() % 64);
    BinaryWriter w;
    w.WriteVarint(v);
    ASSERT_LE(w.size(), 10u);
    BinaryReader r(w.buffer());
    Result<uint64_t> back = r.ReadVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintProperty, SignedZigzagRoundTrip) {
  std::vector<int64_t> values = {0, -1, 1, std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  std::mt19937_64 rng(0x51623'5EEDULL);
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(static_cast<int64_t>(rng() >> (rng() % 64)) *
                     ((rng() & 1) ? 1 : -1));
  }
  for (int64_t v : values) {
    BinaryWriter w;
    w.WriteSignedVarint(v);
    BinaryReader r(w.buffer());
    Result<int64_t> back = r.ReadSignedVarint();
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
  }
}

TEST(VarintProperty, EveryTruncationIsAnError) {
  for (uint64_t v : VarintBoundaryValues()) {
    BinaryWriter w;
    w.WriteVarint(v);
    const std::string& full = w.buffer();
    for (size_t cut = 0; cut < full.size(); ++cut) {
      BinaryReader r(std::string_view(full.data(), cut));
      Result<uint64_t> back = r.ReadVarint();
      EXPECT_FALSE(back.ok())
          << "value " << v << " truncated to " << cut << " bytes";
    }
  }
}

TEST(VarintProperty, OverlongEncodingIsAnError) {
  // Eleven continuation bytes can never terminate inside 64 bits.
  std::string overlong(11, '\x80');
  BinaryReader r(overlong);
  EXPECT_FALSE(r.ReadVarint().ok());
  // Ten bytes whose top group overflows bit 63.
  std::string overflow(9, '\x80');
  overflow.push_back('\x7f');
  BinaryReader r2(overflow);
  EXPECT_FALSE(r2.ReadVarint().ok());
}

TEST(VarintProperty, GarbageNeverCrashes) {
  std::mt19937_64 rng(0xBAD'F00DULL);
  for (int i = 0; i < 5'000; ++i) {
    std::string junk(rng() % 16, '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    BinaryReader r(junk);
    // Drain with a rotating op mix; every call must return cleanly.
    while (!r.AtEnd()) {
      bool progressed = false;
      switch (rng() % 4) {
        case 0: progressed = r.ReadVarint().ok(); break;
        case 1: progressed = r.ReadSignedVarint().ok(); break;
        case 2: progressed = r.ReadString().ok(); break;
        case 3: progressed = r.ReadBool().ok(); break;
      }
      if (!progressed) break;
    }
  }
}

TEST(StringProperty, LengthPrefixLiesAreErrors) {
  BinaryWriter w;
  w.WriteString("forty-two bytes of payload, give or take");
  std::string full = w.buffer();
  // Truncate anywhere: prefix-only, mid-payload, zero bytes.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader r(std::string_view(full.data(), cut));
    EXPECT_FALSE(r.ReadString().ok()) << "cut at " << cut;
  }
  // A length prefix claiming far more than remains must fail closed, not
  // allocate.
  BinaryWriter huge;
  huge.WriteVarint(uint64_t{1} << 40);
  BinaryReader r(huge.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

}  // namespace
}  // namespace graft
