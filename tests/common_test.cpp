// Unit tests for src/common: status, formatting, stats, CLI, RNG, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "common/backoff.hpp"
#include "common/bytes.hpp"
#include "common/retry.hpp"
#include "common/cli.hpp"
#include "common/unique_function.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"

namespace hs {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = OutOfMemory("device 0 full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(s.message(), "device 0 full");
  EXPECT_EQ(s.ToString(), "OUT_OF_MEMORY: device 0 full");
}

TEST(StatusTest, AllCodesHaveStableNames) {
  EXPECT_EQ(error_code_name(ErrorCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code_name(ErrorCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(error_code_name(ErrorCode::kFailedPrecondition),
            "FAILED_PRECONDITION");
  EXPECT_EQ(error_code_name(ErrorCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_EQ(error_code_name(ErrorCode::kAlreadyExists), "ALREADY_EXISTS");
  EXPECT_EQ(error_code_name(ErrorCode::kInternal), "INTERNAL");
  EXPECT_EQ(error_code_name(ErrorCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_EQ(error_code_name(ErrorCode::kAborted), "ABORTED");
  EXPECT_EQ(error_code_name(ErrorCode::kDataLoss), "DATA_LOSS");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// ---- format ---------------------------------------------------------------

TEST(FormatTest, HexRoundtrip) {
  std::vector<std::uint8_t> bytes = {0x00, 0x01, 0xAB, 0xFF, 0x7E};
  std::string hex = to_hex(bytes);
  EXPECT_EQ(hex, "0001abff7e");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), back.value().begin(),
                         back.value().end()));
}

TEST(FormatTest, HexUpperCaseAccepted) {
  auto r = from_hex("ABCDEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_hex(r.value()), "abcdef");
}

TEST(FormatTest, HexRejectsOddLength) {
  EXPECT_FALSE(from_hex("abc").ok());
}

TEST(FormatTest, HexRejectsNonHex) {
  EXPECT_FALSE(from_hex("zz").ok());
}

TEST(FormatTest, FormatBytesUsesDecimalUnits) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(185000000), "185.00 MB");
  EXPECT_EQ(format_bytes(202130000), "202.13 MB");
  EXPECT_EQ(format_bytes(1500), "1.50 kB");
}

TEST(FormatTest, ParseBytesDecimalAndBinary) {
  EXPECT_EQ(parse_bytes("185MB").value(), 185000000u);
  EXPECT_EQ(parse_bytes("1MiB").value(), 1048576u);
  EXPECT_EQ(parse_bytes("4096").value(), 4096u);
  EXPECT_EQ(parse_bytes("1.5 kB").value(), 1500u);
  EXPECT_EQ(parse_bytes("2gib").value(), 2147483648u);
}

TEST(FormatTest, ParseBytesErrors) {
  EXPECT_FALSE(parse_bytes("MB").ok());
  EXPECT_FALSE(parse_bytes("12XB").ok());
  EXPECT_FALSE(parse_bytes("").ok());
}

TEST(FormatTest, SplitWsDropsEmptyTokens) {
  EXPECT_EQ(split_ws("  a \t bb\r\n c  "),
            (std::vector<std::string_view>{"a", "bb", "c"}));
  EXPECT_TRUE(split_ws(" \t ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(FormatTest, ParseIntTakesWholeTokenAndNeverNarrows) {
  EXPECT_EQ(parse_int<int>("-42").value(), -42);
  EXPECT_EQ(parse_int<std::int64_t>("9223372036854775807").value(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615").value(),
            std::numeric_limits<std::uint64_t>::max());
  // 2^32 + 1 fits a long but not an int: an error, not 1.
  EXPECT_EQ(parse_int<int>("4294967297").status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551616").status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_FALSE(parse_int<std::uint64_t>("-1").ok());
  for (const char* bad : {"", "-", "+1", " 1", "1 ", "1x", "0x10", "1.0"}) {
    EXPECT_FALSE(parse_int<std::int64_t>(bad).ok()) << "'" << bad << "'";
  }
}

TEST(FormatTest, ParseDoubleTakesWholeFiniteToken) {
  EXPECT_EQ(parse_double("1.5").value(), 1.5);
  EXPECT_EQ(parse_double("-0.25").value(), -0.25);
  EXPECT_EQ(parse_double("1e9").value(), 1e9);
  for (const char* bad : {"", "1.5x", " 1", "inf", "nan", "1e400", "0x1p3"}) {
    EXPECT_FALSE(parse_double(bad).ok()) << "'" << bad << "'";
  }
}

TEST(FormatTest, ByteGrammarAcceptsFlagAndSpecForms) {
  // Forms topology bandwidths used before the grammars were merged...
  EXPECT_EQ(parse_byte_quantity("12.5GB").value(), 12.5e9);
  EXPECT_EQ(parse_byte_quantity("1e9").value(), 1e9);
  EXPECT_EQ(parse_byte_quantity("10gb").value(), 1e10);
  EXPECT_EQ(parse_byte_quantity("0.5").value(), 0.5);
  // ...and flag forms, now in specs too.
  EXPECT_EQ(parse_byte_quantity("2GiB").value(), 2147483648.0);
  EXPECT_EQ(parse_bytes("1e9").value(), 1000000000u);
  EXPECT_EQ(parse_bytes("64MiB").value(), 64u << 20);
  EXPECT_EQ(parse_bytes("-1MB").status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(parse_bytes("1e19").status().code(), ErrorCode::kOutOfRange);
  EXPECT_FALSE(parse_byte_quantity("1e").ok());
  EXPECT_FALSE(parse_byte_quantity("inf").ok());
}

TEST(FormatTest, ParseSecondsUnits) {
  EXPECT_DOUBLE_EQ(parse_seconds("5us").value(), 5e-6);
  EXPECT_DOUBLE_EQ(parse_seconds("1ms").value(), 1e-3);
  EXPECT_DOUBLE_EQ(parse_seconds("7ns").value(), 7e-9);
  EXPECT_EQ(parse_seconds("3s").value(), 3.0);
  EXPECT_EQ(parse_seconds("0.25").value(), 0.25);
  for (const char* bad : {"", "us", "1m", "1 ms", "1MS", "1usx"}) {
    EXPECT_FALSE(parse_seconds(bad).ok()) << "'" << bad << "'";
  }
}

TEST(BytesTest, WritesAndReadsLittleEndian) {
  std::vector<std::uint8_t> buf;
  buf.push_back(0xAB);
  put_u32(buf, 0x01020304u);
  put_u64(buf, 0);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0xAB, 4, 3, 2, 1, 0, 0, 0, 0, 0,
                                            0, 0, 0}));
  patch_u64(buf, 5, 0x1122334455667788ull);
  EXPECT_EQ(buf[5], 0x88);
  EXPECT_EQ(buf[12], 0x11);
  ByteReader r(buf);
  std::uint8_t v8 = 0;
  std::uint32_t v32 = 0;
  std::uint64_t v64 = 0;
  ASSERT_TRUE(r.u8(v8) && r.u32(v32) && r.u64(v64));
  EXPECT_EQ(v8, 0xAB);
  EXPECT_EQ(v32, 0x01020304u);
  EXPECT_EQ(v64, 0x1122334455667788ull);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, ReaderNeverPassesTheEnd) {
  const std::vector<std::uint8_t> buf = {1, 2, 3};
  ByteReader r(buf);
  std::uint32_t v32 = 7;
  EXPECT_FALSE(r.u32(v32));
  EXPECT_EQ(v32, 7u);
  std::span<const std::uint8_t> run;
  EXPECT_FALSE(r.bytes(std::numeric_limits<std::size_t>::max(), run));
  EXPECT_EQ(r.remaining(), 3u);  // failed reads consume nothing
  ASSERT_TRUE(r.bytes(2, run));
  EXPECT_EQ(run[1], 2);
  std::uint8_t v8 = 0;
  EXPECT_TRUE(r.u8(v8));
  EXPECT_FALSE(r.u8(v8));
}

TEST(FormatTest, FormatSeconds) {
  EXPECT_EQ(format_seconds(400.0), "400.00s");
  EXPECT_EQ(format_seconds(0.129), "129.00ms");
  EXPECT_EQ(format_seconds(12e-6), "12.00us");
  EXPECT_EQ(format_seconds(3e-9), "3.0ns");
}

// ---- stats ------------------------------------------------------------------

TEST(StatsTest, MeanAndStddev) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic textbook dataset
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(StatsTest, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    double x = i * 0.37 - 3.0;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(StatsTest, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// ---- rng ---------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(RngTest, RangeInclusive) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all 4 values hit in 1000 draws
}

TEST(RngTest, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, RunLengthMeanRoughlyMatches) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.run_length(50.0));
  EXPECT_NEAR(sum / n, 50.0, 5.0);
}

TEST(RngTest, SplitIsIndependent) {
  Xoshiro256 a(42);
  Xoshiro256 b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

// ---- cli ---------------------------------------------------------------------

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v = {"prog"};
  v.insert(v.end(), args);
  return v;
}

TEST(CliTest, ParsesEqualsForm) {
  auto v = argv_of({"--dim=2000", "--label=mandel"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().get_int("dim", 0), 2000);
  EXPECT_EQ(args.value().get_string("label", ""), "mandel");
}

TEST(CliTest, ParsesSpaceForm) {
  auto v = argv_of({"--workers", "19", "pos1"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().get_int("workers", 0), 19);
  ASSERT_EQ(args.value().positional().size(), 1u);
  EXPECT_EQ(args.value().positional()[0], "pos1");
}

TEST(CliTest, BooleanForms) {
  auto v = argv_of({"--ordered", "--no-overlap"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args.value().get_bool("ordered", false));
  EXPECT_FALSE(args.value().get_bool("overlap", true));
  EXPECT_TRUE(args.value().get_bool("absent", true));
}

TEST(CliTest, BytesFlag) {
  auto v = argv_of({"--input-size=185MB"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().get_bytes("input-size", 0), 185000000u);
}

TEST(CliTest, FallbacksOnMissingOrMalformed) {
  auto v = argv_of({"--dim=abc"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().get_int("dim", 7), 7);
  EXPECT_EQ(args.value().get_double("nope", 1.5), 1.5);
}

TEST(CliTest, ValidatedIntRejectsZeroNegativeAndGarbage) {
  auto v = argv_of({"--workers=0", "--batch-lines=-4", "--tokens=abc",
                    "--replicas=19"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  const CliArgs& a = args.value();

  auto workers = a.get_positive_int("workers", 20);
  ASSERT_FALSE(workers.ok());
  EXPECT_EQ(workers.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(workers.status().message().find("--workers=0"),
            std::string::npos);

  auto batch = a.get_positive_int("batch-lines", 32);
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.status().message().find("must be >= 1"), std::string::npos);

  auto tokens = a.get_positive_int("tokens", 38);
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("not an integer"),
            std::string::npos);

  auto replicas = a.get_positive_int("replicas", 1);
  ASSERT_TRUE(replicas.ok());
  EXPECT_EQ(replicas.value(), 19);

  // Absent flags keep the fallback without validation fuss.
  auto absent = a.get_positive_int("absent", 7);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent.value(), 7);
}

TEST(CliTest, ValidatedIntHonorsRange) {
  auto v = argv_of({"--devices=5"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  auto devices = args.value().get_int_in_range("devices", 1, 1, 4);
  ASSERT_FALSE(devices.ok());
  EXPECT_NE(devices.status().message().find("<= 4"), std::string::npos);
  auto ok = args.value().get_int_in_range("devices", 1, 1, 8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
}

TEST(CliTest, ValidatedBytesRejectsZeroAndGarbage) {
  auto v = argv_of({"--batch-size=0", "--input-size=12parsecs",
                    "--device-mem=1GiB"});
  auto args = CliArgs::Parse(static_cast<int>(v.size()), v.data());
  ASSERT_TRUE(args.ok());
  const CliArgs& a = args.value();

  auto batch = a.get_positive_bytes("batch-size", 1 << 20);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(batch.status().message().find("--batch-size=0"),
            std::string::npos);

  auto input = a.get_positive_bytes("input-size", 1);
  ASSERT_FALSE(input.ok());

  auto mem = a.get_positive_bytes("device-mem", 1);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem.value(), 1024ull * 1024 * 1024);
}

// ---- table --------------------------------------------------------------------

TEST(TableTest, RendersAlignedAscii) {
  Table t("Fig. 1");
  t.set_header({"version", "time", "speedup"});
  t.add_row({"sequential", "400.00s", "1.0x"});
  t.add_row({"cuda batch 32", "8.90s", "45.0x"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("== Fig. 1 =="), std::string::npos);
  EXPECT_NE(out.find("| version"), std::string::npos);
  EXPECT_NE(out.find("45.0x"), std::string::npos);
  // Every data line has the same length (alignment).
  std::istringstream is(out);
  std::string line;
  std::size_t len = 0;
  std::getline(is, line);  // title
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len) << line;
  }
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  EXPECT_EQ(t.to_csv(), "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(TableTest, SeparatorSkippedInCsv) {
  Table t;
  t.set_header({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  EXPECT_EQ(t.to_csv(), "a\n1\n2\n");
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("only"), std::string::npos);
}

// ---- UniqueFunction --------------------------------------------------------------

TEST(UniqueFunctionTest, CallsMoveOnlyTargets) {
  auto payload = std::make_unique<int>(7);
  UniqueFunction<int()> f = [p = std::move(payload)] { return *p; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(), 7);
}

TEST(UniqueFunctionTest, EmptyAndMoveSemantics) {
  UniqueFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  int count = 0;
  UniqueFunction<void()> g = [&count] { ++count; };
  UniqueFunction<void()> h = std::move(g);
  EXPECT_FALSE(static_cast<bool>(g));  // NOLINT(bugprone-use-after-move)
  h();
  EXPECT_EQ(count, 1);
}

TEST(UniqueFunctionTest, ArgumentsAndReturns) {
  UniqueFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
  UniqueFunction<std::string(std::string)> echo =
      [](std::string s) { return s + "!"; };
  EXPECT_EQ(echo("hi"), "hi!");
}

// ---- Backoff ----------------------------------------------------------------------

TEST(BackoffTest, EscalatesAndResets) {
  Backoff b;
  EXPECT_FALSE(b.sleeping());
  for (int i = 0; i < 400; ++i) b.pause();
  EXPECT_TRUE(b.sleeping());
  b.reset();
  EXPECT_FALSE(b.sleeping());
}

// ---- BackoffSequence -------------------------------------------------------------

TEST(BackoffTest, SequenceStaysInsidePolicyBounds) {
  BackoffPolicy policy;
  policy.base = std::chrono::microseconds(100);
  policy.cap = std::chrono::microseconds(4000);
  policy.growth = 3.0;
  BackoffSequence seq(policy, /*seed=*/7);
  std::chrono::microseconds prev = policy.base;
  for (int i = 0; i < 200; ++i) {
    const auto d = seq.next();
    // Decorrelated jitter: every delay lies in [base, min(cap, 3*prev)].
    EXPECT_GE(d, policy.base) << "step " << i;
    EXPECT_LE(d, policy.cap) << "step " << i;
    const auto growth_bound = std::chrono::microseconds(
        std::min<std::int64_t>(policy.cap.count(), prev.count() * 3));
    EXPECT_LE(d, growth_bound) << "step " << i;
    prev = d;
  }
}

TEST(BackoffTest, DeterministicPerSeedAndResettable) {
  BackoffPolicy policy;
  policy.base = std::chrono::microseconds(50);
  policy.cap = std::chrono::microseconds(5000);
  BackoffSequence a(policy, 42);
  BackoffSequence b(policy, 42);
  std::vector<std::chrono::microseconds> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(b.next(), first[i]) << i;
  // Distinct seeds decorrelate (not byte-identical over a window).
  BackoffSequence c(policy, 43);
  bool differs = false;
  for (int i = 0; i < 16; ++i) differs |= (c.next() != first[i]);
  EXPECT_TRUE(differs);
  // reset() restarts the growth envelope from base.
  a.reset();
  EXPECT_LE(a.next(), std::chrono::microseconds(
                          std::min<std::int64_t>(policy.cap.count(),
                                                 policy.base.count() * 3)));
}

TEST(BackoffTest, DegeneratePoliciesAreSanitized) {
  BackoffPolicy policy;
  policy.base = std::chrono::microseconds(-5);
  policy.cap = std::chrono::microseconds(-10);
  policy.growth = 0.0;
  BackoffSequence seq(policy, 1);
  for (int i = 0; i < 8; ++i) {
    const auto d = seq.next();
    EXPECT_GE(d.count(), 0) << i;
    EXPECT_LE(d, seq.policy().cap) << i;
  }
}


TEST(BackoffTest, BoundsHoldAfterResetAcrossSeeds) {
  BackoffPolicy policy;
  policy.base = std::chrono::microseconds(25);
  policy.cap = std::chrono::microseconds(900);
  policy.growth = 3.0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    BackoffSequence seq(policy, seed);
    for (int round = 0; round < 4; ++round) {
      seq.reset();
      std::chrono::microseconds prev = policy.base;
      for (int i = 0; i < 64; ++i) {
        const auto d = seq.next();
        ASSERT_GE(d, policy.base) << "seed " << seed << " round " << round;
        ASSERT_LE(d, policy.cap) << "seed " << seed << " round " << round;
        // reset() restarts the growth envelope: every post-reset draw obeys
        // the decorrelated bound from `base`, not from the pre-reset tail.
        const auto envelope = std::chrono::microseconds(
            std::min<std::int64_t>(policy.cap.count(), prev.count() * 3));
        ASSERT_LE(d, envelope) << "seed " << seed << " round " << round;
        prev = d;
      }
    }
  }
}

}  // namespace
}  // namespace hs
