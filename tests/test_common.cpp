// Unit tests for irf::common: grids, RNG, string utils, image IO, env config.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/grid2d.hpp"
#include "common/image_io.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"

namespace irf {
namespace {

using namespace std::string_view_literals;

TEST(Grid2D, ConstructionAndAccess) {
  GridF g(3, 4, 1.5f);
  EXPECT_EQ(g.height(), 3);
  EXPECT_EQ(g.width(), 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_FLOAT_EQ(g.at(2, 3), 1.5f);
  g.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(g(1, 2), 7.0f);
}

TEST(Grid2D, OutOfBoundsThrows) {
  GridF g(2, 2);
  EXPECT_THROW(g.at(2, 0), DimensionError);
  EXPECT_THROW(g.at(0, -1), DimensionError);
  EXPECT_THROW(GridF(-1, 3), DimensionError);
}

TEST(Grid2D, MinMaxSumMean) {
  GridF g(2, 2);
  g(0, 0) = 1.0f;
  g(0, 1) = -3.0f;
  g(1, 0) = 2.0f;
  g(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(g.min_value(), -3.0f);
  EXPECT_FLOAT_EQ(g.max_value(), 4.0f);
  EXPECT_DOUBLE_EQ(g.sum(), 4.0);
  EXPECT_DOUBLE_EQ(g.mean(), 1.0);
}

TEST(Grid2D, Rotate90Clockwise) {
  GridF g(2, 3);
  // 1 2 3
  // 4 5 6
  float v = 1.0f;
  for (int y = 0; y < 2; ++y)
    for (int x = 0; x < 3; ++x) g(y, x) = v++;
  GridF r = g.rotated90(1);
  ASSERT_EQ(r.height(), 3);
  ASSERT_EQ(r.width(), 2);
  // Clockwise: first row becomes last column.
  EXPECT_FLOAT_EQ(r(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(r(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(r(2, 1), 3.0f);
}

TEST(Grid2D, RotateFourTimesIsIdentity) {
  Rng rng(5);
  GridF g(5, 5);
  for (float& x : g.data()) x = static_cast<float>(rng.uniform());
  GridF r = g.rotated90(1).rotated90(1).rotated90(1).rotated90(1);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_FLOAT_EQ(g.data()[i], r.data()[i]);
}

TEST(Grid2D, Rotate180MatchesDoubleQuarter) {
  Rng rng(6);
  GridF g(3, 4);
  for (float& x : g.data()) x = static_cast<float>(rng.uniform());
  GridF a = g.rotated90(2);
  GridF b = g.rotated90(1).rotated90(1);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
}

TEST(Grid2D, ResizePreservesConstant) {
  GridF g(4, 4, 2.5f);
  GridF r = g.resized(7, 9);
  EXPECT_EQ(r.height(), 7);
  EXPECT_EQ(r.width(), 9);
  for (float v : r.data()) EXPECT_NEAR(v, 2.5f, 1e-6f);
}

TEST(Grid2D, MeanAbsDiff) {
  GridF a(2, 2, 1.0f);
  GridF b(2, 2, 3.0f);
  EXPECT_DOUBLE_EQ(mean_abs_diff(a, b), 2.0);
  GridF c(2, 3);
  EXPECT_THROW(mean_abs_diff(a, c), DimensionError);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformIntRange) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(42);
  b.fork();
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());  // parent streams stay in sync
  EXPECT_NE(child.uniform(), a.uniform());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringUtil, SplitDelim) {
  auto t = split("a,,b", ',');
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "");
}

TEST(StringUtil, StartsWithCi) {
  EXPECT_TRUE(starts_with_ci("MEGohm", "meg"));
  EXPECT_FALSE(starts_with_ci("me", "meg"));
}

TEST(ImageIo, CsvRoundTrip) {
  GridF g(3, 2);
  float v = 0.5f;
  for (float& x : g.data()) x = v += 1.25f;
  const std::string path = std::filesystem::temp_directory_path() / "irf_test_grid.csv";
  write_csv(g, path);
  GridF r = read_csv(path);
  ASSERT_TRUE(r.same_shape(g));
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(r.data()[i], g.data()[i], 1e-5f);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmWritesHeader) {
  GridF g(2, 2);
  g(0, 0) = 0.0f;
  g(1, 1) = 1.0f;
  const std::string path = std::filesystem::temp_directory_path() / "irf_test.pgm";
  write_pgm(g, path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
}

TEST(ScaleConfig, CiDefaults) {
  ScaleConfig c = make_scale_config(Scale::kCi);
  EXPECT_EQ(c.image_size % 16, 0);
  EXPECT_GT(c.num_fake_designs, 0);
  EXPECT_GE(c.num_real_designs, 2);
}

TEST(ScaleConfig, PaperPreset) {
  ScaleConfig c = make_scale_config(Scale::kPaper);
  EXPECT_EQ(c.image_size, 256);
  EXPECT_EQ(c.num_fake_designs, 100);
  EXPECT_EQ(c.num_real_designs, 20);
}

TEST(ScaleConfig, DescribeMentionsScale) {
  ScaleConfig c = make_scale_config(Scale::kCi);
  EXPECT_NE(c.describe().find("scale=ci"), std::string::npos);
}

TEST(Stopwatch, MeasuresNonNegative) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
}

TEST(Parse, DoubleFullString) {
  EXPECT_DOUBLE_EQ(try_parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(try_parse_double("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(try_parse_double("+.5").value(), 0.5);
  EXPECT_FALSE(try_parse_double("").has_value());
  EXPECT_FALSE(try_parse_double("12abc").has_value());  // stod would return 12
  EXPECT_FALSE(try_parse_double("abc").has_value());
  EXPECT_FALSE(try_parse_double("0x1a").has_value());  // strtod accepts hex
  EXPECT_FALSE(try_parse_double("inf").has_value());
  EXPECT_FALSE(try_parse_double("nan").has_value());
  EXPECT_FALSE(try_parse_double("1e999").has_value());  // overflow
}

TEST(Parse, DoublePrefixReportsConsumed) {
  std::size_t consumed = 0;
  EXPECT_DOUBLE_EQ(try_parse_double_prefix("4.7k", &consumed).value(), 4.7);
  EXPECT_EQ(consumed, 3u);
  EXPECT_FALSE(try_parse_double_prefix("k4.7", &consumed).has_value());
}

TEST(Parse, Int64) {
  EXPECT_EQ(try_parse_int64("-42").value(), -42);
  EXPECT_EQ(try_parse_int64("0").value(), 0);
  EXPECT_FALSE(try_parse_int64("").has_value());
  EXPECT_FALSE(try_parse_int64("12 ").has_value());
  EXPECT_FALSE(try_parse_int64("9223372036854775808").has_value());  // INT64_MAX+1
}

TEST(Parse, Uint64RejectsNegativeWrap) {
  // std::stoull("-5") silently wraps to 18446744073709551611.
  EXPECT_FALSE(try_parse_uint64("-5").has_value());
  EXPECT_EQ(try_parse_uint64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(try_parse_uint64("18446744073709551616").has_value());
  EXPECT_FALSE(try_parse_uint64("7seven").has_value());
}

// The allocation-free parsers keep strto*'s accept/reject set. Every
// expected value below was generated by a reference implementation that
// calls strtod/strtoll/strtoull on a NUL-terminated copy: a leading '+' and
// underflow to a subnormal or a signed zero are accepted; inf, nan, hex and
// overflow are rejected; strtoll/strtoull's leading whitespace (and
// strtoull's negation after it) is kept.
TEST(Parse, MatchesStrtodTable) {
  struct DoubleCase {
    std::string_view text;
    bool ok;
    double value;
    std::size_t consumed;
  };
  const DoubleCase doubles[] = {
      {"0.5"sv, true, 0x1p-1, 3},
      {"+.5"sv, true, 0x1p-1, 3},
      {"-.5"sv, true, -0x1p-1, 3},
      {"5."sv, true, 0x1.4p+2, 2},
      {"."sv, false, 0.0, 0},
      {"+"sv, false, 0.0, 0},
      {"-"sv, false, 0.0, 0},
      {"+-5"sv, false, 0.0, 0},
      {"-+5"sv, false, 0.0, 0},
      {"++5"sv, false, 0.0, 0},
      {"4.7k"sv, true, 0x1.2cccccccccccdp+2, 3},
      {"2MEG"sv, true, 0x1p+1, 1},
      {"1e"sv, true, 0x1p+0, 1},
      {"1e+"sv, true, 0x1p+0, 1},
      {"1e-3m"sv, true, 0x1.0624dd2f1a9fcp-10, 4},
      {"1E5"sv, true, 0x1.86ap+16, 3},
      {"1.5e+3x"sv, true, 0x1.77p+10, 6},
      {"1e5e3"sv, true, 0x1.86ap+16, 3},
      {"1.2.3"sv, true, 0x1.3333333333333p+0, 3},
      {"007"sv, true, 0x1.cp+2, 3},
      {"-0"sv, true, -0x0p+0, 2},
      {"-0.0e9"sv, true, -0x0p+0, 6},
      {"0.1"sv, true, 0x1.999999999999ap-4, 3},
      {"1.7976931348623157e308"sv, true, 0x1.fffffffffffffp+1023, 22},
      {"1.7976931348623159e308"sv, false, 0.0, 0},
      {"1e308"sv, true, 0x1.1ccf385ebc8ap+1023, 5},
      {"1e309"sv, false, 0.0, 0},
      {"-1e999"sv, false, 0.0, 0},
      {"4.9e-324"sv, true, 0x0.0000000000001p-1022, 8},
      {"2.5e-324"sv, true, 0x0.0000000000001p-1022, 8},
      {"2.4e-324"sv, true, 0x0p+0, 8},
      {"1e-310"sv, true, 0x0.012688b70e62bp-1022, 6},
      {"1e-400"sv, true, 0x0p+0, 6},
      {"-1e-400"sv, true, -0x0p+0, 7},
      {"0.000000000000000000000000000001e-300"sv, true, 0x0p+0, 37},
      {"123456789012345678901234567890"sv, true, 0x1.8ee90ff6c373ep+96, 30},
      {"0.1000000000000000055511151231257827"sv, true, 0x1.999999999999ap-4, 36},
      {"inf"sv, false, 0.0, 0},
      {"-inf"sv, false, 0.0, 0},
      {"+INF"sv, false, 0.0, 0},
      {"nan"sv, false, 0.0, 0},
      {"NaN(1)"sv, false, 0.0, 0},
      {"infinity"sv, false, 0.0, 0},
      {"0x1a"sv, false, 0.0, 0},
      {"0X1p3"sv, false, 0.0, 0},
      {"-0x.8"sv, false, 0.0, 0},
      {"+0x1"sv, false, 0.0, 0},
      {"0x"sv, true, 0x0p+0, 1},
      {"0xg"sv, true, 0x0p+0, 1},
      {"0x.g"sv, true, 0x0p+0, 1},
      {"00x1"sv, true, 0x0p+0, 2},
      {"1x"sv, true, 0x1p+0, 1},
      {" 1"sv, false, 0.0, 0},
      {"\t1"sv, false, 0.0, 0},
      {"1 "sv, true, 0x1p+0, 1},
      {""sv, false, 0.0, 0},
      {"e5"sv, false, 0.0, 0},
      {".e5"sv, false, 0.0, 0},
      {"abc"sv, false, 0.0, 0},
      {"1\0" "5"sv, true, 0x1p+0, 1},
      {"12abc"sv, true, 0x1.8p+3, 2},
      {"3.14159265358979323846"sv, true, 0x1.921fb54442d18p+1, 22},
  };
  for (const DoubleCase& c : doubles) {
    SCOPED_TRACE(std::string(c.text));
    std::size_t consumed = 0;
    const std::optional<double> v = try_parse_double_prefix(c.text, &consumed);
    ASSERT_EQ(v.has_value(), c.ok);
    if (!c.ok) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*v), std::bit_cast<std::uint64_t>(c.value));
    EXPECT_EQ(consumed, c.consumed);
    EXPECT_EQ(try_parse_double(c.text).has_value(), consumed == c.text.size());
  }

  struct Int64Case {
    std::string_view text;
    bool ok;
    std::int64_t value;
  };
  const Int64Case int64s[] = {
      {"0"sv, true, 0LL},
      {"-42"sv, true, -42LL},
      {"+42"sv, true, 42LL},
      {" 42"sv, true, 42LL},
      {"\t\n-7"sv, true, -7LL},
      {"42 "sv, false, 0},
      {""sv, false, 0},
      {" "sv, false, 0},
      {"+"sv, false, 0},
      {"-"sv, false, 0},
      {"+-1"sv, false, 0},
      {"--1"sv, false, 0},
      {"-+1"sv, false, 0},
      {"0x10"sv, false, 0},
      {"1e3"sv, false, 0},
      {"12abc"sv, false, 0},
      {"007"sv, true, 7LL},
      {"9223372036854775807"sv, true, 9223372036854775807LL},
      {"9223372036854775808"sv, false, 0},
      {"-9223372036854775808"sv, true, std::numeric_limits<std::int64_t>::min()},
      {"-9223372036854775809"sv, false, 0},
      {"18446744073709551615"sv, false, 0},
      {"18446744073709551616"sv, false, 0},
      {" -5"sv, true, -5LL},
      {"-5"sv, true, -5LL},
      {"-0"sv, true, 0LL},
      {"99999999999999999999999"sv, false, 0},
      {"1\0" "2"sv, false, 0},
      {"1.0"sv, false, 0},
  };
  for (const Int64Case& c : int64s) {
    SCOPED_TRACE(std::string(c.text));
    const std::optional<std::int64_t> v = try_parse_int64(c.text);
    ASSERT_EQ(v.has_value(), c.ok);
    if (c.ok) {
      EXPECT_EQ(*v, c.value);
    }
  }

  struct Uint64Case {
    std::string_view text;
    bool ok;
    std::uint64_t value;
  };
  const Uint64Case uint64s[] = {
      {"0"sv, true, 0ULL},
      {"-42"sv, false, 0},
      {"+42"sv, true, 42ULL},
      {" 42"sv, true, 42ULL},
      {"\t\n-7"sv, true, 18446744073709551609ULL},
      {"42 "sv, false, 0},
      {""sv, false, 0},
      {" "sv, false, 0},
      {"+"sv, false, 0},
      {"-"sv, false, 0},
      {"+-1"sv, false, 0},
      {"--1"sv, false, 0},
      {"-+1"sv, false, 0},
      {"0x10"sv, false, 0},
      {"1e3"sv, false, 0},
      {"12abc"sv, false, 0},
      {"007"sv, true, 7ULL},
      {"9223372036854775807"sv, true, 9223372036854775807ULL},
      {"9223372036854775808"sv, true, 9223372036854775808ULL},
      {"-9223372036854775808"sv, false, 0},
      {"-9223372036854775809"sv, false, 0},
      {"18446744073709551615"sv, true, 18446744073709551615ULL},
      {"18446744073709551616"sv, false, 0},
      {" -5"sv, true, 18446744073709551611ULL},
      {"-5"sv, false, 0},
      {"-0"sv, false, 0},
      {"99999999999999999999999"sv, false, 0},
      {"1\0" "2"sv, false, 0},
      {"1.0"sv, false, 0},
  };
  for (const Uint64Case& c : uint64s) {
    SCOPED_TRACE(std::string(c.text));
    const std::optional<std::uint64_t> v = try_parse_uint64(c.text);
    ASSERT_EQ(v.has_value(), c.ok);
    if (c.ok) {
      EXPECT_EQ(*v, c.value);
    }
  }
}

TEST(ScaleConfig, SeedEnvValidation) {
  ::setenv("IRF_SEED", "77", 1);
  EXPECT_EQ(resolve_scale_from_env().seed, 77u);
  ::setenv("IRF_SEED", "12abc", 1);
  EXPECT_THROW(resolve_scale_from_env(), ConfigError);
  ::setenv("IRF_SEED", "-5", 1);
  EXPECT_THROW(resolve_scale_from_env(), ConfigError);
  ::unsetenv("IRF_SEED");
}

}  // namespace
}  // namespace irf
