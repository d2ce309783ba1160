#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <string>

#include "serve/tracegen.hpp"
#include "util/csv.hpp"

namespace optiplet::util {
namespace {

TEST(ParseNumber, AcceptsDecimalAndExponentSpellings) {
  EXPECT_EQ(parse_number<double>("0"), 0.0);
  EXPECT_EQ(parse_number<double>("0.5"), 0.5);
  EXPECT_EQ(parse_number<double>("-0.25"), -0.25);
  EXPECT_EQ(parse_number<double>("2e-3"), 2e-3);
  EXPECT_EQ(parse_number<double>("1E3"), 1000.0);
  EXPECT_EQ(parse_number<double>("1e+3"), 1000.0);
  EXPECT_EQ(parse_number<double>(".5"), 0.5);
  EXPECT_EQ(parse_number<int>("-1"), -1);
  EXPECT_EQ(parse_number<unsigned>("007"), 7u);
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // 2^53 + 1 has no double; an integer seed must still parse exactly.
  EXPECT_EQ(parse_number<std::uint64_t>("9007199254740993"),
            9007199254740993ULL);
}

template <typename T>
void expect_rejected(std::initializer_list<const char*> texts) {
  for (const char* text : texts) {
    EXPECT_FALSE(parse_number<T>(text).has_value()) << '"' << text << '"';
  }
}

TEST(ParseNumber, RejectsEverythingElse) {
  // Whitespace, '+', hex and trailing text.
  expect_rejected<double>({"", " 1", "1 ", "\t1", "1\n", "+1", "0x10"});
  expect_rejected<double>({"0X10", "1abc", "1,2", "1.0.0", "e3", "-"});
  // Not finite, or out of range.
  expect_rejected<double>({"nan", "NaN", "-nan", "inf", "-inf", "INF"});
  expect_rejected<double>({"infinity", "1e400", "-1e400"});
  // Integers are plain digits, unsigned ones without a sign.
  expect_rejected<std::uint64_t>({"", " 1", "+1", "0x10", "1e3", "5.0"});
  expect_rejected<std::uint64_t>({"1.", "-1", "-0", "nan", "inf"});
  expect_rejected<std::uint64_t>({"18446744073709551616"});
  expect_rejected<std::uint32_t>({"4294967296"});
  expect_rejected<int>({"2147483648", "+2"});
}

// The trace writer spells arrival_s with 17 significant digits; the
// reader must recover the double std::stod recovers, which is the double
// the generator drew.
TEST(ParseNumber, ReadsEveryDiurnalArrivalLikeStod) {
  serve::TraceGenSpec spec;
  spec.profile = serve::TraceProfile::kDiurnal;
  spec.base_rps = 20000.0;
  spec.duration_s = 0.05;
  spec.seed = 11;
  const auto events = serve::generate_trace(spec);
  ASSERT_GT(events.size(), 100u);
  const std::string path = ::testing::TempDir() + "strings_diurnal.csv";
  ASSERT_TRUE(serve::write_arrival_trace(path, events));
  const auto doc = read_csv_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  const auto column = doc->column("arrival_s");
  ASSERT_TRUE(column.has_value());
  ASSERT_EQ(doc->rows.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string& cell = doc->rows[i][*column];
    const auto parsed = parse_number<double>(cell);
    ASSERT_TRUE(parsed.has_value()) << cell;
    EXPECT_EQ(*parsed, std::stod(cell)) << cell;
    EXPECT_EQ(*parsed, events[i].arrival_s) << cell;
  }
}

}  // namespace
}  // namespace optiplet::util
