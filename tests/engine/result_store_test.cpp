#include "engine/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.hpp"

namespace optiplet::engine {
namespace {

ScenarioResult make_result(const std::string& model,
                           accel::Architecture arch, double latency,
                           double power, double epb) {
  ScenarioResult r;
  r.spec.model = model;
  r.spec.arch = arch;
  r.run.model_name = model;
  r.run.arch = arch;
  r.run.latency_s = latency;
  r.run.average_power_w = power;
  r.run.epb_j_per_bit = epb;
  return r;
}

TEST(ResultStore, ByArchitectureAveragesInFirstSeenOrder) {
  ResultStore store;
  store.add(make_result("LeNet5", accel::Architecture::kSiph2p5D, 1.0, 10.0,
                        1e-12));
  store.add(make_result("VGG16", accel::Architecture::kSiph2p5D, 3.0, 30.0,
                        3e-12));
  store.add(make_result("LeNet5", accel::Architecture::kElec2p5D, 5.0, 50.0,
                        5e-12));
  const auto averages = store.by_architecture();
  ASSERT_EQ(averages.size(), 2u);
  EXPECT_EQ(averages[0].platform,
            accel::to_string(accel::Architecture::kSiph2p5D));
  EXPECT_DOUBLE_EQ(averages[0].latency_s, 2.0);
  EXPECT_DOUBLE_EQ(averages[0].power_w, 20.0);
  EXPECT_DOUBLE_EQ(averages[0].epb_j_per_bit, 2e-12);
  EXPECT_EQ(averages[1].platform,
            accel::to_string(accel::Architecture::kElec2p5D));
  EXPECT_DOUBLE_EQ(averages[1].latency_s, 5.0);
}

TEST(ResultStore, BestByMinimizesWithDeterministicTies) {
  ResultStore store;
  EXPECT_EQ(store.best_by([](const ScenarioResult& r) {
    return r.run.latency_s;
  }), nullptr);
  store.add(make_result("A", accel::Architecture::kSiph2p5D, 2.0, 1, 1));
  store.add(make_result("B", accel::Architecture::kSiph2p5D, 1.0, 1, 1));
  store.add(make_result("C", accel::Architecture::kSiph2p5D, 1.0, 1, 1));
  const auto* best = store.best_by(
      [](const ScenarioResult& r) { return r.run.latency_s; });
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->spec.model, "B");  // earliest of the tied minima
}

TEST(ResultStore, CsvRowsMatchHeaderWidth) {
  const auto header = ResultStore::csv_header();
  const auto row = ResultStore::csv_row(
      make_result("LeNet5", accel::Architecture::kSiph2p5D, 1.0, 2.0, 3.0));
  EXPECT_EQ(row.size(), header.size());
}

TEST(ResultStore, OverridesCellTellsApartValuesAgreeingToSixDigits) {
  // Two override values equal to six significant digits are two distinct
  // scenarios; their overrides cells must differ too.
  const auto header = ResultStore::csv_header();
  const auto column = static_cast<std::size_t>(
      std::find(header.begin(), header.end(), "overrides") - header.begin());
  ASSERT_LT(column, header.size());
  auto a = make_result("LeNet5", accel::Architecture::kSiph2p5D, 1.0, 2.0,
                       3.0);
  a.spec.overrides = {{"resipi.epoch_s", 1.0000001e-5}};
  auto b = a;
  b.spec.overrides = {{"resipi.epoch_s", 1.0000002e-5}};
  EXPECT_NE(ResultStore::csv_row(a)[column], ResultStore::csv_row(b)[column]);
  EXPECT_EQ(ResultStore::csv_row(a)[column], "resipi.epoch_s=1.0000001e-05");
}

TEST(ResultStore, WriteCsvProducesWellFormedFile) {
  ResultStore store;
  store.add(make_result("LeNet5", accel::Architecture::kSiph2p5D, 1.0, 10.0,
                        1e-12));
  store.add(make_result("VGG16", accel::Architecture::kElec2p5D, 3.0, 30.0,
                        3e-12));
  const std::string path = "result_store_test_out.csv";
  ASSERT_TRUE(store.write_csv(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  in.close();
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 3u);  // header + 2 rows
  const auto count_commas = [](const std::string& s) {
    std::size_t n = 0;
    for (const char c : s) {
      n += c == ',' ? 1 : 0;
    }
    return n;
  };
  const std::size_t header_commas = count_commas(lines[0]);
  EXPECT_EQ(header_commas, ResultStore::csv_header().size() - 1);
  EXPECT_EQ(count_commas(lines[1]), header_commas);
  EXPECT_EQ(count_commas(lines[2]), header_commas);
  EXPECT_NE(lines[1].find("LeNet5"), std::string::npos);
  EXPECT_NE(lines[2].find("VGG16"), std::string::npos);
}

TEST(ResultStore, WriteCsvFailsOnUnwritablePath) {
  ResultStore store;
  EXPECT_FALSE(store.write_csv("/no/such/dir/out.csv"));
}

TEST(ResultStore, CsvWriteParseRoundTrip) {
  // The serving CSV consumers (trace tooling, plot scripts) parse what
  // write_csv emits; pin the full write -> parse_csv round trip, including
  // a serving row and an override string containing no quoting hazards.
  ResultStore store;
  auto plain = make_result("LeNet5", accel::Architecture::kSiph2p5D, 1.5e-3,
                           12.0, 2e-12);
  plain.spec.overrides = {{"resipi.epoch_s", 5e-6}};
  store.add(plain);

  auto serving = make_result("LeNet5+VGG16",
                             accel::Architecture::kSiph2p5D, 2e-3, 15.0, 0);
  serving.spec.serving = serve::ServingSpec{};
  serving.spec.serving->tenant_mix = "LeNet5+VGG16";
  serving.spec.serving->arrival_rps = 450.0;
  serving.spec.serving->policy = serve::BatchPolicy::kDeadline;
  serve::ServingMetrics metrics;
  metrics.throughput_rps = 440.0;
  metrics.p50_s = 1e-3;
  metrics.p95_s = 2e-3;
  metrics.p99_s = 3e-3;
  metrics.sla_violation_rate = 0.125;
  metrics.energy_per_request_j = 7e-4;
  metrics.utilization = 0.5;
  metrics.mean_batch = 3.5;
  serving.serving = metrics;
  store.add(serving);

  const std::string path =
      ::testing::TempDir() + "result_store_roundtrip.csv";
  ASSERT_TRUE(store.write_csv(path));
  const auto doc = util::read_csv_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->header, ResultStore::csv_header());
  ASSERT_EQ(doc->rows.size(), 2u);
  for (const auto& row : doc->rows) {
    EXPECT_EQ(row.size(), doc->header.size());
  }

  const auto cell = [&](std::size_t row, const std::string& column) {
    return doc->rows[row][*doc->column(column)];
  };
  EXPECT_EQ(cell(0, "model"), "LeNet5");
  EXPECT_EQ(cell(0, "serving"), "0");
  EXPECT_EQ(cell(0, "throughput_rps"), "");
  EXPECT_EQ(cell(0, "overrides"), "resipi.epoch_s=5e-06");
  EXPECT_EQ(cell(1, "model"), "LeNet5+VGG16");
  EXPECT_EQ(cell(1, "serving"), "1");
  EXPECT_EQ(cell(1, "batch_policy"), "deadline");
  EXPECT_DOUBLE_EQ(std::stod(cell(1, "arrival_rps")), 450.0);
  EXPECT_DOUBLE_EQ(std::stod(cell(1, "throughput_rps")), 440.0);
  EXPECT_DOUBLE_EQ(std::stod(cell(1, "p99_s")), 3e-3);
  EXPECT_DOUBLE_EQ(std::stod(cell(1, "sla_violation_rate")), 0.125);
  EXPECT_DOUBLE_EQ(std::stod(cell(1, "energy_per_request_j")), 7e-4);
}

}  // namespace
}  // namespace optiplet::engine
