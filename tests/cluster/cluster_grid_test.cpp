#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cluster/cluster_scheduler.hpp"
#include "cluster/cluster_spec.hpp"
#include "engine/result_store.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"

namespace optiplet {
namespace {

TEST(ClusterSpec, ReplicationFactorsClampAndParse) {
  cluster::ClusterSpec spec;
  spec.packages = 4;
  spec.replication = 6;  // clamped to the rack size
  EXPECT_EQ(spec.replications(2),
            (std::vector<std::size_t>{4, 4}));
  spec.replication_mix = "1+3";
  EXPECT_EQ(spec.replications(2),
            (std::vector<std::size_t>{1, 3}));
  spec.replication_mix = "1+9";  // oversized factors clamp to the rack
  EXPECT_EQ(spec.replications(2),
            (std::vector<std::size_t>{1, 4}));
  spec.replication_mix = "0+2";  // zero replicas is malformed, not clamped
  EXPECT_THROW((void)spec.replications(2), std::invalid_argument);
  spec.replication_mix = "1+2+3";  // wrong arity for 2 tenants
  EXPECT_THROW((void)spec.replications(2), std::invalid_argument);
  spec.replication_mix = "2+x";
  EXPECT_THROW((void)spec.replications(2), std::invalid_argument);
}

TEST(ClusterSpec, BalancerPolicyNamesRoundTrip) {
  using cluster::BalancerPolicy;
  for (const auto policy :
       {BalancerPolicy::kRoundRobin, BalancerPolicy::kLeastLoaded,
        BalancerPolicy::kLocalityAware}) {
    const auto parsed =
        util::parse_name<BalancerPolicy>(cluster::to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_EQ(util::parse_name<BalancerPolicy>("round-robin"),
            BalancerPolicy::kRoundRobin);
  EXPECT_EQ(util::parse_name<BalancerPolicy>("least-loaded"),
            BalancerPolicy::kLeastLoaded);
  EXPECT_EQ(util::parse_name<BalancerPolicy>("locality-aware"),
            BalancerPolicy::kLocalityAware);
  EXPECT_FALSE(util::parse_name<BalancerPolicy>("random").has_value());
  EXPECT_FALSE(util::parse_name<BalancerPolicy>("").has_value());
  EXPECT_EQ(util::choices<BalancerPolicy>(), "rr, least, locality");
}

TEST(ClusterScheduler, PlacementIsDeterministicAndAscending) {
  cluster::ClusterSpec spec;
  spec.packages = 3;
  spec.replication = 2;
  // Architecture kMonolithicCrossLight skips pool-partition validation,
  // so the structural properties are testable without a feasible pool
  // split for every hosted set.
  const cluster::Placement placement = cluster::place_tenants(
      spec, core::default_system_config(),
      accel::Architecture::kMonolithicCrossLight, {"LeNet5", "VGG16"},
      {1.0, 1.0});
  ASSERT_EQ(placement.replicas.size(), 2u);
  // Tenant t's primary is t mod N; replicas are consecutive.
  EXPECT_EQ(placement.replicas[0],
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(placement.replicas[1],
            (std::vector<std::size_t>{1, 2}));
  ASSERT_EQ(placement.package_tenants.size(), 3u);
  EXPECT_EQ(placement.package_tenants[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(placement.package_tenants[1],
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(placement.package_tenants[2], (std::vector<std::size_t>{1}));
  EXPECT_TRUE(placement.hosts(1, 0));
  EXPECT_FALSE(placement.hosts(2, 0));
  EXPECT_EQ(placement.replica_index(1, 2), std::size_t{1});
  EXPECT_EQ(placement.replica_index(0, 2), std::nullopt);
}

TEST(ScenarioSpec, KeyCarriesTheClusterBlock) {
  engine::ScenarioSpec spec;
  spec.model = "LeNet5";
  spec.serving.emplace();
  spec.serving->tenant_mix = "LeNet5";
  spec.cluster.emplace();
  spec.cluster->packages = 4;
  spec.cluster->balancer = cluster::BalancerPolicy::kLeastLoaded;
  spec.cluster->replication = 2;
  const std::string key = spec.key();
  EXPECT_NE(key.find("cluster.pkgs=4"), std::string::npos);
  EXPECT_NE(key.find("cluster.bal=least"), std::string::npos);
  EXPECT_NE(key.find("cluster.rep=2"), std::string::npos);

  // Different rack shapes must not collide in the memo cache.
  engine::ScenarioSpec other = spec;
  other.cluster->packages = 2;
  EXPECT_NE(spec.key(), other.key());
  engine::ScenarioSpec same = spec;
  EXPECT_EQ(spec.key(), same.key());

  // A serving spec without a cluster block keeps its pre-cluster key.
  engine::ScenarioSpec serving_only = spec;
  serving_only.cluster.reset();
  EXPECT_EQ(serving_only.key().find("cluster."), std::string::npos);
}

TEST(ScenarioGrid, ClusterAxesExpandTheCartesianProduct) {
  engine::ScenarioGrid grid;
  grid.tenant_mixes = {"LeNet5"};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  grid.package_counts = {1, 2};
  grid.balancer_policies = {cluster::BalancerPolicy::kRoundRobin,
                            cluster::BalancerPolicy::kLocalityAware};
  grid.replication_factors = {2};
  grid.cluster_defaults.link_length_m = 0.4;
  EXPECT_TRUE(grid.cluster_mode());
  EXPECT_TRUE(grid.serving_mode());
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 4u);
  for (const auto& spec : specs) {
    ASSERT_TRUE(spec.serving.has_value());
    ASSERT_TRUE(spec.cluster.has_value());
    EXPECT_EQ(spec.cluster->replication, 2u);
    // Unswept knobs flow from cluster_defaults.
    EXPECT_EQ(spec.cluster->link_length_m, 0.4);
  }
  const auto count_packages = [&specs](std::size_t packages) {
    return std::count_if(specs.begin(), specs.end(),
                         [packages](const engine::ScenarioSpec& s) {
                           return s.cluster->packages == packages;
                         });
  };
  EXPECT_EQ(count_packages(1), 2);
  EXPECT_EQ(count_packages(2), 2);
}

TEST(ResultStore, ClusterRowsFillTheRackColumns) {
  const auto header = engine::ResultStore::csv_header();
  const auto column = [&header](const std::string& name) {
    const auto it = std::find(header.begin(), header.end(), name);
    EXPECT_NE(it, header.end()) << "missing column " << name;
    return static_cast<std::size_t>(it - header.begin());
  };

  engine::ScenarioResult result;
  result.spec.model = "LeNet5";
  result.spec.serving.emplace();
  result.spec.serving->tenant_mix = "LeNet5";
  result.spec.cluster.emplace();
  result.spec.cluster->packages = 4;
  result.spec.cluster->balancer = cluster::BalancerPolicy::kLocalityAware;
  result.spec.cluster->replication = 4;
  result.serving.emplace();
  result.cluster.emplace();
  result.cluster->transfers = 12;
  result.cluster->transfer_latency_s = 3e-6;
  result.cluster->transfer_energy_j = 4e-9;
  const auto row = engine::ResultStore::csv_row(result);
  ASSERT_EQ(row.size(), header.size());
  EXPECT_EQ(row[column("packages")], "4");
  EXPECT_EQ(row[column("balancer")], "locality");
  EXPECT_EQ(row[column("replication")], "4");
  EXPECT_EQ(row[column("transfers")], "12");

  // A replication mix overrides the scalar factor in the CSV.
  result.spec.cluster->replication_mix = "1+2";
  EXPECT_EQ(engine::ResultStore::csv_row(result)[column("replication")],
            "1+2");

  // Serving-only and single-inference rows pad the rack columns empty.
  engine::ScenarioResult serving_only = result;
  serving_only.spec.cluster.reset();
  serving_only.cluster.reset();
  const auto serving_row = engine::ResultStore::csv_row(serving_only);
  ASSERT_EQ(serving_row.size(), header.size());
  EXPECT_EQ(serving_row[column("packages")], "");
  engine::ScenarioResult single;
  single.spec.model = "LeNet5";
  const auto single_row = engine::ResultStore::csv_row(single);
  ASSERT_EQ(single_row.size(), header.size());
  EXPECT_EQ(single_row[column("serving")], "0");
  EXPECT_EQ(single_row[column("packages")], "");
}

TEST(SweepRunner, ClusterScenariosEvaluateAndMemoize) {
  engine::ScenarioGrid grid;
  grid.tenant_mixes = {"LeNet5"};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  grid.package_counts = {2};
  grid.balancer_policies = {cluster::BalancerPolicy::kRoundRobin};
  grid.replication_factors = {1};
  grid.serving_defaults.requests = 80;
  engine::SweepRunner runner(core::default_system_config());
  const auto results = runner.run(grid);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].serving.has_value());
  ASSERT_TRUE(results[0].cluster.has_value());
  // The serving view is the merged rack view.
  EXPECT_EQ(results[0].serving->completed,
            results[0].cluster->rack.completed);
  EXPECT_EQ(results[0].cluster->packages, 2u);
  EXPECT_GT(results[0].cluster->transfers, 0u);
  EXPECT_EQ(results[0].run.latency_s, results[0].serving->mean_latency_s);
  // Repeats come from the memo cache.
  const auto again = runner.run(grid);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].from_cache);
  EXPECT_EQ(again[0].cluster->transfer_energy_j,
            results[0].cluster->transfer_energy_j);
}

}  // namespace
}  // namespace optiplet
