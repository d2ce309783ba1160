#include "cluster/cluster_simulator.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/system_config.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::cluster {
namespace {

/// Solo batch-1 capacity of `model` through the exact partition + oracle
/// path the simulator serves with.
double solo_capacity_rps(const std::string& model) {
  serve::ColocatedSetup setup =
      serve::make_colocated_setup(core::default_system_config(),
                                  accel::Architecture::kSiph2p5D, {model});
  serve::ServiceTimeOracle oracle(std::move(setup.oracle_tenants),
                                  accel::Architecture::kSiph2p5D);
  return 1.0 / oracle.batch_run(0, 1).latency_s;
}

ClusterConfig make_cluster(const std::string& mix, double rate_rps,
                           std::uint64_t requests, std::size_t packages,
                           BalancerPolicy balancer,
                           std::size_t replication) {
  ClusterConfig config;
  config.system = core::default_system_config();
  config.serving.tenant_mix = mix;
  config.serving.arrival_rps = rate_rps;
  config.serving.requests = requests;
  config.cluster.packages = packages;
  config.cluster.balancer = balancer;
  config.cluster.replication = replication;
  config.threads = 1;
  return config;
}

void expect_rack_equals(const serve::ServingMetrics& a,
                        const serve::ServingMetrics& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p50_s, b.p50_s);
  EXPECT_EQ(a.p95_s, b.p95_s);
  EXPECT_EQ(a.p99_s, b.p99_s);
  EXPECT_EQ(a.max_latency_s, b.max_latency_s);
  EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
  EXPECT_EQ(a.mean_batch, b.mean_batch);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.energy_per_request_j, b.energy_per_request_j);
  EXPECT_EQ(a.p99_hi_s, b.p99_hi_s);
  EXPECT_EQ(a.p99_lo_s, b.p99_lo_s);
}

TEST(ClusterSimulator, SinglePackageReproducesLoneSimulatorBitForBit) {
  // A 1-package rack must be the lone serving simulator: same arrival
  // vectors, same config, and a merge that recomputes every metric in
  // the same arithmetic order.
  ClusterConfig config = make_cluster("ResNet50+LeNet5", 600.0, 160, 1,
                                      BalancerPolicy::kLocalityAware, 1);
  const ClusterReport rack = simulate(config);
  const serve::ServingReport lone = serve::simulate(serve::make_serving_config(
      config.system, config.arch, config.serving));
  expect_rack_equals(rack.metrics.rack, lone.metrics);
  EXPECT_EQ(rack.metrics.transfers, 0u);
  EXPECT_EQ(rack.metrics.transfer_latency_s, 0.0);
  EXPECT_EQ(rack.metrics.transfer_energy_j, 0.0);
  ASSERT_EQ(rack.packages.size(), 1u);
  EXPECT_TRUE(rack.packages[0].active);
  ASSERT_EQ(rack.packages[0].report.tenants.size(), lone.tenants.size());
  for (std::size_t t = 0; t < lone.tenants.size(); ++t) {
    EXPECT_EQ(rack.packages[0].report.tenants[t].completed,
              lone.tenants[t].completed);
    EXPECT_EQ(rack.packages[0].report.tenants[t].mean_latency_s,
              lone.tenants[t].mean_latency_s);
  }
}

TEST(ClusterSimulator, SinglePackageClosedLoopAlsoDegenerates) {
  ClusterConfig config = make_cluster("LeNet5", 0.0, 200, 1,
                                      BalancerPolicy::kRoundRobin, 1);
  config.serving.source = serve::ArrivalSource::kClosedLoop;
  config.serving.users = 8;
  config.serving.think_s = 2e-4;
  const ClusterReport rack = simulate(config);
  const serve::ServingReport lone = serve::simulate(serve::make_serving_config(
      config.system, config.arch, config.serving));
  expect_rack_equals(rack.metrics.rack, lone.metrics);
  EXPECT_EQ(rack.metrics.transfers, 0u);
}

TEST(ClusterSimulator, BitIdenticalAcrossRackThreadCounts) {
  ClusterConfig config = make_cluster("LeNet5+MobileNetV2", 800.0, 240, 4,
                                      BalancerPolicy::kLocalityAware, 2);
  config.threads = 1;
  const ClusterReport one = simulate(config);
  config.threads = 2;
  const ClusterReport two = simulate(config);
  config.threads = 0;  // hardware concurrency
  const ClusterReport hw = simulate(config);
  expect_rack_equals(one.metrics.rack, two.metrics.rack);
  expect_rack_equals(one.metrics.rack, hw.metrics.rack);
  EXPECT_EQ(one.metrics.transfers, two.metrics.transfers);
  EXPECT_EQ(one.metrics.transfer_latency_s, hw.metrics.transfer_latency_s);
  EXPECT_EQ(one.metrics.transfer_energy_j, hw.metrics.transfer_energy_j);
  ASSERT_EQ(one.packages.size(), hw.packages.size());
  for (std::size_t p = 0; p < one.packages.size(); ++p) {
    EXPECT_EQ(one.packages[p].dispatched, hw.packages[p].dispatched);
    EXPECT_EQ(one.packages[p].report.metrics.completed,
              hw.packages[p].report.metrics.completed);
    EXPECT_EQ(one.packages[p].report.metrics.energy_j,
              hw.packages[p].report.metrics.energy_j);
  }
}

TEST(ClusterSimulator, RemoteReplicasPayPhotonicTransfers) {
  // One replica behind four ingress ports: three quarters of the stream
  // enters off-package and must ride the board-level link both ways.
  const ClusterReport remote =
      simulate(make_cluster("LeNet5", 500.0, 200, 4,
                            BalancerPolicy::kRoundRobin, 1));
  EXPECT_GT(remote.metrics.transfers, 0u);
  EXPECT_GT(remote.metrics.transfer_latency_s, 0.0);
  EXPECT_GT(remote.metrics.transfer_energy_j, 0.0);
  EXPECT_EQ(remote.metrics.rack.completed, 200u);
  // Transfer energy is part of the rack's energy accounting.
  double package_energy = 0.0;
  for (const auto& p : remote.packages) {
    package_energy += p.report.metrics.energy_j;
  }
  EXPECT_GT(remote.metrics.rack.energy_j, package_energy);

  // Full replication under locality-aware dispatch serves every request
  // on its ingress package: no transfers at all.
  const ClusterReport local =
      simulate(make_cluster("LeNet5", 500.0, 200, 4,
                            BalancerPolicy::kLocalityAware, 4));
  EXPECT_EQ(local.metrics.transfers, 0u);
  EXPECT_EQ(local.metrics.transfer_energy_j, 0.0);
  EXPECT_EQ(local.metrics.rack.completed, 200u);
}

TEST(ClusterSimulator, ClosedLoopRemoteUsersChargeTransfers) {
  ClusterConfig config = make_cluster("LeNet5", 0.0, 200, 2,
                                      BalancerPolicy::kRoundRobin, 1);
  config.serving.source = serve::ArrivalSource::kClosedLoop;
  config.serving.users = 8;
  config.serving.think_s = 2e-4;
  const ClusterReport rack = simulate(config);
  EXPECT_EQ(rack.metrics.rack.completed, 200u);
  EXPECT_GT(rack.metrics.transfers, 0u);
  EXPECT_GT(rack.metrics.transfer_energy_j, 0.0);
}

TEST(ClusterSimulator, ReplicatedLocalityRackScalesThroughput) {
  // At 3x one package's capacity, a lone package saturates; a 4-package
  // locality-aware rack with a replica everywhere splits the stream
  // 4 ways locally and must sustain strictly more aggregate throughput.
  const double rate = 3.0 * solo_capacity_rps("LeNet5");
  const ClusterReport one =
      simulate(make_cluster("LeNet5", rate, 600, 1,
                            BalancerPolicy::kLocalityAware, 1));
  const ClusterReport four =
      simulate(make_cluster("LeNet5", rate, 600, 4,
                            BalancerPolicy::kLocalityAware, 4));
  EXPECT_GT(four.metrics.rack.throughput_rps,
            one.metrics.rack.throughput_rps);
  EXPECT_LT(four.metrics.rack.p99_s, one.metrics.rack.p99_s);
  // Every package carries load under full replication.
  EXPECT_GT(four.metrics.util_min, 0.0);
  EXPECT_LE(four.metrics.util_max, 1.0);
}

TEST(ClusterSimulator, LeastLoadedRoutesAroundTheHotPackage) {
  // ResNet50 is pinned to package 0 (replication 1); LeNet5 has replicas
  // on both packages (its list is [1, 0]). Round-robin alternates LeNet5
  // between them blindly; least-loaded sees ResNet50's accumulated work
  // on package 0 and keeps LeNet5 on package 1.
  ClusterConfig rr_config = make_cluster("ResNet50+LeNet5", 800.0, 200, 2,
                                         BalancerPolicy::kRoundRobin, 1);
  rr_config.cluster.replication_mix = "1+2";
  ClusterConfig least_config = rr_config;
  least_config.cluster.balancer = BalancerPolicy::kLeastLoaded;
  const ClusterReport rr = simulate(rr_config);
  const ClusterReport least = simulate(least_config);
  EXPECT_EQ(rr.metrics.rack.completed, 200u);
  EXPECT_EQ(least.metrics.rack.completed, 200u);
  // Package 1 only hosts LeNet5, so its dispatch count is the LeNet5
  // share: least-loaded must route strictly more of it there.
  ASSERT_EQ(rr.packages.size(), 2u);
  EXPECT_GT(least.packages[1].dispatched, rr.packages[1].dispatched);
  // Keeping LeNet5 off the ResNet50 package shortens its queueing.
  EXPECT_LT(least.metrics.rack.mean_latency_s,
            rr.metrics.rack.mean_latency_s);
}

TEST(ClusterSimulator, MalformedReplicationMixThrows) {
  ClusterConfig config = make_cluster("ResNet50+LeNet5", 400.0, 40, 2,
                                      BalancerPolicy::kRoundRobin, 1);
  // 1 factor for 2 tenants; assigned as a std::string because the
  // literal trips a gcc 12 -Wrestrict false positive at -O3.
  config.cluster.replication_mix = std::string("2");
  EXPECT_THROW((void)simulate(config), std::invalid_argument);
  config.cluster.replication_mix = "2+x";
  EXPECT_THROW((void)simulate(config), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::cluster
