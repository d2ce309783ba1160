#include "cluster/cluster_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "core/system_config.hpp"
#include "serve/arrivals.hpp"
#include "serve/elastic.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"
#include "serve/tracegen.hpp"
#include "util/rng.hpp"

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

TEST(ClusterSimulator, RefusesAPackageSizeBatchItsUsersCannotFill) {
  // Two replicas split 12 users 6 and 6, under the size batch of 8: each
  // package's closed loop would stall once its users all wait, so the
  // rack refuses it, naming the package's share.
  ClusterConfig config = make_cluster("LeNet5", 0.0, 100, 2,
                                      BalancerPolicy::kLocalityAware, 2);
  config.serving.source = serve::ArrivalSource::kClosedLoop;
  config.serving.policy = serve::BatchPolicy::kFixedSize;
  config.serving.users = 12;
  try {
    (void)simulate(config);
    ADD_FAILURE() << "6 users per package were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "closed loop of 6 users on LeNet5 can never fill its size "
              "batch of 8 (50 requests): use at least 8 users, or another "
              "policy");
  }
  config.serving.users = 16;
  EXPECT_EQ(simulate(config).metrics.rack.completed, 100u);
  // One user leaves the second replica idle (one user, no budget), which
  // still passes.
  config.serving.users = 1;
  config.serving.requests = 1;
  EXPECT_EQ(simulate(config).metrics.rack.completed, 1u);
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

TEST(ClusterSimulator, FaultOnAMissingPackageFailsAtTheBoundary) {
  // A fault must name a package of the rack, or -1 for every package;
  // anything else would be silently dropped by the per-package delivery.
  ClusterConfig config = make_cluster("LeNet5", 1000.0, 200, 2,
                                      BalancerPolicy::kRoundRobin, 2);
  serve::FaultSpec fault;
  fault.time_s = 0.001;
  fault.chiplet = 0;
  for (const int package : {2, 7, -2}) {
    fault.package = package;
    config.serving.elastic.faults = {fault};
    try {
      (void)simulate(config);
      ADD_FAILURE() << "package " << package << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(serve::to_string(fault)), std::string::npos)
          << message;
      EXPECT_NE(message.find("the rack has 2 package"), std::string::npos)
          << message;
    }
  }
  // Every package (-1) and the last package stay valid.
  for (const int package : {-1, 1}) {
    fault.package = package;
    config.serving.elastic.faults = {fault};
    const ClusterReport rack = simulate(config);
    EXPECT_EQ(rack.metrics.rack.offered, 200u);
    EXPECT_EQ(rack.metrics.rack.faults_injected, package == -1 ? 2u : 1u);
  }
}

TEST(ClusterSimulator, RefusesBoardLinksWhoseBudgetCannotClose) {
  // A 1 m route loses more than the reader tolerates, and a row of 100000
  // channels fits no ring FSR (nor a C-band grid): both are refused before
  // routing, naming the link fields. The 0.75 m and 16-channel links
  // beside them still close.
  ClusterConfig config = make_cluster("LeNet5", 1000.0, 40, 2,
                                      BalancerPolicy::kRoundRobin, 2);
  const auto error = [&config] {
    try {
      (void)simulate(config);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  config.cluster.link_length_m = 1.0;
  EXPECT_EQ(error(),
            "board link of link_length_m 1 and link_wavelengths 16: its "
            "link budget cannot close (45.1128567 dB of loss and "
            "crosstalk)");
  config.cluster.link_length_m = 0.75;
  EXPECT_EQ(error(), "");
  config.cluster.link_wavelengths = 100000;
  EXPECT_EQ(error(),
            "board link of link_length_m 0.75 and link_wavelengths 100000: "
            "its WDM row is wider than one ring FSR");
  config.cluster.link_wavelengths = 16;
  EXPECT_EQ(error(), "");
}

TEST(ClusterSimulator, ShuffledShapedTraceReplaysOnAMultiPackageRack) {
  // Two TinyGPT copies on three packages, each replicated twice, replay a
  // shuffled trace with token columns and many equal-time rows: the rack
  // must not depend on its thread count, nor on the file's row order
  // beyond the loader's stable sort.
  util::Xoshiro256 rng(29);
  std::vector<serve::TraceEvent> rows;
  for (int i = 0; i < 240; ++i) {
    serve::TraceEvent row;
    row.arrival_s = static_cast<double>(rng.next_below(60)) * 0x1p-10;
    row.tenant = rng.next_below(2) == 0 ? "TinyGPT#0" : "TinyGPT#1";
    row.shape.prefill_tokens =
        static_cast<std::uint32_t>(8 + rng.next_below(57));
    row.shape.decode_tokens =
        static_cast<std::uint32_t>(1 + rng.next_below(16));
    rows.push_back(std::move(row));
  }
  std::vector<serve::TraceEvent> sorted = rows;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const serve::TraceEvent& a, const serve::TraceEvent& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  ASSERT_NE(rows.front().arrival_s, sorted.front().arrival_s);
  const std::string shuffled_path =
      ::testing::TempDir() + "optiplet_rack_shuffled_trace.csv";
  const std::string sorted_path =
      ::testing::TempDir() + "optiplet_rack_sorted_trace.csv";
  ASSERT_TRUE(serve::write_arrival_trace(shuffled_path, rows));
  ASSERT_TRUE(serve::write_arrival_trace(sorted_path, sorted));

  for (const BalancerPolicy policy :
       {BalancerPolicy::kRoundRobin, BalancerPolicy::kLeastLoaded,
        BalancerPolicy::kLocalityAware}) {
    SCOPED_TRACE(to_string(policy));
    ClusterConfig config = make_cluster("TinyGPT+TinyGPT", 0.0, 0, 3,
                                        policy, 2);
    config.serving.policy = serve::BatchPolicy::kContinuous;
    config.serving.prefill_tokens = 32;
    config.serving.decode_tokens = 8;
    config.serving.trace_path = shuffled_path;
    config.threads = 1;
    const ClusterReport one = simulate(config);
    config.threads = 3;
    const ClusterReport three = simulate(config);
    config.serving.trace_path = sorted_path;
    const ClusterReport presorted = simulate(config);

    EXPECT_EQ(one.metrics.rack.completed, rows.size());
    EXPECT_GT(one.metrics.rack.decode_tps, 0.0);
    EXPECT_GT(one.metrics.transfers, 0u);
    for (const ClusterReport* other : {&three, &presorted}) {
      expect_rack_equals(one.metrics.rack, other->metrics.rack);
      EXPECT_EQ(one.metrics.rack.ttft_p99_s, other->metrics.rack.ttft_p99_s);
      EXPECT_EQ(one.metrics.rack.decode_tps, other->metrics.rack.decode_tps);
      EXPECT_EQ(one.metrics.transfers, other->metrics.transfers);
      EXPECT_EQ(one.metrics.transfer_latency_s,
                other->metrics.transfer_latency_s);
      EXPECT_EQ(one.metrics.transfer_energy_j,
                other->metrics.transfer_energy_j);
      ASSERT_EQ(one.packages.size(), other->packages.size());
      for (std::size_t p = 0; p < one.packages.size(); ++p) {
        EXPECT_EQ(one.packages[p].dispatched, other->packages[p].dispatched);
        EXPECT_EQ(one.packages[p].report.metrics.energy_j,
                  other->packages[p].report.metrics.energy_j);
        EXPECT_EQ(one.packages[p].report.metrics.p99_s,
                  other->packages[p].report.metrics.p99_s);
      }
    }
  }
  std::remove(shuffled_path.c_str());
  std::remove(sorted_path.c_str());
}

/// The front end before the merge: every arrival in one vector sorted on
/// (time, tenant, seq), routed in that order, then each (package, tenant)
/// stream stable-sorted by arrival time at the package. The reference
/// `dispatch_open_loop` must reproduce bit for bit. `ties` counts adjacent
/// equal-time arrivals of one routed stream that came from different
/// sides of the link: [0] local first, [1] remote first.
struct ReferenceDispatch {
  std::vector<std::vector<RoutedStream>> routed;
  std::vector<LinkHop> hops;
  std::array<int, 2> ties = {0, 0};
};

ReferenceDispatch sort_dispatch(const std::vector<TenantStream>& streams,
                                std::size_t packages,
                                LoadBalancer& balancer) {
  struct Event {
    double time_s;
    std::size_t tenant;
    std::uint64_t seq;
  };
  const std::size_t n = streams.size();
  std::vector<Event> events;
  for (std::size_t t = 0; t < n; ++t) {
    for (std::uint64_t k = 0; k < streams[t].times.size(); ++k) {
      events.push_back({streams[t].times[k], t, k});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.time_s, a.tenant, a.seq) <
           std::tie(b.time_s, b.tenant, b.seq);
  });
  struct Routed {
    double at;
    bool remote;
    serve::RequestShape shape;
  };
  std::vector<std::vector<std::vector<Routed>>> arrivals(
      packages, std::vector<std::vector<Routed>>(n));
  ReferenceDispatch out;
  std::uint64_t port = 0;
  for (const Event& event : events) {
    const TenantStream& stream = streams[event.tenant];
    const std::size_t ingress = port++ % packages;
    const std::size_t package = balancer.route(event.tenant, ingress);
    double at = event.time_s;
    if (package != ingress) {
      at += stream.hop_s;
      out.hops.push_back({event.tenant, ingress, package, event.time_s, at});
    }
    arrivals[package][event.tenant].push_back(
        {at, package != ingress,
         stream.shapes.empty() ? serve::RequestShape{}
                               : stream.shapes[event.seq]});
  }
  out.routed.resize(packages);
  for (std::size_t p = 0; p < packages; ++p) {
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<Routed>& routed = arrivals[p][t];
      std::stable_sort(routed.begin(), routed.end(),
                       [](const Routed& a, const Routed& b) {
                         return a.at < b.at;
                       });
      RoutedStream stream;
      for (std::size_t i = 0; i < routed.size(); ++i) {
        stream.times.push_back(routed[i].at);
        if (!streams[t].shapes.empty()) {
          stream.shapes.push_back(routed[i].shape);
        }
        if (i > 0 && routed[i - 1].at == routed[i].at &&
            routed[i - 1].remote != routed[i].remote) {
          ++out.ties[routed[i - 1].remote ? 1 : 0];
        }
      }
      out.routed[p].push_back(std::move(stream));
    }
  }
  return out;
}

TEST(ClusterSimulator, MergedDispatchMatchesTheSortedReference) {
  // Times and link delays are small multiples of 2^-8 s, so every sum is
  // exact: arrivals tie within a tenant, across tenants, and a delayed
  // arrival lands exactly on a local one. A zero delay makes a remote
  // arrival tie a local one dispatched before it.
  constexpr double kGrid = 0x1p-8;
  std::array<int, 2> ties = {0, 0};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::size_t packages = 1 + rng.next_below(4);
    const std::size_t n = 1 + rng.next_below(4);
    Placement placement;
    placement.packages = packages;
    placement.replicas.resize(n);
    placement.package_tenants.resize(packages);
    std::vector<double> weights;
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t replication = 1 + rng.next_below(packages);
      for (std::size_t r = 0; r < replication; ++r) {
        placement.replicas[t].push_back((t + r) % packages);
      }
      weights.push_back(static_cast<double>(1 + rng.next_below(3)) * 0.5);
    }
    for (std::size_t p = 0; p < packages; ++p) {
      for (std::size_t t = 0; t < n; ++t) {
        if (placement.hosts(p, t)) {
          placement.package_tenants[p].push_back(t);
        }
      }
    }
    for (const bool shaped : {false, true}) {
      std::vector<TenantStream> streams(n);
      for (TenantStream& stream : streams) {
        stream.hop_s = static_cast<double>(rng.next_below(4)) * kGrid;
        const std::uint64_t count = rng.next_below(48);
        double time = 0.0;
        for (std::uint64_t k = 0; k < count; ++k) {
          time += static_cast<double>(std::max<std::uint64_t>(
                      rng.next_below(6), 2) - 2) *
                  kGrid;
          stream.times.push_back(time);
          if (shaped) {
            stream.shapes.push_back(
                {static_cast<std::uint32_t>(1 + rng.next_below(64)),
                 static_cast<std::uint32_t>(rng.next_below(16))});
          }
        }
      }
      for (const BalancerPolicy policy :
           {BalancerPolicy::kRoundRobin, BalancerPolicy::kLeastLoaded,
            BalancerPolicy::kLocalityAware}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     to_string(policy) + (shaped ? ", shaped" : ""));
        LoadBalancer reference_balancer(policy, placement, weights);
        const ReferenceDispatch reference =
            sort_dispatch(streams, packages, reference_balancer);
        LoadBalancer balancer(policy, placement, weights);
        std::vector<LinkHop> hops;
        const std::vector<std::vector<RoutedStream>> routed =
            dispatch_open_loop(streams, packages, balancer,
                               [&hops](const LinkHop& hop) {
                                 hops.push_back(hop);
                               });
        ties[0] += reference.ties[0];
        ties[1] += reference.ties[1];
        EXPECT_EQ(balancer.dispatched(), reference_balancer.dispatched());
        ASSERT_EQ(hops.size(), reference.hops.size());
        for (std::size_t i = 0; i < hops.size(); ++i) {
          EXPECT_EQ(hops[i].tenant, reference.hops[i].tenant);
          EXPECT_EQ(hops[i].ingress, reference.hops[i].ingress);
          EXPECT_EQ(hops[i].package, reference.hops[i].package);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(hops[i].sent_s),
                    std::bit_cast<std::uint64_t>(reference.hops[i].sent_s));
          EXPECT_EQ(
              std::bit_cast<std::uint64_t>(hops[i].arrival_s),
              std::bit_cast<std::uint64_t>(reference.hops[i].arrival_s));
        }
        ASSERT_EQ(routed.size(), packages);
        for (std::size_t p = 0; p < packages; ++p) {
          ASSERT_EQ(routed[p].size(), n);
          for (std::size_t t = 0; t < n; ++t) {
            const RoutedStream& want = reference.routed[p][t];
            const RoutedStream& got = routed[p][t];
            ASSERT_EQ(got.times.size(), want.times.size());
            for (std::size_t i = 0; i < want.times.size(); ++i) {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got.times[i]),
                        std::bit_cast<std::uint64_t>(want.times[i]))
                  << "package " << p << " tenant " << t << " arrival " << i;
            }
            EXPECT_EQ(got.shapes, want.shapes)
                << "package " << p << " tenant " << t;
          }
        }
      }
    }
  }
  // Both tie orders across the link occurred: a merge that always
  // prefers one side fails one of them.
  EXPECT_GT(ties[0], 0);
  EXPECT_GT(ties[1], 0);
}

TEST(ClusterSimulator, DispatchRejectsUnsortedOrMisalignedStreams) {
  Placement placement;
  placement.packages = 2;
  placement.replicas = {{0, 1}};
  placement.package_tenants = {{0}, {0}};
  const auto no_hop = [](const LinkHop&) {};
  LoadBalancer balancer(BalancerPolicy::kRoundRobin, placement, {1.0});
  TenantStream unsorted;
  unsorted.times = {0.2, 0.1};
  EXPECT_THROW((void)dispatch_open_loop({unsorted}, 2, balancer, no_hop),
               std::invalid_argument);
  TenantStream misaligned;
  misaligned.times = {0.1, 0.2};
  misaligned.shapes = {{4, 2}};
  EXPECT_THROW((void)dispatch_open_loop({misaligned}, 2, balancer, no_hop),
               std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::cluster
