#include "noc/mesh.hpp"

#include "util/math.hpp"
#include "util/require.hpp"

namespace optiplet::noc {

ElectricalMesh::ElectricalMesh(const MeshConfig& config,
                               const power::ElectricalTech& tech)
    : config_(config), tech_(tech) {
  OPTIPLET_REQUIRE(config.width >= 1 && config.height >= 1, "empty mesh");
  OPTIPLET_REQUIRE(config.link_width_bits >= 1, "link width must be >= 1");
  OPTIPLET_REQUIRE(config.clock_hz > 0.0, "clock must be positive");
  const std::size_t n = node_count();
  routers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    routers_.emplace_back(static_cast<NodeId>(i), config.width, config.height,
                          config.router);
  }
  channels_.resize(n * kPortCount);
  nis_.resize(n);
  for (auto& ni : nis_) {
    ni.credits.assign(config.router.vc_count, config.router.vc_depth);
  }
}

NodeId ElectricalMesh::neighbour(NodeId node, std::uint8_t port) const {
  const int x = node % config_.width;
  const int y = node / config_.width;
  switch (port) {
    case kNorth:
      return static_cast<NodeId>(node - config_.width);
    case kSouth:
      return static_cast<NodeId>(node + config_.width);
    case kEast:
      return static_cast<NodeId>(node + 1);
    case kWest:
      return static_cast<NodeId>(node - 1);
    default:
      break;
  }
  (void)x;
  (void)y;
  OPTIPLET_ASSERT(false, "no neighbour on local port");
  return node;
}

std::uint8_t ElectricalMesh::opposite(std::uint8_t port) {
  switch (port) {
    case kNorth:
      return kSouth;
    case kSouth:
      return kNorth;
    case kEast:
      return kWest;
    case kWest:
      return kEast;
    default:
      return kLocal;
  }
}

std::size_t ElectricalMesh::channel_index(NodeId node,
                                          std::uint8_t out_port) const {
  return static_cast<std::size_t>(node) * kPortCount + out_port;
}

std::uint32_t ElectricalMesh::hop_distance(NodeId a, NodeId b) const {
  const int ax = a % config_.width;
  const int ay = a / config_.width;
  const int bx = b % config_.width;
  const int by = b / config_.width;
  return static_cast<std::uint32_t>(std::abs(ax - bx) + std::abs(ay - by));
}

void ElectricalMesh::inject(NodeId src, NodeId dst, std::uint32_t size_bits) {
  OPTIPLET_REQUIRE(src < node_count() && dst < node_count(),
                   "node id out of range");
  OPTIPLET_REQUIRE(size_bits >= 1, "empty packet");
  Packet p;
  p.id = next_packet_id_++;
  p.src = src;
  p.dst = dst;
  p.size_bits = size_bits;
  p.inject_cycle = cycle_;
  nis_[src].pending.push_back(p);
  ++stats_.packets_injected;
}

void ElectricalMesh::step() {
  const std::uint64_t hop_delay =
      config_.router_pipeline_cycles + config_.link_latency_cycles;

  // --- 1. NI injection: one flit per cycle into the router local port. ---
  for (std::size_t node = 0; node < nis_.size(); ++node) {
    auto& ni = nis_[node];
    if (ni.pending.empty()) {
      continue;
    }
    Packet& pkt = ni.pending.front();
    const std::uint32_t total_flits =
        flits_for(pkt.size_bits, config_.link_width_bits);
    // Wormhole: the whole packet uses one VC; pick it at the head flit.
    if (ni.flits_sent_of_current == 0) {
      // Find a VC with a full window free to start a packet (head flit just
      // needs one credit; using round-robin start VC spreads load).
      bool found = false;
      for (std::uint32_t k = 0; k < config_.router.vc_count; ++k) {
        const auto v = static_cast<std::uint8_t>(
            (ni.next_vc + k) % config_.router.vc_count);
        if (ni.credits[v] > 0) {
          ni.next_vc = v;
          found = true;
          break;
        }
      }
      if (!found) {
        continue;
      }
    } else if (ni.credits[ni.next_vc] == 0) {
      continue;
    }
    Flit f;
    f.packet_id = pkt.id;
    f.src = pkt.src;
    f.dst = pkt.dst;
    f.seq = ni.flits_sent_of_current;
    f.head = ni.flits_sent_of_current == 0;
    f.tail = ni.flits_sent_of_current + 1 == total_flits;
    f.inject_cycle = pkt.inject_cycle;
    --ni.credits[ni.next_vc];
    // NI->router wire: 1 cycle.
    auto& ch = channels_[channel_index(static_cast<NodeId>(node), kLocal)];
    ch.flits.push_back(InFlight{cycle_ + 1, f, ni.next_vc});
    ++ni.flits_sent_of_current;
    if (f.tail) {
      ni.pending.pop_front();
      ni.flits_sent_of_current = 0;
      ni.next_vc = static_cast<std::uint8_t>((ni.next_vc + 1) %
                                             config_.router.vc_count);
    }
  }

  // --- 2. Routers arbitrate and stage outputs. ---
  for (auto& router : routers_) {
    scratch_flits_.clear();
    scratch_credits_.clear();
    router.tick(scratch_flits_, scratch_credits_);
    const NodeId node = router.id();

    for (const auto& sf : scratch_flits_) {
      if (sf.out_port == kLocal) {
        // Ejection: consumed by the sink NI after one cycle.
        ++stats_.flits_ejected;
        if (sf.flit.tail) {
          ++stats_.packets_ejected;
          stats_.packet_latency_cycles.add(
              static_cast<double>(cycle_ + 1 - sf.flit.inject_cycle));
        }
        continue;
      }
      auto& ch = channels_[channel_index(node, sf.out_port)];
      ch.flits.push_back(InFlight{cycle_ + hop_delay, sf.flit, sf.out_vc});
      ++stats_.link_traversals;
    }

    for (const auto& sc : scratch_credits_) {
      if (sc.in_port == kLocal) {
        // Credit back to this node's NI (1 cycle).
        auto& ch = channels_[channel_index(node, kLocal)];
        ch.credits.push_back(CreditInFlight{cycle_ + 1, sc.vc});
        continue;
      }
      // Credit to the upstream neighbour that feeds (node, in_port): that
      // neighbour's output port is opposite(in_port). Credit wires take one
      // cycle.
      const NodeId up = neighbour(node, sc.in_port);
      auto& ch = channels_[channel_index(up, opposite(sc.in_port))];
      ch.credits.push_back(CreditInFlight{cycle_ + 1, sc.vc});
    }
  }
  stats_.flit_hops = 0;
  for (const auto& r : routers_) {
    stats_.flit_hops += r.crossbar_traversals();
  }

  ++cycle_;

  // --- 3. Deliver channel traffic that has completed its flight. ---
  for (std::size_t node = 0; node < node_count(); ++node) {
    for (std::uint8_t port = 0; port < kPortCount; ++port) {
      auto& ch = channels_[channel_index(static_cast<NodeId>(node), port)];
      while (!ch.flits.empty() && ch.flits.front().deliver_cycle <= cycle_) {
        const InFlight in = ch.flits.front();
        ch.flits.pop_front();
        if (port == kLocal) {
          // NI -> router local input of the same node.
          routers_[node].receive_flit(kLocal, in.vc, in.flit);
        } else {
          const NodeId down = neighbour(static_cast<NodeId>(node), port);
          routers_[down].receive_flit(opposite(port), in.vc, in.flit);
        }
      }
      while (!ch.credits.empty() &&
             ch.credits.front().deliver_cycle <= cycle_) {
        const CreditInFlight cr = ch.credits.front();
        ch.credits.pop_front();
        if (port == kLocal) {
          ++nis_[node].credits[cr.vc];
        } else {
          routers_[node].receive_credit(port, cr.vc);
        }
      }
    }
  }

  stats_.cycles = cycle_;
}

bool ElectricalMesh::drained() const {
  for (const auto& ni : nis_) {
    if (!ni.pending.empty()) {
      return false;
    }
  }
  for (const auto& ch : channels_) {
    if (!ch.flits.empty()) {
      return false;
    }
  }
  for (const auto& r : routers_) {
    if (r.buffered_flits() != 0) {
      return false;
    }
  }
  return true;
}

bool ElectricalMesh::run_until_drained(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (n < max_cycles && !drained()) {
    step();
    ++n;
  }
  return drained();
}

power::EnergyLedger ElectricalMesh::energy() const {
  power::EnergyLedger ledger;
  const double bits_per_flit = config_.link_width_bits;
  ledger.charge_energy(power::Category::kNocRouter,
                       static_cast<double>(stats_.flit_hops) * bits_per_flit *
                           tech_.router_energy_per_bit_j);
  ledger.charge_energy(power::Category::kNocLink,
                       static_cast<double>(stats_.link_traversals) *
                           bits_per_flit * tech_.wire_energy_per_bit_per_m *
                           config_.hop_distance_m);
  ledger.add_static_power(power::Category::kNocRouterStatic,
                          tech_.router_static_w *
                              static_cast<double>(node_count()));
  return ledger;
}

std::uint64_t ElectricalMesh::zero_load_latency_cycles(
    std::uint32_t size_bits, std::uint32_t hops) const {
  const std::uint64_t serialization =
      flits_for(size_bits, config_.link_width_bits);
  const std::uint64_t per_hop =
      config_.router_pipeline_cycles + config_.link_latency_cycles;
  // NI->router (1) + hops * (router+link) + final router traversal modeled
  // inside the last hop + ejection (1) + serialization of the body.
  return 1 + hops * per_hop + 1 + (serialization - 1);
}

}  // namespace optiplet::noc
