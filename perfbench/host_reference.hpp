#pragma once
/// \file host_reference.hpp
/// A fixed reference workload that measures how fast the host runs the
/// simulator's kind of code right now.
///
/// The host is a virtual machine whose speed on branchy, allocation-heavy
/// code moves by up to 1.5 times over seconds to minutes, for reasons
/// outside the guest. A plain arithmetic loop follows those moves only in
/// part. This kernel is a small open-loop pipeline simulation built on the
/// machinery the serving event loop uses (a binary-heap queue of
/// std::function closures, shared_ptr-held jobs), plus a hash map of live
/// jobs, exponential draws and a latency sort. On the reference host its
/// time follows the simulator's within about 3% while both move by 40%. It
/// lives in the benchmark, not in the simulator, so no change to the
/// simulator moves it.

#include <cstdint>

namespace optiplet::perfbench {

/// Nominal host time of one reference pass [s]: its typical time on the
/// host the benchmark's figures were recorded on (4 vCPUs of a Xeon
/// Sapphire Rapids KVM guest, g++ 12.2.0 Release). Times measured next to
/// a reference pass are expressed at this speed.
inline constexpr double kReferencePassS = 0.025;

struct ReferencePass {
  double wall_s = 0.0;
  /// Checksum of the pass's simulated outcome; equal on every pass.
  std::uint64_t checksum = 0;
};

/// One timed reference pass on the calling thread.
[[nodiscard]] ReferencePass run_reference();

}  // namespace optiplet::perfbench
