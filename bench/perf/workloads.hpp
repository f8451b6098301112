// The benchmark's four workloads. Each is a closed loop: the next
// operation starts when the previous one ends. An operation is one
// Testbed::run, one scorecard (evaluate_product plus the single-pass
// sensitivity sweep), or one campaign cell.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "replay.hpp"

namespace idseval::bench {

struct Op {
  double seconds = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a of the op's outputs.
  std::string error;         ///< Non-empty when the op threw or failed a check.
};

/// One pass of a workload's loop.
struct Iteration {
  /// Which inputs the pass ran. Passes with the same key must repeat
  /// each other's outputs exactly.
  std::size_t key = 0;
  std::vector<Op> ops;
  std::uint64_t packets = 0;  ///< Packets the simulated LAN switch forwarded.
  double seconds = 0.0;       ///< Wall time the pass was timed over.
  std::uint64_t digest = 0;   ///< Over every op and artifact of the pass.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Wall seconds of one set-up: what the workload builds before its
  /// timed region (Testbed construction; for the campaign also spec
  /// parsing and store opening).
  virtual double setup() = 0;
  virtual Iteration iterate() = 0;
  /// The traced run: per-layer metrics (see README.md for each name).
  virtual Metrics trace() = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name. `scratch` is a
/// directory the workload may write to (the campaign's result store).
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch);

}  // namespace idseval::bench
