// Inert declaration kept only because perfbench/probes.cc still names it
// behind Testbed::engine(), which always returns null: every testbed runs
// on one Simulator. Nothing constructs it; it goes with that branch.
#pragma once
#include <cstdlib>
#include "sim/simulator.h"
namespace gimbal::sim {
class ShardedEngine {
 public:
  ShardedEngine() = delete;
  int num_shards() const { return 0; }
  Simulator& shard(int) { std::abort(); }
  uint64_t epochs() const { return 0; }
};
}  // namespace gimbal::sim
