// Simulation time.
#pragma once

#include <cstdint>

namespace tut::sim {

/// Simulation time in ticks. The platform models interpret one tick as one
/// nanosecond (a 50 MHz component retires one cycle per 20 ticks).
using Time = std::uint64_t;

}  // namespace tut::sim
