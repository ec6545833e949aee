// Philox4x32-10 counter-based pseudorandom function (Salmon et al., SC'11).
// A counter-based generator makes every random draw a pure function of
// (key, counter). liblnc keys streams by (seed, stream tag) and counts by
// (node identity, draw index), so a Monte-Carlo execution is a deterministic
// function of the instance and a 64-bit seed. This is exactly the paper's
// "random bit-string sigma in Rand(C)": fixing sigma == fixing the seed,
// and replaying C_sigma on a node embedded into a different graph yields
// the same coins because the node keeps its identity (Claims 4 and 5).
#pragma once

#include <array>
#include <cstdint>

namespace lnc::rand {

/// One Philox4x32-10 block: 128-bit counter, 64-bit key -> 128 output bits.
std::array<std::uint32_t, 4> philox4x32(
    const std::array<std::uint32_t, 4>& counter,
    const std::array<std::uint32_t, 2>& key) noexcept;

/// Convenience: 64 output bits from 64-bit (key, hi, lo) inputs.
/// hi/lo form the 128-bit counter; key is expanded to the two key words.
std::uint64_t philox_u64(std::uint64_t key, std::uint64_t counter_hi,
                         std::uint64_t counter_lo) noexcept;

/// Bulk philox_u64 under ONE key: out[i] = philox_u64(key, counter_hi[i],
/// counter_lo[i]), bit for bit. `out` may alias either counter array
/// exactly (every lane reads its counters before writing its output). Counter-based generation makes every draw
/// a pure function of its inputs, so the lanes are independent and this
/// is free to compute them in any order or width — the implementation
/// dispatches at runtime to an AVX-512 or AVX2 kernel when the CPU has
/// one (4-5x the serial throughput) and otherwise falls back to a plain
/// loop. This is the vector engine's draw-pass primitive: a lockstep
/// trial batch gathers its pending (identity, draw-index) pairs and fills
/// them in one call instead of paying the serial philox latency per node.
void philox_u64_batch(std::uint64_t key, const std::uint64_t* counter_hi,
                      const std::uint64_t* counter_lo, std::uint64_t* out,
                      std::size_t count) noexcept;

}  // namespace lnc::rand
