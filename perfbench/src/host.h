// Host-side references for the benchmark's output checks.
//
// Every expected value here is computed with the host CPU's own integer
// and IEEE arithmetic, never with the library's word-level models: an
// integer product is the 128-bit host product, a floating-point product
// is the host's IEEE multiply with the unit's documented tie rule
// (round to nearest, ties away from zero: the paper's inject-and-truncate
// rounding) applied explicitly on exact ties, a sum is the host's
// round-to-nearest-even add, and a reduction flag is the
// (double)(float)x == x round trip.
//
// The operand generators keep every product and sum normal (the units
// have no subnormal or special-value datapath), and mix in operands
// whose products are exact rounding ties so the tie rule is exercised.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>

#include "common/u128.h"
#include "serve/serve.h"

namespace perfbench::host {

using mfm::u128;

/// binary64 product, round to nearest with ties away from zero.
double mul_ties_away(double a, double b);
/// binary32 product, round to nearest with ties away from zero.
float mul_ties_away(float a, float b);
/// True when the binary64 value survives a binary32 round trip.
bool fits_binary32(double x);

std::uint64_t bits(double x);
std::uint32_t bits(float x);
double as_double(std::uint64_t b);
float as_float(std::uint32_t b);

/// A seed derived from the run's seed and a tag (FNV-1a over the tag):
/// each consumer of the run's seed draws its own independent stream.
inline std::uint64_t mix_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 0xCBF29CE484222325ull ^ seed;
  for (const char c : tag) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  return h;
}

/// Operand formats the generators produce.
enum class Kind { kInt, kFp64, kFp32x2, kFp32x1, kFp32Add, kReduce };

/// Seeded operand generator: every op it returns has a normal result on
/// its unit.
class OperandGen {
 public:
  explicit OperandGen(std::uint64_t seed) : rng_(seed) {}

  /// A (a, b) pair for the format.  kFp64 mixes binary32-representable
  /// values and tie-prone multipliers into full-precision operands.
  mfm::serve::Op op(Kind k);
  /// An op for catalog unit @p spec under pin variant @p variant
  /// ("" = unpinned: mf units draw a format per op into ctrl).
  mfm::serve::Op op_for(const std::string& spec, const std::string& variant);

 private:
  std::uint64_t fp64(int exp_span);
  std::uint32_t fp32(int exp_span);
  std::mt19937_64 rng_;
};

inline constexpr std::uint64_t kUnsetLane = ~std::uint64_t{0};

/// Reads one output port of one op (a BatchResult lane, a PackSim lane).
using PortReader = std::function<u128(const std::string& port)>;

/// Checks the outputs of one op of catalog unit @p spec (pin variant
/// @p variant) against the host arithmetic.  Returns "" on a match, else
/// a one-line description of the first mismatch.  @p idle_upper tracks
/// the idle upper lane of fp32x1 ops, whose word must read the same on
/// every op: pass one variable, initialised to kUnsetLane, for every op
/// of a unit.
std::string check_op(const std::string& spec, const std::string& variant,
                     const mfm::serve::Op& op, const PortReader& read,
                     std::uint64_t* idle_upper);

}  // namespace perfbench::host
