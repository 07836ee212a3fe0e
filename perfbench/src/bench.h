// Shared pieces of the benchmark program: the run context every stage
// reports into, the three stages, and the noise-resistant aggregate.
//
// Every run executes all three stages -- power, serve, analyze -- so that
// every metric exists on every workload.  The workload names the stage
// that gets most of the run (its "main" role); the other two run in a
// "companion" role with a small share of it.  The stages' repetitions are
// interleaved over the whole run, so each stage samples every noise phase
// the run goes through.  A metric is compared across commits on the same
// workload only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "roster/roster.h"
#include "trace.h"

namespace perfbench {

enum class Role { kMain, kCompanion };

/// Everything one run accumulates.
struct Run {
  Run(std::uint64_t seed, bool traced) : seed(seed), trace(traced) {}

  std::uint64_t seed;
  Trace trace;
  mfm::roster::UnitCache cache;  ///< shared by every stage

  std::uint64_t attempted = 0;  ///< timed operations issued
  std::uint64_t failed = 0;     ///< operations answered with an error
  std::vector<std::string> check_errors;

  /// Metric name -> (value, unit), in name order.
  std::map<std::string, std::pair<double, std::string>> end_to_end;
  std::map<std::string, std::pair<double, std::string>> per_layer;
  std::vector<std::string> info;  ///< extra stdout lines (sample counts)

  void check(bool ok, const std::string& what) {
    if (!ok) check_errors.push_back(what);
  }
  /// Builds (or fetches) a cached unit inside a roster.build span.
  const mfm::roster::BuiltUnit& unit(std::size_t spec,
                                     mfm::roster::BuildMode mode);
  /// Compiles (or fetches) a cached unit inside a roster.compile span.
  const mfm::netlist::CompiledCircuit& compiled(std::size_t spec,
                                                mfm::roster::BuildMode mode);
};

/// The best of repeated measurements: the lowest value when
/// @p lower_is_better, else the highest.  The host's noise phases last
/// seconds and only ever slow a repetition down, so the best repetition
/// of a run -- taken over repetitions spread across the whole run -- is
/// the figure that repeats between runs (medians and sums of the same
/// repetitions move several times more).
double best_of(const std::vector<double>& v, bool lower_is_better);

class Stage {
 public:
  virtual ~Stage() = default;
  /// Builds and compiles what the stage needs and starts its service
  /// (all counted in setup_s).
  virtual void setup(Run& run, Role role) = 0;
  /// Untimed warm-up of lazily built state, after setup_s is taken.
  virtual void warm_up(Run&) {}
  /// One timed repetition (a whole round of the stage's operations).
  virtual void repeat(Run& run) = 0;
  /// A fixed number of repetitions per run, or 0 for as many as fit.
  virtual int fixed_repeats() const { return 0; }
  /// The fewest repetitions that give every metric of the stage a value.
  virtual int min_repeats() const { return 1; }
  /// Output checks against host-side computations (untimed).  In a
  /// traced run this also times the direct per-layer probes.
  virtual void check(Run& run) = 0;
  /// Adds the end-to-end metrics, and the per-layer ones when traced.
  virtual void report(Run& run) = 0;
};

std::unique_ptr<Stage> make_power_stage();
std::unique_ptr<Stage> make_serve_stage();
std::unique_ptr<Stage> make_analyze_stage();

}  // namespace perfbench
