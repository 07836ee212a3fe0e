// power stage: the paper's Tables III and V at a fixed vector budget.
//
// One repetition runs power::measure_mf_parallel on the pipelined mf
// unit in int64, fp64, fp32x2 and fp32x1 (low activity; fp32x1 idles the
// upper lane) and power::measure_multiplier_parallel on the
// combinational radix-4 and radix-16 multipliers (glitch-heavy), each at
// kVectors vectors on kThreads threads.  EventSim does almost all of the
// work; PackSim and the sweep do none.  The two rates keep quiet and
// glitch-heavy simulation apart, so an event-engine change that trades
// one for the other shows.
#include <algorithm>
#include <iterator>
#include <random>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "host.h"
#include "mf/mf_unit.h"
#include "mult/multiplier.h"
#include "netlist/compiled.h"
#include "netlist/sim_event.h"
#include "netlist/sim_level.h"
#include "power/measure.h"
#include "power/workloads.h"

namespace perfbench {

namespace {

using mfm::power::Workload;

/// The power engine's per-shard seed (power/measure.cpp), so the direct
/// EventSim passes replay measure_*'s exact operand stream.
std::uint64_t engine_shard_seed(std::uint64_t seed, int s) {
  std::uint64_t x = seed + static_cast<std::uint64_t>(s) * 0x9E3779B97F4A7C15ull;
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr int kVectors = 64;  // two shards of power::kShardVectors
constexpr int kThreads = 2;
constexpr double kFmaxMhz = 880.0;  // the paper's fmax; scales mW@fmax only
// Traced run: passes of the 1-thread measure_* call and of the directly
// driven EventSim per configuration; the best of each is compared.
constexpr int kOverheadPasses = 3;
constexpr std::uint64_t kMfSeed = 0x5EED;  // measure_mf_parallel's stream

/// One measured configuration: a format of the mf unit or a multiplier.
struct Config {
  const char* name;
  bool pipelined_mf;
  Workload workload;  // mf only
  host::Kind kind;    // the benchmark's own operand stream
  int ops_per_cycle;
};

const Config kConfigs[] = {
    {"mf/int64", true, Workload::Uniform64, host::Kind::kInt, 1},
    {"mf/fp64", true, Workload::Fp64Random, host::Kind::kFp64, 1},
    {"mf/fp32x2", true, Workload::Fp32DualRandom, host::Kind::kFp32x2, 2},
    {"mf/fp32x1", true, Workload::Fp32SingleRandom, host::Kind::kFp32x1, 1},
    {"radix4-64", false, Workload::Uniform64, host::Kind::kInt, 1},
    {"radix16-64", false, Workload::Uniform64, host::Kind::kInt, 1},
};
constexpr std::size_t kNumConfigs = std::size(kConfigs);

/// The settled figures of one measurement (what must not depend on the
/// thread count).
struct Totals {
  std::uint64_t toggles = 0;
  std::uint64_t functional = 0;
  std::uint64_t events = 0;
  double mw_100 = 0.0;
  bool operator==(const Totals&) const = default;
};

class PowerStage final : public Stage {
 public:
  void setup(Run& run, Role) override {
    {
      Span s(run.trace, "roster.build");
      mf_ = mfm::mf::build_mf_unit();
      r4_ = mfm::mult::build_radix4_64();
      r16_ = mfm::mult::build_radix16_64();
    }
    {
      Span s(run.trace, "roster.compile");
      mf_cc_ = std::make_unique<mfm::netlist::CompiledCircuit>(*mf_.circuit);
      r4_cc_ = std::make_unique<mfm::netlist::CompiledCircuit>(*r4_.circuit);
      r16_cc_ =
          std::make_unique<mfm::netlist::CompiledCircuit>(*r16_.circuit);
    }
  }

  /// One untimed call per configuration; its totals are the reference
  /// every timed repetition must reproduce.
  void warm_up(Run& run) override {
    for (std::size_t i = 0; i < kNumConfigs; ++i)
      first_[i] = run_measure(run, i, kThreads, "power.warmup");
  }

  void repeat(Run& run) override {
    Span rep(run.trace, "power.rep");
    for (std::size_t i = 0; i < kNumConfigs; ++i) {
      const double t0 = now_s();
      const Totals got = run_measure(run, i, kThreads, "power.measure");
      times_[i].push_back(now_s() - t0);
      ++run.attempted;
      run.check(got == first_[i], std::string("power: ") + kConfigs[i].name +
                                      " totals changed between repetitions");
    }
    ++reps_;
  }

  void check(Run& run) override {
    for (std::size_t i = 0; i < kNumConfigs; ++i) {
      // EventSim's functional transitions on the benchmark's own operand
      // stream equal the zero-delay toggles LevelSim counts on it.
      functional_check(run, i);
      // measure_* at 1 thread must reproduce the 2-thread totals exactly.
      const Totals one = run_measure(run, i, 1, "power.measure_1t");
      run.check(one == first_[i], std::string("power: ") + kConfigs[i].name +
                                      " totals differ between 1 and 2 "
                                      "threads");
      if (run.trace.on()) overhead_probe(run, i);
    }
    // The paper's ordering: int64 > fp64 > fp32x2 > fp32x1.
    for (std::size_t i = 0; i + 1 < 4; ++i)
      run.check(first_[i].mw_100 > first_[i + 1].mw_100,
                std::string("power: ordering ") + kConfigs[i].name + " > " +
                    kConfigs[i + 1].name + " violated");
  }

  void report(Run& run) override {
    double pipe_s = 0.0, comb_s = 0.0;
    for (std::size_t i = 0; i < kNumConfigs; ++i)
      (kConfigs[i].pipelined_mf ? pipe_s : comb_s) +=
          best_of(times_[i], /*lower_is_better=*/true);
    run.end_to_end["power.pipe_vectors_per_s"] = {4.0 * kVectors / pipe_s,
                                                  "vectors/s"};
    run.end_to_end["power.comb_vectors_per_s"] = {2.0 * kVectors / comb_s,
                                                  "vectors/s"};
    run.info.push_back("power: " + std::to_string(reps_) +
                       " repetitions of 6 measurements at " +
                       std::to_string(kVectors) + " vectors, " +
                       std::to_string(kThreads) + " threads");
    if (!run.trace.on()) return;
    const Trace& t = run.trace;
    const double ev = t.counter("event.sim", "events");
    const double ev_s = t.self_s("event.sim");
    run.per_layer["event.events_per_s"] = {ev / ev_s, "events/s"};
    run.per_layer["event.events_per_vector"] = {
        ev / t.counter("event.sim", "vectors"), "events/vector"};
    // Per configuration, the fastest 1-thread measure_* call minus the
    // fastest direct EventSim pass over the same stream, summed.
    run.per_layer["power.engine_overhead_s"] = {
        t.counter("power.overhead_probe", "overhead_s"), "s"};
  }

 private:
  /// One measure_* call.
  Totals run_measure(Run& run, std::size_t i, int threads, const char* span) {
    const Config& c = kConfigs[i];
    Span s(run.trace, span);
    Totals t;
    if (c.pipelined_mf) {
      const auto p = mfm::power::measure_mf_parallel(
          mf_, c.workload, kVectors, kFmaxMhz, c.ops_per_cycle, threads);
      t = {p.toggles, p.functional, p.events, p.mw_100};
    } else {
      const auto& unit = i == 4 ? r4_ : r16_;
      const auto p = mfm::power::measure_multiplier_parallel(
          unit, kVectors, 100.0, run.seed, threads);
      t = {p.toggles, p.functional, p.events, p.report.total_mw()};
    }
    s.count("events", static_cast<double>(t.events));
    return t;
  }

  const mfm::netlist::CompiledCircuit& compiled(std::size_t i) const {
    return kConfigs[i].pipelined_mf ? *mf_cc_ : (i == 4 ? *r4_cc_ : *r16_cc_);
  }

  /// Traced run: the engine's own work, EventSim cycles over measure_*'s
  /// operand stream (the same shards, seeds and vector budget), driven
  /// directly and timed against the 1-thread measure_* call.  The
  /// difference of the fastest passes is what the engine adds: the
  /// per-call compile, simulator construction and power report.
  void overhead_probe(Run& run, std::size_t i) {
    const Config& c = kConfigs[i];
    Span probe(run.trace, "power.overhead_probe");
    double best_measure = 0.0, best_direct = 0.0;
    double measure_events = 0.0, direct_events = 0.0;
    for (int pass = 0; pass < kOverheadPasses; ++pass) {
      double t0 = now_s();
      measure_events =
          static_cast<double>(run_measure(run, i, 1, "power.measure_1t").events);
      const double m = now_s() - t0;
      std::vector<std::unique_ptr<mfm::netlist::EventSim>> sims;
      for (int s = 0; s * mfm::power::kShardVectors < kVectors; ++s)
        sims.push_back(std::make_unique<mfm::netlist::EventSim>(
            compiled(i), mfm::netlist::TechLib::lp45()));
      Span span(run.trace, "event.sim");
      t0 = now_s();
      for (std::size_t s = 0; s < sims.size(); ++s) {
        const std::uint64_t seed = engine_shard_seed(
            c.pipelined_mf ? kMfSeed : run.seed, static_cast<int>(s));
        mfm::power::OperandGen mf_gen(c.workload, seed);
        std::mt19937_64 rng(seed);
        for (int v = 0; v < mfm::power::kShardVectors; ++v) {
          if (c.pipelined_mf) {
            const mfm::power::OpPair op = mf_gen.next();
            sims[s]->set_bus(mf_.a, op.a);
            sims[s]->set_bus(mf_.b, op.b);
            sims[s]->set_bus(mf_.frmt, mfm::mf::frmt_bits(op.format));
          } else {
            const auto& unit = i == 4 ? r4_ : r16_;
            sims[s]->set_bus(unit.x, rng());
            sims[s]->set_bus(unit.y, rng());
          }
          sims[s]->cycle();
        }
      }
      const double d = now_s() - t0;
      direct_events = 0.0;
      for (const auto& sim : sims)
        direct_events += static_cast<double>(sim->events_processed());
      span.count("events", direct_events);
      span.count("vectors", kVectors);
      best_measure = pass == 0 ? m : std::min(best_measure, m);
      best_direct = pass == 0 ? d : std::min(best_direct, d);
    }
    // The streams match today; pricing by the event ratio keeps the
    // figure meaningful if the engine's stream drifts from this copy.
    probe.count("overhead_s",
                best_measure - best_direct * measure_events / direct_events);
  }

  /// Drives EventSim on the benchmark's own seeded stream and diffs its
  /// functional transitions against LevelSim's zero-delay toggles.
  void functional_check(Run& run, std::size_t i) {
    const Config& c = kConfigs[i];
    const mfm::netlist::CompiledCircuit& cc = compiled(i);
    host::OperandGen gen(host::mix_seed(run.seed, std::string("power/") + c.name));
    std::vector<mfm::serve::Op> ops(kVectors);
    for (auto& op : ops) op = gen.op(c.kind);
    const auto drive = [&](auto& sim, const mfm::serve::Op& op) {
      if (c.pipelined_mf) {
        // fp32x1 is the dual format with the upper lane's operands zero.
        const std::uint64_t keep =
            c.kind == host::Kind::kFp32x1 ? 0xFFFFFFFFu : ~std::uint64_t{0};
        sim.set_bus(mf_.a, op.a & keep);
        sim.set_bus(mf_.b, op.b & keep);
        sim.set_bus(mf_.frmt, c.kind == host::Kind::kInt    ? 0
                              : c.kind == host::Kind::kFp64 ? 1
                                                            : 2);
      } else {
        const auto& unit = i == 4 ? r4_ : r16_;
        sim.set_bus(unit.x, op.a);
        sim.set_bus(unit.y, op.b);
      }
    };

    mfm::netlist::EventSim ev(cc, mfm::netlist::TechLib::lp45());
    for (const auto& op : ops) {
      drive(ev, op);
      ev.cycle();
    }

    mfm::netlist::LevelSim lv(cc);
    lv.eval();  // the all-zero settled state EventSim starts from
    const std::size_t n = cc.size();
    std::vector<std::uint8_t> prev(n);
    for (std::size_t net = 0; net < n; ++net)
      prev[net] = lv.value(static_cast<mfm::netlist::NetId>(net));
    std::vector<std::uint64_t> zero_delay(n, 0);
    for (const auto& op : ops) {
      drive(lv, op);
      lv.eval();
      for (std::size_t net = 0; net < n; ++net) {
        const std::uint8_t v = lv.value(static_cast<mfm::netlist::NetId>(net));
        zero_delay[net] += v != prev[net];
        prev[net] = v;
      }
      lv.clock();
    }
    run.check(ev.functional() == zero_delay,
              std::string("power: ") + c.name +
                  " EventSim functional transitions differ from LevelSim's "
                  "zero-delay toggles");
  }

  mfm::mf::MfUnit mf_;
  mfm::mult::MultiplierUnit r4_, r16_;
  std::unique_ptr<mfm::netlist::CompiledCircuit> mf_cc_, r4_cc_, r16_cc_;
  std::vector<double> times_[kNumConfigs];
  Totals first_[kNumConfigs];
  int reps_ = 0;
};

}  // namespace

std::unique_ptr<Stage> make_power_stage() {
  return std::make_unique<PowerStage>();
}

}  // namespace perfbench
