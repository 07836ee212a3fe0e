// analyze stage: the roster-tool flows on a fixed subset of jobs.
//
// A repetition is one step: the mfm_opt flow on one job's combinational
// build (sweep, rewrite, sweep again, then the end-to-end equivalence
// proof against the original), then over every job either a stuck-at
// fault campaign on the pipelined build (the mfm_faults flow; even
// steps) or static plus measured glitch analysis (the mfm_glitch flow;
// odd steps).  A round is one step per job.  The scheduler interleaves
// the other stages between steps, so the campaigns and glitch analyses,
// short next to the sweeps, are sampled across the whole run rather than
// in bursts.  The sweep's confirmation stage, the rewriter, the
// equivalence check and PackSim force() do the work here, with no queue
// and little EventSim.  The main subset includes mf/fp64, whose sweep
// confirmation stage carries the largest candidate load in the roster.
// The companion subset holds only units whose flow takes milliseconds,
// so a companion's short share of a run still holds over a hundred flows
// per job to take the fastest of; a unit whose flow takes most of a
// second gets too few for its best to repeat between runs.  Sweep and
// rewrite seeds are fixed, so the area saved is the same on every run;
// the fault vectors, glitch stimulus and the host checks of the
// optimized circuits follow the run's seed.  The fault campaign runs
// without early exit and without classifying, so the amount of work
// does not follow it.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "host.h"
#include "netlist/equiv.h"
#include "netlist/fault.h"
#include "netlist/glitch.h"
#include "netlist/report.h"
#include "netlist/rewrite.h"
#include "netlist/sim_level.h"
#include "netlist/sim_pack.h"
#include "netlist/structural_hash.h"
#include "netlist/sweep.h"
#include "netlist/ternary.h"
#include "serve/serve.h"

namespace perfbench {

namespace {

using mfm::netlist::Circuit;
using mfm::netlist::TechLib;
using mfm::roster::BuildMode;

const std::vector<std::string> kMainJobs = {"mult8", "radix16-64",
                                            "fpmul-b32", "mf/fp64"};
const std::vector<std::string> kCompanionJobs = {"mult8", "reduce64to32"};
constexpr std::uint64_t kFlowSeed = 0x0B7;  // mfm_opt's default seed
constexpr int kFaultVectors = 4;
constexpr int kMainRounds = 2;
constexpr int kGlitchCycles = 64;
constexpr int kReplaySites = 12;      // fault verdicts replayed per job
constexpr int kHostCheckPasses = 4;   // 64-lane passes per optimized unit

struct Job {
  std::string name;
  std::string spec_name;
  std::string variant;
  std::size_t spec = 0;
  const mfm::roster::BuiltUnit* comb = nullptr;
  const mfm::roster::BuiltUnit* pipe = nullptr;
  std::vector<double> opt_s, fault_s, glitch_s;
  double area_saved = 0.0;
  std::unique_ptr<Circuit> optimized;
  std::vector<mfm::netlist::FaultSite> sites;
  std::vector<std::uint8_t> detected;  // first round's verdicts

  const std::vector<mfm::netlist::TernaryPin>& comb_pins() const {
    return mfm::roster::find_variant(*comb, variant).pins;
  }
  const std::vector<mfm::netlist::TernaryPin>& pipe_pins() const {
    return mfm::roster::find_variant(*pipe, variant).pins;
  }
};

class AnalyzeStage final : public Stage {
 public:
  void setup(Run& run, Role role) override {
    role_ = role;
    for (const std::string& name :
         role == Role::kMain ? kMainJobs : kCompanionJobs) {
      Job j;
      j.name = name;
      const std::size_t slash = name.find('/');
      j.spec_name = name.substr(0, slash);
      j.variant = slash == std::string::npos ? "" : name.substr(slash + 1);
      j.spec = mfm::roster::spec_index(j.spec_name);
      j.comb = &run.unit(j.spec, BuildMode::kCombinational);
      j.pipe = &run.unit(j.spec, BuildMode::kPipelined);
      run.compiled(j.spec, BuildMode::kCombinational);
      run.compiled(j.spec, BuildMode::kPipelined);
      jobs_.push_back(std::move(j));
    }
  }

  /// A main-subset round takes most of a run's length (mf/fp64's sweeps
  /// alone take seconds), so a run holds exactly kMainRounds of them:
  /// the step count, and with it the statistic, is the same on every
  /// run.
  int fixed_repeats() const override {
    return role_ == Role::kMain
               ? kMainRounds * static_cast<int>(jobs_.size())
               : 0;
  }

  /// One round, so every job has been optimized.
  int min_repeats() const override { return static_cast<int>(jobs_.size()); }

  void repeat(Run& run) override {
    Span step(run.trace, "analyze.step");
    optimize(run, jobs_[steps_ % jobs_.size()]);
    if (steps_ % 2 == 0) {
      for (Job& j : jobs_) faults(run, j);
    } else {
      for (Job& j : jobs_) glitch(run, j);
    }
    ++steps_;
  }

  void check(Run& run) override {
    for (const Job& j : jobs_) {
      host_check(run, j);
      replay_faults(run, j);
      if (!run.trace.on()) continue;
      {
        Span s(run.trace, "sweep.strash");
        mfm::netlist::structural_hash(*j.comb->circuit);
      }
      Span s(run.trace, "sweep.ternary");
      mfm::netlist::ternary_propagate(
          run.cache.compiled(j.spec, BuildMode::kCombinational), j.comb_pins());
    }
  }

  void report(Run& run) override {
    double opt = 0.0, flt = 0.0, gl = 0.0, area = 0.0;
    std::string names;
    for (const Job& j : jobs_) {
      opt += best_of(j.opt_s, true);
      flt += best_of(j.fault_s, true);
      gl += best_of(j.glitch_s, true);
      area += j.area_saved;
      names += (names.empty() ? "" : ",") + j.name;
    }
    run.end_to_end["analyze.opt_s"] = {opt, "s"};
    run.end_to_end["analyze.faults_s"] = {flt, "s"};
    run.end_to_end["analyze.glitch_s"] = {gl, "s"};
    run.end_to_end["analyze.area_saved_nand2"] = {area, "NAND2"};
    run.info.push_back("analyze: " + std::to_string(steps_) +
                       " steps over " + names);
    // Each job's flow times, to show how far the best one sits below the
    // rest of the run.
    for (const Job& j : jobs_) {
      std::vector<double> v = j.opt_s;
      std::sort(v.begin(), v.end());
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "analyze: %s opt flows %zu, fastest %.4f s, median "
                    "%.4f s, slowest %.4f s",
                    j.name.c_str(), v.size(), v.front(), v[v.size() / 2],
                    v.back());
      run.info.push_back(buf);
    }
    if (!run.trace.on()) return;
    const Trace& t = run.trace;
    const double r =
        static_cast<double>(steps_) / static_cast<double>(jobs_.size());
    const auto per_round = [&](const char* span) { return t.self_s(span) / r; };
    const double cand = t.counter("sweep", "candidates") / r;
    const double proven = t.counter("sweep", "proven") / r;
    run.per_layer["sweep.s"] = {per_round("sweep"), "s"};
    run.per_layer["sweep.strash_s"] = {t.self_s("sweep.strash"), "s"};
    run.per_layer["sweep.ternary_s"] = {t.self_s("sweep.ternary"), "s"};
    run.per_layer["sweep.candidates"] = {cand, "count"};
    run.per_layer["sweep.proven"] = {proven, "count"};
    run.per_layer["sweep.unresolved"] = {t.counter("sweep", "unresolved") / r,
                                         "count"};
    run.per_layer["sweep.confirm_yield"] = {proven / cand, "ratio"};
    run.per_layer["rewrite.s"] = {per_round("rewrite"), "s"};
    run.per_layer["rewrite.applied"] = {t.counter("rewrite", "applied") / r,
                                        "count"};
    run.per_layer["equiv.s"] = {per_round("equiv"), "s"};
    run.per_layer["fault.s"] = {per_round("fault"), "s"};
    run.per_layer["fault.site_vectors_per_s"] = {
        t.counter("fault", "fault_vectors") / t.self_s("fault"),
        "site_vectors/s"};
    run.per_layer["glitch.static_s"] = {per_round("glitch.static"), "s"};
    run.per_layer["glitch.measured_s"] = {per_round("glitch.measured"), "s"};
  }

 private:
  mfm::netlist::SweepResult sweep(Run& run, const Circuit& c, const Job& j,
                                  std::uint64_t seed) {
    Span s(run.trace, "sweep");
    mfm::netlist::SweepOptions so;
    so.pins = j.comb_pins();
    so.seed = seed;
    so.verify = false;
    mfm::netlist::SweepResult r = mfm::netlist::sweep_circuit(c, so);
    s.count("candidates", static_cast<double>(r.report.candidates));
    s.count("proven", static_cast<double>(r.report.proven_exhaustive +
                                          r.report.proven_sat));
    s.count("unresolved", static_cast<double>(r.report.unresolved));
    return r;
  }

  /// The mfm_opt flow: sweep, rewrite, sweep, end-to-end proof.
  void optimize(Run& run, Job& j) {
    const Circuit& c = *j.comb->circuit;
    const TechLib& lib = TechLib::lp45();
    Span span(run.trace, "analyze.opt");
    const double t0 = now_s();
    mfm::netlist::SweepResult s1 = sweep(run, c, j, kFlowSeed);
    mfm::netlist::RewriteResult rw;
    {
      Span s(run.trace, "rewrite");
      mfm::netlist::RewriteOptions ro;
      ro.pins = j.comb_pins();
      ro.seed = kFlowSeed;
      ro.verify = false;
      rw = mfm::netlist::optimize_circuit(*s1.circuit, ro, lib);
      s.count("applied", static_cast<double>(rw.report.applied));
    }
    mfm::netlist::SweepResult s2 = sweep(run, *rw.circuit, j, kFlowSeed ^ 0x90);
    mfm::netlist::EquivResult eq;
    {
      Span s(run.trace, "equiv");
      eq = mfm::netlist::check_equivalence(c, *s2.circuit, j.comb_pins(), 4000,
                                           kFlowSeed ^ 0xE2E);
    }
    j.opt_s.push_back(now_s() - t0);
    ++run.attempted;

    run.check(eq.equivalent, "analyze: " + j.name +
                                 " optimized circuit is not equivalent: " +
                                 eq.counterexample);
    const double before = mfm::netlist::total_area_nand2(c, lib);
    const double after = mfm::netlist::total_area_nand2(*s2.circuit, lib);
    run.check(after <= before, "analyze: " + j.name + " area grew");
    if (!j.optimized) {
      j.area_saved = before - after;
      j.optimized = std::move(s2.circuit);
    } else {
      run.check(before - after == j.area_saved,
                "analyze: " + j.name + " area saved changed between rounds");
    }
  }

  void faults(Run& run, Job& j) {
    const Circuit& c = *j.pipe->circuit;
    Span span(run.trace, "fault");
    const double t0 = now_s();
    std::vector<mfm::netlist::FaultSite> sites =
        mfm::netlist::enumerate_stuck_faults(c);
    const mfm::netlist::FaultVectors vectors(c, kFaultVectors, run.seed,
                                             j.pipe_pins());
    mfm::netlist::FaultCampaignOptions opt;
    opt.cycles = j.pipe->latency_cycles;
    // Every vector runs for every fault group, and undetected faults are
    // not classified, so the work does not depend on the seed's verdicts.
    opt.early_exit = false;
    opt.classify_undetected = false;
    const mfm::netlist::FaultCampaignReport rep = mfm::netlist::run_fault_campaign(
        run.cache.compiled(j.spec, BuildMode::kPipelined), sites, vectors, opt);
    j.fault_s.push_back(now_s() - t0);
    ++run.attempted;
    span.count("sites", static_cast<double>(rep.sites));
    span.count("fault_vectors", static_cast<double>(rep.fault_vectors));

    run.check(rep.sites == sites.size() &&
                  rep.detected + rep.undetected_total() == sites.size(),
              "analyze: " + j.name + " fault verdicts do not add up to the " +
                  std::to_string(sites.size()) + " enumerated sites");
    if (j.sites.empty()) {
      j.sites = std::move(sites);
      j.detected = rep.site_detected;
    } else {
      run.check(rep.site_detected == j.detected,
                "analyze: " + j.name + " fault verdicts changed between repetitions");
    }
  }

  void glitch(Run& run, Job& j) {
    const auto& cc = run.cache.compiled(j.spec, BuildMode::kPipelined);
    const TechLib& lib = TechLib::lp45();
    const double t0 = now_s();
    {
      Span s(run.trace, "glitch.static");
      mfm::netlist::GlitchOptions go;
      go.pins = j.pipe_pins();
      mfm::netlist::analyze_glitch(cc, lib, go);
    }
    mfm::netlist::MeasuredGlitch m;
    {
      Span s(run.trace, "glitch.measured");
      m = mfm::netlist::measure_glitch(cc, lib, j.pipe_pins(), kGlitchCycles,
                                       run.seed);
    }
    j.glitch_s.push_back(now_s() - t0);
    ++run.attempted;
    run.check(m.functional + m.glitch == m.counts.total_toggles(),
              "analyze: " + j.name +
                  " measured glitch split does not add up to the toggles");
  }

  /// Simulates the optimized circuit on seeded operands and checks every
  /// lane against the host arithmetic.
  void host_check(Run& run, const Job& j) {
    const Circuit& c = *j.optimized;
    const mfm::serve::OperandPorts ports = mfm::serve::resolve_operand_ports(c);
    mfm::netlist::PackSim sim(c);
    host::OperandGen gen(host::mix_seed(run.seed, "analyze/" + j.name));
    std::uint64_t idle_upper = host::kUnsetLane;
    for (int pass = 0; pass < kHostCheckPasses; ++pass) {
      std::vector<mfm::serve::Op> ops(mfm::netlist::PackSim::kLanes);
      for (int lane = 0; lane < mfm::netlist::PackSim::kLanes; ++lane) {
        mfm::serve::Op& op = ops[static_cast<std::size_t>(lane)];
        op = gen.op_for(j.spec_name, j.variant);
        sim.set_port(ports.a, lane, op.a);
        if (!ports.b.empty()) sim.set_port(ports.b, lane, op.b);
        if (!ports.ctrl.empty()) sim.set_port(ports.ctrl, lane, op.ctrl);
      }
      sim.eval();
      for (int lane = 0; lane < mfm::netlist::PackSim::kLanes; ++lane) {
        const std::string err = host::check_op(
            j.spec_name, j.variant, ops[static_cast<std::size_t>(lane)],
            [&](const std::string& port) { return sim.read_port(port, lane); },
            &idle_upper);
        if (!err.empty()) {
          run.check(false, "analyze: optimized " + err);
          return;
        }
      }
    }
  }

  /// Replays a seeded sample of the first round's fault verdicts on a
  /// copy of the circuit with the fault built in, with LevelSim.
  void replay_faults(Run& run, const Job& j) {
    const Circuit& c = *j.pipe->circuit;
    const mfm::netlist::FaultVectors vectors(c, kFaultVectors, run.seed,
                                             j.pipe_pins());
    std::vector<mfm::netlist::NetId> outs;
    for (const auto& [name, bus] : c.out_ports())
      outs.insert(outs.end(), bus.begin(), bus.end());
    std::mt19937_64 rng(host::mix_seed(run.seed, "replay/" + j.name));
    for (int k = 0; k < kReplaySites; ++k) {
      // Alternate detected and undetected verdicts where both exist.
      std::size_t i = rng() % j.sites.size();
      for (std::size_t tries = 0; tries < j.sites.size(); ++tries) {
        if ((j.detected[i] != 0) == (k % 2 == 0)) break;
        i = (i + 1) % j.sites.size();
      }
      const mfm::netlist::FaultSite& site = j.sites[i];
      const std::unique_ptr<Circuit> faulty = mfm::netlist::clone_with_stuck(
          c, site.net, site.kind == mfm::netlist::FaultKind::kStuckAt1);
      mfm::netlist::LevelSim good(c), bad(*faulty);
      bool caught = false;
      for (std::size_t v = 0; v < vectors.count() && !caught; ++v) {
        for (std::size_t in = 0; in < vectors.inputs().size(); ++in) {
          good.set(vectors.inputs()[in], vectors.bit(v, in));
          bad.set(vectors.inputs()[in], vectors.bit(v, in));
        }
        for (int cyc = 0; cyc <= j.pipe->latency_cycles && !caught; ++cyc) {
          if (cyc > 0) {
            good.clock();
            bad.clock();
          }
          good.eval();
          bad.eval();
          for (const mfm::netlist::NetId o : outs)
            caught = caught || good.value(o) != bad.value(o);
        }
      }
      run.check(caught == (j.detected[i] != 0),
                "analyze: " + j.name + " fault at net " +
                    std::to_string(site.net) + " replays as " +
                    (caught ? "detected" : "undetected") +
                    " against the campaign's verdict");
    }
  }

  Role role_ = Role::kCompanion;
  std::vector<Job> jobs_;
  std::size_t steps_ = 0;
};

}  // namespace

std::unique_ptr<Stage> make_analyze_stage() {
  return std::make_unique<AnalyzeStage>();
}

}  // namespace perfbench
