// perfbench: the repository benchmark program.
//
//   perfbench --workload power|serve|analyze --seed N --seconds S
//             --trace 0|1
//
// One process, at most three threads (this one, one service worker, and
// one extra power-engine worker while a measurement runs).  Every run
// sets up, warms up, then runs all three stages -- the workload's own
// stage for most of the run, the other two for a short fixed share --
// checks the outputs against host arithmetic, and prints one JSON line
// last:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, derived from the spans written to
// .bench_results/trace-<workload>-<seed>.json.  Exit status is 1 when a
// check fails, 2 on a usage error.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

const mfm::roster::BuiltUnit& Run::unit(std::size_t spec,
                                        mfm::roster::BuildMode mode) {
  Span s(trace, "roster.build");
  return cache.unit(spec, mode);
}

const mfm::netlist::CompiledCircuit& Run::compiled(
    std::size_t spec, mfm::roster::BuildMode mode) {
  Span s(trace, "roster.compile");
  return cache.compiled(spec, mode);
}

double best_of(const std::vector<double>& v, bool lower_is_better) {
  if (v.empty()) return 0.0;
  return lower_is_better ? *std::min_element(v.begin(), v.end())
                         : *std::max_element(v.begin(), v.end());
}

namespace {

/// Share of the measured time a companion stage gets; the workload's own
/// stage gets the rest.
constexpr double kCompanionShare = 0.15;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload power|serve|analyze --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || *s == '-') return false;
  out = v;
  return true;
}

std::string metrics_json(
    const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  for (const auto& [name, vu] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + vu.second +
           "\"}";
  }
  return out + "}";
}

int run_benchmark(const std::string& workload, std::uint64_t seed,
                  double seconds, bool traced) {
  Run run(seed, traced);
  struct Entry {
    const char* name;
    std::unique_ptr<Stage> stage;
  };
  Entry stages[] = {{"power", make_power_stage()},
                    {"serve", make_serve_stage()},
                    {"analyze", make_analyze_stage()}};
  const auto role = [&](const Entry& e) {
    return workload == e.name ? Role::kMain : Role::kCompanion;
  };

  {
    Span s(run.trace, "setup");
    for (Entry& e : stages) e.stage->setup(run, role(e));
  }
  const double setup_s = now_s();
  {
    Span s(run.trace, "warm_up");
    for (Entry& e : stages) e.stage->warm_up(run);
  }

  // Interleave the stages' repetitions: always run the stage furthest
  // below its share of the time measured so far, until --seconds have
  // passed, every stage has run its minimum number of repetitions and
  // every fixed-count stage has run all its repetitions.
  {
    Span s(run.trace, "measure");
    const double t_end = now_s() + seconds;
    double busy[3] = {0.0, 0.0, 0.0};
    int reps[3] = {0, 0, 0};
    for (;;) {
      int next = -1;
      double lag = 0.0;
      bool all_done = true;
      for (int i = 0; i < 3; ++i) {
        const int fixed = stages[i].stage->fixed_repeats();
        if (fixed > 0 && reps[i] >= fixed) continue;
        if (fixed > 0 || reps[i] < stages[i].stage->min_repeats())
          all_done = false;
        const double share = role(stages[i]) == Role::kMain
                                 ? 1.0 - 2.0 * kCompanionShare
                                 : kCompanionShare;
        const double used = busy[i] / share;
        if (next < 0 || used < lag) {
          next = i;
          lag = used;
        }
      }
      if (next < 0 || (now_s() >= t_end && all_done)) break;
      const double t0 = now_s();
      stages[next].stage->repeat(run);
      busy[next] += now_s() - t0;
      ++reps[next];
    }
  }
  for (Entry& e : stages) {
    Span s(run.trace, std::string("check.") + e.name);
    e.stage->check(run);
  }
  for (Entry& e : stages) e.stage->report(run);
  run.end_to_end["setup_s"] = {setup_s, "s"};
  if (traced) {
    run.per_layer["roster.build_s"] = {run.trace.self_s("roster.build"), "s"};
    run.per_layer["roster.compile_s"] = {run.trace.self_s("roster.compile"),
                                         "s"};
  }

  for (const std::string& line : run.info) std::printf("info: %s\n", line.c_str());
  for (const std::string& err : run.check_errors)
    std::printf("CHECK FAILED: %s\n", err.c_str());
  if (traced) {
    // The end-to-end figures of the traced run, for the tracing overhead.
    std::printf("traced-end-to-end: %s\n", metrics_json(run.end_to_end).c_str());
    const std::string dir = ".bench_results";
    const std::string path = dir + "/trace-" + workload + "-" +
                             std::to_string(seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !run.trace.write_chrome(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("info: trace written to %s\n", path.c_str());
  }
  const bool correct = run.check_errors.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics_json(traced ? run.per_layer : run.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::set_clock_origin();
  std::string workload;
  std::uint64_t seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return perfbench::usage();
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      if (!perfbench::parse_u64(val, seed)) return perfbench::usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!perfbench::parse_u64(val, seconds) || seconds < 1 || seconds > 600)
        return perfbench::usage();
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!perfbench::parse_u64(val, trace) || trace > 1)
        return perfbench::usage();
    } else {
      return perfbench::usage();
    }
  }
  if (!have_seed || !have_seconds ||
      (workload != "power" && workload != "serve" && workload != "analyze"))
    return perfbench::usage();
  try {
    return perfbench::run_benchmark(workload, seed,
                                    static_cast<double>(seconds), trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
