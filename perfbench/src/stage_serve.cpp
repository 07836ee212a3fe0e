// serve stage: a closed loop against serve::MultiplyService.
//
// One client thread (the main thread) keeps kWindow requests outstanding
// against a service with kWorkers workers.  Requests go to all 17 roster
// jobs: per block and job, kSmallPerJob requests of 1-8 ops (they carry
// requests/s and the latency percentiles) and kLargePerJob multi-batch
// requests of 65-289 ops (they carry most of the mults/s); unpinned mf
// requests mix formats per op.  PackSim evaluation, 64-lane packing and
// queue dispatch do all the work; EventSim does none.
//
// A block is one fixed make-up of requests: every job gets the same
// request sizes, in an order shuffled by a fixed seed, so every run does
// the same work.  The run's seed draws only the operands, fresh in every
// block.  Each block's rates and latency percentiles are one repetition.
// Every lane of every answer is checked against host arithmetic after
// the block's clock has stopped.
#include <algorithm>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "host.h"
#include "netlist/sim_pack.h"
#include "serve/serve.h"

namespace perfbench {

namespace {

using mfm::serve::BatchResult;
using mfm::serve::Op;
using mfm::serve::Request;

constexpr int kWorkers = 1;
constexpr int kWindow = 8;
constexpr int kSmallPerJob = 120;  // sizes 1-8, 15 of each
constexpr int kLargePerJob = 8;    // sizes 65, 97, ..., 289
constexpr std::uint64_t kShapeSeed = 0x5E7E;  // the order of a block
constexpr int kProbeEvals = 256;
constexpr int kWindowOneRequests = 17 * 16;

struct Shape {
  std::size_t job = 0;
  int ops = 0;
};

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

class ServeStage final : public Stage {
 public:
  void setup(Run& run, Role) override {
    const auto& specs = mfm::roster::catalog();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      run.unit(s, mfm::roster::BuildMode::kCombinational);
      run.compiled(s, mfm::roster::BuildMode::kCombinational);
    }
    jobs_ = mfm::roster::plan_jobs();
    idle_upper_.assign(jobs_.size(), host::kUnsetLane);
    gen_ = std::make_unique<host::OperandGen>(host::mix_seed(run.seed, "serve/ops"));

    for (std::size_t job = 0; job < jobs_.size(); ++job) {
      for (int k = 0; k < kSmallPerJob; ++k) shapes_.push_back({job, 1 + k % 8});
      for (int k = 0; k < kLargePerJob; ++k)
        shapes_.push_back({job, 65 + 32 * k});
    }
    std::mt19937_64 rng(kShapeSeed);
    std::shuffle(shapes_.begin(), shapes_.end(), rng);

    Span s(run.trace, "serve.start");
    mfm::serve::ServiceOptions opt;
    opt.threads = kWorkers;
    opt.mode = mfm::roster::BuildMode::kCombinational;
    service_ = std::make_unique<mfm::serve::MultiplyService>(run.cache, opt);
  }

  /// One untimed block builds the worker's per-unit PackSims.
  void warm_up(Run& run) override { run_block(run, /*timed=*/false); }

  void repeat(Run& run) override { run_block(run, /*timed=*/true); }

  void check(Run& run) override {
    if (run.trace.on()) probe(run);
    run.check(check_errors_.empty(),
              check_errors_.empty() ? "" : check_errors_.front());
    const mfm::serve::ServiceStats st = service_->stats();
    run.check(st.requests + st.failed == sent_,
              "serve: " + std::to_string(st.requests + st.failed) +
                  " requests answered for " + std::to_string(sent_) + " sent");
  }

  void report(Run& run) override {
    std::vector<double> mults, reqs, p50, p99;
    for (const Block& b : blocks_) {
      mults.push_back(b.ops / b.seconds);
      reqs.push_back(static_cast<double>(shapes_.size()) / b.seconds);
      p50.push_back(b.p50_s * 1e3);
      p99.push_back(b.p99_s * 1e3);
    }
    run.end_to_end["serve.mults_per_s"] = {best_of(mults, false),
                                           "mults/s"};
    run.end_to_end["serve.requests_per_s"] = {best_of(reqs, false),
                                              "requests/s"};
    run.end_to_end["serve.latency_p50_ms"] = {best_of(p50, true), "ms"};
    run.end_to_end["serve.latency_p99_ms"] = {best_of(p99, true), "ms"};
    run.info.push_back(
        "serve: " + std::to_string(blocks_.size()) + " blocks of " +
        std::to_string(shapes_.size()) + " requests, window " +
        std::to_string(kWindow) + ", worker threads " +
        std::to_string(kWorkers) + "; latency p50/p99 per block over " +
        std::to_string(jobs_.size() * kSmallPerJob) +
        " small-request samples, best of " +
        std::to_string(blocks_.size()) + " blocks");
    if (!run.trace.on()) return;
    const Trace& t = run.trace;
    const double evals = t.counter("pack.eval", "evals");
    const double eval_s = t.self_s("pack.eval");
    run.per_layer["pack.evals_per_s"] = {evals / eval_s, "evals/s"};
    run.per_layer["pack.gate_evals_per_s"] = {
        t.counter("pack.eval", "gate_evals") / eval_s, "gate_evals/s"};
    run.per_layer["serve.lane_fill"] = {
        t.counter("serve.block", "ops") /
            (64.0 * t.counter("serve.block", "batches")),
        "ratio"};
    const double n = static_cast<double>(t.calls("serve.request"));
    const double service_s = t.self_s("serve.request");
    run.per_layer["serve.service_ms"] = {service_s / n * 1e3, "ms"};
    run.per_layer["serve.dispatch_overhead_ms"] = {
        (service_s - t.counter("serve.request", "direct_eval_s")) / n * 1e3,
        "ms"};
    run.per_layer["serve.queue_depth_mean"] = {
        t.counter("serve.block", "depth_sum") /
            t.counter("serve.block", "depth_samples"),
        "requests"};
  }

 private:
  struct Block {
    double seconds = 0.0;
    double ops = 0.0;
    double p50_s = 0.0;
    double p99_s = 0.0;
  };
  struct Pending {
    std::size_t job = 0;
    std::vector<Op> ops;
    std::future<BatchResult> result;
  };

  Request make_request(std::size_t job, int count, std::vector<Op>& ops) {
    const auto& spec = mfm::roster::catalog()[jobs_[job].spec];
    const std::string& variant = spec.variant_names[jobs_[job].variant];
    ops.resize(static_cast<std::size_t>(count));
    for (Op& op : ops) op = gen_->op_for(spec.name, variant);
    return Request{jobs_[job].spec, variant, ops};
  }

  /// Waits for @p p and checks every lane; records the first mismatch.
  void collect(Run& run, Pending& p) {
    const BatchResult r = p.result.get();
    if (!r.ok()) {
      ++run.failed;
      return;
    }
    const auto& job = jobs_[p.job];
    const auto& spec = mfm::roster::catalog()[job.spec];
    const std::string& variant = spec.variant_names[job.variant];
    try {
      for (std::size_t k = 0; k < p.ops.size(); ++k) {
        const std::string err = host::check_op(
            spec.name, variant, p.ops[k],
            [&](const std::string& port) { return r.port(port).at(k); },
            &idle_upper_[p.job]);
        if (!err.empty()) {
          if (check_errors_.empty()) check_errors_.push_back("serve: " + err);
          return;
        }
      }
    } catch (const std::exception& e) {
      if (check_errors_.empty())
        check_errors_.push_back(std::string("serve: ") + job.name + ": " +
                                e.what());
    }
  }

  void run_block(Run& run, bool timed) {
    const std::size_t n = shapes_.size();
    std::vector<Pending> pending(n);
    std::vector<Request> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
      pending[i].job = shapes_[i].job;
      reqs[i] = make_request(shapes_[i].job, shapes_[i].ops, pending[i].ops);
    }
    std::vector<double> t_sub(n), t_done(n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    double depth_sum = 0.0;
    const mfm::serve::ServiceStats before = service_->stats();

    std::optional<Span> span(std::in_place, run.trace, "serve.block");
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return i - done < kWindow; });
      }
      depth_sum += static_cast<double>(service_->queue_depth());
      t_sub[i] = now_s();
      pending[i].result = service_->submit(
          std::move(reqs[i]), [&, i](const BatchResult&) {
            const double t = now_s();
            std::lock_guard<std::mutex> lk(mu);
            t_done[i] = t;
            ++done;
            cv.notify_one();
          });
    }
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done == n; });
    }
    const double t1 = now_s();
    const mfm::serve::ServiceStats after = service_->stats();
    sent_ += n;
    run.attempted += n;

    Block b;
    b.seconds = t1 - t0;
    std::vector<double> lat;
    for (std::size_t i = 0; i < n; ++i) {
      b.ops += static_cast<double>(pending[i].ops.size());
      if (pending[i].ops.size() <= 8) lat.push_back(t_done[i] - t_sub[i]);
    }
    std::sort(lat.begin(), lat.end());
    b.p50_s = percentile(lat, 0.50);
    b.p99_s = percentile(lat, 0.99);
    span->count("ops", static_cast<double>(after.work - before.work));
    span->count("batches",
                static_cast<double>(after.batches - before.batches));
    span->count("depth_sum", depth_sum);
    span->count("depth_samples", static_cast<double>(n));
    span->count("p50_s", b.p50_s);
    span->count("p99_s", b.p99_s);
    span.reset();  // the checks below are not part of the block
    if (timed) blocks_.push_back(b);
    for (Pending& p : pending) collect(run, p);
  }

  /// Traced run only: PackSim::eval timed directly on every serve unit,
  /// then a window-1 loop (no queueing) whose service time is set
  /// against those direct evals.
  void probe(Run& run) {
    const auto& specs = mfm::roster::catalog();
    std::vector<double> eval_s(specs.size());
    std::mt19937_64 rng(host::mix_seed(run.seed, "serve/probe"));
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const auto& cc = run.cache.compiled(s, mfm::roster::BuildMode::kCombinational);
      mfm::netlist::PackSim sim(cc);
      for (const mfm::netlist::NetId in : cc.circuit().primary_inputs())
        sim.set(in, rng());
      Span span(run.trace, "pack.eval");
      const double t0 = now_s();
      for (int k = 0; k < kProbeEvals; ++k) sim.eval();
      eval_s[s] = (now_s() - t0) / kProbeEvals;
      span.count("evals", kProbeEvals);
      span.count("gate_evals", static_cast<double>(kProbeEvals) *
                                   static_cast<double>(cc.size()));
    }
    for (int i = 0; i < kWindowOneRequests; ++i) {
      Pending p;
      p.job = static_cast<std::size_t>(i) % jobs_.size();
      Request req = make_request(p.job, 1 + static_cast<int>(rng() % 8), p.ops);
      {
        Span span(run.trace, "serve.request");
        p.result = service_->submit(std::move(req));
        p.result.wait();
        span.count("direct_eval_s", eval_s[jobs_[p.job].spec]);
      }
      ++sent_;
      collect(run, p);
    }
  }

  std::vector<mfm::roster::RosterJob> jobs_;
  std::vector<Shape> shapes_;
  std::vector<std::uint64_t> idle_upper_;
  std::unique_ptr<host::OperandGen> gen_;
  std::unique_ptr<mfm::serve::MultiplyService> service_;
  std::vector<Block> blocks_;
  std::vector<std::string> check_errors_;
  std::uint64_t sent_ = 0;
};

}  // namespace

std::unique_ptr<Stage> make_serve_stage() {
  return std::make_unique<ServeStage>();
}

}  // namespace perfbench
