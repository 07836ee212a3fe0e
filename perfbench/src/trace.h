// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent) plus numeric counters recorded at
// the same boundary (events, vectors, candidates, ...).  Spans are opened
// and closed on the benchmark's main thread only, around calls into the
// library's public functions; nothing inside the library is instrumented.
// When tracing is off every call is a single branch, so the untraced run
// that produces the end-to-end numbers pays nothing for it.
//
// At exit the spans are written as Chrome trace-event JSON ("X" complete
// events, loadable in chrome://tracing or Perfetto), and the per-layer
// metrics are derived from them as self times: a span's duration minus
// the part of it covered by its child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process-wide origin (set once
/// at the start of main()).
double now_s();
void set_clock_origin();

class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}

  bool on() const { return on_; }

  /// Opens a child of the innermost open span; returns its index, or -1
  /// when tracing is off.
  int open(std::string_view name);
  /// Closes span @p idx (which must be the innermost open one).
  void close(int idx);
  /// Adds @p v to counter @p key of span @p idx (no-op for idx -1).
  void count(int idx, std::string_view key, double v);

  /// Sum of the self times of every span named @p name [s].
  double self_s(std::string_view name) const;
  /// Number of spans named @p name.
  std::size_t calls(std::string_view name) const;
  /// Sum of counter @p key over every span named @p name.
  double counter(std::string_view name, std::string_view key) const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    double child_s = 0.0;  // time covered by direct children
    std::vector<std::pair<std::string, double>> counters;
  };
  bool on_;
  std::vector<Rec> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Trace& t, std::string_view name) : t_(t), idx_(t.open(name)) {}
  ~Span() { t_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void count(std::string_view key, double v) { t_.count(idx_, key, v); }

 private:
  Trace& t_;
  int idx_;
};

}  // namespace perfbench
