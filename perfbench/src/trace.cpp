#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

std::chrono::steady_clock::time_point& origin() {
  static std::chrono::steady_clock::time_point t =
      std::chrono::steady_clock::now();
  return t;
}

void json_string(std::FILE* f, std::string_view s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

void set_clock_origin() { origin() = std::chrono::steady_clock::now(); }

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin())
      .count();
}

int Trace::open(std::string_view name) {
  if (!on_) return -1;
  Rec r;
  r.name = std::string(name);
  r.parent = open_.empty() ? -1 : open_.back();
  r.start = now_s();
  spans_.push_back(std::move(r));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Trace::close(int idx) {
  if (idx < 0) return;
  Rec& r = spans_[static_cast<std::size_t>(idx)];
  r.end = now_s();
  open_.pop_back();
  if (r.parent >= 0)
    spans_[static_cast<std::size_t>(r.parent)].child_s += r.end - r.start;
}

void Trace::count(int idx, std::string_view key, double v) {
  if (idx < 0) return;
  auto& counters = spans_[static_cast<std::size_t>(idx)].counters;
  for (auto& [k, val] : counters)
    if (k == key) {
      val += v;
      return;
    }
  counters.emplace_back(std::string(key), v);
}

double Trace::self_s(std::string_view name) const {
  double s = 0.0;
  for (const Rec& r : spans_)
    if (r.name == name) s += (r.end - r.start) - r.child_s;
  return s;
}

std::size_t Trace::calls(std::string_view name) const {
  std::size_t n = 0;
  for (const Rec& r : spans_)
    if (r.name == name) ++n;
  return n;
}

double Trace::counter(std::string_view name, std::string_view key) const {
  double s = 0.0;
  for (const Rec& r : spans_)
    if (r.name == name)
      for (const auto& [k, v] : r.counters)
        if (k == key) s += v;
  return s;
}

bool Trace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    std::fputs(i ? ",\n" : "\n", f);
    std::fputs("{\"name\":", f);
    json_string(f, r.name);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"self_us\":%.3f",
                 r.start * 1e6, (r.end - r.start) * 1e6, i, r.parent,
                 ((r.end - r.start) - r.child_s) * 1e6);
    for (const auto& [k, v] : r.counters) {
      std::fputc(',', f);
      json_string(f, k);
      std::fprintf(f, ":%.17g", v);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
