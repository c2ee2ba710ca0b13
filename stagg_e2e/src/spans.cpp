#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace e2e {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 12);
}

double SpanRecorder::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::open(std::string_view name, std::uint32_t request) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), now(), 0.0, parent, request});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now();
  // Scopes close innermost first; tolerate out-of-order closes anyway.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

void SpanRecorder::add(std::string_view name, double start, double end,
                       std::uint32_t request) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), start, end, parent, request});
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;  // end of the union measured so far
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end));
    }
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

std::map<std::string, double> self_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

Coverage coverage(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  Coverage c;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      c.wall += spans[i].end - spans[i].start;
    } else {
      c.covered += self[i];
    }
  }
  return c;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(xs.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

std::string spans_json_lines(const std::vector<Span>& spans) {
  std::string out;
  char buf[256];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d, \"request\": %u}\n",
                  s.name.c_str(), s.start, s.end, s.parent, s.request);
    out += buf;
  }
  return out;
}

}  // namespace e2e
