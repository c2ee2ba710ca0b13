// Span recorder and timing arithmetic of the stagg_e2e benchmark.
//
// The benchmark wraps each public library call it makes into a span named
// after the layer it enters ("trace.read", "model.fold", "session.advance"
// ...).  Spans of one request (a batch repetition or a live round) share a
// request id and nest under a structural root span ("request" / "round").
// Spans stay in memory and are written out once the run ends.
//
// A span's self time is its duration minus the part of its interval its
// direct children cover; summing self times per name splits a request's
// wall time across layers without double counting.  The root spans'
// self time is the benchmark's own glue, so
//   coverage = sum of layer self times / sum of root durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  std::uint32_t request = 0;
};

/// Single-threaded span recorder.  A disabled recorder records nothing
/// and costs one branch per scope.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Seconds since the recorder was created.
  [[nodiscard]] double now() const noexcept;

  /// Opens a span as a child of the innermost open span; returns its index
  /// (-1 when disabled).
  int open(std::string_view name, std::uint32_t request);
  void close(int id);
  /// Records an already finished span as a child of the innermost open
  /// span — for a duration the library measured itself.
  void add(std::string_view name, double start, double end,
           std::uint32_t request);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// RAII span over one scope.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name,
          std::uint32_t request)
        : recorder_(recorder), id_(recorder.open(name, request)) {}
    ~Scope() { recorder_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Self seconds summed per span name, over all spans.
[[nodiscard]] std::map<std::string, double> self_by_name(
    const std::vector<Span>& spans);

/// Sum of root-span durations (the traced wall) and the share of it the
/// non-root spans' self times cover.
struct Coverage {
  double wall = 0.0;
  double covered = 0.0;
  [[nodiscard]] double share() const noexcept {
    return wall > 0.0 ? covered / wall : 0.0;
  }
};
[[nodiscard]] Coverage coverage(const std::vector<Span>& spans);

/// Nearest-rank percentile (q in [0, 1]) of `xs`; 0 on empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}

/// Spans as JSON lines: {"name","start","end","parent","request"}.
[[nodiscard]] std::string spans_json_lines(const std::vector<Span>& spans);

}  // namespace e2e
