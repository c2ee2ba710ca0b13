// Tests of the stagg_e2e benchmark itself: the percentile and self-time
// arithmetic on hand-built spans, seed determinism of both workload kinds
// and the oracle gate on a second seed.  Small scales keep it to seconds:
//   cmake --build .bench_build/cmake --target stagg_e2e_tests
//   .bench_build/cmake/stagg_e2e_tests [OUT_DIR]
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile() {
  std::vector<double> xs;
  for (int i = 10; i >= 1; --i) xs.push_back(i);
  check(near(e2e::percentile(xs, 0.5), 5.0),
        "p50 of 1..10 is 5 (nearest rank)");
  check(near(e2e::percentile(xs, 0.9), 9.0), "p90 of 1..10 is 9");
  check(near(e2e::percentile(xs, 1.0), 10.0), "p100 is the max");
  check(near(e2e::percentile(xs, 0.0), 1.0), "p0 is the min");
  check(near(e2e::percentile({7.0}, 0.9), 7.0),
        "one sample is every percentile");
  check(e2e::percentile({}, 0.5) == 0.0, "empty input reads 0");
  check(near(e2e::median({3.0, 1.0, 2.0}), 2.0), "median of three");
}

void test_self_time() {
  // root [0,10] > A [1,4] > C [2,3];  root > B [3,6] overlapping A.
  const std::vector<e2e::Span> spans = {
      {"request", 0.0, 10.0, -1, 0},
      {"a", 1.0, 4.0, 0, 0},
      {"b", 3.0, 6.0, 0, 0},
      {"c", 2.0, 3.0, 1, 0},
  };
  const std::vector<double> self = e2e::self_times(spans);
  check(near(self[0], 5.0),
        "root self excludes the union [1,6] of its children");
  check(near(self[1], 2.0), "child self excludes its grandchild");
  check(near(self[2], 3.0), "overlapping sibling keeps its own duration");
  check(near(self[3], 1.0), "leaf self is its duration");
  const e2e::Coverage cov = e2e::coverage(spans);
  check(near(cov.wall, 10.0) && near(cov.share(), 0.6),
        "coverage = non-root self / root wall");
  const auto by = e2e::self_by_name(spans);
  check(near(by.at("a"), 2.0) && near(by.at("request"), 5.0),
        "self time summed per name");

  // A child sticking out of its parent only counts inside the parent.
  const std::vector<e2e::Span> clipped = {{"r", 0.0, 2.0, -1, 0},
                                          {"x", 1.0, 3.0, 0, 0}};
  check(near(e2e::self_times(clipped)[0], 1.0), "children clip to the parent");

  e2e::SpanRecorder rec(true);
  {
    e2e::SpanRecorder::Scope root(rec, "round", 7);
    { e2e::SpanRecorder::Scope child(rec, "session.seal", 7); }
    rec.add("cache.build", rec.now(), rec.now(), 7);
  }
  const auto& s = rec.spans();
  check(s.size() == 3 && s[0].parent == -1 && s[1].parent == 0 &&
            s[2].parent == 0 && s[1].request == 7 && s[0].end >= s[1].end,
        "recorder nests scopes and added spans under the open span");
  e2e::SpanRecorder off(false);
  { e2e::SpanRecorder::Scope root(off, "round", 1); }
  check(off.spans().empty(), "a disabled recorder records nothing");
}

void test_batch(const std::string& out_dir) {
  const e2e::BatchConfig cfg{"tiny_batch", 1.0 / 512.0, 12, 4, 1};
  e2e::RunOptions opt;
  opt.seconds = 0.01;
  opt.out_dir = out_dir;
  opt.seed = 3;
  const e2e::Outcome a = e2e::run_batch(cfg, opt);
  const e2e::Outcome b = e2e::run_batch(cfg, opt);
  check(a.correct && a.failed == 0 && a.attempted >= 5,
        "batch seed 3 passes the kReference gate");
  check(a.events == b.events && a.events > 0,
        "batch: same seed, same event count");
  check(a.result_digest == b.result_digest,
        "batch: same seed, same result signatures");
  opt.seed = 4;
  opt.trace = true;
  const e2e::Outcome c = e2e::run_batch(cfg, opt);
  check(c.correct && c.failed == 0, "batch seed 4 (traced) passes the gate");
  check(c.events != a.events || c.result_digest != a.result_digest,
        "batch: another seed makes other inputs");
  double coverage = 0.0;
  for (const e2e::Metric& m : c.per_layer) {
    if (m.name == "bench.span_coverage") coverage = m.value;
  }
  check(coverage > 0.9 && coverage <= 1.0,
        "batch traced pass is covered by layers");
}

void test_live(const std::string& out_dir) {
  e2e::LiveConfig cfg;
  cfg.name = "tiny_live";
  cfg.scale = 1.0 / 512.0;
  cfg.rounds = 8;
  cfg.rounds_per_s = 100.0;
  e2e::RunOptions opt;
  opt.seconds = 0.01;
  opt.out_dir = out_dir;
  opt.seed = 3;
  const e2e::Outcome a = e2e::run_live(cfg, opt);
  const e2e::Outcome b = e2e::run_live(cfg, opt);
  check(a.correct && a.failed == 0 && a.attempted >= 16 &&
            a.attempted % 8 == 0,
        "live seed 3: pipelined rounds equal the replay and kReference");
  check(a.events == b.events && a.result_digest == b.result_digest,
        "live: same seed, same events and signatures");
  opt.seed = 4;
  opt.trace = true;
  const e2e::Outcome c = e2e::run_live(cfg, opt);
  check(c.correct && c.failed == 0,
        "live seed 4 (traced) passes the gate");
  double coverage = 0.0;
  for (const e2e::Metric& m : c.per_layer) {
    if (m.name == "bench.span_coverage") coverage = m.value;
  }
  check(coverage > 0.9 && coverage <= 1.0,
        "live traced replay is covered by layers");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  test_percentile();
  test_self_time();
  test_batch(out_dir);
  test_live(out_dir);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
