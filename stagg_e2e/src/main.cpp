// stagg_e2e — the end-to-end benchmark of the stagg batch and live paths.
//
//   stagg_e2e --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints a human-readable summary, one JSON record with provenance, input
// description and every measured metric with its note, and as the last line
// the result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Only the metrics the workload measured are printed; run.py completes the
// set from BENCHMARK.json.
// The record and the traced spans are also written to DIR.  Exits 1 on an
// oracle mismatch or a failed operation, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {
namespace {

/// Steal and total ticks of the host's aggregate "cpu" line in /proc/stat:
/// the share of CPU time the hypervisor took from this machine during a run
/// says how far its timings can be trusted.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  f >> cpu;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& ms, bool notes) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"";
    if (notes && !ms[i].note.empty()) {
      s += ", \"note\": \"" + escape(ms[i].note) + "\"";
    }
    s += "}";
  }
  return s + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: stagg_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\nworkloads:");
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0.0)) return usage();

  Outcome out;
  const CpuTicks t0 = cpu_ticks();
  if (const BatchConfig* b = find_batch(workload)) {
    out = run_batch(*b, opt);
  } else if (const LiveConfig* l = find_live(workload)) {
    out = run_live(*l, opt);
  } else {
    return usage();
  }
  const CpuTicks t1 = cpu_ticks();
  char steal[32];
  std::snprintf(steal, sizeof steal, "%.4f",
                t1.total > t0.total
                    ? (t1.steal - t0.steal) / (t1.total - t0.total)
                    : 0.0);
  out.info.emplace_back("host_steal_share", steal);

  // A traced run must attribute at least 95 % of its wall time to layers.
  constexpr double kMinCoverage = 0.95;
  for (const Metric& m : out.per_layer) {
    if (m.name == "bench.span_coverage" && m.value < kMinCoverage) {
      out.correct = false;
      out.mismatches.push_back("span coverage " + number(m.value) +
                               " is below 0.95");
    }
  }

  const double failed_ratio =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  out.per_layer.push_back(
      {"failed_ratio", failed_ratio, "ratio",
       "failed / attempted; an operation is one probe result or one round"});
  const std::vector<Metric>& shown = opt.trace ? out.per_layer : out.end_to_end;

  std::printf("stagg_e2e %s seed=%llu trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& [k, v] : out.info) {
    std::printf("  %-22s %s\n", k.c_str(), v.c_str());
  }
  for (const Metric& m : shown) {
    std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& m : out.mismatches) {
    std::printf("  MISMATCH: %s\n", m.c_str());
  }
  std::printf("  attempted=%llu failed=%llu result_digest=%016llx\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.result_digest));

  std::string record = "{\"workload\": \"" + workload + "\", \"trace\": " +
                       (opt.trace ? "1" : "0");
  for (const auto& [k, v] : out.info) record += ", \"" + k + "\": " + v;
  record += ", \"correct\": " + std::string(out.correct ? "true" : "false");
  record += ", \"attempted\": " + std::to_string(out.attempted);
  record += ", \"failed\": " + std::to_string(out.failed);
  record += ", \"metrics\": " + metrics_object(shown, true) + "}";
  std::printf("%s\n", record.c_str());

  const std::string stem = opt.out_dir + "/" + workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  std::ofstream(stem + ".json") << record << "\n";
  if (opt.trace) {
    std::ofstream(stem + ".spans.jsonl") << spans_json_lines(out.spans);
  }

  const bool ok = out.correct && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_object(shown, false).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stagg_e2e: %s\n", e.what());
    return 1;
  }
}
