// The stagg_e2e workloads: the paper's scenario C (NAS-LU class C, 700
// processes, |X| = 6) driven through the public API, trace bytes in and
// partitions out.
//
//   batch: STGT file -> read_binary_trace_store -> TraceView -> build_model
//          -> SpatiotemporalAggregator (cube) -> run(0.5) (measure cache +
//          first DP) -> run_many over the probes
//   live:  STGT prefix -> SessionManager + two sliding sessions; then CSV
//          rounds -> IngestPipeline (parse -> seal -> advance)
//
// Every run checks its results against DpKernel::kReference (computed
// outside every timed region) and reports end-to-end metrics from untraced
// passes, or per-layer metrics from a traced pass (see spans.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// How the value was obtained: a sample count behind a percentile,
  /// "computed" for counts derived from sizes, or the pass it comes from.
  std::string note;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Directory for the trace files, spill files and span dumps.
  std::string out_dir = ".";
};

struct BatchConfig {
  std::string name;
  double scale = 1.0 / 64.0;  ///< event-rate scale of scenario C
  std::int32_t slices = 30;   ///< |T|
  std::size_t probes = 32;    ///< run_many parameters, p_k = (k + 0.5) / n
  std::size_t min_reps = 3;   ///< per pass kind (untraced / traced)
};

struct LiveConfig {
  std::string name;
  double scale = 1.0 / 64.0;
  double split_s = 25.0;       ///< recorded prefix ends here
  double round_s = 0.25;       ///< trace time per round
  double rounds_per_s = 4.0;   ///< open-loop offered rate
  std::size_t rounds = 120;  ///< per phase; the stream has 160
  std::size_t parse_workers = 2;
  double deadline_ms = 1000.0;  ///< a round slower than this failed
  /// Chunks are stored kAuto-compressed, and a spill budget of this share
  /// of the resident store at attach sends cold chunks to a spill file.
  double budget_share = 0.25;
};

/// The four named workloads; nullptr when `name` names none of that kind.
[[nodiscard]] const BatchConfig* find_batch(const std::string& name);
[[nodiscard]] const LiveConfig* find_live(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< untraced run
  std::vector<Metric> per_layer;   ///< traced run
  /// Input description and provenance: key -> JSON literal.
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> mismatches;
  std::vector<Span> spans;
  std::uint64_t events = 0;
  /// Digest of every checked result (pIC, partition signature, gain,
  /// loss) — equal digests mean bit-identical results.
  std::uint64_t result_digest = 0;
};

[[nodiscard]] Outcome run_batch(const BatchConfig& config,
                                const RunOptions& options);
[[nodiscard]] Outcome run_live(const LiveConfig& config,
                               const RunOptions& options);

}  // namespace e2e
