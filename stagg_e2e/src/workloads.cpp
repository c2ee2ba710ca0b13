#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bench_info.hpp"
#include "common/thread_pool.hpp"
#include "core/aggregator.hpp"
#include "core/ingest_pipeline.hpp"
#include "core/session_manager.hpp"
#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/stream_decode.hpp"
#include "trace/trace_view.hpp"
#include "workload/scenarios.hpp"
#include "workload/stream_split.hpp"

namespace e2e {
namespace {

using stagg::AggregationResult;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs the set-up `make(last)` at least three times and, while they stay
/// under two seconds in total, up to nine; returns each one's seconds.
/// `last` is true on the final call, whose result the run keeps.
template <class Make>
std::vector<double> repeat_setup(Make&& make) {
  constexpr std::size_t kMin = 3;
  constexpr std::size_t kMax = 9;
  constexpr double kBudget = 2.0;
  std::vector<double> s;
  double total = 0.0;
  while (true) {
    const Clock::time_point t0 = Clock::now();
    make();
    s.push_back(since(t0));
    total += s.back();
    const double mean = total / static_cast<double>(s.size());
    if (s.size() >= kMax || (s.size() >= kMin && total + mean > kBudget)) {
      return s;
    }
  }
}

// --- Result signatures ------------------------------------------------------

/// The bit-level identity of one aggregation result.
struct Sig {
  std::uint64_t pic = 0;
  std::uint64_t partition = 0;
  std::uint64_t gain = 0;
  std::uint64_t loss = 0;
  bool operator==(const Sig&) const = default;
};

Sig sig_of(const AggregationResult& r) {
  return {std::bit_cast<std::uint64_t>(r.optimal_pic), r.partition.signature(),
          std::bit_cast<std::uint64_t>(r.measures.gain),
          std::bit_cast<std::uint64_t>(r.measures.loss)};
}

std::uint64_t digest(const std::vector<Sig>& sigs, std::uint64_t h) {
  for (const Sig& s : sigs) {
    for (const std::uint64_t v : {s.pic, s.partition, s.gain, s.loss}) {
      h = (h ^ v) * 0x100000001b3ULL;
    }
  }
  return h;
}

// --- Machine probes ---------------------------------------------------------

/// Resets the kernel's peak-RSS mark to the current RSS, so the peak that
/// follows covers only the pass about to run.  False when the kernel refused
/// (no /proc/self/clear_refs): the peak then still includes the set-up.
bool reset_peak_rss() {
  malloc_trim(0);  // return the set-up's freed heap first
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/// Note and record entry for a peak-RSS metric whose mark could not be
/// reset before `unreset` of its passes or phases.
std::string unreset_note(Outcome& out, std::size_t unreset) {
  out.info.emplace_back("peak_rss_unreset", std::to_string(unreset));
  if (unreset == 0) return {};
  return "; NOT reset before " + std::to_string(unreset) +
         " of them, so the peak includes the set-up";
}

std::uint64_t l3_bytes() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  std::uint64_t mult = 1;
  if (s.back() == 'K') mult = 1ULL << 10;
  if (s.back() == 'M') mult = 1ULL << 20;
  return std::stoull(s) * mult;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

template <class T>
std::string num(T v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_list(const std::vector<double>& xs) {
  std::string s = "[";
  for (const double x : xs) s += (s.size() > 1 ? ", " : "") + num(x);
  return s + "]";
}

void provenance(Outcome& out, const RunOptions& opt) {
  const stagg::BenchInfo bi = stagg::bench_info();
  out.info.emplace_back("hardware_threads", num(bi.hardware_threads));
  out.info.emplace_back("simd_level", quoted(bi.simd_level));
  out.info.emplace_back("compiler", quoted(bi.compiler));
  out.info.emplace_back("pool_threads",
                        num(stagg::ThreadPool::shared().size()));
  out.info.emplace_back("l3_bytes", num(l3_bytes()));
  out.info.emplace_back("seed", num(opt.seed));
  out.info.emplace_back("seconds", num(opt.seconds));
  out.info.emplace_back("scenario", quoted("C: NAS-LU class C, 700 processes"));
}

void put(std::vector<Metric>& v, std::string name, double value,
         std::string unit, std::string note = {}) {
  v.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

double layer(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Temporal cut candidates one DP sweep scans: every node, every slice
/// interval [i, j], every cut c in [i, j) — nodes * (T^3 - T) / 6.
double cut_candidates_per_sweep(std::size_t nodes, std::int32_t slices) {
  const auto t = static_cast<double>(slices);
  return static_cast<double>(nodes) * (t * t * t - t) / 6.0;
}

}  // namespace

// ============================================================================
// Workload registry
// ============================================================================

namespace {

// lu_batch_t30: a ~325 MB STGT file (about 3x a 105 MB L3) and a cheap DP —
// isolates trace decode.  lu_batch_t120: a 40 MB file and |T| = 120 —
// isolates the O(|S|.|T|^3) cut scan.
const BatchConfig kBatch[] = {
    {"lu_batch_t30", 1.0 / 8.0, 30, 32, 3},
    {"lu_batch_t120", 1.0 / 64.0, 120, 32, 3},
};

// lu_live_budget: the live stream with kAuto compression and a spill
// budget, so every live layer (text decode, seal, advance, codec, spill,
// pipeline queues) runs.
const LiveConfig kLive[] = {{.name = "lu_live_budget"}};

}  // namespace

const BatchConfig* find_batch(const std::string& name) {
  for (const BatchConfig& c : kBatch) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const LiveConfig* find_live(const std::string& name) {
  for (const LiveConfig& c : kLive) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const BatchConfig& c : kBatch) names.push_back(c.name);
  for (const LiveConfig& c : kLive) names.push_back(c.name);
  return names;
}

// ============================================================================
// Batch: STGT file -> partitions
// ============================================================================

namespace {

struct BatchPass {
  double wall = 0.0;
  double first = 0.0;
  std::vector<Sig> sigs;  ///< run(0.5), then the run_many probes
  double store_mb = 0.0;
  double resident_mb = 0.0;
  double compression_ratio = 0.0;
  double peak_mb = 0.0;
  bool peak_reset = false;  ///< peak_mb covers this pass only
};

/// One request: file -> store -> view -> model -> cube -> cache + first DP
/// -> run_many.  Everything the pass builds is released after the timed
/// region ends.
BatchPass batch_pass(const std::string& path, const stagg::Hierarchy& h,
                     const stagg::ModelBuildOptions& mopt,
                     const std::vector<double>& ps, SpanRecorder& rec,
                     std::uint32_t req) {
  BatchPass pass;
  std::shared_ptr<stagg::TraceStore> store;
  std::optional<stagg::TraceView> view;
  std::optional<stagg::MicroscopicModel> model;
  std::optional<stagg::SpatiotemporalAggregator> agg;
  AggregationResult first;
  std::vector<AggregationResult> many;
  pass.peak_reset = reset_peak_rss();
  const Clock::time_point t0 = Clock::now();
  {
    Scope root(rec, "request", req);
    {
      Scope s(rec, "trace.read", req);
      store = stagg::read_binary_trace_store(path);
    }
    {
      Scope s(rec, "trace.view", req);
      view.emplace(store);
    }
    {
      Scope s(rec, "model.fold", req);
      model.emplace(stagg::build_model(*view, h, mopt));
    }
    {
      Scope s(rec, "cube.build", req);
      agg.emplace(*model);
    }
    {
      // run(0.5) builds the measure cache first; the aggregator times that
      // build itself, which splits the span without reaching inside.
      const int id = rec.open("dp.sweep", req);
      const double start = rec.now();
      first = agg->run(0.5);
      rec.add("cache.build", start, start + agg->cache_build_seconds(), req);
      rec.close(id);
    }
    pass.first = since(t0);
    {
      Scope s(rec, "dp.sweep", req);
      many = agg->run_many(ps);
    }
    pass.wall = since(t0);
  }
  pass.peak_mb = peak_rss_mb();
  pass.sigs.push_back(sig_of(first));
  for (const AggregationResult& r : many) pass.sigs.push_back(sig_of(r));
  pass.store_mb = static_cast<double>(store->store_bytes()) / 1e6;
  pass.resident_mb = static_cast<double>(store->resident_chunk_bytes()) / 1e6;
  pass.compression_ratio =
      static_cast<double>(store->state_count() *
                          stagg::StgtRecordDecoder::kRecordBytes) /
      static_cast<double>(std::max<std::size_t>(store->store_bytes(), 1));
  return pass;
}

}  // namespace

Outcome run_batch(const BatchConfig& cfg, const RunOptions& opt) {
  Outcome out;
  provenance(out, opt);
  const std::string path = opt.out_dir + "/" + cfg.name + "-" +
                           std::to_string(opt.seed) + ".stgt";
  std::vector<double> ps(cfg.probes);
  for (std::size_t k = 0; k < ps.size(); ++k) {
    ps[k] = (static_cast<double>(k) + 0.5) / static_cast<double>(ps.size());
  }
  stagg::ModelBuildOptions mopt;
  mopt.slice_count = cfg.slices;

  // Set-up, several times: the run's input made from the seed (scenario
  // generation + STGT write).  The last one also builds the oracle's model
  // from the in-memory trace — outside setup_s and every timed region, and
  // independent of the file read path under test.
  std::optional<stagg::GeneratedScenario> scenario;
  std::uint64_t file_bytes = 0;
  const std::vector<double> setup_s = repeat_setup([&] {
    scenario.reset();
    scenario.emplace(
        stagg::generate_scenario(stagg::scenario_c(), cfg.scale, opt.seed));
    file_bytes = stagg::write_binary_trace(scenario->trace, path);
  });
  out.events = scenario->trace.state_count();
  const stagg::MicroscopicModel ref_model =
      stagg::build_model(scenario->trace, *scenario->hierarchy, mopt);
  const std::unique_ptr<stagg::Hierarchy> hierarchy =
      std::move(scenario->hierarchy);
  scenario.reset();

  // Measured passes.  Untraced passes give the end-to-end metrics; in a
  // traced run they alternate with traced passes, whose spans give the
  // per-layer split and whose extra wall time is the tracing overhead.
  SpanRecorder traced(true);
  SpanRecorder untraced(false);
  std::vector<BatchPass> passes;
  std::vector<bool> pass_traced;
  const std::size_t min_each = opt.trace ? 2 : cfg.min_reps;
  const Clock::time_point budget = Clock::now();
  std::size_t n_untraced = 0;
  std::size_t n_traced = 0;
  for (std::uint32_t rep = 0;; ++rep) {
    const bool is_traced = opt.trace && rep % 2 == 1;
    try {
      passes.push_back(batch_pass(path, *hierarchy, mopt, ps,
                                  is_traced ? traced : untraced, rep));
    } catch (const std::exception& e) {
      out.correct = false;
      out.mismatches.push_back("pass " + std::to_string(rep) +
                               " threw: " + e.what());
      out.attempted += 1 + ps.size();
      out.failed += 1 + ps.size();
      break;
    }
    pass_traced.push_back(is_traced);
    (is_traced ? n_traced : n_untraced) += 1;
    const double elapsed = since(budget);
    const double mean = elapsed / static_cast<double>(passes.size());
    const bool enough =
        n_untraced >= min_each && (!opt.trace || n_traced >= min_each);
    if (enough && elapsed + mean > opt.seconds) break;
  }
  std::remove(path.c_str());

  // Oracle gate: kReference on the first result, the first, middle and last
  // probe; every pass must reproduce pass 0 bit for bit.
  std::vector<std::size_t> oracle_idx = {0, 1, 1 + ps.size() / 2, ps.size()};
  std::vector<char> bad(1 + ps.size(), 0);
  if (!passes.empty()) {
    try {
      stagg::AggregationOptions ro;
      ro.kernel = stagg::DpKernel::kReference;
      stagg::SpatiotemporalAggregator ref(ref_model, ro);
      for (const std::size_t i : oracle_idx) {
        const double p = i == 0 ? 0.5 : ps[i - 1];
        if (!(sig_of(ref.run(p)) == passes[0].sigs[i])) {
          bad[i] = 1;
          out.mismatches.push_back("probe p=" + num(p) +
                                   " differs from kReference");
        }
      }
    } catch (const std::exception& e) {
      std::fill(bad.begin(), bad.end(), 1);
      out.mismatches.push_back(std::string("oracle threw: ") + e.what());
    }
  }
  for (const BatchPass& pass : passes) {
    out.attempted += pass.sigs.size();
    for (std::size_t i = 0; i < pass.sigs.size(); ++i) {
      if (bad[i] != 0 || !(pass.sigs[i] == passes[0].sigs[i])) ++out.failed;
    }
  }
  if (out.failed > 0) out.correct = false;
  if (!passes.empty()) {
    out.result_digest = digest(passes[0].sigs, 0xcbf29ce484222325ULL);
  }

  // End-to-end metrics (untraced passes).
  std::vector<double> walls;
  std::vector<double> firsts;
  std::vector<double> traced_walls;
  std::vector<double> peaks;
  std::size_t unreset = 0;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    if (pass_traced[k]) {
      traced_walls.push_back(passes[k].wall);
    } else {
      walls.push_back(passes[k].wall);
      firsts.push_back(passes[k].first);
      peaks.push_back(passes[k].peak_mb);
      if (!passes[k].peak_reset) ++unreset;
    }
  }
  std::vector<double> walls_ms;
  for (const double w : walls) walls_ms.push_back(w * 1e3);
  const std::string n_note = "samples=" + std::to_string(walls.size());
  const double wall = median(walls);
  put(out.end_to_end, "wall_s", wall, "s", "median, " + n_note);
  put(out.end_to_end, "first_result_s", median(firsts), "s",
      "median, " + n_note);
  put(out.end_to_end, "latency_p50_ms", percentile(walls_ms, 0.5), "ms",
      "per request (file -> all partitions), " + n_note);
  put(out.end_to_end, "latency_p90_ms", percentile(walls_ms, 0.9), "ms",
      "per request, nearest rank, " + n_note);
  put(out.end_to_end, "events_per_s",
      wall > 0.0 ? static_cast<double>(out.events) / wall : 0.0, "1/s",
      "state intervals / median wall");
  put(out.end_to_end, "setup_s", median(setup_s), "s",
      "median of " + std::to_string(setup_s.size()) + " input builds");
  put(out.end_to_end, "peak_rss_mb", median(peaks), "MB",
      "median over passes of the pass's VmHWM, " + n_note +
          unreset_note(out, unreset));

  // Per-layer metrics (traced passes: median over passes of each layer's
  // self seconds in that pass).
  if (opt.trace && !passes.empty()) {
    const std::vector<double> self = self_times(traced.spans());
    std::map<std::uint32_t, std::map<std::string, double>> by_req;
    for (std::size_t i = 0; i < self.size(); ++i) {
      const Span& s = traced.spans()[i];
      by_req[s.request][s.name] += self[i];
    }
    const auto med = [&](const std::string& name) {
      std::vector<double> xs;
      for (const auto& [req, m] : by_req) xs.push_back(layer(m, name));
      return median(xs);
    };
    const double read_s = med("trace.read");
    const double fold_s = med("model.fold");
    const double dp_s = med("dp.sweep");
    const double candidates =
        cut_candidates_per_sweep(hierarchy->node_count(), cfg.slices) *
        static_cast<double>(1 + ps.size());
    const BatchPass& last = passes.back();
    auto& pl = out.per_layer;
    put(pl, "trace.read_s", read_s, "s");
    put(pl, "trace.read_mb_per_s",
        read_s > 0.0 ? static_cast<double>(file_bytes) / 1e6 / read_s : 0.0,
        "MB/s");
    put(pl, "trace.store_mb", last.store_mb, "MB");
    put(pl, "trace.resident_mb", last.resident_mb, "MB");
    put(pl, "trace.compression_ratio", last.compression_ratio, "ratio",
        "24-byte STGT records / stored bytes");
    put(pl, "model.fold_s", fold_s, "s");
    put(pl, "model.fold_mev_per_s",
        fold_s > 0.0 ? static_cast<double>(out.events) / 1e6 / fold_s : 0.0,
        "Mev/s", "million state intervals per second");
    put(pl, "cube.build_s", med("cube.build"), "s");
    put(pl, "cache.build_s", med("cache.build"), "s",
        "SpatiotemporalAggregator::cache_build_seconds()");
    put(pl, "dp.sweep_s", dp_s, "s", "run(0.5) DP + run_many");
    put(pl, "dp.cut_candidates", candidates, "count",
        "computed: nodes * (T^3 - T) / 6 per sweep, 33 sweeps");
    put(pl, "dp.ns_per_candidate",
        candidates > 0.0 ? dp_s * 1e9 / candidates : 0.0, "ns");
    const Coverage cov = coverage(traced.spans());
    put(pl, "bench.span_coverage", cov.share(), "ratio");
    put(pl, "bench.tracing_overhead", median(traced_walls) - wall, "s",
        "median traced pass - median untraced pass");
    out.spans = traced.spans();
  }

  out.info.emplace_back("mode", quoted("batch"));
  out.info.emplace_back("scale", num(cfg.scale));
  out.info.emplace_back("leaves_S", num(hierarchy->leaf_count()));
  out.info.emplace_back("nodes", num(hierarchy->node_count()));
  out.info.emplace_back("slices_T", num(cfg.slices));
  out.info.emplace_back("states_X", num(ref_model.states().size()));
  out.info.emplace_back("probes", num(ps.size()));
  out.info.emplace_back("events", num(out.events));
  out.info.emplace_back("file_bytes", num(file_bytes));
  out.info.emplace_back("untraced_pass_walls_s", json_list(walls));
  out.info.emplace_back("untraced_passes", num(n_untraced));
  out.info.emplace_back("traced_passes", num(n_traced));
  return out;
}

// ============================================================================
// Live: STGT prefix + CSV rounds -> sliding sessions
// ============================================================================

namespace {

struct Round {
  stagg::TimeNs frontier = 0;
  stagg::TimeNs min_begin = 0;
  std::string text;
  std::uint64_t events = 0;
};

struct LiveInput {
  std::unique_ptr<stagg::Hierarchy> hierarchy;
  std::vector<Round> rounds;
  std::uint64_t prefix_bytes = 0;
  std::uint64_t prefix_events = 0;
  std::uint64_t stream_events = 0;
  std::size_t states = 0;
  stagg::TimeNs split = 0;
};

/// Scenario C split at split_s: the prefix as an STGT file, the next
/// `rounds` rounds of round_s trace time as CSV text.
LiveInput make_live_input(const LiveConfig& cfg, std::uint64_t seed,
                          const std::string& prefix_path,
                          std::size_t rounds) {
  LiveInput in;
  stagg::GeneratedScenario g =
      stagg::generate_scenario(stagg::scenario_c(), cfg.scale, seed);
  g.trace.seal();
  in.split = stagg::seconds(cfg.split_s);
  stagg::TraceSplit split = stagg::split_trace_at(g.trace, in.split);
  in.prefix_events = split.initial.state_count();
  in.states = g.trace.states().size();
  in.prefix_bytes = stagg::write_binary_trace(split.initial, prefix_path);
  const stagg::TimeNs dt = stagg::seconds(cfg.round_s);
  std::size_t next = 0;
  for (std::size_t k = 0; k < rounds; ++k) {
    Round r;
    r.frontier = in.split + dt * static_cast<stagg::TimeNs>(k + 1);
    r.min_begin = r.frontier;
    for (; next < split.future.size() &&
           split.future[next].second.begin < r.frontier;
         ++next) {
      const auto& [res, s] = split.future[next];
      r.text += "STATE,";
      r.text += g.trace.resource_path(res);
      r.text += ',';
      r.text += g.trace.states().name(s.state);
      r.text += ',';
      r.text += std::to_string(s.begin);
      r.text += ',';
      r.text += std::to_string(s.end);
      r.text += '\n';
      r.min_begin = std::min(r.min_begin, s.begin);
      ++r.events;
    }
    in.stream_events += r.events;
    in.rounds.push_back(std::move(r));
  }
  in.hierarchy = std::move(g.hierarchy);
  return in;
}

/// Rounds the stream offers: whole rounds between the split and the end
/// of the scenario.
std::size_t available_rounds(const LiveConfig& cfg) {
  return static_cast<std::size_t>((stagg::scenario_c().span_s - cfg.split_s) /
                                  cfg.round_s);
}

/// File -> first partitions: reads the recorded prefix and attaches the
/// two shared sessions (|T| = 60 at 0.25 s slices, p in {0.25, 0.5,
/// 0.75}; |T| = 30 at 0.5 s slices, p = 0.5), whose initial windows
/// aggregate on attach.
std::unique_ptr<stagg::SessionManager> attach(const LiveInput& in,
                                              const LiveConfig& cfg,
                                              const std::string& prefix_path,
                                              const std::string& spill_path,
                                              SpanRecorder& rec) {
  std::shared_ptr<stagg::TraceStore> store;
  {
    Scope s(rec, "trace.read", 0);
    store = stagg::read_binary_trace_store(prefix_path);
  }
  Scope s(rec, "session.attach", 0);
  auto mgr = std::make_unique<stagg::SessionManager>(*in.hierarchy, store);
  mgr->set_compression(stagg::ChunkCompression::kAuto);
  std::remove(spill_path.c_str());
  const auto budget = static_cast<std::size_t>(
      cfg.budget_share * static_cast<double>(mgr->resident_chunk_bytes()));
  mgr->set_memory_budget(std::max<std::size_t>(budget, 1), spill_path);
  const stagg::TimeNs begin = in.split - stagg::seconds(15.0);
  stagg::SessionSpec a;
  a.window = stagg::TimeGrid(begin, in.split, 60);
  a.ps = {0.25, 0.5, 0.75};
  mgr->add_session(a);
  stagg::SessionSpec b;
  b.window = stagg::TimeGrid(begin, in.split, 30);
  b.ps = {0.5};
  mgr->add_session(b);
  return mgr;
}

std::vector<Sig> sigs_of(const stagg::SessionManager& mgr) {
  std::vector<Sig> out;
  for (std::size_t i = 0; i < mgr.session_count(); ++i) {
    for (const AggregationResult& r : mgr.session(i).results()) {
      out.push_back(sig_of(r));
    }
  }
  return out;
}

/// One pipeline phase: its timings, the pipeline's counters, and the
/// per-round results the advance worker reported back.
struct PipelineRun {
  double attach_s = 0.0;
  double stream_s = 0.0;  ///< first submit -> last round advanced
  double wall_s = 0.0;    ///< attach + stream
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  double blocked_s = 0.0;
  double peak_mb = 0.0;
  bool peak_reset = false;  ///< peak_mb covers this phase only
  stagg::IngestPipelineStats stats;
  std::vector<std::vector<Sig>> sigs;
};

/// Feeds every round through an IngestPipeline.  Open loop: round k is due
/// at start + k / rounds_per_s whatever the pipeline does, and its latency
/// runs from that due time.  Closed loop (rounds_per_s = 0): rounds go in
/// back to back and only the stream time counts.
PipelineRun run_pipeline(const LiveInput& in, const LiveConfig& cfg,
                         const std::string& prefix_path,
                         const std::string& spill_path, double rounds_per_s) {
  PipelineRun run;
  SpanRecorder off(false);
  const std::size_t n = in.rounds.size();
  std::vector<stagg::TimeNs> frontiers;
  for (const Round& r : in.rounds) frontiers.push_back(r.frontier);
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> done(n);
  std::vector<char> finished(n, 0);
  run.sigs.resize(n);

  run.peak_reset = reset_peak_rss();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<stagg::SessionManager> mgr =
      attach(in, cfg, prefix_path, spill_path, off);
  run.attach_s = since(t0);

  stagg::IngestPipelineOptions popt;
  popt.parse_workers = cfg.parse_workers;
  popt.on_advance = [&](stagg::TimeNs wm) {
    const auto it = std::lower_bound(frontiers.begin(), frontiers.end(), wm);
    if (it == frontiers.end() || *it != wm) return;
    const auto k = static_cast<std::size_t>(it - frontiers.begin());
    done[k] = Clock::now();
    finished[k] = 1;
    run.sigs[k] = sigs_of(*mgr);
  };
  stagg::IngestPipeline pipeline(*mgr, popt);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(rounds_per_s > 0.0 ? 1.0 / rounds_per_s
                                                       : 0.0));
  const Clock::time_point stream_t0 = Clock::now();
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = rounds_per_s > 0.0
                 ? start + period * static_cast<std::int64_t>(k)
                 : Clock::now();
    std::this_thread::sleep_until(due[k]);
    const Clock::time_point sent = Clock::now();
    run.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due[k]).count());
    pipeline.submit_text(in.rounds[k].text);
    pipeline.advance_watermark(in.rounds[k].frontier);
    run.blocked_s += since(sent);
  }
  pipeline.wait_until_advanced(frontiers.back());
  run.stream_s = since(stream_t0);
  run.wall_s = since(t0);
  pipeline.close();
  run.peak_mb = peak_rss_mb();
  run.stats = pipeline.stats();
  for (std::size_t k = 0; k < n; ++k) {
    run.latency_ms.push_back(
        finished[k] != 0
            ? std::chrono::duration<double, std::milli>(done[k] - due[k])
                  .count()
            : 1e12);
  }
  return run;
}

struct Replay {
  double wall_s = 0.0;
  double attach_s = 0.0;
  double cache_build_s = 0.0;
  std::vector<std::vector<Sig>> sigs;
  double dirty_sum = 0.0;
  std::size_t dirty_n = 0;
  double store_mb = 0.0;
  double resident_mb = 0.0;
  double compression_ratio = 0.0;
  std::vector<std::string> oracle_mismatches;
};

/// Share of the columns the advance from `before` to `after` recomputes,
/// for a round whose earliest event begins at `min_begin` (sliding_window.cpp's
/// dirty-column rule, derived from the windows because the manager hands
/// sessions their dirty frontier inside its advance stage, so
/// pending_dirty_slice() read from outside is always clean).
double dirty_fraction(const stagg::TimeGrid& before,
                      const stagg::TimeGrid& after, stagg::TimeNs min_begin,
                      bool had_events) {
  const std::int32_t t = after.slice_count();
  if (t <= 0) return 0.0;
  const stagg::TimeNs dt = after.uniform_dt_ns();
  const auto dropped = static_cast<std::int32_t>(
      dt > 0 ? (after.begin() - before.begin()) / dt : 0);
  const std::int32_t fresh =
      std::clamp<std::int32_t>(before.slice_count() - dropped, 0, t);
  std::int32_t staged = t;
  if (had_events && min_begin < after.end()) {
    staged = min_begin <= after.begin() ? 0 : after.slice_of(min_begin);
  }
  return static_cast<double>(t - std::min(fresh, staged)) /
         static_cast<double>(t);
}

/// The same rounds through the synchronous stage calls on this thread:
/// decode -> SessionManager::ingest -> seal_staged -> advance_to_watermark.
/// With an enabled recorder every stage call is a span of its round.
/// Ends with the kReference oracle on each session's final round.
Replay replay(const LiveInput& in, const LiveConfig& cfg,
              const std::string& prefix_path, const std::string& spill_path,
              SpanRecorder& rec) {
  Replay out;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<stagg::SessionManager> mgr;
  {
    Scope root(rec, "attach", 0);
    mgr = attach(in, cfg, prefix_path, spill_path, rec);
  }
  out.attach_s = since(t0);
  for (std::size_t i = 0; i < mgr->session_count(); ++i) {
    out.cache_build_s += mgr->session(i).aggregator().cache_build_seconds();
  }
  const stagg::TraceStore& store = mgr->store();
  std::vector<stagg::EventRecord> records;
  for (std::size_t k = 0; k < in.rounds.size(); ++k) {
    const Round& round = in.rounds[k];
    const auto req = static_cast<std::uint32_t>(k + 1);
    std::vector<stagg::TimeGrid> before;
    {
      Scope root(rec, "round", req);
      records.clear();
      {
        Scope s(rec, "trace.text_decode", req);
        stagg::TextTraceDecoder decoder(stagg::TextTraceFormat::kCsv,
                                        "<stream>");
        const stagg::DecodedTextSink sink =
            [&](const stagg::DecodedTextRecord& r) {
              stagg::EventRecord ev;
              ev.resource = store.find_resource(r.resource);
              ev.state = *store.states().find(r.state);
              ev.begin = r.begin;
              ev.end = r.end;
              records.push_back(ev);
            };
        decoder.feed(round.text, sink);
        decoder.finish(sink);
      }
      {
        Scope s(rec, "session.ingest", req);
        mgr->ingest(records);
      }
      {
        Scope s(rec, "session.seal", req);
        mgr->seal_staged(round.frontier);
      }
      for (std::size_t i = 0; i < mgr->session_count(); ++i) {
        before.push_back(mgr->session(i).window());
      }
      {
        Scope s(rec, "session.advance", req);
        mgr->advance_to_watermark(round.frontier);
      }
    }
    for (std::size_t i = 0; i < mgr->session_count(); ++i) {
      out.dirty_sum += dirty_fraction(before[i], mgr->session(i).window(),
                                      round.min_begin, round.events > 0);
      ++out.dirty_n;
    }
    out.sigs.push_back(sigs_of(*mgr));
  }
  out.wall_s = since(t0);
  out.store_mb = static_cast<double>(mgr->store_bytes()) / 1e6;
  out.resident_mb = static_cast<double>(mgr->resident_chunk_bytes()) / 1e6;
  out.compression_ratio =
      static_cast<double>(mgr->store().state_count() *
                          stagg::StgtRecordDecoder::kRecordBytes) /
      static_cast<double>(std::max<std::size_t>(mgr->store_bytes(), 1));
  for (std::size_t i = 0; i < mgr->session_count(); ++i) {
    const auto ref =
        mgr->session(i).run_from_scratch(stagg::DpKernel::kReference);
    const auto& got = mgr->session(i).results();
    bool same = ref.size() == got.size();
    for (std::size_t j = 0; same && j < ref.size(); ++j) {
      same = sig_of(ref[j]) == sig_of(got[j]);
    }
    if (!same) {
      out.oracle_mismatches.push_back(
          "session " + std::to_string(i) +
          ": final round differs from run_from_scratch(kReference)");
    }
  }
  return out;
}

}  // namespace

Outcome run_live(const LiveConfig& cfg, const RunOptions& opt) {
  Outcome out;
  provenance(out, opt);
  const std::string stem =
      opt.out_dir + "/" + cfg.name + "-" + std::to_string(opt.seed);
  const std::string prefix_path = stem + "-prefix.stgt";
  const std::string spill_path = stem + ".spill";
  const std::size_t rounds = std::min(available_rounds(cfg), cfg.rounds);

  LiveInput in;
  const std::vector<double> setup_s = repeat_setup([&] {
    in = LiveInput{};
    in = make_live_input(cfg, opt.seed, prefix_path, rounds);
  });
  out.events = in.stream_events;

  std::optional<PipelineRun> open;
  std::vector<PipelineRun> closed;
  std::optional<Replay> plain;
  std::optional<Replay> traced_replay;
  SpanRecorder traced(true);
  SpanRecorder off(false);
  try {
    // The open loop's length is fixed by its rounds and rate; closed-loop
    // passes fill the rest of the measured time (at least two).
    const Clock::time_point t0 = Clock::now();
    open = run_pipeline(in, cfg, prefix_path, spill_path, cfg.rounds_per_s);
    while (!opt.trace) {
      closed.push_back(run_pipeline(in, cfg, prefix_path, spill_path, 0.0));
      const double spent = since(t0);
      const double mean = closed.back().wall_s;
      if (closed.size() >= 8 ||
          (closed.size() >= 2 && spent + mean > opt.seconds)) {
        break;
      }
    }
    plain = replay(in, cfg, prefix_path, spill_path, off);
    if (opt.trace) {
      traced_replay = replay(in, cfg, prefix_path, spill_path, traced);
    }
  } catch (const std::exception& e) {
    out.correct = false;
    out.mismatches.push_back(std::string("live run threw: ") + e.what());
  }
  std::remove(prefix_path.c_str());
  std::remove(spill_path.c_str());

  // Oracle gate: the synchronous replay's final round must equal a
  // from-scratch kReference run, and every pipelined round must equal the
  // replay's round.  A round also fails when it missed its deadline.
  if (plain) {
    for (const std::string& m : plain->oracle_mismatches) {
      out.mismatches.push_back(m);
    }
    out.result_digest = 0xcbf29ce484222325ULL;
    for (const auto& s : plain->sigs) {
      out.result_digest = digest(s, out.result_digest);
    }
  }
  const auto gate = [&](const PipelineRun* run, const char* label,
                        bool deadline) {
    if (run == nullptr) return;
    for (std::size_t k = 0; k < rounds; ++k) {
      ++out.attempted;
      bool ok = plain && plain->oracle_mismatches.empty() &&
                run->sigs[k] == plain->sigs[k];
      if (!ok && plain) {
        out.mismatches.push_back(std::string(label) + " round " +
                                 std::to_string(k) +
                                 " differs from the synchronous replay");
      }
      if (deadline && run->latency_ms[k] > cfg.deadline_ms) ok = false;
      if (!ok) ++out.failed;
    }
  };
  gate(open ? &*open : nullptr, "open-loop", true);
  for (const PipelineRun& run : closed) gate(&run, "closed-loop", false);
  if (traced_replay && traced_replay->sigs != plain->sigs) {
    out.mismatches.push_back("traced replay differs from the untraced one");
  }
  if (!out.mismatches.empty()) out.correct = false;
  if (out.attempted == 0) {
    out.attempted = rounds;
    out.failed = rounds;
  }

  std::vector<double> attach_s;
  std::vector<double> closed_wall;
  std::vector<double> closed_stream;
  std::vector<double> peaks;
  std::size_t unreset = 0;
  if (open) {
    attach_s.push_back(open->attach_s);
    peaks.push_back(open->peak_mb);
    if (!open->peak_reset) ++unreset;
  }
  for (const PipelineRun& run : closed) {
    attach_s.push_back(run.attach_s);
    peaks.push_back(run.peak_mb);
    if (!run.peak_reset) ++unreset;
    closed_wall.push_back(run.wall_s);
    closed_stream.push_back(run.stream_s);
  }
  if (plain) attach_s.push_back(plain->attach_s);

  const std::string n_note =
      "samples=" + std::to_string(open ? open->latency_ms.size() : 0);
  if (!closed.empty()) {
    const std::string passes =
        ", median of " + std::to_string(closed.size()) + " closed-loop passes";
    put(out.end_to_end, "wall_s", median(closed_wall), "s",
        "prefix file -> last round advanced" + passes);
    put(out.end_to_end, "events_per_s",
        static_cast<double>(in.stream_events) / median(closed_stream), "1/s",
        "state intervals / stream seconds" + passes);
  }
  put(out.end_to_end, "first_result_s", median(attach_s), "s",
      "prefix file -> first partitions, median of " +
          std::to_string(attach_s.size()) + " attaches");
  if (open) {
    put(out.end_to_end, "latency_p50_ms", percentile(open->latency_ms, 0.5),
        "ms", "open loop, due -> advanced, " + n_note);
    put(out.end_to_end, "latency_p90_ms", percentile(open->latency_ms, 0.9),
        "ms", "open loop, nearest rank, " + n_note);
  }
  put(out.end_to_end, "setup_s", median(setup_s), "s",
      "median of " + std::to_string(setup_s.size()) + " input builds");
  put(out.end_to_end, "peak_rss_mb",
      peaks.empty() ? 0.0 : *std::max_element(peaks.begin(), peaks.end()),
      "MB", "max over pipeline phases of the phase's VmHWM, phases=" +
                std::to_string(peaks.size()) + unreset_note(out, unreset));

  if (opt.trace && traced_replay && open) {
    const std::map<std::string, double> by = self_by_name(traced.spans());
    const Replay& tr = *traced_replay;
    auto& pl = out.per_layer;
    const double read_s = layer(by, "trace.read");
    put(pl, "trace.read_s", read_s, "s", "prefix read at attach");
    put(pl, "trace.read_mb_per_s",
        read_s > 0.0 ? static_cast<double>(in.prefix_bytes) / 1e6 / read_s
                     : 0.0,
        "MB/s");
    put(pl, "trace.text_decode_s", layer(by, "trace.text_decode"), "s",
        "replay, all rounds");
    put(pl, "trace.store_mb", tr.store_mb, "MB", "after the last round");
    put(pl, "trace.resident_mb", tr.resident_mb, "MB",
        "after the last round");
    put(pl, "trace.compression_ratio", tr.compression_ratio, "ratio",
        "24-byte STGT records / stored bytes");
    put(pl, "cache.build_s", tr.cache_build_s, "s",
        "cache_build_seconds() summed over sessions at attach");
    put(pl, "session.ingest_s", layer(by, "session.ingest"), "s",
        "replay, all rounds");
    put(pl, "session.seal_s", layer(by, "session.seal"), "s",
        "replay, all rounds");
    put(pl, "session.advance_s", layer(by, "session.advance"), "s",
        "replay, all rounds");
    put(pl, "session.dirty_fraction",
        tr.dirty_n > 0 ? tr.dirty_sum / static_cast<double>(tr.dirty_n) : 0.0,
        "ratio", "computed: recomputed columns / |T|, mean over rounds");
    const stagg::IngestPipelineStats& st = open->stats;
    std::size_t high = std::max(st.batch_queue.high_water,
                                st.watermark_queue.high_water);
    std::uint64_t blocked =
        st.batch_queue.blocked_pushes + st.watermark_queue.blocked_pushes;
    for (const stagg::BoundedQueueStats& q : st.shard_queues) {
      high = std::max(high, q.high_water);
      blocked += q.blocked_pushes;
    }
    put(pl, "pipeline.submit_blocked_s", open->blocked_s, "s",
        "open loop, time inside submit_text + advance_watermark");
    put(pl, "pipeline.queue_high_water", static_cast<double>(high), "count",
        "max over the pipeline's queues");
    put(pl, "pipeline.blocked_pushes", static_cast<double>(blocked), "count",
        "sum over the pipeline's queues");
    put(pl, "pipeline.generator_lag_ms",
        *std::max_element(open->lag_ms.begin(), open->lag_ms.end()), "ms",
        "open loop, max send - due");
    const Coverage cov = coverage(traced.spans());
    put(pl, "bench.span_coverage", cov.share(), "ratio", "traced replay");
    put(pl, "bench.tracing_overhead", tr.wall_s - plain->wall_s, "s",
        "traced replay - untraced replay");
    out.spans = traced.spans();
  }

  out.info.emplace_back("mode", quoted("live"));
  out.info.emplace_back("scale", num(cfg.scale));
  out.info.emplace_back("leaves_S", num(in.hierarchy->leaf_count()));
  out.info.emplace_back("nodes", num(in.hierarchy->node_count()));
  out.info.emplace_back("sessions",
                        quoted("|T|=60 @0.25s p={0.25,0.5,0.75}; "
                               "|T|=30 @0.5s p={0.5}"));
  out.info.emplace_back("states_X", num(in.states));
  out.info.emplace_back("rounds", num(rounds));
  out.info.emplace_back("closed_loop_walls_s", json_list(closed_wall));
  out.info.emplace_back("open_loop_latency_ms",
                        json_list(open ? open->latency_ms
                                       : std::vector<double>{}));
  out.info.emplace_back("round_trace_s", num(cfg.round_s));
  out.info.emplace_back("offered_rounds_per_s", num(cfg.rounds_per_s));
  out.info.emplace_back(
      "offered_events_per_s",
      num(static_cast<double>(in.stream_events) /
          (static_cast<double>(rounds) / cfg.rounds_per_s)));
  out.info.emplace_back("parse_workers", num(cfg.parse_workers));
  out.info.emplace_back("deadline_ms", num(cfg.deadline_ms));
  out.info.emplace_back("budget_share", num(cfg.budget_share));
  out.info.emplace_back("prefix_events", num(in.prefix_events));
  out.info.emplace_back("prefix_file_bytes", num(in.prefix_bytes));
  out.info.emplace_back("events", num(in.stream_events));
  return out;
}

}  // namespace e2e
