// Host-time benchmark driver for dvx (README.md in this directory).
//
// Runs one figure through the public experiment API — Workload::plan, then
// exp::execute_point per point, then Workload::report — at --jobs 1 with 1
// or 2 engine threads. Every layer is measured from the outside: it times
// its own calls into public functions and sums the program's
// dvx-metrics/v1 counters. It adds no timer to the program.
//
//   dvx_perfbench --mode setup|timed|traced --workload bfs|fft|serving
//                 --seed N [--threads 1|2] [--out DIR] [--fast] [--nodes 2,4,...]
//
// setup   plans the figure and stops where the first point would start.
// timed   runs one pass over every point at --threads engine threads.
//         run.py starts a fresh process per timed pass.
// traced  one untraced t1 pass, then traced t1 and t2 passes under an obs
//         collector, then replays of the kernels the points call; writes
//         host spans as Chrome-trace JSON to DIR/spans_<workload>.json.
//
// Prints one JSON object on stdout. An operation is one point at one
// thread setting; it fails when it throws, when its pass's report throws
// or fails an anchor, or when its output differs from the first pass's
// (run.py also compares the timed processes' documents with each other).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "apps/bfs_common.hpp"
#include "apps/fft1d_common.hpp"
#include "check/check.hpp"
#include "exp/workload.hpp"
#include "kernels/fft.hpp"
#include "kernels/kronecker.hpp"
#include "obs/collector.hpp"
#include "obs/snapshot.hpp"
#include "runtime/cluster.hpp"
#include "runtime/report.hpp"
#include "serve/arrival.hpp"

namespace {

namespace exp = dvx::exp;
namespace obs = dvx::obs;
namespace runtime = dvx::runtime;
using runtime::Json;
using Clock = std::chrono::steady_clock;

constexpr int kThreadSettings[] = {1, 2};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 1;
  std::string out_dir;
  bool fast = false;
  std::vector<int> nodes;
};

/// The figure each benchmark workload runs.
const char* figure_of(std::string_view workload) {
  if (workload == "bfs") return "fig8";
  if (workload == "fft") return "fig7";
  if (workload == "serving") return "serving";
  return nullptr;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--mode") {
      opt.mode = value();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--threads") {
      opt.threads = std::stoi(value());
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--fast") {
      opt.fast = true;
    } else if (arg == "--nodes") {
      for (const auto& n : split_list(value())) opt.nodes.push_back(std::stoi(n));
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opt.mode != "setup" && opt.mode != "timed" && opt.mode != "traced") {
    throw std::invalid_argument("--mode must be setup, timed or traced");
  }
  if (figure_of(opt.workload) == nullptr) {
    throw std::invalid_argument("--workload must be bfs, fft or serving");
  }
  if (opt.seed == 0) throw std::invalid_argument("--seed must be a positive integer");
  if (opt.threads != 1 && opt.threads != 2) throw std::invalid_argument("--threads must be 1 or 2");
  return opt;
}

// ---------------------------------------------------------------------------
// Host spans (traced mode): kept in memory, written once as Chrome-trace JSON
// ---------------------------------------------------------------------------

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  void open(std::string name, Json args = Json::object()) {
    spans_.push_back({std::move(name), now_us(), 0.0,
                      stack_.empty() ? -1 : static_cast<long>(stack_.back()),
                      std::move(args)});
    stack_.push_back(spans_.size() - 1);
  }
  void close() {
    spans_[stack_.back()].end_us = now_us();
    stack_.pop_back();
  }

  Json chrome_trace() const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json e = Json::object();
      e["name"] = s.name;
      e["ph"] = "X";
      e["ts"] = s.start_us;
      e["dur"] = s.end_us - s.start_us;
      e["pid"] = 1;
      e["tid"] = 1;
      Json args = s.args;
      args["id"] = static_cast<std::int64_t>(i);
      args["parent"] = static_cast<std::int64_t>(s.parent);
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc["displayTimeUnit"] = "ms";
    doc["traceEvents"] = std::move(events);
    return doc;
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    long parent = -1;  ///< index into spans_, -1 for a root
    Json args;
  };
  double now_us() const { return seconds_between(origin_, Clock::now()) * 1e6; }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for the current scope; a no-op when `spans` is null.
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, Json args = Json::object()) : spans_(spans) {
    if (spans_ != nullptr) spans_->open(std::move(name), std::move(args));
  }
  ~SpanScope() {
    if (spans_ != nullptr) spans_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
};

Json point_args(const exp::RunPoint& p, int threads) {
  Json a = Json::object();
  a["backend"] = exp::to_string(p.backend);
  a["nodes"] = p.nodes;
  a["variant"] = p.variant;
  a["index"] = static_cast<std::int64_t>(p.index);
  if (threads > 0) a["engine_threads"] = threads;
  return a;
}

// ---------------------------------------------------------------------------
// obs counts: per-layer sums over nodes/labels of one point's registry
// ---------------------------------------------------------------------------

/// Layer metric -> (obs metric name, required label or "" for all labels).
struct CountSource {
  const char* layer_metric;
  const char* unit;
  const char* obs_name;
  const char* label_key;
  const char* label_value;
};

constexpr CountSource kCountSources[] = {
    {"sim.engine.events", "count", "sim.engine.events", "", ""},
    {"dv.fabric.bursts", "count", "dv.fabric.bursts", "", ""},
    {"dv.fabric.words", "count", "dv.fabric.words", "", ""},
    {"dv.fabric.inject_wait_ps", "sim_ps", "dv.fabric.inject_wait_ps", "", ""},
    {"dv.fabric.eject_wait_ps", "sim_ps", "dv.fabric.eject_wait_ps", "", ""},
    {"vic.fifo.deposits", "count", "vic.fifo.deposits", "", ""},
    {"vic.dma.bytes", "B", "vic.dma.bytes", "", ""},
    {"vic.dma.transactions", "count", "vic.dma.transactions", "", ""},
    {"vic.counter.wait_ps", "sim_ps", "vic.counter.wait_ps", "", ""},
    {"mpi.msgs.eager", "count", "mpi.msgs", "protocol", "eager"},
    {"mpi.msgs.rendezvous", "count", "mpi.msgs", "protocol", "rendezvous"},
    {"mpi.msg.bytes", "B", "mpi.msg.bytes", "", ""},
    {"serve.admission.accepted", "count", "serve.admission.accepted", "", ""},
    {"serve.admission.shed", "count", "serve.admission.shed", "", ""},
};

using Counts = std::map<std::string, double>;

/// Sums each count source over every label set of the registry. Counters
/// contribute their value; the mpi.msg.bytes histogram its exact total.
Counts sum_counts(const obs::Registry& registry) {
  Counts c;
  for (const CountSource& src : kCountSources) c[src.layer_metric] = 0.0;
  for (const auto& [key, metric] : registry.metrics()) {
    const auto& [name, labels] = key;
    for (const CountSource& src : kCountSources) {
      if (name != src.obs_name) continue;
      if (src.label_key[0] != '\0') {
        const auto it = labels.find(src.label_key);
        if (it == labels.end() || it->second != src.label_value) continue;
      }
      if (const auto* counter = std::get_if<obs::Counter>(&metric)) {
        c[src.layer_metric] += static_cast<double>(counter->value());
      } else if (const auto* hist = std::get_if<obs::Histogram>(&metric)) {
        c[src.layer_metric] += hist->stats().total();
      }
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct Pass {
  std::string label;
  int threads = 1;
  std::vector<exp::PointResult> results;
  std::vector<double> point_s;      ///< host wall seconds per point
  std::vector<double> point_cpu_s;  ///< process user+sys seconds per point
  std::vector<Counts> counts;       ///< per point, traced passes only
  double report_s = 0.0;            ///< report plus JSON serialization
  double report_cpu_s = 0.0;
  bool reported = false;            ///< every point ran and report() returned
  bool anchors_ok = false;
  std::string document;             ///< the pass's dvx-bench/v1 document
  std::vector<std::string> errors;

  double wall_s() const {
    double s = report_s;
    for (const double t : point_s) s += t;
    return s;
  }
};

struct PassConfig {
  std::string label;
  int threads = 1;
  bool collect = false;        ///< run each point under an obs collector
  Spans* spans = nullptr;      ///< record host spans (traced mode)
  std::string snapshot_dir;    ///< non-empty: write each point's obs snapshot
};

Pass run_pass(const exp::Workload& w, const exp::RunOptions& ropt,
              const std::vector<exp::RunPoint>& points, const PassConfig& cfg) {
  Pass pass;
  pass.label = cfg.label;
  pass.threads = cfg.threads;
  runtime::set_default_engine_threads(cfg.threads);
  Json pass_args = Json::object();
  pass_args["engine_threads"] = cfg.threads;
  const SpanScope pass_span(cfg.spans, "pass." + cfg.label, pass_args);

  for (const exp::RunPoint& p : points) {
    const SpanScope span(cfg.spans,
                         std::string("execute_point ") + exp::to_string(p.backend) + " n" +
                             std::to_string(p.nodes) +
                             (p.variant.empty() ? "" : " " + p.variant),
                         point_args(p, cfg.threads));
    std::optional<obs::Collector> collector;
    if (cfg.collect) collector.emplace();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    exp::PointResult r;
    if (collector) {
      const obs::ScopedCollector scope(*collector);
      r = exp::execute_point(w, p);
    } else {
      r = exp::execute_point(w, p);
    }
    pass.point_s.push_back(seconds_between(t0, Clock::now()));
    pass.point_cpu_s.push_back(cpu_seconds() - c0);
    if (collector) {
      pass.counts.push_back(sum_counts(collector->registry));
      if (!cfg.snapshot_dir.empty()) {
        const std::string path = cfg.snapshot_dir + "/" + cfg.label + "_p" +
                                 std::to_string(p.index) + ".json";
        if (!obs::write_snapshot_file(collector->registry, path)) {
          pass.errors.push_back("could not write " + path);
        }
      }
    }
    if (r.failed()) {
      pass.errors.push_back("point " + std::to_string(p.index) + " (" +
                            exp::to_string(p.backend) + ", " + std::to_string(p.nodes) +
                            " nodes" + (p.variant.empty() ? "" : ", " + p.variant) +
                            ") threw: " + r.error);
    }
    pass.results.push_back(std::move(r));
  }

  const bool all_ran = std::none_of(pass.results.begin(), pass.results.end(),
                                    [](const exp::PointResult& r) { return r.failed(); });
  if (!all_ran) return pass;  // report() requires every point to have succeeded
  const SpanScope report_span(cfg.spans, "report");
  std::ostringstream tables;
  exp::RunOptions opt = ropt;
  opt.out = &tables;
  runtime::ResultSink sink;
  sink.fast = opt.fast;
  sink.seed = opt.seed;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  try {
    w.report(opt, pass.results, sink);
    pass.document = sink.to_json().dump();
    pass.reported = true;
  } catch (const std::exception& e) {
    pass.errors.push_back(std::string("report threw: ") + e.what());
  }
  pass.report_s = seconds_between(t0, Clock::now());
  pass.report_cpu_s = cpu_seconds() - c0;
  if (pass.reported) {
    pass.anchors_ok = true;
    for (const runtime::AnchorCheck& a : sink.anchors()) {
      if (a.pass) continue;
      pass.anchors_ok = false;
      pass.errors.push_back("anchor " + a.name + " failed");
    }
  }
  return pass;
}

/// Failed operations of `pass` (one per point), judged against `ref`, the
/// first pass of the run: a throw, a failed report or anchor, or output
/// that differs from the reference — its metrics, its obs counts, or the
/// whole dvx-bench/v1 document.
int failed_ops(const Pass& pass, const Pass& ref, std::vector<std::string>& errors) {
  const std::size_t n = pass.results.size();
  std::vector<bool> failed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const exp::PointResult& r = pass.results[i];
    const exp::PointResult& q = ref.results[i];
    if (r.failed()) {
      failed[i] = true;
    } else if (!q.failed() && r.metrics != q.metrics) {
      failed[i] = true;
      errors.push_back(pass.label + ": point " + std::to_string(i) + " metrics differ from " +
                       ref.label);
    } else if (!pass.counts.empty() && !ref.counts.empty() &&
               pass.counts[i] != ref.counts[i]) {
      failed[i] = true;
      errors.push_back(pass.label + ": point " + std::to_string(i) +
                       " obs counts differ from " + ref.label);
    }
  }
  const bool all_ran = std::none_of(pass.results.begin(), pass.results.end(),
                                    [](const exp::PointResult& r) { return r.failed(); });
  const bool report_failed = all_ran && !pass.reported;
  const bool doc_differs =
      pass.reported && ref.reported && pass.document != ref.document &&
      std::none_of(failed.begin(), failed.end(), [](bool f) { return f; });
  if (doc_differs) {
    errors.push_back(pass.label + ": dvx-bench/v1 document differs from " + ref.label);
  }
  if (report_failed || doc_differs || (pass.reported && !pass.anchors_ok)) {
    std::fill(failed.begin(), failed.end(), true);
  }
  for (const std::string& e : pass.errors) errors.push_back(pass.label + ": " + e);
  return static_cast<int>(std::count(failed.begin(), failed.end(), true));
}

// ---------------------------------------------------------------------------
// Kernel replays (traced mode): the public kernel calls a point makes, on
// the point's own parameters, timed from outside
// ---------------------------------------------------------------------------

// Each replay returns the seconds it spent preparing inputs, which its
// stage then leaves out.

/// bfs: the graph build and root choice every bfs point performs.
double replay_kronecker(const exp::RunPoint& p) {
  const dvx::kernels::KroneckerParams kp{
      .scale = static_cast<int>(p.params.at("scale")),
      .edge_factor = static_cast<int>(p.params.at("edge_factor")),
      .seed = static_cast<std::uint64_t>(p.params.at("seed"))};
  const dvx::kernels::KroneckerGenerator gen(kp);
  const auto graphs = dvx::apps::bfs_detail::build_distribution(kp, p.nodes);
  const auto roots =
      dvx::apps::bfs_detail::pick_roots(gen, static_cast<int>(p.params.at("searches")));
  if (graphs.size() != static_cast<std::size_t>(p.nodes) || roots.empty()) {
    throw std::runtime_error("kronecker replay produced no graph");
  }
  return 0.0;
}

/// fft: per rank, the row FFTs of length n1, the twiddle scaling, and the
/// row FFTs of length n2 that fft_detail::fft_rows/twiddle_rows issue.
/// Generating the rank's input is preparation.
double replay_fft(const exp::RunPoint& p) {
  namespace fd = dvx::apps::fft_detail;
  using dvx::kernels::Complex;
  const int log_size = static_cast<int>(p.params.at("log_size"));
  const fd::Shape s = fd::shape_for(log_size, p.nodes);
  const std::int64_t n = s.n1 * s.n2;
  const std::int64_t rows2_local = s.n2 / p.nodes;
  double prep_s = 0.0;
  for (int rank = 0; rank < p.nodes; ++rank) {
    const auto t0 = Clock::now();
    std::vector<Complex> work = fd::make_local_input(rank, s);
    prep_s += seconds_between(t0, Clock::now());
    for (const std::int64_t row_len : {s.n1, s.n2}) {
      const std::int64_t rows = static_cast<std::int64_t>(work.size()) / row_len;
      for (std::int64_t r = 0; r < rows; ++r) {
        dvx::kernels::fft(std::span<Complex>(work.data() + r * row_len,
                                             static_cast<std::size_t>(row_len)));
      }
      if (row_len != s.n1) continue;
      const std::int64_t first_row = static_cast<std::int64_t>(rank) * rows2_local;
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < row_len; ++c) {
          work[static_cast<std::size_t>(r * row_len + c)] *=
              dvx::kernels::twiddle(first_row + r, c, n);
        }
      }
    }
  }
  return prep_s;
}

/// serving: the arrival trace each serving point generates (the serving
/// workload's ArrivalConfig, rebuilt from the point's parameters).
double replay_arrivals(const exp::RunPoint& p) {
  namespace serve = dvx::serve;
  constexpr std::uint64_t kServingDefaultSeed = 41;  // serving.cpp's kServingSeed
  serve::ArrivalConfig cfg;
  cfg.seed = p.seed != 0 ? p.seed : kServingDefaultSeed;
  cfg.nodes = p.nodes;
  cfg.horizon_us = p.params.at("horizon_us");
  double total_weight = 0.0;
  for (const serve::TenantSpec& t : serve::default_tenants()) total_weight += t.rate_weight;
  cfg.unit_rate_rps = p.params.at("rate_krps") * 1e3 * p.params.at("load") / total_weight;
  if (serve::generate_arrivals(cfg).offered() == 0) {
    throw std::runtime_error("arrival replay offered nothing");
  }
  return 0.0;
}

/// Runs one replay stage and returns its host seconds minus input
/// preparation. The stage replays every point when the workload issues
/// these calls and none otherwise, so on another workload it reads ~0 s:
/// the cost of an empty stage, as measured.
template <typename Replay>
double replay_stage(Spans& spans, const char* name, bool applies,
                    const std::vector<exp::RunPoint>& points, Replay replay,
                    std::vector<std::string>& errors) {
  const SpanScope stage(&spans, name);
  double prep_s = 0.0;
  const auto t0 = Clock::now();
  for (const exp::RunPoint& p : points) {
    if (!applies) break;
    const SpanScope span(&spans, std::string(name) + " p" + std::to_string(p.index),
                         point_args(p, 0));
    try {
      prep_s += replay(p);
    } catch (const std::exception& e) {
      // Only a point that itself threw (and already failed) gets here.
      errors.push_back(std::string(name) + " of point " + std::to_string(p.index) + ": " +
                       e.what());
    }
  }
  return seconds_between(t0, Clock::now()) - prep_s;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

Json fingerprint(const Options& opt) {
  Json f = Json::object();
  f["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
#ifdef __clang__
  f["compiler"] = std::string("clang ") + __clang_version__;
#else
  f["compiler"] = std::string("g++ ") + __VERSION__;
#endif
  f["build_type"] = DVX_PERFBENCH_BUILD_TYPE;
  f["dvx_check_level"] = dvx::check::compiled_level();
  f["seed"] = static_cast<std::int64_t>(opt.seed);
  return f;
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

/// Adds one timed pass at --threads engine threads to `doc`.
void run_timed(const Options& opt, const exp::Workload& w, const exp::RunOptions& ropt,
               const std::vector<exp::RunPoint>& points, Json& doc) {
  const Pass pass = run_pass(w, ropt, points,
                             {.label = "timed.t" + std::to_string(opt.threads),
                              .threads = opt.threads,
                              .collect = false,
                              .spans = nullptr,
                              .snapshot_dir = {}});
  std::vector<std::string> errors;
  doc["attempted"] = static_cast<std::int64_t>(points.size());
  doc["failed"] = failed_ops(pass, pass, errors);
  Json errs = Json::array();
  for (const std::string& e : errors) errs.push_back(e);
  doc["errors"] = std::move(errs);
  doc["threads"] = opt.threads;
  doc["wall_s"] = pass.wall_s();
  double cpu_s = pass.report_cpu_s;
  for (const double c : pass.point_cpu_s) cpu_s += c;
  doc["cpu_s"] = cpu_s;
  doc["report_s"] = pass.report_s;
  Json pts = Json::array();
  for (const double t : pass.point_s) pts.push_back(t);
  doc["point_s"] = std::move(pts);
  doc["peak_rss_mb"] = peak_rss_mb();
  doc["document"] = pass.document;
  if (!opt.out_dir.empty()) {
    // The dvx-bench/v1 document, so outputs can be compared across seeds.
    std::ofstream(opt.out_dir + "/records_" + opt.workload + ".json") << pass.document;
  }
}

/// Adds the traced run's per-layer results to `doc`.
void run_traced(const Options& opt, const exp::Workload& w, const exp::RunOptions& ropt,
                Spans& spans, const std::vector<exp::RunPoint>& points, double plan_s,
                Json& doc) {
  std::string snapshot_dir;
  if (!opt.out_dir.empty()) {
    snapshot_dir = opt.out_dir + "/obs_" + opt.workload;
    std::filesystem::remove_all(snapshot_dir);  // no snapshot of an earlier run survives
    std::filesystem::create_directories(snapshot_dir);
  }
  std::vector<Pass> passes;
  passes.push_back(run_pass(w, ropt, points, {.label = "untraced.t1",
                                                .threads = 1,
                                                .collect = false,
                                                .spans = &spans,
                                                .snapshot_dir = {}}));
  for (const int threads : kThreadSettings) {
    passes.push_back(run_pass(w, ropt, points,
                              {.label = "traced.t" + std::to_string(threads),
                               .threads = threads,
                               .collect = true,
                               .spans = &spans,
                               .snapshot_dir = snapshot_dir}));
  }
  std::vector<std::string> errors;
  int attempted = 0;
  int failed = 0;
  for (const Pass& p : passes) {
    attempted += static_cast<int>(points.size());
    failed += failed_ops(p, passes[1], errors);
  }

  const double kronecker_s = replay_stage(spans, "replay.kronecker", opt.workload == "bfs",
                                         points, replay_kronecker, errors);
  const double fft_s =
      replay_stage(spans, "replay.fft", opt.workload == "fft", points, replay_fft, errors);
  const double arrivals_s = replay_stage(spans, "replay.arrivals", opt.workload == "serving",
                                         points, replay_arrivals, errors);
  const double replay_s = kronecker_s + fft_s + arrivals_s;

  Json metrics = Json::object();
  metrics["kernels.kronecker_s"] = metric(kronecker_s, "s");
  metrics["kernels.fft_s"] = metric(fft_s, "s");
  metrics["serve.arrivals_s"] = metric(arrivals_s, "s");
  const Pass& t1 = passes[1];
  Counts counts;
  for (const Counts& c : t1.counts) {
    for (const auto& [k, v] : c) counts[k] += v;
  }
  for (const Pass* p : {&passes[1], &passes[2]}) {
    double dv = 0.0, mpi = 0.0, all = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      all += p->point_s[i];
      if (points[i].backend == exp::Backend::kDv) dv += p->point_s[i];
      if (points[i].backend == exp::Backend::kMpiIb) mpi += p->point_s[i];
    }
    const std::string t = ".t" + std::to_string(p->threads);
    metrics["apps.dv_s" + t] = metric(dv, "s");
    metrics["apps.mpi_s" + t] = metric(mpi, "s");
    const double events = counts["sim.engine.events"];
    metrics["sim.ns_per_event" + t] =
        metric(events > 0.0 ? (all - replay_s) / events * 1e9 : 0.0, "ns");
  }
  metrics["sim.thread_speedup"] = metric(passes[1].wall_s() / passes[2].wall_s(), "ratio");
  for (const CountSource& src : kCountSources) {
    metrics[src.layer_metric] = metric(counts[src.layer_metric], src.unit);
  }
  metrics["exp.plan_s"] = metric(plan_s, "s");
  metrics["exp.report_s"] = metric(t1.report_s, "s");
  metrics["trace.overhead_s"] = metric(passes[1].wall_s() - passes[0].wall_s(), "s");

  doc["attempted"] = attempted;
  doc["failed"] = failed;
  Json errs = Json::array();
  for (const std::string& e : errors) errs.push_back(e);
  doc["errors"] = std::move(errs);
  doc["metrics"] = std::move(metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dvx_perfbench: " << e.what() << "\n";
    return 2;
  }
  if (!opt.out_dir.empty()) std::filesystem::create_directories(opt.out_dir);
  Spans spans(start);
  Spans* trace = opt.mode == "traced" ? &spans : nullptr;
  std::optional<SpanScope> run_span;
  if (trace != nullptr) run_span.emplace(trace, "run.traced");

  // Set-up: registry, workload lookup and plan.
  const exp::Workload* w = nullptr;
  exp::RunOptions ropt;
  std::vector<exp::RunPoint> points;
  double plan_s = 0.0;
  try {
    w = exp::Registry::instance().find(figure_of(opt.workload));
    if (w == nullptr) throw std::runtime_error("figure not registered");
    ropt.fast = opt.fast;
    ropt.seed = opt.seed;
    ropt.nodes = opt.nodes;
    const SpanScope plan_span(trace, "plan");
    const auto t0 = Clock::now();
    points = w->plan(ropt);
    plan_s = seconds_between(t0, Clock::now());
  } catch (const std::exception& e) {
    std::cerr << "dvx_perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }
  if (points.empty()) {
    std::cerr << "dvx_perfbench: the plan is empty\n";
    return 1;
  }
  // The first point's simulation starts here. The instant is reported on the
  // monotonic clock so the caller can count process start-up as set-up too.
  const auto setup_end = Clock::now();
  Json doc = Json::object();
  doc["mode"] = opt.mode;
  doc["workload"] = opt.workload;
  doc["figure"] = w->figure();
  doc["points"] = static_cast<std::int64_t>(points.size());
  doc["setup_s"] = seconds_between(start, setup_end);
  doc["setup_end_monotonic_ns"] = static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(setup_end.time_since_epoch())
          .count());
  doc["fingerprint"] = fingerprint(opt);
  if (opt.mode == "timed") {
    run_timed(opt, *w, ropt, points, doc);
  } else if (opt.mode == "traced") {
    run_traced(opt, *w, ropt, spans, points, plan_s, doc);
    run_span.reset();
    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/spans_" + opt.workload + ".json";
      std::ofstream f(path, std::ios::binary);
      spans.chrome_trace().dump(f, 0);
      if (!f.good()) {
        std::cerr << "dvx_perfbench: could not write " << path << "\n";
        return 1;
      }
    }
  }
  std::cout << doc.dump() << "\n";
  return 0;
}
