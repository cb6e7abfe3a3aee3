// perfbench — the repository's benchmark (see README.md in this directory).
//
// Drives one seeded workload through the public API of core and prints its
// metrics. Every figure names its clock: "host wall" is what this process
// spends simulating and serving (noisy), "modeled device" is the simulated
// UPMEM server's time (deterministic for a given seed).
//
//   perfbench --workload pairwise_long|allvsall_16s|serve_mixed
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// once untraced and once traced (benchmark-side spans, forwarding backend
// wrappers, an attached StatsCollector), checks the traced pass changed no
// output, and reports the per-layer metrics. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; any wrong output makes
// the exit code non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/verify.hpp"
#include "align/wfa.hpp"
#include "baseline/ksw2_like.hpp"
#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/host.hpp"
#include "core/pim_kernel.hpp"
#include "core/service.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "util/provenance.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pimnw;
using core::PairInput;
using core::PairOutput;
using core::PairStatus;

// A pool of 2 workers. The PiM engine's orchestrator keeps a core busy for
// the whole call, so on a 4-core machine 2 workers leave the fourth core to
// the service coalescer, the load generator and everything else the host
// runs. With 3 workers all four cores were busy: one competing CPU-bound
// thread slowed an all-vs-all sweep by 40 %, and the ten-run spread of host
// wall reached 0.3 of its median. Fixed, never "0 = hardware concurrency",
// so a result does not depend on the machine's core count.
constexpr std::size_t kWorkers = 2;
constexpr int kRanks = 2;

// pairwise_long: S10000-class pairs with traceback (paper Tables 2-4).
constexpr std::size_t kLongPairs = 1024;
constexpr std::size_t kLongSample = 16;

// allvsall_16s: score-only all-vs-all over a resident database (Table 5).
constexpr std::size_t kSpecies = 160;
constexpr std::uint64_t kPhylogenySeed = 16;  // the generator's default
constexpr std::size_t kTopK = 64;
constexpr std::size_t kSessionSample = 256;

// serve_mixed: each round replays a slice of the request pool open-loop,
// then floods the whole pool. The pool is 4 rank-sized flushes (64 DPUs x
// 6 pools x 2 pairs, the service's auto batch) and 32 open-loop slices, so
// that a timed run holds 11-21 floods. The traced pass replays one longer
// open-loop stretch, for its per-layer tail quantiles.
constexpr std::size_t kServePairs = 3072;
constexpr std::size_t kOpenLoopRequests = 96;
constexpr std::size_t kTracedOpenLoopRequests = 768;
// Absolute offered rate, never a fraction of measured saturation. Chosen
// once: service.busy_frac is 0.15-0.3 on a shared 4-core VM.
// At 250-500/s (busy 0.3-0.6) queueing behind the 5 kbp flushes amplified
// the host's speed drift: the open-loop p50 swung up to 2x between runs.
constexpr double kOpenLoopRate = 125.0;  // requests/s
constexpr std::size_t kServeSample = 64;
constexpr double kLingerSeconds = 2e-3;
constexpr double kFloodLingerSeconds = 1.0;

constexpr int kSetupReps = 31;

// ------------------------------------------------------------------ basics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (the service's own definition).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return core::exact_quantile(v, q);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Independent per-purpose streams from the one --seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;  // where the traced run writes its spans ("" = nowhere)
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (!(args.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return args;
}

// ------------------------------------------------------------------ report

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  /// A wrong or missing output: fails the run.
  void wrong(const std::string& what) {
    if (errors_.size() < 20) errors_.push_back(what);
    ++failed_;
  }
  void attempt(std::uint64_t n) { attempted_ += n; }
  bool correct() const { return failed_ == 0; }

  void print() const {
    for (const std::string& e : errors_) {
      std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", e.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("%-40s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Repeats a measured unit of work for about `seconds`: at least once, then
/// again while one more repetition as long as the last would end at most
/// half a repetition past `seconds`.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}

  bool another() {
    const double now = watch_.seconds();
    const double last = now - last_start_;
    last_start_ = now;
    return reps_++ == 0 || now + 0.5 * last <= seconds_;
  }

 private:
  double seconds_;
  Stopwatch watch_;
  double last_start_ = 0.0;
  int reps_ = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ------------------------------------------------------------------- spans

/// The traced pass's own spans, kept in memory and written out at the end.
/// `corr` is the correlation id shared by the spans of one request (or one
/// flush / one call); `parent` is the span that caused this one.
class SpanLog {
 public:
  /// An id for a span recorded later (a parent whose end is not known yet).
  std::uint64_t reserve() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
  }

  std::uint64_t add(std::string name, std::uint64_t corr,
                    std::uint64_t parent, double start_s, double end_s,
                    std::uint64_t id = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id == 0) id = ++last_id_;
    spans_.push_back({std::move(name), id, corr, parent, start_s, end_s});
    return id;
  }

  /// Chrome-trace-style JSON; each span also carries its self time: its
  /// duration minus the part of it its children cover.
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, std::vector<const Span*>> children;
    double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
    for (const Span& s : spans_) {
      children[s.parent].push_back(&s);
      origin = std::min(origin, s.start_s);
    }
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      return;
    }
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.corr % 64
          << ", \"ts\": " << (s.start_s - origin) * 1e6
          << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"corr\": " << s.corr
          << ", \"self_us\": " << self_seconds(s, children) * 1e6 << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t id;
    std::uint64_t corr;
    std::uint64_t parent;
    double start_s;
    double end_s;
  };

  static double self_seconds(
      const Span& s,
      const std::map<std::uint64_t, std::vector<const Span*>>& children) {
    auto it = children.find(s.id);
    std::vector<std::pair<double, double>> cover;
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const double lo = std::max(c->start_s, s.start_s);
        const double hi = std::min(c->end_s, s.end_s);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [lo, hi] : cover) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    return (s.end_s - s.start_s) - covered;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

// ------------------------------------------------------------ correctness

bool same_output(const PairOutput& x, const PairOutput& y) {
  return x.status == y.status && x.score == y.score && x.cigar == y.cigar &&
         x.dpu_pool_cycles == y.dpu_pool_cycles &&
         x.dpu_dma_bytes == y.dpu_dma_bytes;
}

/// Every kOk CIGAR must realise its score over exactly these sequences.
void check_cigar(const PairOutput& out, const PairInput& pair,
                 std::size_t index, Report& report) {
  if (out.status != PairStatus::kOk || out.cigar.empty()) return;
  align::AlignResult as_result;
  as_result.score = out.score;
  as_result.reached_end = true;
  as_result.cigar = out.cigar;
  const std::string why = align::check_alignment(as_result, pair.a, pair.b,
                                                 align::default_scoring());
  if (!why.empty()) {
    report.wrong("pair " + std::to_string(index) + ": " + why);
  }
}

/// Score and status must equal the serving kernel's host reference.
void check_reference(const PairOutput& out, const align::AlignResult& ref,
                     std::size_t index, const char* kernel, Report& report) {
  const PairStatus expected =
      ref.reached_end ? PairStatus::kOk : PairStatus::kUnreachable;
  if (out.status != expected ||
      (expected == PairStatus::kOk && out.score != ref.score)) {
    report.wrong("pair " + std::to_string(index) + " differs from the " +
                 kernel + " host reference (status " +
                 core::pair_status_name(out.status) + " vs " +
                 core::pair_status_name(expected) + ", score " +
                 std::to_string(out.score) + " vs " +
                 std::to_string(ref.score) + ")");
  }
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < std::min(k, n); ++i) {
    std::swap(all[i], all[i + rng.below(n - i)]);
  }
  all.resize(std::min(k, n));
  return all;
}

std::vector<PairInput> as_inputs(const data::PairDataset& dataset) {
  std::vector<PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});
  return pairs;
}

/// Median host wall of constructing the workload's program objects over the
/// caller's worker pool (which is not part of set-up: callers bring one).
/// Each sample builds `batch` objects and reports the mean, so that a
/// constructor of a few tens of nanoseconds is still resolved. The objects
/// are destroyed outside the timed region.
template <typename Make>
double measure_setup(Make make, int batch = 1) {
  std::vector<double> samples;
  for (int r = 0; r < kSetupReps; ++r) {
    std::vector<decltype(make())> objects;
    objects.reserve(static_cast<std::size_t>(batch));
    Stopwatch watch;
    for (int i = 0; i < batch; ++i) objects.push_back(make());
    samples.push_back(watch.seconds() / batch);
  }
  return median(samples);
}

// ------------------------------------------------- engine / device layers

/// Modeled device time of one engine timeline, split on its critical rank
/// (the rank whose last launch ends at the makespan).
struct DeviceSplit {
  double broadcast = 0.0;
  double h2d_launch = 0.0;
  double dpu_exec = 0.0;
  double d2h = 0.0;
  double rank_idle = 0.0;

  void add(const DeviceSplit& o) {
    broadcast += o.broadcast;
    h2d_launch += o.h2d_launch;
    dpu_exec += o.dpu_exec;
    d2h += o.d2h;
    rank_idle += o.rank_idle;
  }
  double total() const {
    return broadcast + h2d_launch + dpu_exec + d2h + rank_idle;
  }
};

DeviceSplit split_critical_rank(std::span<const core::LaunchRecord> launches,
                                double broadcast_seconds) {
  DeviceSplit split;
  split.broadcast = broadcast_seconds;
  if (launches.empty()) return split;
  const auto last = std::max_element(
      launches.begin(), launches.end(),
      [](const core::LaunchRecord& x, const core::LaunchRecord& y) {
        return x.end_seconds < y.end_seconds;
      });
  double prev_end = broadcast_seconds;
  for (const core::LaunchRecord& l : launches) {
    if (l.rank != last->rank) continue;
    split.rank_idle += l.start_seconds - prev_end;
    split.h2d_launch += l.exec_start_seconds - l.start_seconds;
    split.dpu_exec += l.exec_end_seconds - l.exec_start_seconds;
    split.d2h += l.end_seconds - l.exec_end_seconds;
    prev_end = l.end_seconds;
  }
  return split;
}

/// What the engine / kernel / upmem / pool metrics are computed from.
struct EngineLayer {
  double align_s = 0.0;  // host wall inside the PiM align calls
  double device_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t pairs = 0;
  double imbalance_weighted = 0.0;  // Σ load_imbalance · batches
  double host_prep_s = 0.0;
  std::uint64_t bytes_to_dpus = 0;
  std::uint64_t bytes_broadcast = 0;
  std::uint64_t bytes_from_dpus = 0;
  std::uint64_t instructions = 0;
  std::uint64_t dma_bytes = 0;
  DeviceSplit split;

  void add(const EngineLayer& o) {
    align_s += o.align_s;
    device_s += o.device_s;
    batches += o.batches;
    pairs += o.pairs;
    imbalance_weighted += o.imbalance_weighted;
    host_prep_s += o.host_prep_s;
    bytes_to_dpus += o.bytes_to_dpus;
    bytes_broadcast += o.bytes_broadcast;
    bytes_from_dpus += o.bytes_from_dpus;
    instructions += o.instructions;
    dma_bytes += o.dma_bytes;
    split.add(o.split);
  }

  void add_run(const core::RunReport& r) {
    device_s += r.makespan_seconds;
    batches += r.batches;
    pairs += r.total_pairs;
    imbalance_weighted += r.load_imbalance * static_cast<double>(r.batches);
    host_prep_s += r.host_prep_seconds;
    bytes_to_dpus += r.bytes_to_dpus;
    bytes_broadcast += r.bytes_broadcast;
    bytes_from_dpus += r.bytes_from_dpus;
    instructions += r.total_instructions;
    dma_bytes += r.total_dma_bytes;
  }
};

void report_engine_layer(const EngineLayer& e,
                         const core::StatsCollector& stats,
                         const ThreadPool::Stats& pool, Report& report) {
  const double cells = static_cast<double>(stats.total_cells());
  report.add("engine.align_s", e.align_s, "s");
  report.add("kernel.sim_cells_per_s", ratio(cells, e.align_s), "1/s");
  report.add("engine.prefetch_hit_frac",
             ratio(static_cast<double>(stats.prefetch_hits()),
                   static_cast<double>(stats.prefetch_hits() +
                                       stats.prefetch_misses())),
             "ratio");
  report.add("pool.steal_frac",
             ratio(static_cast<double>(pool.stolen),
                   static_cast<double>(pool.executed)),
             "ratio");
  report.add("pool.injected", static_cast<double>(pool.injected), "count");
  report.add("engine.batches", static_cast<double>(e.batches), "count");
  report.add("engine.load_imbalance",
             ratio(e.imbalance_weighted, static_cast<double>(e.batches)),
             "ratio");
  report.add("engine.host_prep_s", e.host_prep_s, "s");
  report.add("engine.dpu_cycles_max_over_mean",
             ratio(static_cast<double>(stats.dpu_cycles_max()),
                   stats.dpu_cycles_mean()),
             "ratio");

  report.add("kernel.instr_per_cell",
             ratio(static_cast<double>(e.instructions), cells), "ratio");
  report.add("kernel.dma_bytes_per_cell",
             ratio(static_cast<double>(e.dma_bytes), cells), "B");
  const upmem::DpuPhaseProfile& profile = stats.profile();
  for (int p = 0; p < upmem::kPhaseCount; ++p) {
    const auto phase = static_cast<upmem::Phase>(p);
    const std::string name = upmem::phase_name(phase);
    report.add("kernel.phase_share." + name,
               ratio(static_cast<double>(profile.phase_cycles(phase)),
                     static_cast<double>(profile.cycles)),
               "ratio");
  }
  static const char* const kVerdicts[] = {"pipeline", "mram", "reentry"};
  for (int v = 0; v < 3; ++v) {
    report.add(std::string("kernel.verdict_dpus.") + kVerdicts[v],
               static_cast<double>(stats.verdict_dpus()[v]), "count");
  }

  report.add("upmem.broadcast_s", e.split.broadcast, "s");
  report.add("upmem.h2d_launch_s", e.split.h2d_launch, "s");
  report.add("upmem.dpu_exec_s", e.split.dpu_exec, "s");
  report.add("upmem.d2h_s", e.split.d2h, "s");
  report.add("upmem.rank_idle_s", e.split.rank_idle, "s");
  report.add("upmem.residual_s", e.device_s - e.split.total(), "s");
  report.add("upmem.bytes_to_dpus", static_cast<double>(e.bytes_to_dpus), "B");
  report.add("upmem.bytes_from_dpus", static_cast<double>(e.bytes_from_dpus),
             "B");
  report.add("upmem.h2d_bytes_per_pair",
             ratio(static_cast<double>(e.bytes_to_dpus - e.bytes_broadcast),
                   static_cast<double>(e.pairs)),
             "B");
}

ThreadPool::Stats pool_delta(const ThreadPool::Stats& before,
                             const ThreadPool::Stats& after) {
  return {after.executed - before.executed, after.stolen - before.stolen,
          after.injected - before.injected};
}

// ------------------------------------------------ service / dispatch layers

const std::vector<core::BackendKind> kServeKinds = {
    core::BackendKind::kPim, core::BackendKind::kPimWfa,
    core::BackendKind::kCpu, core::BackendKind::kWfa};

/// Names the flushes of one service from outside: the dispatcher submits to
/// the backends of a flush, then drains every backend in registration order,
/// once per Dispatcher::align call. Only the coalescer thread touches it.
struct FlushTracker {
  SpanLog* spans = nullptr;
  std::size_t backends = 0;
  std::string phase;        // "open" or "flood": batch ids restart per service
  std::uint64_t flush = 1;  // == ServiceResult::batch_id of the open flush
  std::uint64_t span_id = 0;
  double start_s = 0.0;
  bool open = false;

  void touch(double t) {
    if (open) return;
    open = true;
    start_s = t;
    span_id = spans->reserve();
  }
};

/// Forwarding AlignerBackend that times submit()/wait() from outside and
/// keeps the per-flush BackendReports the dispatcher drains. Reports its
/// inner backend's kind, so routing is unchanged.
class TimedBackend final : public core::AlignerBackend {
 public:
  TimedBackend(core::AlignerBackend& inner, FlushTracker& flushes,
               std::size_t index, const core::StatsCollector* stats)
      : inner_(inner), flushes_(flushes), index_(index), stats_(stats) {}

  core::BackendKind kind() const override { return inner_.kind(); }
  core::BackendCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  double estimate_seconds(std::size_t len_a,
                          std::size_t len_b) const override {
    return inner_.estimate_seconds(len_a, len_b);
  }

  Ticket submit(std::span<const PairInput> pairs) override {
    const double t0 = now_seconds();
    flushes_.touch(t0);
    for (const PairInput& p : pairs) {
      estimated_s_ += inner_.estimate_seconds(p.a.size(), p.b.size());
    }
    const Ticket ticket = inner_.submit(pairs);
    ++tickets_;
    routed_ += pairs.size();
    flushes_.spans->add(std::string("submit ") + name(), flushes_.flush,
                        flushes_.span_id, t0, now_seconds());
    return ticket;
  }

  std::vector<PairOutput> wait(Ticket ticket) override {
    const double t0 = now_seconds();
    const std::size_t first_launch = stats_ ? stats_->launches().size() : 0;
    std::vector<PairOutput> out = inner_.wait(ticket);
    const double t1 = now_seconds();
    wait_s_ += t1 - t0;
    if (stats_ != nullptr) {
      // The simulation runs inside wait(): this ticket's launches are the
      // records the collector gained meanwhile — one engine timeline.
      const auto& all = stats_->launches();
      engine_.split.add(split_critical_rank(
          std::span<const core::LaunchRecord>(all).subspan(first_launch), 0.0));
      engine_.align_s += t1 - t0;
    }
    for (const PairOutput& o : out) {
      if (o.status != PairStatus::kOk) ++unaligned_;
    }
    flushes_.spans->add(std::string("wait ") + name(), flushes_.flush,
                        flushes_.span_id, t0, t1);
    return out;
  }

  core::BackendReport drain() override {
    core::BackendReport r = inner_.drain();
    measured_s_ += r.measured_seconds;
    if (capabilities().modeled_time) engine_.add_run(r.pim);
    if (index_ + 1 == flushes_.backends) close_flush();
    return r;
  }

  const char* name() const { return core::backend_kind_name(kind()); }
  std::uint64_t tickets() const { return tickets_; }
  std::uint64_t routed() const { return routed_; }
  std::uint64_t unaligned() const { return unaligned_; }
  double wait_s() const { return wait_s_; }
  double estimate_ratio() const { return ratio(measured_s_, estimated_s_); }
  const EngineLayer& engine() const { return engine_; }

 private:
  void close_flush() {
    if (flushes_.open) {
      flushes_.spans->add("flush " + flushes_.phase, flushes_.flush, 0,
                          flushes_.start_s, now_seconds(), flushes_.span_id);
    }
    flushes_.open = false;
    ++flushes_.flush;
  }

  core::AlignerBackend& inner_;
  FlushTracker& flushes_;
  std::size_t index_;
  const core::StatsCollector* stats_;
  std::uint64_t tickets_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t unaligned_ = 0;
  double wait_s_ = 0.0;
  double measured_s_ = 0.0;
  double estimated_s_ = 0.0;
  EngineLayer engine_;
};

// =========================================================== pairwise_long

core::PimAlignerConfig pairwise_config(ThreadPool* pool) {
  core::PimAlignerConfig config;
  config.nr_ranks = kRanks;
  config.workers = pool;
  config.align.traceback = true;
  return config;
}

void run_pairwise_long(const Args& args, Report& report,
                       const std::string& span_path) {
  const data::PairDataset dataset = data::generate_synthetic(
      data::s10000_config(kLongPairs, derive_seed(args.seed, 1)));
  const std::vector<PairInput> pairs = as_inputs(dataset);

  // Correctness of one set of outputs: CIGARs verify, a seeded sample
  // matches the NW kernel's host reference.
  const auto check = [&](const std::vector<PairOutput>& outputs) {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      check_cigar(outputs[p], pairs[p], p, report);
    }
    for (std::size_t p :
         sample_indices(pairs.size(), kLongSample, derive_seed(args.seed, 2))) {
      core::AlignConfig align;
      check_reference(outputs[p],
                      core::nw_kernel().host_reference(pairs[p].a, pairs[p].b,
                                                       align),
                      p, "nw", report);
    }
  };

  ThreadPool pool(kWorkers);
  if (!args.trace) {
    const double setup_s = measure_setup(
        [&] {
          return std::make_unique<core::PimAligner>(pairwise_config(&pool));
        },
        100);
    core::PimAligner aligner(pairwise_config(&pool));
    std::vector<double> walls;
    std::vector<PairOutput> first;
    double device_s = 0.0;
    Budget budget(args.seconds);
    while (budget.another()) {
      std::vector<PairOutput> outputs;
      Stopwatch watch;
      const core::RunReport run = aligner.align_pairs(pairs, &outputs);
      walls.push_back(watch.seconds());
      report.attempt(pairs.size());
      if (first.empty()) {
        first = std::move(outputs);
        device_s = run.makespan_seconds;
        check(first);
      } else {
        // Modeled results repeat exactly from call to call.
        if (run.makespan_seconds != device_s) {
          report.wrong("device_s changed between repetitions");
        }
        for (std::size_t p = 0; p < pairs.size(); ++p) {
          if (!same_output(outputs[p], first[p])) {
            report.wrong("pair " + std::to_string(p) +
                         " changed between repetitions");
          }
        }
      }
    }
    std::size_t aligned = 0;
    for (const PairOutput& o : first) aligned += o.status == PairStatus::kOk;

    const double p50 = median(walls);
    report.add("setup_s", setup_s, "s");
    report.add("host_pairs_per_s", static_cast<double>(pairs.size()) / p50,
               "1/s");
    report.add("device_s", device_s, "s");
    report.add("latency_p50_ms", p50 * 1e3, "ms");
    report.add("aligned_frac",
               static_cast<double>(aligned) / static_cast<double>(pairs.size()),
               "ratio");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("# latency samples: %zu calls of %zu pairs (ms:", walls.size(),
                pairs.size());
    for (double w : walls) std::printf(" %.1f", w * 1e3);
    std::printf(")\n");
    return;
  }

  // Traced run: one untraced call as the reference, then one traced call.
  std::vector<PairOutput> plain;
  core::PimAligner plain_aligner(pairwise_config(&pool));
  Stopwatch plain_watch;
  const core::RunReport plain_run = plain_aligner.align_pairs(pairs, &plain);
  const double plain_wall = plain_watch.seconds();
  report.attempt(pairs.size());
  check(plain);

  SpanLog spans;
  core::StatsCollector stats;
  core::PimAlignerConfig config = pairwise_config(&pool);
  config.stats = &stats;
  double t0 = now_seconds();
  core::PimAligner aligner(config);
  spans.add("PimAligner()", 0, 0, t0, now_seconds());
  const ThreadPool::Stats pool_before = pool.stats();
  std::vector<PairOutput> traced;
  t0 = now_seconds();
  const core::RunReport run = aligner.align_pairs(pairs, &traced);
  const double t1 = now_seconds();
  // Below align_pairs the host split (batch build, DPU simulation, decode,
  // commit) is not visible from outside: one span.
  spans.add("PimAligner::align_pairs", 1, 0, t0, t1);
  const ThreadPool::Stats pool_used = pool_delta(pool_before, pool.stats());
  report.attempt(pairs.size());

  if (run.makespan_seconds != plain_run.makespan_seconds) {
    report.wrong("traced device_s differs from the untraced run");
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (!same_output(traced[p], plain[p])) {
      report.wrong("traced output of pair " + std::to_string(p) +
                   " differs from the untraced run");
    }
  }

  EngineLayer engine;
  engine.align_s = t1 - t0;
  engine.add_run(run);
  engine.split = split_critical_rank(stats.launches(), 0.0);
  report_engine_layer(engine, stats, pool_used, report);
  report.add("trace.overhead_frac", (t1 - t0) / plain_wall - 1.0, "ratio");
  spans.write(span_path);
}

// ============================================================ allvsall_16s

/// Same device time and the same hits, in the same order.
bool same_sweep(const core::DbSession::AllVsAllResult& x,
                const core::DbSession::AllVsAllResult& y) {
  if (x.report.makespan_seconds != y.report.makespan_seconds ||
      x.hits.size() != y.hits.size()) {
    return false;
  }
  for (std::size_t h = 0; h < x.hits.size(); ++h) {
    if (x.hits[h].a != y.hits[h].a || x.hits[h].b != y.hits[h].b ||
        x.hits[h].score != y.hits[h].score) {
      return false;
    }
  }
  return true;
}

core::PimAlignerConfig session_config(ThreadPool* pool) {
  core::PimAlignerConfig config;
  config.nr_ranks = kRanks;
  config.workers = pool;
  config.align.traceback = false;
  return config;
}

void run_allvsall_16s(const Args& args, Report& report,
                      const std::string& span_path) {
  // One fixed phylogeny, as a real benchmark ships one curated 16S set: a
  // tree drawn per seed moves the whole dataset's length (and so device_s)
  // by several percent. The seed permutes the database order, which changes
  // the tiling and the DPU balance, and picks the checked sample.
  data::Phylo16sConfig gen;
  gen.species = kSpecies;
  gen.seed = kPhylogenySeed;
  std::vector<std::string> db = data::generate_16s(gen);
  Xoshiro256 order(derive_seed(args.seed, 3));
  for (std::size_t i = db.size(); i > 1; --i) {
    std::swap(db[i - 1], db[order.below(i)]);
  }
  const std::uint64_t all_pairs = db.size() * (db.size() - 1) / 2;
  core::ScoreFilter filter;
  filter.top_k = kTopK;

  std::vector<core::IndexPair> sample;
  for (std::size_t k : sample_indices(all_pairs, kSessionSample,
                                      derive_seed(args.seed, 4))) {
    // Invert the row-major linear index of pair (i, j), i < j.
    std::uint32_t i = 0;
    std::size_t row = db.size() - 1;
    while (k >= row) {
      k -= row;
      --row;
      ++i;
    }
    sample.push_back({i, static_cast<std::uint32_t>(i + 1 + k)});
  }

  core::AlignConfig score_only;
  score_only.traceback = false;
  const auto rescore = [&](std::uint32_t a, std::uint32_t b) {
    return core::nw_kernel().host_reference(db[a], db[b], score_only);
  };
  // The top-K hits are re-scored; a sample of pairs aligned through the
  // same session must match the host reference on score and status.
  const auto check = [&](const core::DbSession::AllVsAllResult& result,
                         const std::vector<PairOutput>& sampled) {
    if (result.pairs_swept != all_pairs) {
      report.wrong("swept " + std::to_string(result.pairs_swept) + " of " +
                   std::to_string(all_pairs) + " pairs");
    }
    if (result.hits.size() != std::min<std::uint64_t>(kTopK, all_pairs)) {
      report.wrong("expected " + std::to_string(kTopK) + " hits, got " +
                   std::to_string(result.hits.size()));
    }
    for (const core::ScoreHit& hit : result.hits) {
      const align::AlignResult ref = rescore(hit.a, hit.b);
      if (!ref.reached_end || ref.score != hit.score) {
        report.wrong("hit (" + std::to_string(hit.a) + ", " +
                     std::to_string(hit.b) + ") scored " +
                     std::to_string(hit.score) + ", host reference " +
                     std::to_string(ref.score));
      }
    }
    for (std::size_t s = 0; s < sample.size(); ++s) {
      check_reference(sampled[s], rescore(sample[s].a, sample[s].b), s, "nw",
                      report);
    }
  };
  const auto aligned_frac = [](const std::vector<PairOutput>& sampled) {
    std::size_t ok = 0;
    for (const PairOutput& o : sampled) ok += o.status == PairStatus::kOk;
    return static_cast<double>(ok) / static_cast<double>(sampled.size());
  };

  ThreadPool pool(kWorkers);
  if (!args.trace) {
    const double setup_s = measure_setup([&] {
      return std::make_unique<core::DbSession>(db, session_config(&pool));
    });
    std::vector<double> walls;
    std::optional<core::DbSession::AllVsAllResult> first;
    Budget budget(args.seconds);
    while (budget.another()) {
      core::DbSession session(db, session_config(&pool));
      Stopwatch watch;
      core::DbSession::AllVsAllResult result =
          session.align_all_vs_all(filter);
      walls.push_back(watch.seconds());
      report.attempt(all_pairs);
      if (!first) {
        std::vector<PairOutput> sampled;
        session.align_pairs(sample, &sampled);
        report.attempt(sample.size());
        check(result, sampled);
        report.add("aligned_frac", aligned_frac(sampled), "ratio");
        first = std::move(result);
        continue;
      }
      if (!same_sweep(result, *first)) {
        report.wrong("all-vs-all result changed between repetitions");
      }
    }
    const double p50 = median(walls);
    report.add("setup_s", setup_s, "s");
    report.add("host_pairs_per_s", static_cast<double>(all_pairs) / p50,
               "1/s");
    report.add("device_s", first->report.makespan_seconds, "s");
    report.add("latency_p50_ms", p50 * 1e3, "ms");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("# latency samples: %zu sweeps of %llu pairs (ms:",
                walls.size(), static_cast<unsigned long long>(all_pairs));
    for (double w : walls) std::printf(" %.1f", w * 1e3);
    std::printf(")\n");
    return;
  }

  // Traced run: an untraced session as the reference, then a traced one.
  core::DbSession plain_session(db, session_config(&pool));
  Stopwatch plain_watch;
  const core::DbSession::AllVsAllResult plain =
      plain_session.align_all_vs_all(filter);
  const double plain_wall = plain_watch.seconds();
  std::vector<PairOutput> plain_sampled;
  plain_session.align_pairs(sample, &plain_sampled);
  report.attempt(all_pairs + sample.size());
  check(plain, plain_sampled);

  SpanLog spans;
  core::StatsCollector stats;
  core::PimAlignerConfig config = session_config(&pool);
  config.stats = &stats;
  double t0 = now_seconds();
  core::DbSession session(db, config);
  const double open_s = now_seconds() - t0;
  spans.add("DbSession() pack+broadcast", 0, 0, t0, t0 + open_s);
  const ThreadPool::Stats pool_before = pool.stats();
  t0 = now_seconds();
  const core::DbSession::AllVsAllResult traced =
      session.align_all_vs_all(filter);
  const double t1 = now_seconds();
  spans.add("DbSession::align_all_vs_all", 1, 0, t0, t1);
  const ThreadPool::Stats pool_used = pool_delta(pool_before, pool.stats());
  report.attempt(all_pairs);

  if (!same_sweep(traced, plain)) {
    report.wrong("traced all-vs-all differs from the untraced run");
  }

  EngineLayer engine;
  engine.align_s = t1 - t0;
  engine.add_run(traced.report);
  engine.split =
      split_critical_rank(stats.launches(), stats.broadcast_seconds());
  report_engine_layer(engine, stats, pool_used, report);
  report.add("session.open_s", open_s, "s");
  report.add("session.pairs_swept", static_cast<double>(traced.pairs_swept),
             "count");
  report.add("trace.overhead_frac", (t1 - t0) / plain_wall - 1.0, "ratio");
  spans.write(span_path);
}

// ============================================================= serve_mixed

/// 85% 1 kbp pairs at 5% error, 10% 1 kbp at 15%, 5% 5 kbp at 8%, shuffled.
struct ServeInputs {
  std::vector<data::PairDataset> classes;
  std::vector<PairInput> pairs;
};

ServeInputs make_serve_inputs(std::uint64_t seed) {
  struct Class {
    double share;
    std::size_t length;
    double error;
  };
  const Class kMix[] = {{0.85, 1000, 0.05}, {0.10, 1000, 0.15},
                        {0.05, 5000, 0.08}};
  ServeInputs in;
  std::uint64_t stream = 10;
  for (const Class& c : kMix) {
    data::SyntheticConfig config;
    config.pair_count = static_cast<std::size_t>(
        std::lround(c.share * static_cast<double>(kServePairs)));
    config.read_length = c.length;
    config.errors.error_rate = c.error;
    config.seed = derive_seed(seed, stream++);
    in.classes.push_back(data::generate_synthetic(config));
  }
  for (const data::PairDataset& d : in.classes) {
    for (const auto& [a, b] : d.pairs) in.pairs.push_back({a, b});
  }
  Xoshiro256 rng(derive_seed(seed, stream));
  for (std::size_t i = in.pairs.size(); i > 1; --i) {
    std::swap(in.pairs[i - 1], in.pairs[rng.below(i)]);
  }
  return in;
}

/// The program objects of serve_mixed: four backends behind a cost-model
/// Dispatcher routing on the analytic estimates (no calibrate(), so routes
/// depend only on pair lengths). SessionBackend is left out: a pair outside
/// its database terminates the process.
struct ServeStack {
  core::PimBackend pim;
  core::PimWfaBackend pimwfa;
  core::CpuBackend cpu;
  core::WfaBackend wfa;

  ServeStack(ThreadPool* pool, core::StatsCollector* stats)
      : pim([&] {
          core::PimBackend::Config c;
          c.aligner.nr_ranks = kRanks;
          c.aligner.workers = pool;
          c.aligner.stats = stats;
          return c;
        }()),
        pimwfa([&] {
          core::PimWfaBackend::Config c;
          c.aligner.nr_ranks = kRanks;
          c.aligner.workers = pool;
          c.aligner.stats = stats;
          return c;
        }()),
        cpu(core::CpuBackend::Config{}, pool),
        wfa(core::WfaBackend::Config{}, pool) {}

  std::vector<core::AlignerBackend*> all() {
    return {&pim, &pimwfa, &cpu, &wfa};
  }
};

core::DispatchConfig cost_model() {
  core::DispatchConfig config;
  config.policy = core::RoutePolicy::kCostModel;
  return config;
}

/// The backend (index into kServeKinds) kCostModel sends a pair to: the
/// first smallest analytic estimate, in registration order.
std::size_t predicted_route(ServeStack& stack, const PairInput& pair) {
  std::size_t best = 0;
  double best_est = -1.0;
  const std::vector<core::AlignerBackend*> backends = stack.all();
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const double est =
        backends[b]->estimate_seconds(pair.a.size(), pair.b.size());
    if (best_est < 0 || est < best_est) {
      best_est = est;
      best = b;
    }
  }
  return best;
}

struct OpenLoopPhase {
  std::vector<double> latency_s;  // (submit return - due) + total_seconds
  std::vector<double> late_s;     // generator lateness at each due time
  std::vector<double> submit_s;   // host wall inside submit()
  std::vector<core::ServiceResult> results;
  core::ServiceMetrics metrics;
  double elapsed_s = 0.0;
};

struct FloodPhase {
  std::vector<core::ServiceResult> results;
  core::ServiceMetrics metrics;
  double wall_s = 0.0;
};

/// Poisson arrivals at kOpenLoopRate from this (one) generator thread.
OpenLoopPhase open_loop(core::AlignService& service,
                        std::span<const PairInput> pairs, std::uint64_t seed,
                        SpanLog* spans) {
  OpenLoopPhase phase;
  Xoshiro256 rng(seed);
  std::vector<std::future<core::ServiceResult>> futures;
  std::vector<double> due(pairs.size());
  std::vector<double> returned(pairs.size());
  futures.reserve(pairs.size());
  const double start = now_seconds();
  double next = start;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    double u = rng.uniform();
    if (u <= 0.0) u = 1e-12;
    next += -std::log(u) / kOpenLoopRate;
    due[i] = next;
    // Spin (yielding) rather than sleep: on a shared VM a sleeping
    // generator woke up to 10 ms late, as its idle vCPU had to be woken.
    double s0 = now_seconds();
    while (s0 < next) {
      std::this_thread::yield();
      s0 = now_seconds();
    }
    futures.push_back(service.submit(pairs[i]));
    returned[i] = now_seconds();
    phase.late_s.push_back(s0 - due[i]);
    phase.submit_s.push_back(returned[i] - s0);
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    phase.results.push_back(futures[i].get());
    const core::ServiceResult& r = phase.results.back();
    phase.latency_s.push_back((returned[i] - due[i]) + r.total_seconds);
    if (spans != nullptr) {
      const double resolved = returned[i] + r.total_seconds;
      const std::uint64_t root =
          spans->add("request open", r.batch_id, 0, due[i], resolved);
      spans->add("AlignService::submit", r.batch_id, root,
                 returned[i] - phase.submit_s[i], returned[i]);
    }
  }
  phase.elapsed_s = now_seconds() - start;
  service.stop();
  phase.metrics = service.metrics();
  return phase;
}

/// Every pair submitted at once; throughput = pairs / wall to last result.
FloodPhase flood(core::AlignService& service,
                 std::span<const PairInput> pairs) {
  FloodPhase phase;
  std::vector<std::future<core::ServiceResult>> futures;
  futures.reserve(pairs.size());
  Stopwatch watch;
  for (const PairInput& p : pairs) futures.push_back(service.submit(p));
  for (auto& f : futures) phase.results.push_back(f.get());
  phase.wall_s = watch.seconds();
  service.stop();
  phase.metrics = service.metrics();
  return phase;
}

void run_serve_mixed(const Args& args, Report& report,
                     const std::string& span_path) {
  const ServeInputs inputs = make_serve_inputs(args.seed);
  const std::span<const PairInput> pairs(inputs.pairs);
  ThreadPool pool(kWorkers);

  // Correctness of a flood: statuses are kOk or kUnreachable (never a
  // refusal / expiry / shutdown), CIGARs verify, and a seeded sample
  // matches the host reference of the kernel its backend runs.
  const auto check = [&](ServeStack& stack,
                         const std::vector<core::ServiceResult>& results) {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const PairOutput& out = results[p].output;
      if (out.status != PairStatus::kOk &&
          out.status != PairStatus::kUnreachable) {
        report.wrong("request " + std::to_string(p) + " resolved as " +
                     core::pair_status_name(out.status));
      }
      check_cigar(out, pairs[p], p, report);
    }
    const align::Scoring scoring = align::default_scoring();
    for (std::size_t p : sample_indices(pairs.size(), kServeSample,
                                        derive_seed(args.seed, 5))) {
      const PairInput& in = pairs[p];
      const PairOutput& out = results[p].output;
      switch (kServeKinds[predicted_route(stack, in)]) {
        case core::BackendKind::kPim:
          check_reference(out,
                          core::nw_kernel().host_reference(
                              in.a, in.b, stack.pim.aligner_config().align),
                          p, "nw", report);
          break;
        case core::BackendKind::kPimWfa:
          check_reference(out,
                          core::wfa_kernel().host_reference(
                              in.a, in.b, stack.pimwfa.aligner_config().align),
                          p, "wfa", report);
          break;
        case core::BackendKind::kCpu:
          check_reference(out, baseline::ksw2_align(in.a, in.b, scoring),
                          p, "ksw2", report);
          break;
        default: {
          align::AlignResult ref;
          if (auto r = align::wfa_align(in.a, in.b, scoring)) ref = *r;
          check_reference(out, ref, p, "host wfa", report);
          break;
        }
      }
    }
  };
  // Outputs do not depend on how requests were coalesced: `results[i]`
  // must equal `reference[offset + i]`.
  const auto check_same = [&](const std::vector<core::ServiceResult>& results,
                              const std::vector<core::ServiceResult>& reference,
                              std::size_t offset, const char* what) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!same_output(results[i].output, reference[offset + i].output)) {
        report.wrong(std::string(what) + ": request " +
                     std::to_string(offset + i) + " differs");
        return;
      }
    }
  };
  const auto count_ok = [](const std::vector<core::ServiceResult>& results) {
    std::size_t ok = 0;
    for (const auto& r : results) ok += r.output.status == PairStatus::kOk;
    return ok;
  };
  // Round r replays the r-th open-loop slice of the pool.
  const auto slice_offset = [&](std::uint64_t round) {
    return static_cast<std::size_t>(round * kOpenLoopRequests % pairs.size());
  };

  core::ServiceConfig open_config;
  open_config.max_linger_seconds = kLingerSeconds;
  // The pool is a whole number of rank-sized flushes; a long linger keeps
  // every flood flush full however fast the generator submits, so the
  // flood's modeled device time does not depend on host timing.
  core::ServiceConfig flood_config;
  flood_config.max_linger_seconds = kFloodLingerSeconds;

  if (!args.trace) {
    struct Objects {
      Objects(ThreadPool* pool, const core::ServiceConfig& config)
          : stack(pool, nullptr), service(&dispatcher, config) {}
      ServeStack stack;
      core::Dispatcher dispatcher{cost_model(), stack.all()};
      core::AlignService service;
    };
    const double setup_s = measure_setup(
        [&] { return std::make_unique<Objects>(&pool, open_config); });
    ServeStack stack(&pool, nullptr);
    core::Dispatcher dispatcher(cost_model(), stack.all());

    // Latency over every open-loop request of the run; throughput per flood.
    std::vector<double> latency;
    std::vector<double> late;
    std::vector<double> flood_rate;
    std::vector<core::ServiceResult> reference;
    double device_s = 0.0;
    std::size_t ok = 0;
    std::uint64_t round = 0;
    Budget budget(args.seconds);
    for (; budget.another(); ++round) {
      const std::size_t offset = slice_offset(round);
      core::AlignService trickle(&dispatcher, open_config);
      const OpenLoopPhase open =
          open_loop(trickle, pairs.subspan(offset, kOpenLoopRequests),
                    derive_seed(args.seed, 100 + round), nullptr);
      core::AlignService burst(&dispatcher, flood_config);
      FloodPhase full = flood(burst, pairs);
      latency.insert(latency.end(), open.latency_s.begin(),
                     open.latency_s.end());
      late.insert(late.end(), open.late_s.begin(), open.late_s.end());
      flood_rate.push_back(static_cast<double>(pairs.size()) / full.wall_s);
      report.attempt(open.results.size() + full.results.size());
      ok += count_ok(open.results) + count_ok(full.results);
      if (round == 0) {
        check(stack, full.results);
        reference = std::move(full.results);
        device_s = full.metrics.modeled_seconds;
      } else {
        check_same(full.results, reference, 0, "flood repeat");
        if (full.metrics.modeled_seconds != device_s) {
          report.wrong("flood device_s changed between rounds");
        }
      }
      check_same(open.results, reference, offset, "open loop vs flood");
    }
    const double attempted =
        static_cast<double>(round * (kOpenLoopRequests + pairs.size()));
    report.add("setup_s", setup_s, "s");
    report.add("host_pairs_per_s", median(flood_rate), "1/s");
    report.add("device_s", device_s, "s");
    report.add("latency_p50_ms", quantile(latency, 0.50) * 1e3, "ms");
    report.add("aligned_frac", static_cast<double>(ok) / attempted, "ratio");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("# latency samples: %zu requests at %.0f/s in %llu rounds; "
                "generator late p99 %.3f ms; floods (pairs/s:",
                latency.size(), kOpenLoopRate,
                static_cast<unsigned long long>(round),
                quantile(late, 0.99) * 1e3);
    for (double r : flood_rate) std::printf(" %.0f", r);
    std::printf(")\n");
    return;
  }

  // Traced run. Untraced reference first, with the auto (rank-sized)
  // max_batch_pairs the service resolves from the real PimBackend.
  const std::span<const PairInput> slice =
      pairs.subspan(0, kTracedOpenLoopRequests);
  ServeStack plain_stack(&pool, nullptr);
  core::Dispatcher plain_dispatcher(cost_model(), plain_stack.all());
  core::AlignService plain_trickle(&plain_dispatcher, open_config);
  const std::size_t resolved_batch = plain_trickle.config().max_batch_pairs;
  const OpenLoopPhase plain_open = open_loop(
      plain_trickle, slice, derive_seed(args.seed, 100), nullptr);
  core::AlignService plain_burst(&plain_dispatcher, flood_config);
  const FloodPhase plain_full = flood(plain_burst, pairs);
  report.attempt(slice.size() + pairs.size());
  check(plain_stack, plain_full.results);
  check_same(plain_open.results, plain_full.results, 0, "open loop vs flood");

  // Traced pass: forwarding wrappers and a StatsCollector on both PiM
  // backends. max_batch_pairs is given explicitly: with wrappers registered
  // the service's auto rule would cast a wrapper to PimBackend.
  SpanLog spans;
  core::StatsCollector stats;
  ServeStack stack(&pool, &stats);
  FlushTracker flushes;
  flushes.spans = &spans;
  flushes.backends = kServeKinds.size();
  flushes.phase = "open";
  std::vector<std::unique_ptr<TimedBackend>> timed;
  std::vector<core::AlignerBackend*> registered;
  for (core::AlignerBackend* b : stack.all()) {
    timed.push_back(std::make_unique<TimedBackend>(
        *b, flushes, timed.size(),
        b->capabilities().modeled_time ? &stats : nullptr));
    registered.push_back(timed.back().get());
  }
  core::Dispatcher dispatcher(cost_model(), registered);
  core::ServiceConfig traced_open = open_config;
  traced_open.max_batch_pairs = resolved_batch;
  core::ServiceConfig traced_flood = flood_config;
  traced_flood.max_batch_pairs = resolved_batch;

  const ThreadPool::Stats pool_before = pool.stats();
  core::AlignService trickle(&dispatcher, traced_open);
  const OpenLoopPhase open =
      open_loop(trickle, slice, derive_seed(args.seed, 100), &spans);
  flushes.phase = "flood";
  flushes.flush = 1;  // ServiceResult::batch_id restarts per service
  core::AlignService burst(&dispatcher, traced_flood);
  const FloodPhase full = flood(burst, pairs);
  const ThreadPool::Stats pool_used = pool_delta(pool_before, pool.stats());
  report.attempt(slice.size() + pairs.size());
  check_same(open.results, plain_full.results, 0, "traced open loop");
  check_same(full.results, plain_full.results, 0, "traced flood");
  if (full.metrics.modeled_seconds != plain_full.metrics.modeled_seconds) {
    report.wrong("traced flood device_s differs from the untraced run");
  }

  // Routing: every wrapper saw exactly the pairs the analytic estimates
  // send it, in both phases.
  std::vector<std::uint64_t> predicted(kServeKinds.size(), 0);
  for (const PairInput& p : slice) ++predicted[predicted_route(stack, p)];
  for (const PairInput& p : pairs) ++predicted[predicted_route(stack, p)];
  for (std::size_t b = 0; b < timed.size(); ++b) {
    if (timed[b]->routed() != predicted[b]) {
      report.wrong(std::string("routed count of ") + timed[b]->name() +
                   " differs from the analytic route");
    }
  }
  // Drain only after both services stopped (the dispatcher already drained
  // every flush; this returns an empty report).
  for (core::AlignerBackend* b : registered) b->drain();

  const core::ServiceMetrics& om = open.metrics;
  const core::ServiceMetrics& fm = full.metrics;
  report.add("service.queue_wait_ms_p50", om.queue_wait.p50_ms, "ms");
  report.add("service.queue_wait_ms_p99", om.queue_wait.p99_ms, "ms");
  report.add("service.submit_us_p99", quantile(open.submit_s, 0.99) * 1e6,
             "us");
  report.add("service.busy_frac", ratio(om.busy_seconds, open.elapsed_s),
             "ratio");
  report.add("service.batch_fill_open", om.batch_fill_mean, "ratio");
  report.add("service.batch_fill_flood", fm.batch_fill_mean, "ratio");
  report.add("service.flushes_full",
             static_cast<double>(om.flushes_full + fm.flushes_full), "count");
  report.add("service.flushes_linger",
             static_cast<double>(om.flushes_linger + fm.flushes_linger),
             "count");
  report.add("service.rejected",
             static_cast<double>(om.rejected_queue_full + om.rejected_deadline +
                                 om.rejected_shutdown + fm.rejected_queue_full +
                                 fm.rejected_deadline + fm.rejected_shutdown),
             "count");
  std::uint64_t routed_total = 0;
  for (const auto& t : timed) routed_total += t->routed();
  EngineLayer engine;
  for (const auto& t : timed) {
    const std::string n = t->name();
    report.add("dispatch.routed_share." + n,
               ratio(static_cast<double>(t->routed()),
                     static_cast<double>(routed_total)),
               "ratio");
    report.add("backend." + n + ".unaligned",
               static_cast<double>(t->unaligned()), "count");
    report.add("backend." + n + ".wait_s", t->wait_s(), "s");
    report.add("backend." + n + ".tickets", static_cast<double>(t->tickets()),
               "count");
    report.add("backend." + n + ".estimate_ratio", t->estimate_ratio(),
               "ratio");
    engine.add(t->engine());
  }
  report_engine_layer(engine, stats, pool_used, report);
  report.add("loadgen.latency_ms_p99", quantile(open.latency_s, 0.99) * 1e3,
             "ms");
  report.add("loadgen.late_ms_p99", quantile(open.late_s, 0.99) * 1e3, "ms");
  report.add("loadgen.samples", static_cast<double>(open.latency_s.size()),
             "count");
  report.add("trace.overhead_frac", full.wall_s / plain_full.wall_s - 1.0,
             "ratio");
  spans.write(span_path);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "pairwise_long|allvsall_16s|serve_mixed --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n",
                 e.what());
    return 2;
  }

  // Timing needs an optimized, unsanitized build.
  const std::string build_type = build_preset();
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (sanitized ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s%s build\n",
                 build_type.c_str(), sanitized ? " sanitizer" : "");
    return 2;
  }

  std::printf("# provenance: sha=%s build=%s nproc=%u workers=%zu "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              build_git_sha(), build_type.c_str(),
              std::thread::hardware_concurrency(), kWorkers,
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  const std::string& span_path = args.spans;
  Report report;
  try {
    if (args.workload == "pairwise_long") {
      run_pairwise_long(args, report, span_path);
    } else if (args.workload == "allvsall_16s") {
      run_allvsall_16s(args, report, span_path);
    } else if (args.workload == "serve_mixed") {
      run_serve_mixed(args, report, span_path);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
