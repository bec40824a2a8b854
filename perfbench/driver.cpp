// Campaign benchmark driver: runs one workload of the campaign benchmark and
// writes its raw measurements as one JSON document. perfbench/run.py builds
// this binary, runs it, checks its output and folds it into the reported
// metrics; see perfbench/README.md for the workloads and the metric map.
//
//   perfbench_driver --workload kfusion_dse|kfusion_isolated|served_synthetic
//                    --seed N --seconds S --trace 0|1 --out FILE
//                    --work-dir DIR --hv-ref A,B
//
// Every layer is timed from outside, through public calls only: the
// campaign loop is driven through Optimizer::start_async() exactly as
// Optimizer::drive does it, evaluations go through a timing Evaluator
// decorator, and the served workload talks to a real hm_serve daemon over
// serve::Client. With --trace 1 the driver switches on span recording,
// wraps its own calls in spans that carry one trace id per campaign, and
// ships every span (its own, the program's and its sandbox workers') to
// run.py for folding.
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/journal.hpp"
#include "common/signal.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "dataset/sequence.hpp"
#include "hypermapper/optimizer.hpp"
#include "hypermapper/pareto.hpp"
#include "hypermapper/report.hpp"
#include "sandbox/sandbox.hpp"
#include "sandbox_cli.hpp"
#include "serve/campaign.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/scenario.hpp"
#include "slambench/adapters.hpp"
#include "slambench/device.hpp"

namespace {

using hm::hypermapper::BatchProposal;
using hm::hypermapper::Configuration;
using hm::hypermapper::Evaluator;
using hm::hypermapper::Objectives;
using hm::hypermapper::OptimizationResult;
using hm::hypermapper::Optimizer;
using hm::hypermapper::OptimizerConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Progress line on stderr, stamped with seconds since the driver started.
void progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[perfbench %7.2fs] %s\n", seconds_since(start),
               what.c_str());
}

// --- JSON output ------------------------------------------------------------

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

/// Insertion-ordered JSON object builder.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& num(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, json_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += json_string(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

// --- Process-tree accounting from /proc --------------------------------------

struct ProcStat {
  int pid = 0;
  int ppid = 0;
  double cpu_s = 0.0;  ///< utime + stime + cutime + cstime.
};

std::optional<ProcStat> read_proc_stat(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  const auto close = line.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(line.substr(close + 2));
  std::vector<std::string> f;
  std::string token;
  while (fields >> token) f.push_back(token);
  // f[0] is field 3 (state) of proc(5).
  if (f.size() < 15) return std::nullopt;
  static const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcStat stat;
  stat.pid = pid;
  stat.ppid = std::stoi(f[1]);
  stat.cpu_s = (std::stod(f[11]) + std::stod(f[12]) + std::stod(f[13]) +
                std::stod(f[14])) /
               ticks;
  return stat;
}

/// This process and every live descendant.
std::vector<ProcStat> process_tree() {
  std::map<int, ProcStat> all;
  if (DIR* dir = opendir("/proc")) {
    while (const dirent* entry = readdir(dir)) {
      const int pid = std::atoi(entry->d_name);
      if (pid <= 0) continue;
      if (auto stat = read_proc_stat(pid)) all[pid] = *stat;
    }
    closedir(dir);
  }
  std::set<int> tree = {static_cast<int>(getpid())};
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [pid, stat] : all) {
      if (!tree.contains(pid) && tree.contains(stat.ppid)) {
        tree.insert(pid);
        grew = true;
      }
    }
  }
  std::vector<ProcStat> out;
  for (const int pid : tree) {
    if (const auto it = all.find(pid); it != all.end()) out.push_back(it->second);
  }
  return out;
}

/// User+sys CPU of the tree; reaped children are in their parent's cutime.
double tree_cpu_seconds() {
  double total = 0.0;
  for (const ProcStat& stat : process_tree()) total += stat.cpu_s;
  return total;
}

/// Peak resident set (VmHWM) of one process; `pid` 0 is this process.
double peak_rss_mb(int pid = 0) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Proportional resident set of one process: shared pages (a forked
/// worker's copy-on-write image) are split among their sharers, so the sum
/// over a tree counts every resident page once.
double pss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Pss:", 0) == 0) return std::stod(line.substr(4)) / 1024.0;
  }
  return 0.0;
}

// --- Host speed ----------------------------------------------------------------
//
// A shared host's speed drifts from run to run by far more than the bounds
// the benchmark gates on, in two ways the driver measures so that run.py can
// express every time at a reference host speed (see perfbench/README.md):
//
// - Steal: the host runs other guests on this VM's cores, and a vCPU that
//   wants to run waits. /proc/stat counts that time; the driver reads it
//   around every measured interval. For the set-ups it reads it over the
//   set-ups and the probe right after them: a daemon's set-ups take a few
//   milliseconds, too few clock ticks to read a share from.
// - Core speed: co-tenants on the same cores, caches and memory slow every
//   instruction. The driver times a fixed piece of work of its own, which no
//   change to the program can move, in CPU seconds, after the set-ups and
//   after every campaign (KFusion) or round of campaigns (served), while the
//   program is idle.

/// Clock ticks the VM's vCPUs ran, and the ticks the host stole from them
/// while they wanted to run (the aggregate line of /proc/stat).
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};

CpuTicks vm_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + system + irq + softirq, steal};
}

/// Share of the vCPUs' wanted run time the host stole between two readings.
double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double busy = after.busy - before.busy;
  const double steal = after.steal - before.steal;
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

/// Odd while a probe runs (its buffers are not the program's memory); bumped
/// at each probe's start and end.
std::atomic<std::uint64_t> g_probe_epoch{0};
/// This process's VmHWM before the last probe; a probe resets the kernel's.
double g_driver_peak_mb = 0.0;

/// Peak resident set of this process, probe buffers excluded.
double driver_peak_rss_mb() {
  return std::max(g_driver_peak_mb, peak_rss_mb());
}

/// 32 MiB per thread: past a core's L2, like the KFusion volumes the
/// campaigns stream through.
constexpr std::size_t kProbeWords = std::size_t{1} << 23;
constexpr std::size_t kProbePasses = 2;
constexpr std::size_t kProbeChainSteps = 20'000'000;
/// Repeats per probe point; the reading is the median of its repeats.
constexpr std::size_t kProbeRepeats = 5;

std::atomic<std::uint64_t> g_probe_sink{0};

double thread_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// One thread's share, ~0.08 CPU-s on the baseline host: read-modify-write
/// passes over the buffer (memory bandwidth) and an integer/float
/// dependency chain (the core).
std::uint64_t probe_work(std::uint32_t* words) {
  std::uint64_t acc = 1;
  for (std::size_t p = 0; p < kProbePasses; ++p) {
    for (std::size_t i = 0; i < kProbeWords; ++i) {
      words[i] += static_cast<std::uint32_t>(acc);
      acc += words[i];
    }
  }
  std::uint64_t x = acc | 1;
  float f = 1.0F;
  for (std::size_t i = 0; i < kProbeChainSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    f = f * 0.999F + static_cast<float>(x & 255);
  }
  return x + static_cast<std::uint64_t>(f);
}

/// Reads the cores' speed: the probe on every hardware thread at once, as
/// CPU seconds per thread (CPU time, so time stolen from a thread does not
/// count). Its buffers are mapped for the probe only and the kernel's VmHWM
/// is reset after it, so it adds nothing to the memory figures.
double probe_cpu_seconds() {
  g_driver_peak_mb = driver_peak_rss_mb();
  g_probe_epoch.fetch_add(1);
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t bytes = kProbeWords * sizeof(std::uint32_t);
  std::vector<std::uint32_t*> buffers(threads);
  std::vector<double> cpu(threads);
  auto on_every_thread = [&](const std::function<void(std::size_t)>& fn) {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(fn, t);
    for (std::thread& w : workers) w.join();
  };
  on_every_thread([&](std::size_t t) {
    void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) {
      std::fprintf(stderr, "probe: mmap failed\n");
      std::exit(1);
    }
    buffers[t] = static_cast<std::uint32_t*>(map);
    for (std::size_t i = 0; i < kProbeWords; ++i) {
      buffers[t][i] = static_cast<std::uint32_t>(i * 2654435761U);
    }
  });
  std::vector<double> readings;
  for (std::size_t r = 0; r < kProbeRepeats; ++r) {
    on_every_thread([&](std::size_t t) {
      const double before = thread_cpu_seconds();
      g_probe_sink += probe_work(buffers[t]);
      cpu[t] = thread_cpu_seconds() - before;
    });
    double sum = 0.0;
    for (const double c : cpu) sum += c;
    readings.push_back(sum / static_cast<double>(threads));
  }
  for (std::uint32_t* buffer : buffers) munmap(buffer, bytes);
  std::ofstream("/proc/self/clear_refs") << "5";
  g_probe_epoch.fetch_add(1);
  std::sort(readings.begin(), readings.end());
  return readings[readings.size() / 2];
}

/// Samples the resident memory of the whole process tree in the background.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return std::max(peak_mb_, driver_peak_rss_mb());
  }

 private:
  void loop() {
    while (!stop_.load()) {
      const std::uint64_t epoch = g_probe_epoch.load();
      double sum = 0.0;
      for (const ProcStat& stat : process_tree()) sum += pss_mb(stat.pid);
      if (epoch % 2 == 0 && g_probe_epoch.load() == epoch) {
        peak_mb_ = std::max(peak_mb_, sum);
      }
      // Coarse on purpose: a scan reads every process's smaps_rollup, and
      // the served tree holds dozens of workers.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  std::atomic<bool> stop_{false};
  double peak_mb_ = 0.0;
  std::thread thread_;
};

// --- The timing Evaluator decorator -----------------------------------------

/// Times every evaluate() as the optimizer sees it. With a nonzero trace id
/// it also stamps the id on the evaluating thread (so the program's own
/// spans inside, and a sandbox worker's, correlate with the campaign) and
/// records a span of its own around the call.
class TimingEvaluator final : public Evaluator {
 public:
  TimingEvaluator(Evaluator& inner, std::uint64_t trace_id)
      : inner_(inner), trace_id_(trace_id) {}

  [[nodiscard]] std::size_t objective_count() const override {
    return inner_.objective_count();
  }
  [[nodiscard]] bool thread_safe() const override {
    return inner_.thread_safe();
  }
  [[nodiscard]] std::vector<double> evaluate(
      const Configuration& config) override {
    return timed([&] { return inner_.evaluate(config); });
  }
  [[nodiscard]] std::vector<double> evaluate_retry(
      const Configuration& config, std::uint64_t retry_nonce) override {
    return timed([&] { return inner_.evaluate_retry(config, retry_nonce); });
  }

  [[nodiscard]] std::vector<double> latencies_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return latencies_ms_;
  }
  /// Distinct threads that ran evaluations (the batch's parallel lanes).
  [[nodiscard]] std::size_t lanes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

 private:
  template <typename Fn>
  std::vector<double> timed(Fn&& fn) {
    std::optional<hm::common::TraceContext> context;
    if (trace_id_ != 0) context.emplace(trace_id_);
    const hm::common::TraceSpan span("bench_evaluate", "perfbench");
    const Clock::time_point start = Clock::now();
    std::vector<double> objectives = fn();
    const double ms = seconds_since(start) * 1e3;
    const std::lock_guard<std::mutex> lock(mutex_);
    latencies_ms_.push_back(ms);
    threads_.insert(std::this_thread::get_id());
    return objectives;
  }

  Evaluator& inner_;
  std::uint64_t trace_id_;
  mutable std::mutex mutex_;
  std::vector<double> latencies_ms_;
  std::set<std::thread::id> threads_;
};

// --- One campaign through the public AsyncRun loop --------------------------

struct LoopTimes {
  double wall_s = 0.0;
  double propose_s = 0.0;  ///< next_batch() + finish().
  double batch_wall_s = 0.0;
  std::size_t batches = 0;
};

/// Drives a fresh AsyncRun to completion the way Optimizer::drive does:
/// propose, dispatch every pending slot (on `pool` when the evaluator is
/// thread-safe), ingest, repeat, finish.
OptimizationResult drive_campaign(Optimizer& optimizer, Evaluator& evaluator,
                                  hm::common::ThreadPool* pool,
                                  const std::function<bool()>& cancel,
                                  LoopTimes* times) {
  const Clock::time_point start = Clock::now();
  const hm::common::TraceSpan campaign_span("bench_campaign", "perfbench");
  std::unique_ptr<Optimizer::AsyncRun> session = optimizer.start_async();
  hm::hypermapper::ResilientEvaluator& supervisor =
      optimizer.supervised_evaluator();
  while (true) {
    if (cancel && cancel()) {
      session->interrupt();
      break;
    }
    std::optional<BatchProposal> batch;
    {
      const hm::common::TraceSpan span("bench_propose", "perfbench");
      const Clock::time_point t = Clock::now();
      batch = session->next_batch();
      times->propose_s += seconds_since(t);
    }
    if (!batch) break;
    const hm::common::TraceSpan span("bench_batch", "perfbench");
    const Clock::time_point t = Clock::now();
    auto evaluate_one = [&](std::size_t j) {
      const std::size_t slot = batch->pending[j];
      if (cancel && cancel()) {
        session->skip(slot);
        return;
      }
      session->ingest(slot, supervisor.evaluate_outcome(batch->configs[slot]));
    };
    if (pool != nullptr && evaluator.thread_safe()) {
      pool->parallel_for(0, batch->pending.size(), evaluate_one);
    } else {
      for (std::size_t j = 0; j < batch->pending.size(); ++j) evaluate_one(j);
    }
    times->batch_wall_s += seconds_since(t);
    ++times->batches;
  }
  OptimizationResult result;
  {
    const hm::common::TraceSpan span("bench_finish", "perfbench");
    const Clock::time_point t = Clock::now();
    result = session->finish();
    times->propose_s += seconds_since(t);
  }
  times->wall_s = seconds_since(start);
  return result;
}

// --- Result comparison and quality figures -----------------------------------

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Bit-for-bit equality of the sample streams, fronts and quarantine.
std::string compare_results(const OptimizationResult& a,
                            const OptimizationResult& b) {
  if (a.samples.size() != b.samples.size()) {
    return "sample counts differ: " + std::to_string(a.samples.size()) +
           " vs " + std::to_string(b.samples.size());
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (!same_bits(x.config, y.config) || !same_bits(x.objectives, y.objectives) ||
        !same_bits(x.predicted, y.predicted) || x.iteration != y.iteration) {
      return "sample " + std::to_string(i) + " differs";
    }
  }
  if (a.pareto != b.pareto) return "fronts differ";
  if (a.random_phase_pareto != b.random_phase_pareto) {
    return "random-phase fronts differ";
  }
  if (a.quarantine.size() != b.quarantine.size()) return "quarantines differ";
  if (a.interrupted || b.interrupted) return "a run was interrupted";
  return {};
}

std::vector<Objectives> front_points(const OptimizationResult& result) {
  std::vector<Objectives> points;
  for (const std::size_t i : result.pareto) {
    points.push_back(result.samples[i].objectives);
  }
  return points;
}

struct Checks {
  std::vector<std::string> items;
  void add(const std::string& name, bool ok, const std::string& detail) {
    items.push_back(JsonObject()
                        .str("name", name)
                        .boolean("ok", ok)
                        .str("detail", detail)
                        .dump());
  }
};

/// Front figures shared by every workload: the measured front, its
/// hypervolume against the fixed reference point, and the best objective-0
/// point within the accuracy limit (the paper's 5 cm band for KFusion).
void report_front(const OptimizationResult& result, const Objectives& hv_ref,
                  double accuracy_limit, JsonObject& out, Checks& checks) {
  const std::vector<Objectives> front = front_points(result);
  bool finite = !front.empty();
  std::vector<std::string> points;
  for (const Objectives& p : front) {
    for (const double v : p) finite = finite && std::isfinite(v);
    points.push_back(json_numbers(p));
  }
  checks.add("front_nonempty_finite", finite,
             std::to_string(front.size()) + " front points");
  out.raw("front", json_array(points));
  out.num("front_hv", hm::hypermapper::hypervolume_2d(front, hv_ref));
  const auto best =
      hm::hypermapper::best_under_constraint(result, 0, 1, accuracy_limit);
  checks.add("within_accuracy_limit_exists", best.has_value(),
             best ? "best objective0 " +
                        json_number(result.samples[*best].objectives[0])
                  : "no sample within the limit");
  out.num("best_fps_5cm",
          best ? 1.0 / result.samples[*best].objectives[0] : 0.0);
}

// --- Trace export ------------------------------------------------------------

/// Spans harvested so far, names copied out of the trace buffers.
std::vector<hm::common::RemoteTraceEvent>& harvested_spans() {
  static std::vector<hm::common::RemoteTraceEvent> spans;
  return spans;
}

/// Moves every recorded span into harvested_spans(). Must run while the
/// evaluators that recorded them are alive: the sandbox names its spans
/// after its workers, and buffered events only point at those names.
void harvest_spans() {
  for (auto& e : hm::common::merged_trace_snapshot()) {
    harvested_spans().push_back(std::move(e));
  }
  hm::common::clear_trace();
}

std::string spans_json() {
  harvest_spans();
  std::vector<std::string> rows;
  for (const auto& e : harvested_spans()) {
    rows.push_back(json_array({json_string(e.name), json_string(e.category),
                               std::to_string(e.process_id),
                               std::to_string(e.tid),
                               std::to_string(e.start_ns),
                               std::to_string(e.duration_ns),
                               json_string(std::to_string(e.trace_id))}));
  }
  return json_array(rows);
}

// --- Fingerprint ----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fingerprint_json() {
  return JsonObject()
      .str("cpu", cpu_model())
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("sanitize", PERFBENCH_SANITIZE)
      .str("simd", hm::simd::backend_name())
      .boolean("hm_trace", HM_TRACE_ENABLED != 0)
      .dump();
}

// --- KFusion workloads -------------------------------------------------------

constexpr std::size_t kFrames = 30;
/// tune_kfusion's optimizer seed. KFusion campaigns pin it whatever --seed
/// says: which configurations a seed draws moves a campaign's cost by tens
/// of percent (6.4 to 9.3 s over seeds 1-6 on a 4-core host), which would
/// drown every regression this benchmark exists to show.
constexpr std::uint64_t kTuneKfusionSeed = 42;
/// The paper's accuracy band: 5 cm max ATE.
constexpr double kKFusionAteLimit = 0.05;
/// The served scenario's error objective has no unit; this limit plays the
/// role of the 5 cm band for it.
constexpr double kSyntheticErrorLimit = 0.5;
/// Nominal campaign wall times, near those of the baseline host
/// (perfbench/baseline.json); they size each run's fixed campaign count
/// from --seconds. A served campaign's time is per client, under the
/// closed loop.
constexpr double kInProcessCampaignSeconds = 7.0;
constexpr double kIsolatedCampaignSeconds = 10.0;
constexpr double kServedCampaignSeconds = 2.0;

OptimizerConfig tune_kfusion_config() {
  // The default tune_kfusion campaign (examples/tune_kfusion.cpp).
  OptimizerConfig config;
  config.random_samples = 80;
  config.max_iterations = 3;
  config.max_samples_per_iteration = 50;
  config.pool_size = 20'000;
  config.forest.tree_count = 48;
  config.seed = kTuneKfusionSeed;
  return config;
}

/// The sandbox flag set `tune_kfusion --sandbox --journal` parses, so the
/// product's defaults (worker count included) apply unchanged.
hm::examples::SandboxCli product_sandbox_cli() {
  const char* argv[] = {"tune_kfusion", "--sandbox"};
  const hm::common::CliArgs args(2, argv, {"resume", "sandbox"});
  return hm::examples::SandboxCli::from_args(args);
}

struct KFusionCampaign {
  OptimizationResult result;
  LoopTimes times;
  std::vector<double> latencies_ms;
  std::size_t lanes = 0;
  hm::common::SchedulerStats pool_delta;
  hm::sandbox::SandboxStats sandbox;
  std::size_t journal_records = 0;
  double journal_bytes = 0.0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::uint64_t trace_id = 0;
  double call_s = 0.0;       ///< Wall time of the whole call.
  double steal_share = 0.0;  ///< Of the vCPUs' time over the call.
};

KFusionCampaign run_kfusion_campaign(
    const std::shared_ptr<const hm::dataset::RGBDSequence>& sequence,
    bool isolated, bool traced, const std::string& journal_path,
    std::unique_ptr<hm::slambench::KFusionEvaluator>* keep_evaluator) {
  auto kfusion = std::make_unique<hm::slambench::KFusionEvaluator>(
      sequence, hm::slambench::device_by_name("odroid"));
  hm::examples::SandboxCli sandbox = product_sandbox_cli();
  Evaluator& inner = isolated ? sandbox.wrap(*kfusion) : *kfusion;

  KFusionCampaign campaign;
  campaign.trace_id = traced ? hm::common::generate_trace_id() : 0;
  TimingEvaluator timing(inner, campaign.trace_id);
  auto& pool = hm::common::ThreadPool::global();
  Optimizer optimizer(kfusion->space(), timing, tune_kfusion_config(), &pool);
  hm::common::JournalWriter journal;
  std::function<bool()> cancel;
  if (isolated) {
    std::filesystem::remove(journal_path);
    std::string error;
    if (!journal.open(journal_path, &error)) {
      std::fprintf(stderr, "cannot open journal %s: %s\n",
                   journal_path.c_str(), error.c_str());
      std::exit(1);
    }
    optimizer.attach_journal(&journal);
    cancel = [] { return hm::common::shutdown_requested(); };
  }

  const hm::common::SchedulerStats before = pool.stats();
  {
    std::optional<hm::common::TraceContext> context;
    if (traced) context.emplace(campaign.trace_id);
    campaign.result =
        drive_campaign(optimizer, timing, &pool, cancel, &campaign.times);
  }
  const hm::common::SchedulerStats after = pool.stats();
  campaign.pool_delta.tasks_executed = after.tasks_executed - before.tasks_executed;
  campaign.pool_delta.steals = after.steals - before.steals;
  campaign.latencies_ms = timing.latencies_ms();
  campaign.lanes = timing.lanes();
  if (isolated) {
    campaign.journal_records = journal.records_written();
    journal.close();
    std::error_code ec;
    campaign.journal_bytes =
        static_cast<double>(std::filesystem::file_size(journal_path, ec));
  }
  campaign.cache_hits = kfusion->cache()->hits();
  campaign.cache_misses = kfusion->cache()->misses();
  if (const auto* sandboxed =
          dynamic_cast<const hm::sandbox::SandboxedEvaluator*>(&inner)) {
    campaign.sandbox = sandboxed->stats();
  }
  if (traced) harvest_spans();
  // Drains the worker pool (the tune_kfusion end-of-run path).
  sandbox.report_and_shutdown();
  if (keep_evaluator != nullptr) *keep_evaluator = std::move(kfusion);
  return campaign;
}


// --- Shared workload plumbing ------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 30.0;
  bool trace = false;
  std::string out;
  std::string work_dir;
  Objectives hv_ref;
};

/// Set-ups per run; the median is reported. A daemon starts in a few
/// milliseconds, several times slower now and then, so it starts more often.
constexpr std::size_t kSetups = 11;
constexpr std::size_t kServedSetups = 41;
/// Rounds of the served phase, each followed by a probe.
constexpr std::size_t kServedRounds = 6;

/// A measured phase runs a fixed number of whole campaigns (per client when
/// served), sized from its time budget and the workload's nominal campaign
/// time, so every run of a workload does the same work. At least one
/// always runs.
std::size_t campaign_count(double budget_s, double nominal_campaign_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(budget_s / nominal_campaign_s));
}

/// Whether another campaign of the phase may start: the count is not
/// reached, and a host much slower than the baseline one has not yet
/// overrun twice the budget.
bool another_campaign(std::size_t done, std::size_t count,
                      Clock::time_point phase_start, double last_wall_s,
                      double budget_s) {
  return done < count &&
         seconds_since(phase_start) + last_wall_s <= 2.0 * budget_s;
}

struct PhaseMeasure {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

std::string sandbox_json(const hm::sandbox::SandboxStats& s) {
  return JsonObject()
      .num("spawns", static_cast<double>(s.spawns))
      .num("requests", static_cast<double>(s.requests))
      .num("recycles", static_cast<double>(s.recycles))
      .num("protocol_errors", static_cast<double>(s.protocol_errors))
      .num("fallbacks", static_cast<double>(s.fallbacks))
      .dump();
}

std::string loop_json(JsonObject& object, const LoopTimes& times,
                      const std::vector<double>& latencies_ms,
                      std::size_t lanes, bool traced, std::uint64_t trace_id) {
  return object.num("wall_s", times.wall_s)
      .num("propose_s", times.propose_s)
      .num("batch_wall_s", times.batch_wall_s)
      .num("batches", static_cast<double>(times.batches))
      .num("lanes", static_cast<double>(lanes))
      .raw("latency_ms", json_numbers(latencies_ms))
      .boolean("traced", traced)
      .str("trace_id", std::to_string(trace_id))
      .dump();
}

// --- KFusion workloads -------------------------------------------------------

int run_kfusion_workload(const Options& options, bool isolated,
                         JsonObject& out, Checks& checks) {
  std::vector<double> setup_s;
  std::vector<double> render_s;
  std::shared_ptr<const hm::dataset::RGBDSequence> sequence;
  const CpuTicks setup_ticks = vm_cpu_ticks();
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    sequence = hm::dataset::make_benchmark_sequence(kFrames, 80, 60, nullptr,
                                                    false);
    render_s.push_back(seconds_since(start));
    hm::slambench::KFusionEvaluator evaluator(
        sequence, hm::slambench::device_by_name("odroid"));
    hm::examples::SandboxCli sandbox = product_sandbox_cli();
    if (isolated) (void)sandbox.wrap(evaluator);
    setup_s.push_back(seconds_since(start));
  }
  std::vector<double> probe_cpu_s = {probe_cpu_seconds()};
  const double setup_steal_share = steal_share(setup_ticks, vm_cpu_ticks());
  if (isolated && !hm::common::install_shutdown_handler()) {
    std::fprintf(stderr, "cannot install signal handlers\n");
  }

  const std::string journal_path = options.work_dir + "/campaign.wal";
  std::vector<KFusionCampaign> campaigns;
  std::unique_ptr<hm::slambench::KFusionEvaluator> measured_evaluator;
  const double nominal_s =
      isolated ? kIsolatedCampaignSeconds : kInProcessCampaignSeconds;
  // The phase's CPU time is that of its campaigns' calls: the probes
  // between them are not measured.
  PhaseMeasure measure;
  auto phase = [&](bool traced, double budget_s) {
    hm::common::set_trace_enabled(traced);
    const std::size_t count = campaign_count(budget_s, nominal_s);
    const Clock::time_point start = Clock::now();
    std::size_t done = 0;
    do {
      const double cpu_before = tree_cpu_seconds();
      const CpuTicks ticks = vm_cpu_ticks();
      const Clock::time_point t = Clock::now();
      campaigns.push_back(run_kfusion_campaign(
          sequence, isolated, traced, journal_path,
          measured_evaluator ? nullptr : &measured_evaluator));
      campaigns.back().call_s = seconds_since(t);
      campaigns.back().steal_share = steal_share(ticks, vm_cpu_ticks());
      measure.cpu_s += tree_cpu_seconds() - cpu_before;
      probe_cpu_s.push_back(probe_cpu_seconds());
      ++done;
    } while (another_campaign(done, count, start,
                              campaigns.back().times.wall_s, budget_s));
    hm::common::set_trace_enabled(false);
  };

  {
    RssSampler rss;
    if (options.trace) {
      phase(false, options.seconds / 2.0);
      phase(true, options.seconds / 2.0);
    } else {
      phase(false, options.seconds);
    }
    measure.peak_rss_mb = rss.stop();
  }

  // Correctness: every campaign of the run is the same seeded campaign.
  // Sandboxed campaigns must match an in-process reference bit for bit.
  const OptimizationResult* reference = &campaigns.front().result;
  std::unique_ptr<hm::slambench::KFusionEvaluator> reference_evaluator;
  KFusionCampaign in_process;
  if (isolated) {
    in_process = run_kfusion_campaign(sequence, false, false, "",
                                      &reference_evaluator);
    reference = &in_process.result;
  }
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const std::string diff = compare_results(campaigns[i].result, *reference);
    checks.add(isolated ? "sandboxed_equals_in_process" : "repeat_identical",
               diff.empty(),
               "campaign " + std::to_string(i) + (diff.empty() ? " identical" : ": " + diff));
  }
  report_front(*reference, options.hv_ref, kKFusionAteLimit, out, checks);

  // Kernel op counts and modeled seconds of the measured samples, read back
  // from the in-process evaluator's cache (no re-run).
  hm::slambench::KFusionEvaluator& cache_owner =
      isolated ? *reference_evaluator : *measured_evaluator;
  hm::kfusion::KernelStats ops;
  double modeled_s = 0.0;
  double host_s = 0.0;
  for (const auto& sample : reference->samples) {
    const hm::slambench::RunMetrics metrics = cache_owner.measure(sample.config);
    ops += metrics.stats;
    modeled_s += cache_owner.device().seconds(metrics.stats, metrics.frames);
    host_s += metrics.wall_seconds;
  }
  JsonObject ops_json;
  for (std::size_t k = 0; k <= static_cast<std::size_t>(hm::kfusion::Kernel::kRaycast); ++k) {
    ops_json.num(std::string(hm::kfusion::kKernelNames[k]),
                 static_cast<double>(ops.count(static_cast<hm::kfusion::Kernel>(k))));
  }

  std::vector<std::string> campaign_rows;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const KFusionCampaign& c : campaigns) {
    JsonObject row;
    row.num("evals_ok", static_cast<double>(c.result.samples.size()))
        .num("evals_failed", static_cast<double>(c.result.quarantine.size()))
        .num("tasks", static_cast<double>(c.pool_delta.tasks_executed))
        .num("steals", static_cast<double>(c.pool_delta.steals))
        .num("journal_records", static_cast<double>(c.journal_records))
        .num("journal_bytes", c.journal_bytes)
        .num("cache_hits", static_cast<double>(c.cache_hits))
        .num("cache_misses", static_cast<double>(c.cache_misses))
        .num("call_s", c.call_s)
        .num("steal_share", c.steal_share)
        .raw("sandbox", sandbox_json(c.sandbox));
    campaign_rows.push_back(
        loop_json(row, c.times, c.latencies_ms, c.lanes, c.trace_id != 0, c.trace_id));
    attempted += 1 + c.result.samples.size() + c.result.quarantine.size();
    failed += c.result.quarantine.size() + (c.result.interrupted ? 1 : 0);
  }
  out.raw("setup_s", json_numbers(setup_s))
      .raw("render_s", json_numbers(render_s))
      .num("setup_steal_share", setup_steal_share)
      .raw("probe_cpu_s", json_numbers(probe_cpu_s))
      .num("cpu_s", measure.cpu_s)
      .num("peak_rss_mb", measure.peak_rss_mb)
      .raw("campaigns", json_array(campaign_rows))
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .raw("ops", ops_json.dump())
      .num("modeled_s", modeled_s)
      .num("host_eval_s", host_s);
  return 0;
}

// --- Served workload ---------------------------------------------------------

/// A running hm_serve daemon started from the build.
struct Daemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
};

std::optional<int> read_port_file(const std::string& path) {
  std::ifstream in(path);
  int port = 0;
  if (in >> port && port > 0) return port;
  return std::nullopt;
}

std::optional<Daemon> start_daemon(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/campaigns");
  Daemon daemon;
  const std::string port_file = dir + "/port";
  const std::string http_port_file = dir + "/http_port";
  const std::string log = dir + "/daemon.log";
  std::vector<std::string> args = {
      PERFBENCH_SERVE_BIN, "--dir",       dir + "/campaigns", "--port", "0",
      "--port-file",       port_file,     "--http-port",      "0",
      "--http-port-file",  http_port_file};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&daemon.pid, PERFBENCH_SERVE_BIN, &actions,
                             nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return std::nullopt;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < 30.0) {
    const auto port = read_port_file(port_file);
    const auto http_port = read_port_file(http_port_file);
    if (port && http_port) {
      daemon.port = static_cast<std::uint16_t>(*port);
      daemon.http_port = static_cast<std::uint16_t>(*http_port);
      return daemon;
    }
    int status = 0;
    if (waitpid(daemon.pid, &status, WNOHANG) == daemon.pid) return std::nullopt;
    // Polls without sleeping: the start takes a few milliseconds, and a
    // sleeping poller's wake-up, slow on a host that steals time from the
    // VM, would be most of what set-up time reads.
    std::this_thread::yield();
  }
  kill(daemon.pid, SIGKILL);
  waitpid(daemon.pid, nullptr, 0);
  return std::nullopt;
}

/// SIGTERM drain, then SIGKILL: a drained daemon spends seconds retiring
/// the sandbox workers of every finished campaign one by one, which is not
/// measured. Orphaned workers exit on their closed pipes and are reaped by
/// reap_descendants().
void stop_daemon(Daemon& daemon) {
  if (daemon.pid <= 0) return;
  kill(daemon.pid, SIGTERM);
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (waitpid(daemon.pid, &status, WNOHANG) == 0) {
    if (seconds_since(start) > 0.5) {
      kill(daemon.pid, SIGKILL);
      waitpid(daemon.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  daemon.pid = -1;
}

/// The driver is a child subreaper, so every process it started directly
/// or indirectly ends up as its child; this waits for all of them, killing
/// any that is still alive after a grace period.
void reap_descendants() {
  const Clock::time_point start = Clock::now();
  while (true) {
    while (waitpid(-1, nullptr, WNOHANG) > 0) {
    }
    const std::vector<ProcStat> tree = process_tree();
    if (tree.size() <= 1) return;
    if (seconds_since(start) > 5.0) {
      for (const ProcStat& stat : tree) {
        if (stat.pid != getpid()) kill(stat.pid, SIGKILL);
      }
      while (waitpid(-1, nullptr, 0) > 0) {
      }
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// GET over loopback HTTP/1.0; returns the body.
std::string http_get(std::uint16_t port, const std::string& target) {
  std::string error;
  const int fd = hm::serve::connect_tcp(port, 5.0, &error);
  if (fd < 0) return {};
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  if (write(fd, request.data(), request.size()) !=
      static_cast<ssize_t>(request.size())) {
    hm::serve::close_socket(fd);
    return {};
  }
  std::string response;
  char buffer[4096];
  for (ssize_t n; (n = read(fd, buffer, sizeof buffer)) > 0;) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  hm::serve::close_socket(fd);
  const auto body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string() : response.substr(body + 4);
}

/// Nine parameters shaped like the KFusion space, on the synthetic
/// evaluator, at the tune_kfusion budget.
std::string served_scenario(const std::string& name, std::uint64_t seed) {
  return "{\"name\": \"" + name + "\", \"seed\": " + std::to_string(seed) +
         ", \"objectives\": [\"runtime\", \"error\"], \"space\": ["
         "{\"kind\": \"ordinal\", \"name\": \"volume_resolution\", \"values\": [64, 128, 256]}, "
         "{\"kind\": \"ordinal\", \"name\": \"mu\", \"values\": [0.025, 0.05, 0.1, 0.2, 0.3, 0.4]}, "
         "{\"kind\": \"ordinal\", \"name\": \"icp_iterations_l0\", \"values\": [4, 6, 8, 10, 12, 16]}, "
         "{\"kind\": \"ordinal\", \"name\": \"icp_iterations_l1\", \"values\": [2, 3, 4, 5, 6]}, "
         "{\"kind\": \"ordinal\", \"name\": \"icp_iterations_l2\", \"values\": [1, 2, 3, 4]}, "
         "{\"kind\": \"ordinal\", \"name\": \"compute_size_ratio\", \"values\": [1, 2, 4, 8]}, "
         "{\"kind\": \"integer\", \"name\": \"tracking_rate\", \"lo\": 1, \"hi\": 5}, "
         "{\"kind\": \"integer\", \"name\": \"integration_rate\", \"lo\": 1, \"hi\": 5}, "
         "{\"kind\": \"ordinal\", \"name\": \"icp_threshold\", \"values\": "
         "[1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0], \"log\": true}], "
         "\"budget\": {\"random_samples\": 80, \"max_iterations\": 3, "
         "\"max_samples_per_iteration\": 50, \"pool_size\": 20000, "
         "\"tree_count\": 48}, "
         "\"evaluator\": {\"kind\": \"synthetic\"}, \"sandbox\": true}";
}

struct ServedCampaign {
  double wall_s = 0.0;
  hm::serve::ClientResult::Status status = hm::serve::ClientResult::Status::kError;
  std::size_t progress_frames = 0;
  std::string report;
  std::string message;
  bool traced = false;
  std::uint64_t trace_id = 0;
  std::size_t round = 0;
};

const char* to_string(hm::serve::ClientResult::Status status) {
  switch (status) {
    case hm::serve::ClientResult::Status::kReport: return "report";
    case hm::serve::ClientResult::Status::kBusy: return "busy";
    case hm::serve::ClientResult::Status::kParked: return "parked";
    case hm::serve::ClientResult::Status::kError: return "error";
  }
  return "error";
}

/// Closed loop: `clients` connections each submit their next campaign once
/// the previous report lands; one more connection pings throughout.
///
/// A traced phase records the client side only and sends no trace id to
/// the daemon. A traced request makes a sandbox worker clear its inherited
/// trace buffers, and a worker forked while another daemon thread held one
/// of their locks then blocks forever: traced served campaigns stalled
/// until the idle timeout parked them in one of six traced runs.
void served_phase(const Daemon& daemon, hm::serve::Client& pinger,
                  std::size_t clients, std::uint64_t seed, bool traced,
                  std::size_t round, double budget_s,
                  std::vector<ServedCampaign>* campaigns,
                  std::vector<double>* pings_ms) {
  hm::common::set_trace_enabled(traced);
  std::mutex mutex;
  std::atomic<std::size_t> running{clients};
  const Clock::time_point start = Clock::now();
  const std::size_t count = campaign_count(budget_s, kServedCampaignSeconds);
  std::vector<std::thread> threads;
  static std::atomic<std::size_t> serial{0};
  for (std::size_t k = 0; k < clients; ++k) {
    threads.emplace_back([&, k] {
      std::string error;
      auto client = hm::serve::Client::connect_port(daemon.port, 10.0, &error);
      double last = 0.0;
      std::size_t done = 0;
      while (client) {
        ServedCampaign c;
        c.traced = traced;
        c.round = round;
        c.trace_id = traced ? hm::common::generate_trace_id() : 0;
        std::string name = "c";
        name += std::to_string(k);
        name += '-';
        name += std::to_string(serial.fetch_add(1));
        {
          std::optional<hm::common::TraceContext> context;
          if (traced) context.emplace(c.trace_id);
          const hm::common::TraceSpan span("bench_campaign", "perfbench");
          const Clock::time_point t = Clock::now();
          const hm::serve::ClientResult result =
              client->run_scenario(served_scenario(name, seed), 120.0);
          c.wall_s = seconds_since(t);
          c.status = result.status;
          c.progress_frames = result.progress_frames;
          c.report = result.report;
          c.message = result.message;
        }
        last = c.wall_s;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          campaigns->push_back(std::move(c));
        }
        if (!another_campaign(++done, count, start, last, budget_s)) break;
      }
      if (client) client->bye();
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    const Clock::time_point t = Clock::now();
    const bool ok = pinger.ping(5.0);
    const double ms = seconds_since(t) * 1e3;
    if (ok) pings_ms->push_back(ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  hm::common::set_trace_enabled(false);
}

int run_served_workload(const Options& options, JsonObject& out,
                        Checks& checks) {
  const std::uint64_t seed = options.seed;
  std::vector<double> setup_s;
  std::optional<Daemon> daemon;
  std::optional<hm::serve::Client> pinger;
  const CpuTicks setup_ticks = vm_cpu_ticks();
  for (std::size_t i = 0; i < kServedSetups; ++i) {
    const Clock::time_point start = Clock::now();
    daemon = start_daemon(options.work_dir + "/serve" + std::to_string(i));
    if (!daemon) {
      std::fprintf(stderr, "hm_serve did not start\n");
      return 1;
    }
    std::string error;
    pinger = hm::serve::Client::connect_port(daemon->port, 10.0, &error);
    if (!pinger) {
      std::fprintf(stderr, "handshake failed: %s\n", error.c_str());
      stop_daemon(*daemon);
      return 1;
    }
    setup_s.push_back(seconds_since(start));
    if (i + 1 < kServedSetups) {
      pinger->bye();
      pinger.reset();
      stop_daemon(*daemon);
    }
  }

  std::vector<double> probe_cpu_s = {probe_cpu_seconds()};
  const double setup_steal_share = steal_share(setup_ticks, vm_cpu_ticks());
  progress("set up " + std::to_string(kServedSetups) + " daemons");
  const std::size_t clients =
      std::max<std::size_t>(1, std::thread::hardware_concurrency() - 1);
  std::vector<ServedCampaign> campaigns;
  std::vector<double> pings_ms;
  PhaseMeasure measure;
  std::vector<double> round_wall_s;
  std::vector<double> round_steal_share;
  double tree_pss_mb = 0.0;
  std::string scrape;
  {
    // The measured phase runs in rounds with the daemon idle between them
    // for a probe; with --trace 1 the second half of the rounds is traced.
    RssSampler rss;
    for (std::size_t r = 0; r < kServedRounds; ++r) {
      const bool traced = options.trace && 2 * r >= kServedRounds;
      const double cpu_before = tree_cpu_seconds();
      const CpuTicks ticks = vm_cpu_ticks();
      const Clock::time_point start = Clock::now();
      served_phase(*daemon, *pinger, clients, seed, traced, r,
                   options.seconds / kServedRounds, &campaigns, &pings_ms);
      round_wall_s.push_back(seconds_since(start));
      round_steal_share.push_back(steal_share(ticks, vm_cpu_ticks()));
      measure.cpu_s += tree_cpu_seconds() - cpu_before;
      probe_cpu_s.push_back(probe_cpu_seconds());
    }
    tree_pss_mb = rss.stop();
    measure.peak_rss_mb = peak_rss_mb(daemon->pid) + driver_peak_rss_mb();
    progress("measured phase done: " + std::to_string(campaigns.size()) +
             " campaigns");
    scrape = http_get(daemon->http_port, "/metrics");
    progress("scraped /metrics");
  }
  pinger->bye();
  pinger.reset();
  stop_daemon(*daemon);
  progress("daemon stopped");

  // Served == direct: the in-process synchronous run of the same scenario.
  std::string error;
  const auto scenario = hm::serve::parse_scenario(served_scenario("direct", seed), &error);
  if (!scenario) {
    std::fprintf(stderr, "scenario: %s\n", error.c_str());
    return 1;
  }
  OptimizationResult direct;
  {
    const auto evaluator = hm::serve::make_scenario_evaluator(*scenario);
    Optimizer optimizer(scenario->space, *evaluator, scenario->config);
    direct = optimizer.run();
  }
  progress("direct run done");
  const std::string direct_report = hm::serve::Campaign::render_report(
      scenario->space, direct, scenario->objective_names);
  std::size_t identical = 0;
  std::size_t reports = 0;
  std::size_t failed_campaigns = 0;
  for (const ServedCampaign& c : campaigns) {
    if (c.status != hm::serve::ClientResult::Status::kReport) {
      ++failed_campaigns;
      continue;
    }
    ++reports;
    identical += c.report == direct_report ? 1 : 0;
  }
  checks.add("served_equals_direct", reports > 0 && identical == reports,
             std::to_string(identical) + " of " + std::to_string(reports) +
                 " reports byte-identical to the direct run");
  report_front(direct, options.hv_ref, kSyntheticErrorLimit, out, checks);

  // In-process AsyncRun replays of the scenario, built the way a served
  // campaign is (sandboxed synthetic evaluator, journal, no optimizer pool,
  // evaluations dispatched on the shared pool), for serve.overhead_s, the
  // sandboxed evaluate() latency and, traced, the proposal spans. The
  // trace id stays on the driver thread and out of the sandbox, for the
  // reason given at served_phase.
  std::vector<std::string> replay_rows;
  for (std::size_t r = 0; r < 5; ++r) {
    const auto evaluator = hm::serve::make_scenario_evaluator(*scenario);
    hm::sandbox::SandboxPolicy policy;
    policy.workers = 2;
    hm::sandbox::SandboxedEvaluator sandboxed(*evaluator, policy);
    const std::uint64_t trace_id =
        options.trace ? hm::common::generate_trace_id() : 0;
    TimingEvaluator timing(sandboxed, 0);
    Optimizer optimizer(scenario->space, timing, scenario->config);
    hm::common::JournalWriter journal;
    const std::string wal = options.work_dir + "/replay.wal";
    std::filesystem::remove(wal);
    if (!journal.open(wal, &error)) {
      std::fprintf(stderr, "replay journal: %s\n", error.c_str());
      return 1;
    }
    optimizer.attach_journal(&journal);
    LoopTimes times;
    OptimizationResult replay;
    {
      hm::common::set_trace_enabled(options.trace);
      std::optional<hm::common::TraceContext> context;
      if (options.trace) context.emplace(trace_id);
      replay = drive_campaign(optimizer, timing,
                              &hm::common::ThreadPool::global(), nullptr,
                              &times);
      hm::common::set_trace_enabled(false);
    }
    const bool same = hm::serve::Campaign::render_report(
                          scenario->space, replay, scenario->objective_names) ==
                      direct_report;
    checks.add("replay_equals_direct", same,
               "replay " + std::to_string(r));
    JsonObject row;
    row.raw("sandbox", sandbox_json(sandboxed.stats()))
        .num("journal_records", static_cast<double>(journal.records_written()));
    replay_rows.push_back(loop_json(row, times, timing.latencies_ms(),
                                    timing.lanes(), options.trace, trace_id));
    if (options.trace) harvest_spans();
    sandboxed.shutdown();
  }

  std::vector<std::string> campaign_rows;
  for (const ServedCampaign& c : campaigns) {
    campaign_rows.push_back(JsonObject()
                                .num("wall_s", c.wall_s)
                                .str("status", to_string(c.status))
                                .str("message", c.message)
                                .num("progress_frames",
                                     static_cast<double>(c.progress_frames))
                                .boolean("traced", c.traced)
                                .str("trace_id", std::to_string(c.trace_id))
                                .num("round", static_cast<double>(c.round))
                                .dump());
  }
  const std::size_t evals_per_campaign =
      direct.samples.size() + direct.quarantine.size();
  out.raw("setup_s", json_numbers(setup_s))
      .num("setup_steal_share", setup_steal_share)
      .raw("probe_cpu_s", json_numbers(probe_cpu_s))
      .raw("round_wall_s", json_numbers(round_wall_s))
      .raw("round_steal_share", json_numbers(round_steal_share))
      .num("cpu_s", measure.cpu_s)
      .num("peak_rss_mb", measure.peak_rss_mb)
      .num("tree_pss_mb", tree_pss_mb)
      .num("clients", static_cast<double>(clients))
      .raw("campaigns", json_array(campaign_rows))
      .raw("replays", json_array(replay_rows))
      .raw("pings_ms", json_numbers(pings_ms))
      .str("scrape", scrape)
      .num("evals_ok_per_campaign", static_cast<double>(direct.samples.size()))
      .num("evals_failed_per_campaign",
           static_cast<double>(direct.quarantine.size()))
      .num("attempted",
           static_cast<double>(campaigns.size() * (1 + evals_per_campaign)))
      .num("failed", static_cast<double>(failed_campaigns +
                                         reports * direct.quarantine.size()));
  return 0;
}

Objectives parse_pair(const std::string& text) {
  Objectives values;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) values.push_back(std::stod(item));
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  progress("start");
  prctl(PR_SET_CHILD_SUBREAPER, 1);
  const hm::common::CliArgs args(argc, argv);
  Options options;
  options.workload = args.get_or("workload", std::string());
  options.seed = static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{42}));
  options.seconds = args.get_or("seconds", 30.0);
  options.trace = args.get_or("trace", std::int64_t{0}) != 0;
  options.out = args.get_or("out", std::string());
  options.work_dir = args.get_or("work-dir", std::string());
  options.hv_ref = parse_pair(args.get_or("hv-ref", std::string()));
  if (options.out.empty() || options.work_dir.empty() ||
      options.hv_ref.size() != 2) {
    std::fprintf(stderr, "usage: perfbench_driver --workload W --seed N "
                         "--seconds S --trace 0|1 --out FILE --work-dir DIR "
                         "--hv-ref A,B\n");
    return 2;
  }
  // Measurement hygiene: numbers from instrumented or unoptimised builds
  // are not comparable with anything.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" ||
      !std::string(PERFBENCH_SANITIZE).empty()) {
    std::fprintf(stderr, "refusing to measure a %s build (sanitize='%s')\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  JsonObject out;
  out.str("workload", options.workload)
      .num("seed", static_cast<double>(options.seed))
      .boolean("traced", options.trace)
      .raw("fingerprint", fingerprint_json());
  Checks checks;
  int code = 0;
  if (options.workload == "kfusion_dse") {
    code = run_kfusion_workload(options, false, out, checks);
  } else if (options.workload == "kfusion_isolated") {
    code = run_kfusion_workload(options, true, out, checks);
  } else if (options.workload == "served_synthetic") {
    code = run_served_workload(options, out, checks);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  reap_descendants();
  if (code != 0) return code;
  out.raw("checks", json_array(checks.items));
  out.raw("spans", options.trace ? spans_json() : "[]");
  std::ofstream file(options.out);
  file << out.dump() << "\n";
  progress("done");
  return file.good() ? 0 : 1;
}
