// Shared machinery of the dwqa end-to-end benchmark: command-line options,
// client-side timing and percentiles, the scaling of times to nominal
// machine speed, the result record every workload fills, the layer profile
// of a traced run, the in-memory file system the WAL writes through, and
// the synthetic-input builders.
//
// The benchmark drives the program only through its public API and times
// every call from the outside; nothing under src/ is instrumented for it.

#ifndef DWQA_PERFBENCH_HARNESS_H_
#define DWQA_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/io.h"
#include "ir/document.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace perfbench {

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Samples of one quantity (ms unless the name says otherwise).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Linear-interpolated quantile, q in [0, 1].
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  /// The highest of the percentiles 99/95/90/75/50 that still has at least
  /// ten samples beyond it, with its label ("p99") and the number of
  /// samples beyond it. p99 is the ceiling: above it, a request of a few
  /// microseconds measures the host preempting the client, not the program.
  struct Tail {
    double value = 0.0;
    std::string label;
    size_t beyond = 0;
  };
  Tail TailPercentile() const;

 private:
  std::vector<double> values_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  /// Every correctness check passed.
  bool correct = true;
  /// Requests attempted and failed (rejected or errored) in the timed
  /// phase.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Gated end-to-end metrics (untraced run) or per-layer metrics (traced
  /// run), in print order.
  std::vector<Metric> metrics;
  /// Human-readable context lines printed before the JSON line: the
  /// parallelism record, tail sample counts, per-endpoint splits.
  std::vector<std::string> context;
  /// Descriptions of the first few correctness failures.
  std::vector<std::string> mismatches;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; keeps the first ten descriptions.
  void Mismatch(const std::string& what);
};

/// \brief Per-layer timings of a traced run: named sample sets and counts,
/// filled by timing public calls from the benchmark's side.
class LayerProfile {
 public:
  Samples& operator[](const std::string& name) { return samples_[name]; }
  /// Adds every sample and count of `other` (per-client profiles of a
  /// multi-client run).
  void Merge(const LayerProfile& other);
  bool Has(const std::string& name) const {
    auto it = samples_.find(name);
    return it != samples_.end() && !it->second.empty();
  }
  double Median(const std::string& name) const;
  void Count(const std::string& name, double delta) { counts_[name] += delta; }
  double count(const std::string& name) const;

 private:
  std::map<std::string, Samples> samples_;
  std::map<std::string, double> counts_;
};

/// Times one call of `fn`, adding its wall time to `samples` in
/// milliseconds (microseconds when `micros`), and returns its result.
template <typename F>
auto Timed(Samples* samples, bool micros, F&& fn) {
  Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    double ms = MsSince(start);
    samples->Add(micros ? ms * 1000.0 : ms);
  } else {
    auto result = fn();
    double ms = MsSince(start);
    samples->Add(micros ? ms * 1000.0 : ms);
    return result;
  }
}

/// \brief A whole-process in-memory Fs: the benchmark's tmpfs. The WAL
/// appends, syncs and rotates through the program's Fs interface exactly
/// as on disk; SyncFile is a no-op, as fsync is on tmpfs. Keeps every
/// byte the benchmark writes inside the process.
class MemFs : public Fs {
 public:
  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFile(const std::string& path, const std::string& data) override;
  Status AppendFile(const std::string& path, const std::string& data) override;
  Status SyncFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveAll(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> files_;
  std::map<std::string, bool> dirs_;
};

/// The synthetic web's seed (and so its weather model's) for a benchmark
/// seed. Every page set and the staged sales of one run share it, so the
/// sales plant their boost on the same weather the pages publish.
inline uint64_t WebSeed(uint64_t seed) { return seed * 1000 + 1; }

/// A multi-year synthetic web: weather pages (prose and table layouts) for
/// every (city, month) of `years` consecutive years starting at
/// `first_year`, with the encyclopedia, price and noise pages once. Every
/// year's web is seeded with WebSeed(seed).
struct MultiYearWeb {
  std::vector<web::SyntheticWeb> years;
  /// Gold weather questions of every year, in corpus order.
  std::vector<web::GoldQuestion> weather_questions;
  /// Exact truth over every year.
  web::GroundTruth truth;
};
MultiYearWeb BuildMultiYearWeb(uint64_t seed, int first_year, int years);

/// Weather pages only (no encyclopedia, price or noise pages) for the given
/// cities and months of one year, with their gold questions and truth:
/// pages a workload holds back from the indexed corpus and ingests later.
struct WeatherPages {
  std::vector<ir::Document> pages;
  std::vector<web::GoldQuestion> questions;
  web::GroundTruth truth;
};
WeatherPages BuildWeatherPages(uint64_t seed, int year,
                               const std::vector<std::string>& cities,
                               const std::vector<int>& months);

/// Copies every document of `web` into `store` (all years, in order).
void CopyDocuments(const MultiYearWeb& web, ir::DocumentStore* store);

/// The CLEF-style taxonomy set; its temperature question's empty gold is
/// filled from `weather` (the matching weather question's gold).
std::vector<web::GoldQuestion> ClefQuestions(
    const std::vector<web::GoldQuestion>& weather);

/// Deterministic shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, uint64_t seed) {
  uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (size_t i = items->size(); i > 1; --i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    std::swap((*items)[i - 1], (*items)[s % i]);
  }
}

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Spin-calibrated effective cores: the speed-up of 4 spinning threads over
/// one, each doing the same fixed work. hardware_concurrency() reports the
/// cpuset, not what the host scheduler actually grants.
double EffectiveCores();

/// "parallelism: client_threads=… server_workers=… fanout_pool=…
/// index_threads=… hardware_concurrency=… effective_cores=…" — the record
/// every run prints. server_workers=0: requests run inline on the client.
std::string ParallelismRecord(int clients, int server_workers,
                              int fanout_pool, int index_threads);

/// Reference kernel time on an unloaded core of the machine the bounds
/// were measured on, ms. Scaled times read as times at this speed.
inline constexpr double kNominalReferenceMs = 3.0;

/// Median of three runs of the reference kernel: a fixed piece of string
/// hashing, hash-map updates and a sort that does not touch the program
/// under test, ms.
///
/// The host this benchmark runs on is shared. The same code runs up to a
/// third slower, in wall and in CPU time alike, when neighbours load the
/// physical cores, and the reference kernel slows with it. Timed metrics are
/// therefore scaled by kNominalReferenceMs / (the kernel's time around the
/// measurement): a change to the program moves them, a change in the host's
/// load mostly does not. The raw figures are printed beside them.
double ReferenceKernelMs();

/// \brief Set-up times, each scaled by the reference kernel measured just
/// before and just after it.
class SetupClock {
 public:
  template <typename F>
  Status Time(F&& fn) {
    const double before = ReferenceKernelMs();
    Clock::time_point start = Clock::now();
    Status st = fn();
    const double seconds = MsSince(start) / 1000.0;
    const double after = ReferenceKernelMs();
    raw_s.Add(seconds);
    scaled_s.Add(seconds * 2.0 * kNominalReferenceMs / (before + after));
    return st;
  }

  Samples raw_s;
  Samples scaled_s;
};

/// \brief One client's timed phase, cut into windows of about 100 ms with
/// the reference kernel run between them (never inside a request). Each
/// window's times are scaled by the mean kernel time at its two ends.
class PhaseClock {
 public:
  PhaseClock();
  /// Between requests: past the window length, closes the window, runs the
  /// kernel and opens the next.
  void Tick();
  /// Closes the last window; call once when the phase ends.
  void Finish();
  /// One request completed in the current window.
  void Completed() { ++windows_.back().completed; }
  /// A latency sample of the reported request class, ms. Past
  /// kMaxLatencies samples a uniform reservoir keeps kMaxLatencies of them,
  /// so the benchmark's own memory does not grow with the request rate.
  void Latency(double ms);
  static constexpr size_t kMaxLatencies = size_t(1) << 18;

  size_t completed() const;
  /// Completed requests per second of window time (raw and scaled).
  double RawThroughput() const;
  double ScaledThroughput() const;
  Samples RawLatencies() const;
  Samples ScaledLatencies() const;
  /// Median kernel time over the phase, ms.
  double ReferenceMs() const;

 private:
  struct Window {
    Clock::time_point start;
    double kernel_before_ms = 0.0;
    double kernel_after_ms = 0.0;
    double busy_ms = 0.0;
    size_t completed = 0;
    double factor() const {
      return 2.0 * kNominalReferenceMs / (kernel_before_ms + kernel_after_ms);
    }
  };
  void Close();

  std::vector<Window> windows_;
  std::vector<std::pair<double, size_t>> latencies_;
  uint64_t latencies_seen_ = 0;
  uint64_t reservoir_state_ = 0x9E3779B97F4A7C15ULL;
};

/// The six end-to-end metrics every workload reports. Set-up and timed
/// phase are scaled as above; with several clients their throughputs add
/// up and their latencies pool. `rss_mb` is the peak RSS once set-up and
/// warm-up are done: the serving state, not the growth of a timed phase
/// whose length in requests depends on the machine's speed. The raw
/// figures, the end-of-run peak RSS and the kernel times go to context
/// lines; `what` names the request the latencies belong to.
void AddEndToEnd(const SetupClock& setup, double rss_mb,
                 const std::vector<const PhaseClock*>& clients,
                 double match_share, const std::string& what,
                 RunResult* result);

/// Adds the reconciliation of a traced run: the measured request time
/// against the sum of the independently timed layer calls along its
/// blocking steps. Names `enclosing_layer` when the gap exceeds
/// `tolerance` (a share of the measured time).
void AddReconciliation(double measured_ms, double layers_ms,
                       const std::string& enclosing_layer, double tolerance,
                       RunResult* result);

}  // namespace perfbench
}  // namespace dwqa

#endif  // DWQA_PERFBENCH_HARNESS_H_
