#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"

namespace dwqa {
namespace perfbench {

namespace {

/// About 3 ms of string hashing, hash-map updates and a sort on an
/// unloaded core.
double KernelOnceMs() {
  static const std::vector<std::string> words = [] {
    std::vector<std::string> out;
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      out.push_back("w" + std::to_string(x % 1000003) + "-" +
                    std::to_string(i % 97));
    }
    return out;
  }();
  Clock::time_point start = Clock::now();
  std::unordered_map<std::string, int> counts;
  uint64_t x = 2463534242ULL;
  for (int i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ++counts[words[x % words.size()]];
  }
  std::vector<double> values(20000);
  for (size_t i = 0; i < values.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values[i] = double(x % 100000) + double(counts.size());
  }
  std::sort(values.begin(), values.end());
  double ms = MsSince(start);
  return values[values.size() / 2] < 0 ? ms + 1 : ms;
}

}  // namespace

double ReferenceKernelMs() {
  Samples runs;
  for (int i = 0; i < 3; ++i) runs.Add(KernelOnceMs());
  return runs.Median();
}

PhaseClock::PhaseClock() {
  windows_.emplace_back();
  windows_.back().kernel_before_ms = ReferenceKernelMs();
  windows_.back().start = Clock::now();
}

void PhaseClock::Close() {
  Window& w = windows_.back();
  w.busy_ms = MsSince(w.start);
  w.kernel_after_ms = ReferenceKernelMs();
}

void PhaseClock::Tick() {
  if (MsSince(windows_.back().start) < 100.0) return;
  Close();
  Window next;
  next.kernel_before_ms = windows_.back().kernel_after_ms;
  windows_.push_back(next);
  windows_.back().start = Clock::now();
}

void PhaseClock::Finish() { Close(); }

void PhaseClock::Latency(double ms) {
  std::pair<double, size_t> sample{ms, windows_.size() - 1};
  ++latencies_seen_;
  if (latencies_.size() < kMaxLatencies) {
    latencies_.push_back(sample);
    return;
  }
  reservoir_state_ ^= reservoir_state_ << 13;
  reservoir_state_ ^= reservoir_state_ >> 7;
  reservoir_state_ ^= reservoir_state_ << 17;
  uint64_t slot = reservoir_state_ % latencies_seen_;
  if (slot < kMaxLatencies) latencies_[slot] = sample;
}

size_t PhaseClock::completed() const {
  size_t n = 0;
  for (const Window& w : windows_) n += w.completed;
  return n;
}

double PhaseClock::RawThroughput() const {
  double ms = 0.0;
  for (const Window& w : windows_) ms += w.busy_ms;
  return ms > 0.0 ? double(completed()) * 1000.0 / ms : 0.0;
}

double PhaseClock::ScaledThroughput() const {
  double ms = 0.0;
  for (const Window& w : windows_) ms += w.busy_ms * w.factor();
  return ms > 0.0 ? double(completed()) * 1000.0 / ms : 0.0;
}

Samples PhaseClock::RawLatencies() const {
  Samples out;
  for (const auto& [ms, window] : latencies_) out.Add(ms);
  return out;
}

Samples PhaseClock::ScaledLatencies() const {
  Samples out;
  for (const auto& [ms, window] : latencies_) {
    out.Add(ms * windows_[window].factor());
  }
  return out;
}

double PhaseClock::ReferenceMs() const {
  Samples kernel;
  for (const Window& w : windows_) kernel.Add(w.kernel_before_ms);
  return kernel.Median();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / double(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * double(sorted.size() - 1);
  size_t lo = size_t(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - double(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Samples::Tail Samples::TailPercentile() const {
  static const std::pair<double, const char*> kLevels[] = {
      {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"},
      {0.50, "p50"}};
  Tail tail;
  for (const auto& [q, label] : kLevels) {
    size_t beyond = size_t(std::floor(double(values_.size()) * (1.0 - q)));
    if (beyond >= 10 || q == 0.50) {
      tail.value = Quantile(q);
      tail.label = label;
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

void RunResult::Mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 10) mismatches.push_back(what);
}

void LayerProfile::Merge(const LayerProfile& other) {
  for (const auto& [name, samples] : other.samples_) {
    samples_[name].Append(samples);
  }
  for (const auto& [name, value] : other.counts_) counts_[name] += value;
}

double LayerProfile::Median(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : it->second.Median();
}

double LayerProfile::count(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

// --- MemFs ------------------------------------------------------------------

namespace {

std::string Parent(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

}  // namespace

Result<std::string> MemFs::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file " + path);
  return it->second;
}

Status MemFs::WriteFile(const std::string& path, const std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = data;
  return Status::OK();
}

Status MemFs::AppendFile(const std::string& path, const std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] += data;
  return Status::OK();
}

Status MemFs::SyncFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(path) == 0) return Status::NotFound("no file " + path);
  return Status::OK();
}

Status MemFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no file " + from);
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

Status MemFs::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
  return Status::OK();
}

Status MemFs::RemoveAll(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = path + "/";
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first == path || it->first.rfind(prefix, 0) == 0) {
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = dirs_.begin(); it != dirs_.end();) {
    if (it->first == path || it->first.rfind(prefix, 0) == 0) {
      it = dirs_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status MemFs::CreateDirs(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::string dir = path; !dir.empty(); dir = Parent(dir)) {
    dirs_[dir] = true;
  }
  return Status::OK();
}

bool MemFs::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

Result<std::vector<std::string>> MemFs::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) == 0) return Status::NotFound("no directory " + dir);
  std::vector<std::string> names;
  auto collect = [&](const std::string& path) {
    if (Parent(path) == dir) names.push_back(path.substr(dir.size() + 1));
  };
  for (const auto& [path, data] : files_) collect(path);
  for (const auto& [path, present] : dirs_) collect(path);
  std::sort(names.begin(), names.end());
  return names;
}

Result<uint64_t> MemFs::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file " + path);
  return uint64_t(it->second.size());
}

Status MemFs::TruncateFile(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file " + path);
  if (size < it->second.size()) it->second.resize(size);
  return Status::OK();
}


// --- Inputs -----------------------------------------------------------------

MultiYearWeb BuildMultiYearWeb(uint64_t seed, int first_year, int years) {
  MultiYearWeb out;
  for (int y = 0; y < years; ++y) {
    web::WebConfig config;
    config.year = first_year + y;
    config.seed = WebSeed(seed);
    config.months = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    const bool first = y == 0;
    config.encyclopedia = first;
    config.noise_pages = first ? config.noise_pages : 0;
    config.price_pages = first ? config.price_pages : 0;
    auto built = web::SyntheticWeb::Build(config);
    if (!built.ok()) continue;
    web::SyntheticWeb year_web = std::move(built).ValueOrDie();
    for (const web::GoldQuestion& g :
         web::QuestionFactory::WeatherQuestions(year_web)) {
      out.weather_questions.push_back(g);
    }
    for (const auto& entry : year_web.truth().temperature) {
      out.truth.temperature.insert(entry);
    }
    for (const auto& entry : year_web.truth().fare_eur) {
      out.truth.fare_eur.insert(entry);
    }
    out.years.push_back(std::move(year_web));
  }
  return out;
}

WeatherPages BuildWeatherPages(uint64_t seed, int year,
                               const std::vector<std::string>& cities,
                               const std::vector<int>& months) {
  WeatherPages out;
  web::WebConfig config;
  config.seed = WebSeed(seed);
  config.year = year;
  config.cities = cities;
  config.months = months;
  config.encyclopedia = false;
  config.noise_pages = 0;
  config.price_pages = 0;
  auto built = web::SyntheticWeb::Build(config);
  if (!built.ok()) return out;
  out.pages = built->documents().documents();
  out.questions = web::QuestionFactory::WeatherQuestions(*built);
  out.truth = built->truth();
  return out;
}

void CopyDocuments(const MultiYearWeb& web, ir::DocumentStore* store) {
  for (const web::SyntheticWeb& year : web.years) {
    for (const ir::Document& doc : year.documents().documents()) {
      store->Add(doc.url, doc.title, doc.format, doc.raw);
    }
  }
}

std::vector<web::GoldQuestion> ClefQuestions(
    const std::vector<web::GoldQuestion>& weather) {
  std::vector<web::GoldQuestion> clef =
      web::QuestionFactory::ClefStyleQuestions();
  for (web::GoldQuestion& q : clef) {
    if (!q.gold.empty() || q.gold_value != web::GoldQuestion::kNoGoldValue) {
      continue;
    }
    for (const web::GoldQuestion& w : weather) {
      if (w.question == q.question) q.gold = w.gold;
    }
  }
  return clef;
}

// --- Machine record ---------------------------------------------------------

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

namespace {

/// A fixed amount of integer work the optimizer cannot drop.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x12345678;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double SpinWallMs(int threads, uint64_t iterations) {
  std::atomic<uint64_t> sink{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, iterations]() { sink += Spin(iterations); });
  }
  for (std::thread& t : pool) t.join();
  double ms = MsSince(start);
  return sink.load() == 42 ? ms + 1e-9 : ms;
}

}  // namespace

double EffectiveCores() {
  const uint64_t kIterations = 20'000'000;
  const int kThreads = 4;
  double one = SpinWallMs(1, kIterations);
  double many = SpinWallMs(kThreads, kIterations);
  return many <= 0.0 ? 0.0 : kThreads * one / many;
}

std::string ParallelismRecord(int clients, int server_workers,
                              int fanout_pool, int index_threads) {
  std::ostringstream out;
  out << "parallelism: client_threads=" << clients
      << " server_workers=" << server_workers
      << " fanout_pool=" << fanout_pool
      << " index_threads=" << index_threads
      << " hardware_concurrency=" << std::thread::hardware_concurrency()
      << " effective_cores=" << FormatDouble(EffectiveCores(), 2);
  return out.str();
}

void AddEndToEnd(const SetupClock& setup, double rss_mb,
                 const std::vector<const PhaseClock*>& clients,
                 double match_share, const std::string& what,
                 RunResult* result) {
  double raw_throughput = 0.0, scaled_throughput = 0.0;
  Samples raw, scaled, kernel;
  for (const PhaseClock* c : clients) {
    raw_throughput += c->RawThroughput();
    scaled_throughput += c->ScaledThroughput();
    raw.Append(c->RawLatencies());
    scaled.Append(c->ScaledLatencies());
    kernel.Add(c->ReferenceMs());
  }
  Samples::Tail tail = scaled.TailPercentile();
  result->Add("setup_s", setup.scaled_s.Median(), "s");
  result->Add("rss_mb", rss_mb, "MB");
  result->Add("throughput_per_s", scaled_throughput, "1/s");
  result->Add("answer_match_share", match_share, "share");
  result->Add("latency_p50_ms", scaled.Median(), "ms");
  result->Add("latency_tail_ms", tail.value, "ms");
  result->context.push_back(
      "latency: " + what + " samples=" + std::to_string(scaled.size()) +
      " tail=" + tail.label + " (" + std::to_string(tail.beyond) +
      " samples beyond)");
  result->context.push_back(
      "reference kernel: timed phase " + FormatDouble(kernel.Median(), 3) +
      "ms, nominal " + FormatDouble(kNominalReferenceMs, 3) + "ms");
  Samples::Tail raw_tail = raw.TailPercentile();
  result->context.push_back(
      "raw (unscaled): setup_s=" + FormatDouble(setup.raw_s.Median(), 4) +
      " throughput_per_s=" + FormatDouble(raw_throughput, 2) +
      " latency_p50_ms=" + FormatDouble(raw.Median(), 4) +
      " latency_tail_ms=" + FormatDouble(raw_tail.value, 4) +
      " peak_rss_mb_at_end=" + FormatDouble(PeakRssMb(), 1));
}

void AddReconciliation(double measured_ms, double layers_ms,
                       const std::string& enclosing_layer, double tolerance,
                       RunResult* result) {
  const double gap =
      measured_ms <= 0.0 ? 0.0 : (measured_ms - layers_ms) / measured_ms;
  result->Add("trace.unaccounted_share", gap, "share");
  std::string line = "reconciliation: measured=" +
                     FormatDouble(measured_ms, 3) + "ms layers=" +
                     FormatDouble(layers_ms, 3) + "ms unaccounted=" +
                     FormatDouble(gap * 100.0, 1) + "% tolerance=" +
                     FormatDouble(tolerance * 100.0, 0) + "%";
  if (std::abs(gap) > tolerance) {
    line += " -> unaccounted time inside layer '" + enclosing_layer + "'";
  } else {
    line += " -> layers account for the request";
  }
  result->context.push_back(line);
}

}  // namespace perfbench
}  // namespace dwqa
