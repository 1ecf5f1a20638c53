#ifndef DWQA_BENCH_BENCH_UTIL_H_
#define DWQA_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "qa/structured.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace bench {

/// Wall-clock helper.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Spin-calibrated effective parallelism: the speed-up of `threads`
/// threads over one, each spinning through the same fixed integer work.
/// hardware_concurrency() reports the cpuset, not what the host scheduler
/// actually grants, so an "on N-core hardware" gate reads this instead.
inline double EffectiveCores(int threads) {
  const uint64_t kIterations = 20'000'000;
  std::atomic<uint64_t> sink{0};
  auto wall_ms = [&sink, kIterations](int n) {
    Timer timer;
    std::vector<std::thread> spinners;
    for (int t = 0; t < n; ++t) {
      spinners.emplace_back([&sink, kIterations] {
        uint64_t x = 0x12345678;
        for (uint64_t i = 0; i < kIterations; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sink += x;  // Keeps the loop observable.
      });
    }
    for (std::thread& t : spinners) t.join();
    return timer.ElapsedMs();
  };
  double one = wall_ms(1);
  double many = wall_ms(threads);
  return many <= 0.0 ? 0.0 : threads * one / many;
}

/// Per-tuple correctness of one extracted temperature fact against the
/// synthetic-web ground truth.
struct TupleCheck {
  bool location_known = false;  ///< (city, date) exists in the truth.
  bool value_ok = false;        ///< value matches mean (or high/low).
  bool unit_known = false;      ///< ºC or F associated.
  bool date_complete = false;

  /// The paper-level notion of a correct database row: right value, with
  /// its unit, for a real (city, date).
  bool FullyCorrect() const {
    return location_known && value_ok && unit_known && date_complete;
  }
};

/// Checks one structured fact. `accept_high_low` widens the accept set to
/// the table pages' published high/low values (mean ± 3).
inline TupleCheck CheckTemperatureFact(const web::GroundTruth& truth,
                                       const qa::StructuredFact& fact,
                                       bool accept_high_low) {
  TupleCheck check;
  check.unit_known = !fact.unit.empty();
  check.date_complete = fact.date.has_value();
  if (!fact.date.has_value()) return check;
  auto it = truth.temperature.find(
      {ToLower(fact.location), fact.date->ToIsoString()});
  if (it == truth.temperature.end()) return check;
  check.location_known = true;
  double celsius =
      fact.unit == "F" ? (fact.value - 32.0) * 5.0 / 9.0 : fact.value;
  double mean = it->second;
  check.value_ok = std::abs(celsius - mean) < 0.76;
  if (accept_high_low && !check.value_ok) {
    check.value_ok = std::abs(celsius - (mean + 3.0)) < 0.76 ||
                     std::abs(celsius - (mean - 3.0)) < 0.76;
  }
  return check;
}

/// Percentage rendering for the report tables.
inline std::string Pct(size_t num, size_t den) {
  if (den == 0) return "n/a";
  return FormatDouble(100.0 * double(num) / double(den), 1) + "%";
}

}  // namespace bench
}  // namespace dwqa

#endif  // DWQA_BENCH_BENCH_UTIL_H_
