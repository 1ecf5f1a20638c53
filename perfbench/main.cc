// dwqa_perfbench — one run of one workload of the dwqa benchmark.
//
//   dwqa_perfbench --workload qa_live|serve_hot|dw_feed_bi --seed N
//                  --seconds S --trace 0|1
//
// Prints context lines, then as its last line one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value,
// unit}}}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. Exits 1 when any answer fails its check,
// 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "perfbench/workloads.h"

using namespace dwqa::perfbench;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dwqa_perfbench: %s\nusage: dwqa_perfbench --workload "
               "qa_live|serve_hot|dw_feed_bi --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");

  dwqa::Logger::set_threshold(dwqa::LogLevel::kWarning);
  RunResult result;
  if (options.workload == "qa_live") {
    result = RunQaLive(options);
  } else if (options.workload == "serve_hot") {
    result = RunServeHot(options);
  } else if (options.workload == "dw_feed_bi") {
    result = RunDwFeedBi(options);
  } else {
    return Usage("unknown workload");
  }
  if (result.attempted == 0) result.Mismatch("no request completed");

  for (const std::string& line : result.context) std::cout << line << "\n";
  for (const std::string& line : result.mismatches) {
    std::cerr << "MISMATCH: " << line << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << JsonNumber(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
