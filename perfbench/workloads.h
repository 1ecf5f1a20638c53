// The three workloads of the dwqa benchmark. Each builds its inputs from
// the seed, sets the program up, warms it, runs a closed loop for the
// requested seconds and checks every answer it gets.

#ifndef DWQA_PERFBENCH_WORKLOADS_H_
#define DWQA_PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace dwqa {
namespace perfbench {

RunResult RunQaLive(const Options& options);
RunResult RunServeHot(const Options& options);
RunResult RunDwFeedBi(const Options& options);

}  // namespace perfbench
}  // namespace dwqa

#endif  // DWQA_PERFBENCH_WORKLOADS_H_
