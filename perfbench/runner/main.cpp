// perfbench_runner: one benchmark run of one workload.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --reference DIR
//
// Prints a context line and, last, the result line run.py checks and
// passes on. Exit code 0 once a result is printed (correct or not), 1 when
// the run could not complete, 2 on a usage error.
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1"
               " --reference DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--reference") {
        options.reference_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.reference_dir.empty()) return usage();

  try {
    perfbench::Result result = options.workload.rfind("campaign-", 0) == 0
                                   ? perfbench::run_campaign_workload(options)
                                   : perfbench::run_license_workload(options);
    result.note("workload", options.workload);
    result.note("seed", static_cast<double>(options.seed));
    result.note("seconds", options.seconds);
    result.note("trace", options.trace ? 1.0 : 0.0);
    result.note("hardware_concurrency", static_cast<double>(std::thread::hardware_concurrency()));
    result.note("build_type", PERFBENCH_BUILD_TYPE);
    result.note("compiler", PERFBENCH_COMPILER);
    perfbench::print_result(result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
