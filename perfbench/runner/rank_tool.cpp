// perfbench_rank: the runner's nearest-rank percentile rule (nearest_rank
// in common.hpp) applied to samples read from stdin, so the tests in
// test_benchstats.py exercise the C++ code every latency figure comes from.
//
//   echo "90 5 1 3" | perfbench_rank      # prints 5
//
// Each input line is `p v1 v2 ... vn`. Each output line is the p-th
// nearest-rank percentile of v1..vn, printed so it reads back exactly, or
// `error: <why>` when nearest_rank refuses the input.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

int main() {
  std::cout << std::setprecision(17);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream fields(line);
    double p = 0.0;
    if (!(fields >> p)) {
      std::cerr << "perfbench_rank: expected `p v1 v2 ...`, got: " << line << "\n";
      return 2;
    }
    std::vector<double> samples;
    for (double value = 0.0; fields >> value;) samples.push_back(value);
    try {
      std::cout << perfbench::nearest_rank(samples, p) << "\n";
    } catch (const std::invalid_argument& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  return 0;
}
