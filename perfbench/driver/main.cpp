// perfbench — the end-to-end benchmark driver.
//
//   perfbench --workload campaign_sweep|profile_flow|serve_mix --seed N
//             --seconds S --trace 0|1 [--bench-dir DIR] [--work-dir DIR]
//             [--pin] [--capacity]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports per-layer self times, counts and the
// tracing overhead. The last line of stdout is the result object. --pin
// prints the "pin ..." lines of pinned/seed1.txt for the given seed;
// --capacity (serve_mix) measures closed-loop capacity instead.
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        a.workload = value();
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.trace = value() != "0";
      } else if (arg == "--bench-dir") {
        a.bench_dir = value();
      } else if (arg == "--work-dir") {
        a.work_dir = value();
      } else if (arg == "--pin") {
        a.pin = true;
      } else if (arg == "--capacity") {
        a.capacity = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    std::filesystem::create_directories(a.work_dir);
    if (a.workload == "campaign_sweep") return run_campaign_sweep(a);
    if (a.workload == "profile_flow") return run_profile_flow(a);
    if (a.workload == "serve_mix") return run_serve_mix(a);
    throw std::invalid_argument("unknown workload '" + a.workload +
                                "' (campaign_sweep, profile_flow, serve_mix)");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
