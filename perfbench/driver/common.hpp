// Shared pieces of the three workloads: command-line arguments, the model
// front end with its spans, environment streams, simulated-statistics
// fingerprints, pinned expectations and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mapping/mapping.hpp"
#include "sim/campaign.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "uml/model.hpp"

namespace perfbench {

namespace mapping = tut::mapping;
namespace sim = tut::sim;
namespace uml = tut::uml;

/// The seed whose outputs are pinned in pinned/seed1.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string bench_dir = "perfbench";           ///< holds pinned/
  std::string work_dir = ".bench_build/perfbench/work";  ///< scratch output
  bool pin = false;       ///< print pinned lines for this seed instead
  bool capacity = false;  ///< serve_mix: closed-loop capacity probe
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports: the result line's fields. `correct` is
/// false on any mismatch.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check with a reason on stdout.
  void fail(std::uint64_t count, const std::string& why);
};

/// Prints the result line (the last line of stdout).
void print_result(const Result& r);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// The model front end: parse, lint, system view and lowering, each under
/// its own span.
struct FrontEnd {
  std::unique_ptr<uml::Model> model;
  std::unique_ptr<mapping::SystemView> view;
  std::shared_ptr<const sim::CompiledModel> compiled;
  std::size_t findings = 0;  ///< lint diagnostics
};
FrontEnd load_model(std::string_view xml, std::uint64_t id = 0);

/// One periodic environment stream: first occurrence at period + offset,
/// then every period up to the horizon (the arithmetic of
/// tutmac::System::inject_workload and of served workloads).
struct Stream {
  std::string port;
  std::string signal;
  std::string param;  ///< campaign axis that overrides the period
  sim::Time period = 0;
  sim::Time offset = 0;
  std::vector<long> args;
};
/// A stream with its signal resolved in one parsed model.
struct BoundStream {
  const Stream* stream = nullptr;
  const uml::Signal* signal = nullptr;
};
/// Resolves every stream's signal by name; throws when one is missing.
std::vector<BoundStream> bind_streams(const uml::Model& model,
                              const std::vector<Stream>& streams);
/// Injects the streams up to the simulation's horizon. A scenario's free
/// axis named by Stream::param overrides that stream's period.
void inject(sim::Simulation& sim, const std::vector<BoundStream>& streams,
            const sim::Scenario* scenario = nullptr);

/// TUTMAC model XML for one mapping, and its three environment streams.
struct TutmacInput {
  std::string xml;
  std::vector<Stream> streams;
};
/// `mapping` is "paper", "loadBalanced" or "singlePe".
TutmacInput tutmac_input(const std::string& mapping, sim::Time slot_period,
                         sim::Time rx_period, sim::Time msdu_period);

/// Simulated statistics of one finished run.
struct SimStats {
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  std::uint64_t pe_steps = 0;
  std::uint64_t seg_grants = 0;
  std::uint64_t seg_transfers = 0;
  std::uint64_t seg_wait = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;
  std::uint64_t makespan = 0;
};
SimStats stats_of(const sim::Simulation& sim);

/// Sum of SimStats over a set of runs plus makespan p50/p99: identical
/// across runs of one seed and across host-speed-only changes.
class Fingerprint {
 public:
  void add(const SimStats& s, std::uint64_t times = 1);
  std::string text() const;

 private:
  SimStats sum_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> makespans_;  // value, n
};

/// Expectations pinned for the default seed: "key value..." lines.
class Pinned {
 public:
  /// Loads <bench_dir>/pinned/seed1.txt. Missing file: empty.
  explicit Pinned(const std::string& bench_dir);
  /// The rest of the line starting with `key ` ("" when absent).
  std::string get(const std::string& key) const;

 private:
  std::map<std::string, std::string> lines_;
};

/// Checks a fingerprint: always printed; compared with the pinned one on
/// the default seed.
void check_fingerprint(Result& r, const Args& a, const Pinned& pinned,
                       const std::string& workload, const Fingerprint& fp);

std::string hex(std::uint64_t v);

/// The percentiles the workloads report, printed with their sample count.
struct Latency {
  double p50 = 0;
  double p99 = 0;
  std::size_t n = 0;
};
Latency summarize(std::vector<double> samples_us, const std::string& what);

/// Mean self time per span name, or 0 when the name never occurred.
double span_us(const std::map<std::string, SpanTotals>& t,
               const std::string& name);

/// Every per-layer metric name with its unit, in report order. A workload
/// sets the values its path measures; the rest are reported as 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();
void add_layers(Result& r, const std::map<std::string, double>& values);

int run_campaign_sweep(const Args& a);
int run_profile_flow(const Args& a);
int run_serve_mix(const Args& a);

}  // namespace perfbench
