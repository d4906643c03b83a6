// profile_flow: the paper's loop on the native backend, single-threaded and
// closed-loop. Each scenario simulates TUTMAC for 10-30 ms under one of
// three mappings and one of three fault plans, keeps its log, renders it,
// and builds the Table 4 profiling report and the latency report from it.
// Per-event cost dominates: kernel, generated native step, HIBI routing
// with retries and failover. Set-up includes emitting, compiling and
// loading the native image into an empty cache directory.
#include <filesystem>
#include <iostream>
#include <sstream>
#include <unistd.h>

#include "codegen/native.hpp"
#include "common.hpp"
#include "profiler/profiler.hpp"

namespace perfbench {

namespace {

namespace codegen = tut::codegen;
namespace profiler = tut::profiler;

constexpr std::uint64_t kDistinct = 1'000;  // scenarios before the set repeats
const char* const kMappings[] = {"paper", "loadBalanced", "singlePe"};

struct ScenarioParams {
  std::uint32_t mapping = 0;
  std::uint32_t plan = 0;
  sim::Config config;
};

/// Distinct scenario j: mapping j % 3, fault plan j / 3 % 3 (none, 2% bit
/// errors on every HIBI segment, processor1 failing for the second quarter
/// of the horizon), a seeded fault seed.
ScenarioParams scenario(std::uint64_t seed, std::uint64_t j) {
  ScenarioParams s;
  s.mapping = static_cast<std::uint32_t>(j % 3);
  s.plan = static_cast<std::uint32_t>(j / 3 % 3);
  // Each block of nine (every mapping x plan) shares one horizon; blocks
  // cycle through 10-30 ms, so every seed has the same horizon mix.
  const sim::Time horizon = 10'000'000 + 5'000'000 * ((j / 9 + seed) % 5);
  s.config.horizon = horizon;
  sim::FaultPlan& f = s.config.faults;
  if (s.plan == 1) {
    f.bit_errors = {{"hibisegment1", 20'000}, {"hibisegment2", 20'000},
                    {"bridge", 20'000}};
  } else if (s.plan == 2) {
    f.pe_faults = {{"processor1", horizon / 4, horizon / 2}};
  }
  f.seed = mix(seed, j, 2);
  return s;
}

struct Model {
  FrontEnd fe;
  std::vector<Stream> streams;
  std::vector<BoundStream> bound;
  profiler::ProcessGroupInfo groups;
  std::shared_ptr<const codegen::NativeImage> native;
};

struct Outcome {
  std::uint64_t log_hash = 0;
  std::uint64_t report_hash = 0;
  std::uint64_t log_bytes = 0;
  SimStats stats;
};

/// One scenario of the flow over `sim` (already configured).
Outcome run_one(sim::Simulation& simulation, const Model& m, std::uint64_t id) {
  {
    Scope s("sim.setup", id);
    inject(simulation, m.bound);
  }
  {
    Scope s("sim.run", id);
    simulation.run();
  }
  std::string text;
  {
    Scope s("log.render", id);
    text = simulation.log().to_text();
  }
  std::string report;
  {
    Scope s("profiler.analyze", id);
    report = profiler::analyze(m.groups, simulation.log()).to_text();
  }
  std::string latency;
  {
    Scope s("profiler.latency", id);
    latency = profiler::latency_to_text(profiler::latency_report(simulation.log()));
  }
  Outcome o;
  o.log_hash = hash_text(text);
  o.report_hash = hash_text(latency, hash_text(report));
  o.log_bytes = text.size();
  o.stats = stats_of(simulation);
  return o;
}

struct Window {
  std::uint64_t ops = 0;
  double wall_s = 0;
  std::uint64_t mode_ops[2] = {0, 0};  // untraced, traced slices
  double mode_s[2] = {0, 0};
  std::vector<double> latency_us;
  std::vector<Outcome> first;         // first pass over the distinct set
  std::vector<std::uint32_t> passes;  // runs of each distinct scenario
  std::uint64_t repeat_mismatch = 0;  // later passes unlike the first
  SimStats sum;                       // over every op
  std::uint64_t log_bytes = 0;
};

/// Runs scenarios until `seconds` have passed and every distinct one ran.
/// With `alternate`, tracing toggles every kSliceNs: the host's speed drifts
/// over tens of seconds, so interleaving keeps the two sides comparable.
constexpr std::int64_t kSliceNs = 500'000'000;

Window run_window(const std::vector<Model>& models, std::uint64_t seed,
                  double seconds, bool alternate) {
  Window w;
  w.first.resize(kDistinct);
  w.passes.assign(kDistinct, 0);
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  bool traced = false;
  std::int64_t slice_start = t0;
  for (std::uint64_t k = 0; now_ns() < deadline || k < kDistinct; ++k) {
    if (alternate && now_ns() - slice_start >= kSliceNs) {
      const std::int64_t t = now_ns();
      w.mode_s[traced] += static_cast<double>(t - slice_start) / 1e9;
      traced = !traced;
      Trace::enable(traced);
      slice_start = t;
    }
    ++w.mode_ops[traced];
    const std::uint64_t j = k % kDistinct;
    const ScenarioParams sp = scenario(seed, j);
    const Model& m = models[sp.mapping];
    const std::int64_t start = now_ns();
    Outcome o;
    {
      Scope op("scenario", k);
      std::unique_ptr<sim::Simulation> simulation;
      {
        Scope s("sim.reset", k);
        simulation = std::make_unique<sim::Simulation>(m.native, sp.config);
      }
      o = run_one(*simulation, m, k);
    }
    w.latency_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    if (w.passes[j]++ == 0) {
      w.first[j] = o;
    } else if (o.log_hash != w.first[j].log_hash ||
               o.report_hash != w.first[j].report_hash) {
      ++w.repeat_mismatch;
    }
    w.sum.events += o.stats.events;
    w.sum.pe_steps += o.stats.pe_steps;
    w.sum.seg_transfers += o.stats.seg_transfers;
    w.sum.retries += o.stats.retries;
    w.sum.records += o.stats.records;
    w.log_bytes += o.log_bytes;
    ++w.ops;
  }
  const std::int64_t t1 = now_ns();
  w.mode_s[traced] += static_cast<double>(t1 - slice_start) / 1e9;
  Trace::enable(false);
  w.wall_s = static_cast<double>(t1 - t0) / 1e9;
  return w;
}

}  // namespace

int run_profile_flow(const Args& a) {
  std::vector<TutmacInput> inputs;
  for (const char* m : kMappings) {
    inputs.push_back(tutmac_input(m, 100'000, 1'000'000, 2'000'000));
  }
  std::cout << "profile_flow: seed " << a.seed
            << ", native backend, 1 thread, closed loop, " << kDistinct
            << " distinct scenarios\n";

  // Set-up: front end, native emit + compile + load into an empty cache
  // directory, profiler group info. Three times; median reported.
  std::vector<Model> models;
  std::vector<double> setup_s;
  std::vector<double> emit_us;
  std::vector<double> cc_s;
  std::size_t source_bytes = 0;
  Trace::enable(a.trace);  // the traced run also covers set-up
  for (int rep = 0; rep < 3; ++rep) {
    const std::string cache = a.work_dir + "/native-" + std::to_string(getpid()) +
                              "-" + std::to_string(rep);
    std::filesystem::remove_all(cache);
    std::filesystem::create_directories(cache);
    if (a.trace) {
      // Emission alone, outside the timed set-up (build emits again).
      const FrontEnd fe = load_model(inputs[0].xml);
      const std::int64_t t0 = now_ns();
      source_bytes = codegen::emit_native(*fe.compiled).code.size();
      emit_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    models.clear();
    const std::int64_t t0 = now_ns();
    double build_s = 0;
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      Model model;
      model.fe = load_model(inputs[m].xml, m);
      model.streams = inputs[m].streams;
      codegen::NativeOptions opt;
      opt.cache_dir = cache;
      const std::int64_t b0 = now_ns();
      {
        Scope s("codegen.build", m);
        model.native = codegen::NativeImage::build(model.fe.compiled, opt);
      }
      build_s += static_cast<double>(now_ns() - b0) / 1e9;
      model.groups = profiler::ProcessGroupInfo::from_model(*model.fe.model);
      models.push_back(std::move(model));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    cc_s.push_back(build_s - (emit_us.empty() ? 0 : emit_us.back() / 1e6));
    std::filesystem::remove_all(cache);  // the loaded images stay mapped
  }
  for (Model& m : models) m.bound = bind_streams(*m.fe.model, m.streams);

  Result r;
  std::map<std::string, double> layers;
  Trace::enable(false);
  const Window w = run_window(models, a.seed, a.seconds, a.trace);
  if (a.trace) {
    const double untraced = w.mode_ops[0] / w.mode_s[0];
    const double traced = w.mode_ops[1] / w.mode_s[1];
    layers["trace.throughput_untraced"] = untraced;
    layers["trace.throughput_traced"] = traced;
    layers["trace.overhead_pct"] = (untraced / traced - 1) * 100;
    const auto t = Trace::totals();
    for (const char* name :
         {"sim.reset", "sim.setup", "sim.run", "log.render", "profiler.analyze",
          "profiler.latency", "uml.from_xml", "mapping.view", "sim.compile",
          "analysis.lint"}) {
      layers[std::string(name) + "_us"] = span_us(t, name);
    }
    const double n = static_cast<double>(w.ops);
    layers["sim.events"] = w.sum.events / n;
    layers["sim.records"] = w.sum.records / n;
    layers["log.bytes"] = w.log_bytes / n;
    layers["sim.pe_steps"] = w.sum.pe_steps / n;
    layers["sim.seg_transfers"] = w.sum.seg_transfers / n;
    layers["sim.retries"] = w.sum.retries / n;
    layers["sim.run_ns_per_event"] = t.at("sim.run").self_ns / w.sum.events;
    layers["codegen.emit_us"] = median_of(emit_us);
    layers["codegen.source_bytes"] = static_cast<double>(source_bytes);
    layers["codegen.cc_s"] = median_of(cc_s);
    layers["analysis.findings"] = static_cast<double>(models[0].fe.findings);
    const std::string path = a.work_dir + "/trace-profile_flow.json";
    if (!Trace::dump(path)) std::cout << "could not write " << path << '\n';
    std::cout << "spans written to " << path << '\n';
  }

  // Interpreter reference through sim::Simulation, after the window.
  std::vector<Outcome> ref(kDistinct);
  Fingerprint fp;
  std::uint64_t records = 0;
  for (std::uint64_t j = 0; j < kDistinct; ++j) {
    const ScenarioParams sp = scenario(a.seed, j);
    sim::Simulation simulation(models[sp.mapping].fe.compiled, sp.config);
    ref[j] = run_one(simulation, models[sp.mapping], j);
    records += ref[j].stats.records;
    fp.add(ref[j].stats);
  }
  const Pinned pinned(a.bench_dir);
  r.attempted = w.ops;
  std::uint64_t bad = w.repeat_mismatch;
  std::uint64_t pin_mismatch = 0;
  for (std::uint64_t j = 0; j < kDistinct; ++j) {
    const std::string line = hex(ref[j].log_hash) + " " + hex(ref[j].report_hash);
    const std::string key = "profile_flow." + std::to_string(j);
    bool pin_ok = true;
    if (a.pin) {
      std::cout << "pin " << key << ' ' << line << '\n';
    } else if (a.seed == kDefaultSeed && pinned.get(key) != line) {
      pin_ok = false;
      ++pin_mismatch;
    }
    if (!pin_ok || w.first[j].log_hash != ref[j].log_hash ||
        w.first[j].report_hash != ref[j].report_hash) {
      bad += w.passes[j];
    }
  }
  if (pin_mismatch != 0) {
    std::cout << pin_mismatch << " reference scenarios differ from pinned/seed1.txt\n";
  }
  if (bad != 0) r.fail(bad, "scenario log or report digests differ");
  check_fingerprint(r, a, pinned, "profile_flow", fp);

  std::cout << "scenarios: " << w.ops << ", wall " << w.wall_s << " s, "
            << records / kDistinct << " log records per reference scenario\n";
  const Latency lat = summarize(w.latency_us, "scenario latency");
  std::cout << "failed_ratio: " << static_cast<double>(r.failed) / r.attempted
            << " (" << r.failed << "/" << r.attempted << ")\n"
            << "slo_miss_ratio: not applicable (closed loop)\n";
  if (!a.trace) {
    r.add("setup_s", median_of(setup_s), "s");
    r.add("throughput", w.ops / w.wall_s, "1/s");
    r.add("latency_p50_us", lat.p50, "us");
    r.add("latency_p99_us", lat.p99, "us");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (const Metric& m : r.metrics) {
      std::cout << "metric " << m.name << " = " << m.value << ' ' << m.unit << '\n';
    }
  } else {
    add_layers(r, layers);
  }
  if (a.pin) return 0;
  print_result(r);
  return 0;
}

}  // namespace perfbench
