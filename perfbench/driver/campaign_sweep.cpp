// campaign_sweep: the 100k TUTMAC sweep (25k seeds x 2 slot periods x 2
// mappings, 2 ms each) on the bytecode interpreter with min(4, nproc)
// CampaignRunner workers, repeated as closed batches for the window.
// Per-scenario fixed costs dominate: reset, workload injection, digest and
// the runner's claim/reorder/commit. The front end runs once, in set-up.
#include <algorithm>
#include <iostream>
#include <map>
#include <thread>
#include <tuple>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr sim::Time kHorizon = 2'000'000;
constexpr std::uint64_t kSampleEvery = 64;    // traced spans per scenario
constexpr std::uint64_t kReplaySamples = 2'000;
const char* const kMappings[] = {"paper", "singlePe"};

/// The sweep for a seed. The default seed is examples/campaigns/
/// campaign_tutmac_100k.xml exactly; other seeds move both slot periods by
/// a few percent, which keeps the work per scenario about the same.
std::string campaign_xml(std::uint64_t seed) {
  long slow = 100'000;
  long fast = 50'000;
  if (seed != kDefaultSeed) {
    Rng r(mix(seed, 1));
    fast += 250 * r.range(-6, 6);
    slow += 500 * r.range(-6, 6);
  }
  return "<?xml version=\"1.0\"?>\n<tut:campaign name=\"tutmac-100k\" "
         "mode=\"cartesian\" seed=\"" +
         std::to_string(seed) + "\" horizon=\"" + std::to_string(kHorizon) +
         "\">\n  <axis name=\"seed\" count=\"25000\"/>\n  <axis "
         "name=\"slotPeriod\" values=\"" +
         std::to_string(fast) + " " + std::to_string(slow) +
         "\"/>\n  <axis name=\"mapping\" values=\"paper singlePe\"/>\n"
         "</tut:campaign>\n";
}

struct Inputs {
  std::string campaign;
  std::vector<TutmacInput> models;  // kMappings order
};

/// What the runner borrows; built by set-up.
struct Prepared {
  std::vector<FrontEnd> fes;
  std::vector<std::vector<BoundStream>> streams;
  sim::CampaignSpec spec;
  std::unique_ptr<sim::CampaignRunner> runner;
};

/// Observations written by the runner's callbacks.
struct Probe {
  std::vector<float> cycle_us;     // this sweep, by sampled scenario index
  std::vector<double> latency_us;  // every sweep so far
  std::int64_t last_commit = 0;
};

/// Per-scenario latency is a worker's cycle: from its setup callback to its
/// next one, i.e. reset, injection, run, digest, commit and the next claim.
/// Every kLatencyEvery-th scenario is kept.
constexpr std::uint64_t kLatencyEvery = 8;
thread_local std::int64_t last_setup_ns = 0;

void prepare(Prepared& p, const Inputs& in, Probe& probe) {
  p = Prepared{};
  std::vector<std::shared_ptr<const sim::CompiledModel>> images;
  for (std::size_t m = 0; m < in.models.size(); ++m) {
    p.fes.push_back(load_model(in.models[m].xml, m));
    images.push_back(p.fes.back().compiled);
  }
  for (std::size_t m = 0; m < in.models.size(); ++m) {
    p.streams.push_back(bind_streams(*p.fes[m].model, in.models[m].streams));
  }
  p.spec = sim::CampaignSpec::from_xml_text(in.campaign);
  const auto* streams = &p.streams;
  p.runner = std::make_unique<sim::CampaignRunner>(
      std::move(images),
      [streams, &probe](sim::Simulation& simulation, const sim::Scenario& sc) {
        const std::int64_t t = now_ns();
        if (sc.index % kLatencyEvery == 0 && last_setup_ns != 0) {
          // Each sampled index has its own slot, sized before the sweep.
          probe.cycle_us[sc.index / kLatencyEvery] =
              static_cast<float>(static_cast<double>(t - last_setup_ns) / 1e3);
        }
        last_setup_ns = t;
        inject(simulation, (*streams)[sc.image], &sc);
        if (Trace::enabled() && sc.index % kSampleEvery == 0) {
          Trace::record("sim.setup", t, now_ns(), sc.index);
        }
      });
}

struct Window {
  std::uint64_t scenarios = 0;
  double wall_s = 0;
  std::vector<double> sweep_rate[2];    // scenarios/s per sweep: untraced, traced
  std::vector<std::string> aggregates;  // serialized, per sweep
};

/// Runs whole sweeps until `seconds` have passed (at least one). With
/// `alternate`, every other sweep is traced: the host's speed drifts over
/// tens of seconds, so interleaving keeps the two sides comparable.
Window run_window(const Prepared& p, Probe& probe, std::size_t workers,
                  double seconds, bool alternate) {
  const std::uint64_t total = p.spec.total();
  sim::CampaignOptions options;
  options.threads = workers;
  options.on_summary = [&probe](const sim::ScenarioSummary& s) {
    if (Trace::enabled() && s.index % kSampleEvery == 0) {
      const std::int64_t t = now_ns();
      Trace::record("campaign.commit_gap", probe.last_commit, t, s.index);
      probe.last_commit = t;
    }
  };
  Window w;
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const bool traced = alternate && w.aggregates.size() % 2 == 1;
    Trace::enable(traced);
    probe.cycle_us.assign(total / kLatencyEvery + 1, 0.0f);
    probe.last_commit = now_ns();
    last_setup_ns = 0;  // the calling thread is the worker when workers == 1
    const std::int64_t s0 = now_ns();
    const sim::CampaignResult result = p.runner->run(p.spec, options);
    const double wall = static_cast<double>(now_ns() - s0) / 1e9;
    const std::uint64_t ran = result.next - result.first;
    w.scenarios += ran;
    w.sweep_rate[traced].push_back(static_cast<double>(ran) / wall);
    w.aggregates.push_back(result.aggregate.serialize());
    for (const float v : probe.cycle_us) {
      if (v > 0) probe.latency_us.push_back(v);
    }
  } while (now_ns() < deadline || (alternate && w.aggregates.size() < 2));
  Trace::enable(false);
  w.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return w;
}

/// Interpreter reference through sim::Simulation directly. Without fault
/// plans a scenario's log depends only on its image, slot period and
/// horizon, so each distinct triple runs once.
struct Reference {
  sim::CampaignAggregate aggregate;
  Fingerprint fingerprint;
};

Reference reference(const Prepared& p) {
  using Key = std::tuple<std::uint32_t, long, sim::Time>;
  struct Run {
    sim::ScenarioSummary summary;
    SimStats stats;
    std::uint64_t times = 0;
  };
  std::map<Key, Run> runs;
  Reference ref;
  const std::uint64_t total = p.spec.total();
  for (std::uint64_t i = 0; i < total; ++i) {
    const sim::Scenario sc = p.spec.scenario(i);
    if (!sc.config.faults.empty()) {
      throw std::logic_error("perfbench: campaign reference assumes no faults");
    }
    const Key key{sc.image, sc.param("slotPeriod", 0), sc.config.horizon};
    auto it = runs.find(key);
    if (it == runs.end()) {
      sim::Simulation simulation(p.fes[sc.image].compiled, sc.config);
      inject(simulation, p.streams[sc.image], &sc);
      simulation.run();
      Run run;
      run.stats = stats_of(simulation);
      run.summary.digest = sim::log_digest(simulation.log());
      run.summary.events = run.stats.events;
      run.summary.records = run.stats.records;
      run.summary.makespan = run.stats.makespan;
      run.summary.drops = run.stats.drops;
      run.summary.retries = run.stats.retries;
      run.summary.seg_wait = run.stats.seg_wait;
      run.summary.seg_grants = run.stats.seg_grants;
      it = runs.emplace(key, run).first;
    }
    sim::ScenarioSummary s = it->second.summary;
    s.index = i;
    ++it->second.times;
    ref.aggregate.add(s);
  }
  for (const auto& [key, run] : runs) ref.fingerprint.add(run.stats, run.times);
  return ref;
}

/// Traced replay of a sample of spec.scenario(i) through reset, injection,
/// run and digest on reusable contexts, as the runner's workers do.
std::map<std::string, double> replay_sample(const Prepared& p,
                                            std::uint64_t seed) {
  const std::uint64_t total = p.spec.total();
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / kReplaySamples);
  std::vector<std::unique_ptr<sim::Simulation>> ctxs(p.fes.size());
  std::string scratch;
  std::string text;
  SimStats sum;
  std::uint64_t n = 0;
  std::uint64_t bytes = 0;
  for (std::uint64_t i = mix(seed, 2) % stride; i < total; i += stride) {
    const sim::Scenario sc = p.spec.scenario(i);
    auto& ctx = ctxs[sc.image];
    if (!ctx) ctx = std::make_unique<sim::Simulation>(p.fes[sc.image].compiled, sc.config);
    Scope scenario("scenario", i);
    {
      Scope s("sim.reset", i);
      ctx->reset(sc.config);
    }
    {
      Scope s("sim.setup", i);
      inject(*ctx, p.streams[sc.image], &sc);
    }
    {
      Scope s("sim.run", i);
      ctx->run();
    }
    {
      Scope s("campaign.digest", i);
      sim::log_digest(ctx->log(), scratch);
    }
    {
      Scope s("log.render", i);
      text.clear();
      ctx->log().to_text(text);
    }
    const SimStats st = stats_of(*ctx);
    sum.events += st.events;
    sum.records += st.records;
    sum.pe_steps += st.pe_steps;
    sum.seg_transfers += st.seg_transfers;
    sum.retries += st.retries;
    bytes += text.size();
    ++n;
  }
  const double dn = static_cast<double>(n);
  return {{"sim.events", sum.events / dn},
          {"sim.records", sum.records / dn},
          {"sim.pe_steps", sum.pe_steps / dn},
          {"sim.seg_transfers", sum.seg_transfers / dn},
          {"sim.retries", sum.retries / dn},
          {"log.bytes", bytes / dn},
          {"_events_total", static_cast<double>(sum.events)}};
}

}  // namespace

int run_campaign_sweep(const Args& a) {
  Inputs in;
  in.campaign = campaign_xml(a.seed);
  for (const char* m : kMappings) {
    in.models.push_back(tutmac_input(m, 100'000, 1'000'000, 2'000'000));
  }
  const std::size_t workers =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  std::cout << "campaign_sweep: seed " << a.seed << ", " << workers
            << " interpreter workers, 2 ms TUTMAC scenarios\n";

  // Set-up several times; report the median, keep the last.
  Probe probe;
  Prepared p;
  std::vector<double> setup_s;
  Trace::enable(a.trace);  // the traced run also covers set-up
  for (int i = 0; i < 21; ++i) {
    const std::int64_t t0 = now_ns();
    prepare(p, in, probe);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::uint64_t total = p.spec.total();
  std::cout << "sweep: " << total << " scenarios per batch\n";

  Result r;
  std::map<std::string, double> layers;
  const Window w = run_window(p, probe, workers, a.seconds, a.trace);
  if (a.trace) {
    const double untraced = median_of(w.sweep_rate[0]);
    const double traced = median_of(w.sweep_rate[1]);
    layers["trace.throughput_untraced"] = untraced;
    layers["trace.throughput_traced"] = traced;
    layers["trace.overhead_pct"] = (untraced / traced - 1) * 100;
    Trace::enable(true);
    const std::map<std::string, double> counts = replay_sample(p, a.seed);
    Trace::enable(false);
    const auto t = Trace::totals();
    for (const char* name : {"sim.reset", "sim.setup", "sim.run", "log.render",
                             "uml.from_xml", "mapping.view", "sim.compile",
                             "analysis.lint"}) {
      layers[std::string(name) + "_us"] = span_us(t, name);
    }
    layers["campaign.digest_us"] = span_us(t, "campaign.digest");
    for (const auto& [k, v] : counts) {
      if (k[0] != '_') layers[k] = v;
    }
    const auto run_it = t.find("sim.run");
    layers["sim.run_ns_per_event"] =
        run_it == t.end() ? 0 : run_it->second.self_ns / counts.at("_events_total");
    layers["analysis.findings"] = static_cast<double>(p.fes[0].findings);
    // Useful work per scenario from the replay against the worker time the
    // untraced sweeps had per scenario.
    const double useful = layers["sim.reset_us"] + layers["sim.setup_us"] +
                          layers["sim.run_us"] + layers["campaign.digest_us"];
    const double available = 1e6 * workers / untraced;
    layers["campaign.overhead_us"] = available - useful;
    layers["campaign.parallel_efficiency"] = useful / available;
    const std::string path = a.work_dir + "/trace-campaign_sweep.json";
    if (!Trace::dump(path)) std::cout << "could not write " << path << '\n';
    std::cout << "spans written to " << path << '\n';
  }

  // Output checks, after the timed window.
  const Reference ref = reference(p);
  const Pinned pinned(a.bench_dir);
  const std::string ref_agg = ref.aggregate.serialize();
  std::cout << "aggregate digest " << hex(ref.aggregate.digest)
            << " (interpreter reference through sim::Simulation)\n";
  bool pin_ok = true;
  if (a.pin) {
    std::cout << "pin campaign_sweep.aggregate " << hex(ref.aggregate.digest) << '\n';
  } else if (a.seed == kDefaultSeed &&
             pinned.get("campaign_sweep.aggregate") != hex(ref.aggregate.digest)) {
    pin_ok = false;
    std::cout << "reference aggregate differs from the pinned digest\n";
  }
  // The aggregate folds every scenario's digest and error in index order,
  // so an equal aggregate means every scenario of the sweep matched.
  r.attempted = w.scenarios;
  for (std::size_t s = 0; s < w.aggregates.size(); ++s) {
    if (!pin_ok || w.aggregates[s] != ref_agg) {
      r.fail(total, "sweep " + std::to_string(s) + ": aggregate differs");
    }
  }
  check_fingerprint(r, a, pinned, "campaign_sweep", ref.fingerprint);

  const double throughput = median_of(w.sweep_rate[0]);
  std::cout << "sweeps: " << w.aggregates.size() << ", scenarios: " << w.scenarios
            << ", wall " << w.wall_s << " s, median sweep rate " << throughput
            << " scenarios/s\n";
  const Latency lat = summarize(probe.latency_us, "scenario latency (worker cycle)");
  std::cout << "failed_ratio: " << static_cast<double>(r.failed) / r.attempted
            << " (" << r.failed << "/" << r.attempted << ")\n"
            << "slo_miss_ratio: not applicable (closed batch)\n";
  if (!a.trace) {
    r.add("setup_s", median_of(setup_s), "s");
    r.add("throughput", throughput, "1/s");
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
