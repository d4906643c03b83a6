#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "analysis/analyzer.hpp"
#include "tutmac/tutmac.hpp"
#include "uml/serialize.hpp"

namespace perfbench {

void Result::fail(std::uint64_t count, const std::string& why) {
  correct = false;
  failed += count;
  std::cout << "check FAILED: " << why << '\n';
}

void print_result(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

FrontEnd load_model(std::string_view xml, std::uint64_t id) {
  FrontEnd fe;
  {
    Scope s("uml.from_xml", id);
    fe.model = tut::uml::from_xml_text(xml);
  }
  {
    Scope s("analysis.lint", id);
    tut::analysis::Options options;
    options.xml_text = xml;
    fe.findings = tut::analysis::analyze(*fe.model, options).diagnostics().size();
  }
  {
    Scope s("mapping.view", id);
    fe.view = std::make_unique<tut::mapping::SystemView>(*fe.model);
  }
  {
    Scope s("sim.compile", id);
    fe.compiled = tut::sim::CompiledModel::build(*fe.view);
  }
  return fe;
}

std::vector<BoundStream> bind_streams(const tut::uml::Model& model,
                              const std::vector<Stream>& streams) {
  std::vector<BoundStream> out;
  for (const Stream& w : streams) {
    const tut::uml::Signal* signal = model.find_signal(w.signal);
    if (signal == nullptr) {
      throw std::runtime_error("perfbench: model has no signal " + w.signal);
    }
    out.push_back({&w, signal});
  }
  return out;
}

void inject(tut::sim::Simulation& sim, const std::vector<BoundStream>& streams,
            const tut::sim::Scenario* scenario) {
  const tut::sim::Time horizon = sim.config().horizon;
  for (const BoundStream& b : streams) {
    const Stream& w = *b.stream;
    tut::sim::Time period = w.period;
    if (scenario != nullptr && !w.param.empty()) {
      period = static_cast<tut::sim::Time>(
          scenario->param(w.param, static_cast<long>(period)));
    }
    if (period == 0) throw std::runtime_error("perfbench: zero period");
    const tut::sim::Time first = period + w.offset;
    const std::size_t count =
        first >= horizon ? 0
                         : static_cast<std::size_t>((horizon - first) / period);
    sim.inject_periodic(first, period, count, w.port, *b.signal, w.args);
  }
}

TutmacInput tutmac_input(const std::string& mapping, tut::sim::Time slot_period,
                         tut::sim::Time rx_period, tut::sim::Time msdu_period) {
  tut::tutmac::Options opt;
  if (mapping == "paper") {
    opt.mapping = tut::tutmac::MappingChoice::Paper;
  } else if (mapping == "loadBalanced") {
    opt.mapping = tut::tutmac::MappingChoice::LoadBalanced;
  } else if (mapping == "singlePe") {
    opt.mapping = tut::tutmac::MappingChoice::SinglePe;
  } else {
    throw std::invalid_argument("perfbench: unknown mapping " + mapping);
  }
  const tut::tutmac::System sys = tut::tutmac::build(opt);
  TutmacInput in;
  in.xml = tut::uml::to_xml_string(*sys.model);
  in.streams = {
      {"pphy", sys.radio_slot->name(), "slotPeriod", slot_period, 0, {}},
      {"pphy", sys.rx_frame->name(), "rxPeriod", rx_period, 7'777, {256}},
      {"puser", sys.user_msdu->name(), "msduPeriod", msdu_period, 3'333, {512}},
  };
  return in;
}

SimStats stats_of(const tut::sim::Simulation& sim) {
  SimStats s;
  s.events = sim.events_dispatched();
  s.records = sim.log().size();
  for (const auto& [name, pe] : sim.pe_stats()) s.pe_steps += pe.steps;
  for (const auto& [name, seg] : sim.segment_stats()) {
    s.seg_grants += seg.grants;
    s.seg_transfers += seg.transfers;
    s.seg_wait += static_cast<std::uint64_t>(seg.wait_time);
  }
  s.retries = sim.log().retry_count();
  s.drops = sim.log().drop_count();
  s.makespan = static_cast<std::uint64_t>(sim.log().last_time());
  return s;
}

void Fingerprint::add(const SimStats& s, std::uint64_t times) {
  sum_.events += s.events * times;
  sum_.records += s.records * times;
  sum_.pe_steps += s.pe_steps * times;
  sum_.seg_grants += s.seg_grants * times;
  sum_.seg_transfers += s.seg_transfers * times;
  sum_.seg_wait += s.seg_wait * times;
  sum_.retries += s.retries * times;
  sum_.drops += s.drops * times;
  makespans_.emplace_back(s.makespan, times);
}

std::string Fingerprint::text() const {
  auto sorted = makespans_;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t n = 0;
  for (const auto& [v, k] : sorted) n += k;
  const auto at = [&](double p) -> std::uint64_t {
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
    std::uint64_t seen = 0;
    for (const auto& [v, k] : sorted) {
      seen += k;
      if (seen >= rank) return v;
    }
    return 0;
  };
  std::ostringstream out;
  out << "runs=" << n << " events=" << sum_.events
      << " records=" << sum_.records << " pe_steps=" << sum_.pe_steps
      << " seg_grants=" << sum_.seg_grants
      << " seg_transfers=" << sum_.seg_transfers
      << " seg_wait=" << sum_.seg_wait << " retries=" << sum_.retries
      << " drops=" << sum_.drops << " makespan_p50=" << at(50)
      << " makespan_p99=" << at(99);
  return out.str();
}

Pinned::Pinned(const std::string& bench_dir) {
  std::ifstream in(bench_dir + "/pinned/seed1.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    lines_[line.substr(0, sp)] = line.substr(sp + 1);
  }
}

std::string Pinned::get(const std::string& key) const {
  const auto it = lines_.find(key);
  return it == lines_.end() ? std::string() : it->second;
}

void check_fingerprint(Result& r, const Args& a, const Pinned& pinned,
                       const std::string& workload, const Fingerprint& fp) {
  const std::string text = fp.text();
  std::cout << "fingerprint " << workload << " seed=" << a.seed << ' ' << text
            << '\n';
  if (a.pin) {
    std::cout << "pin " << workload << ".fingerprint " << text << '\n';
  } else if (a.seed == kDefaultSeed &&
             pinned.get(workload + ".fingerprint") != text) {
    r.fail(1, workload + " fingerprint differs from pinned/seed1.txt");
  }
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Latency summarize(std::vector<double> samples_us, const std::string& what) {
  std::sort(samples_us.begin(), samples_us.end());
  Latency l;
  l.n = samples_us.size();
  l.p50 = percentile_sorted(samples_us, 50);
  l.p99 = percentile_sorted(samples_us, 99);
  std::cout << what << ": n=" << l.n << " p50=" << l.p50 << " us p99=" << l.p99
            << " us (" << samples_beyond(l.n, 99) << " samples beyond p99)\n";
  return l;
}

double span_us(const std::map<std::string, SpanTotals>& t,
               const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.mean_self_us();
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sim.reset_us", "us"},
      {"sim.setup_us", "us"},
      {"campaign.digest_us", "us"},
      {"campaign.overhead_us", "us"},
      {"campaign.parallel_efficiency", "ratio"},
      {"sim.run_us", "us"},
      {"sim.run_ns_per_event", "ns"},
      {"sim.events", "count"},
      {"sim.records", "count"},
      {"sim.pe_steps", "count"},
      {"sim.seg_transfers", "count"},
      {"sim.retries", "count"},
      {"log.render_us", "us"},
      {"log.bytes", "bytes"},
      {"profiler.analyze_us", "us"},
      {"profiler.latency_us", "us"},
      {"codegen.emit_us", "us"},
      {"codegen.source_bytes", "bytes"},
      {"codegen.cc_s", "s"},
      {"uml.from_xml_us", "us"},
      {"mapping.view_us", "us"},
      {"sim.compile_us", "us"},
      {"analysis.lint_us", "us"},
      {"analysis.findings", "count"},
      {"serve.frame_us", "us"},
      {"serve.key_us", "us"},
      {"serve.handle_warm_us", "us"},
      {"serve.handle_cold_us", "us"},
      {"serve.handle_lint_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.hit_ratio", "ratio"},
      {"serve.evictions", "count"},
      {"serve.inflight_waits", "count"},
      {"loadgen.lag_p99_us", "us"},
      {"trace.throughput_untraced", "1/s"},
      {"trace.throughput_traced", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

void add_layers(Result& r, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = values.find(name);
    const double v = it == values.end() ? 0.0 : it->second;
    r.add(name, v, unit);
    std::cout << "layer " << name << " = " << v << ' ' << unit
              << (it == values.end() ? "  (not on this workload's path)" : "")
              << '\n';
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& [n, u] : layer_metrics()) known = known || n == name;
    if (!known) throw std::logic_error("perfbench: unlisted layer " + name);
  }
}

}  // namespace perfbench
