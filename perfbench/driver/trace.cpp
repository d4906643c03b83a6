#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start;
    const std::int64_t hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // covered time so far ends here
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[i] = static_cast<double>(hi - lo - covered);
  }
  return out;
}

namespace {

struct Buffer {
  int tid = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

Buffer& local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<Buffer>());
    buf = r.buffers.back().get();
    buf->tid = static_cast<int>(r.buffers.size());
    buf->spans.reserve(1 << 14);
  }
  return *buf;
}

}  // namespace

std::atomic<bool> Trace::on_{false};

std::int32_t Trace::open(const char* name, std::uint64_t id) {
  Buffer& b = local();
  Span s;
  s.name = name;
  s.id = id;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.start = now_ns();
  b.spans.push_back(s);
  const auto index = static_cast<std::int32_t>(b.spans.size() - 1);
  b.open.push_back(index);
  return index;
}

void Trace::close(std::int32_t index) {
  Buffer& b = local();
  if (static_cast<std::size_t>(index) >= b.spans.size()) return;  // cleared
  b.spans[index].end = now_ns();
  if (!b.open.empty() && b.open.back() == index) b.open.pop_back();
}

void Trace::record(const char* name, std::int64_t start, std::int64_t end,
                   std::uint64_t id) {
  if (!enabled()) return;
  Buffer& b = local();
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.id = id;
  s.parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back(s);
}

std::map<std::string, SpanTotals> Trace::totals() {
  std::map<std::string, SpanTotals> out;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.buffers) {
    const std::vector<double> self = self_times(b->spans);
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      SpanTotals& t = out[b->spans[i].name];
      ++t.count;
      t.self_ns += self[i];
      t.total_ns += static_cast<double>(b->spans[i].end - b->spans[i].start);
    }
  }
  return out;
}

bool Trace::dump(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::int64_t origin = INT64_MAX;
  for (const auto& b : r.buffers) {
    for (const Span& s : b->spans) origin = std::min(origin, s.start);
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& b : r.buffers) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"index\":%zu,\"parent\":%d}}",
                   first ? "" : ",", s.name, b->tid,
                   static_cast<double>(s.start - origin) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.id), i, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Trace::clear() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

}  // namespace perfbench
