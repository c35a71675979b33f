#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {
namespace {

constexpr std::size_t kMaxWrittenSpans = 200000;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

std::size_t SpanBuffer::open(const char *name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.allocsAtStart = threadAllocations();
  span.startNs = nowNs() - epoch_;
  spans_.push_back(span);
  stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanBuffer::close(std::size_t index) {
  Span &span = spans_[index];
  span.endNs = nowNs() - epoch_;
  span.allocs = threadAllocations() - span.allocsAtStart;
  if (!stack_.empty() && static_cast<std::size_t>(stack_.back()) == index)
    stack_.pop_back();
}

TraceLog::TraceLog() : epoch_(nowNs()) {}

SpanBuffer &TraceLog::buffer(int pid) {
  std::lock_guard<std::mutex> lock(mutex_);
  int tid = 0;
  for (const SpanBuffer &b : buffers_)
    if (b.pid() == pid)
      ++tid;
  buffers_.emplace_back(pid, tid, epoch_);
  return buffers_.back();
}

void TraceLog::nameProcess(int pid, const std::string &name) {
  std::lock_guard<std::mutex> lock(mutex_);
  names_[pid] = name;
}

std::map<std::string, SelfCost> TraceLog::selfCosts(int pid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // (name, op) -> summed self seconds / allocs.
  std::map<std::pair<std::string, std::uint64_t>, std::pair<double, double>>
      perOp;
  for (const SpanBuffer &b : buffers_) {
    if (b.pid() != pid)
      continue;
    const std::vector<Span> &spans = b.spans();
    std::vector<std::int64_t> childNs(spans.size(), 0);
    std::vector<std::uint64_t> childAllocs(spans.size(), 0);
    for (const Span &s : spans)
      if (s.parent >= 0) {
        childNs[s.parent] += s.endNs - s.startNs;
        childAllocs[s.parent] += s.allocs;
      }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      auto &cell = perOp[{spans[i].name, spans[i].op}];
      cell.first += (spans[i].endNs - spans[i].startNs - childNs[i]) * 1e-9;
      cell.second += static_cast<double>(spans[i].allocs - childAllocs[i]);
    }
  }
  std::map<std::string, SelfCost> out;
  for (const auto &[key, cost] : perOp) {
    out[key.first].seconds.push_back(cost.first);
    out[key.first].allocs.push_back(cost.second);
  }
  return out;
}

void TraceLog::printSelfTimeTable() const {
  std::map<int, std::string> names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    names = names_;
  }
  for (const auto &[pid, phase] : names) {
    const std::map<std::string, SelfCost> costs = selfCosts(pid);
    double total = 0;
    for (const auto &[name, cost] : costs)
      for (double s : cost.seconds)
        total += s;
    std::printf("self time per layer, phase %s:\n", phase.c_str());
    std::printf("  %-28s %8s %12s %12s %7s %13s\n", "span", "ops",
                "median_us", "total_ms", "share", "median_allocs");
    for (const auto &[name, cost] : costs) {
      double sum = 0;
      for (double s : cost.seconds)
        sum += s;
      std::printf("  %-28s %8zu %12.2f %12.2f %6.1f%% %13.0f\n", name.c_str(),
                  cost.seconds.size(), median(cost.seconds) * 1e6, sum * 1e3,
                  total > 0 ? 100.0 * sum / total : 0.0, median(cost.allocs));
    }
  }
}

bool TraceLog::writeChromeJson(const std::string &path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first)
      out << ",\n";
    first = false;
  };
  for (const auto &[pid, name] : names_) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"" << name << "\"}}";
  }
  // Each buffer writes at most its share of kMaxWrittenSpans (the
  // earliest ones), keeping the file small enough to open; the self-time
  // tables use every span.
  const std::size_t perBuffer =
      buffers_.empty() ? 0 : kMaxWrittenSpans / buffers_.size();
  char line[320];
  for (const SpanBuffer &b : buffers_) {
    const std::vector<Span> &spans = b.spans();
    for (std::size_t i = 0; i < std::min(spans.size(), perBuffer); ++i) {
      const Span &s = spans[i];
      sep();
      std::snprintf(line, sizeof line,
                    "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                    "\"parent\":%d,\"allocs\":%llu}}",
                    s.name, b.pid(), b.tid(), s.startNs * 1e-3,
                    (s.endNs - s.startNs) * 1e-3,
                    static_cast<unsigned long long>(s.op), s.parent,
                    static_cast<unsigned long long>(s.allocs));
      out << line;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

} // namespace perfbench
