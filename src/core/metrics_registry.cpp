#include "core/metrics_registry.h"

#include <cstdio>
#include <fstream>

namespace mira::core {

MetricsRegistry::Counter &MetricsRegistry::counter(const std::string &name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter()))
             .first;
  return *it->second;
}

MetricsRegistry::Gauge &MetricsRegistry::gauge(const std::string &name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge())).first;
  return *it->second;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> samples;
  samples.reserve(counters_.size() + gauges_.size());
  // Merge the two sorted maps so the snapshot is name-sorted overall.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  while (c != counters_.end() || g != gauges_.end()) {
    const bool takeCounter =
        g == gauges_.end() ||
        (c != counters_.end() && c->first < g->first);
    if (takeCounter) {
      samples.push_back({c->first, c->second->value(), true});
      ++c;
    } else {
      samples.push_back({g->first, g->second->value(), false});
      ++g;
    }
  }
  return samples;
}

std::string MetricsRegistry::renderText(const std::vector<Sample> &samples) {
  std::string out;
  for (const Sample &sample : samples) {
    const std::string full = "mira_" + sample.name;
    out += "# TYPE " + full + (sample.monotonic ? " counter\n" : " gauge\n");
    out += full + " " + std::to_string(sample.value) + "\n";
  }
  return out;
}

bool MetricsRegistry::writeTextFile(const std::string &path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return false;
    out << renderText();
    if (!out)
      return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace mira::core
