#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::size_t rank_index(std::size_t n, double p) {
  // Nearest rank: the ceil(p/100 * n)-th smallest sample, 1-based.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto clamped = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(n)));
  return clamped - 1;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t index = rank_index(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, p);
}

bool percentile_reportable(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinSamplesBeyond;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  Metric& metric = metrics_[name];
  metric.value = std::isfinite(value) ? value : 0.0;
  metric.unit = unit;
}

void Report::set_percentile(const std::string& name,
                            const std::vector<double>& samples, double p,
                            const std::string& unit, double scale) {
  Metric& metric = metrics_[name];
  metric.value = percentile(samples, p) * scale;
  metric.unit = unit;
  metric.samples = samples.size();
  metric.beyond = samples_beyond(samples.size(), p);
  metric.is_percentile = true;
}

double Report::value(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string Report::table() const {
  std::string out;
  char line[256];
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(line, sizeof line, "  %-40s %16s %-9s", name.c_str(),
                  format_number(metric.value).c_str(), metric.unit.c_str());
    out += line;
    if (metric.is_percentile) {
      std::snprintf(line, sizeof line, " n=%zu beyond=%zu%s", metric.samples,
                    metric.beyond,
                    metric.beyond >= kMinSamplesBeyond
                        ? ""
                        : "  [below the ten-beyond rule]");
      out += line;
    }
    out += '\n';
  }
  return out;
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed,
                                const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_number(it->second.value) +
           ", \"unit\": \"" + it->second.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t screen_hash(const cycada::Image& image) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::uint32_t pixel : image.pixels()) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (pixel >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace perfbench
