// Result bookkeeping for the perfbench driver: latency samples with the
// percentile rule, the named metric table, and the final result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/image.h"

namespace perfbench {

// A percentile is trusted only when at least this many samples lie beyond
// it (p99 therefore needs 1000 samples).
inline constexpr std::size_t kMinSamplesBeyond = 10;

// Nearest-rank percentile of `samples` (p in (0, 100]); 0 when empty.
double percentile(std::vector<double> samples, double p);
// Samples strictly ranked above the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);
bool percentile_reportable(std::size_t n, double p);

// True when `name` is a legal metric name: [A-Za-z0-9_.-]+, starting with
// a letter or digit, at most 64 characters.
bool valid_metric_name(std::string_view name);

struct Metric {
  double value = 0;
  std::string unit;
  // Percentiles only: sample count and samples beyond the percentile.
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool is_percentile = false;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // p-th percentile of `samples`, multiplied by `scale`.
  void set_percentile(const std::string& name,
                      const std::vector<double>& samples, double p,
                      const std::string& unit, double scale = 1.0);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  double value(const std::string& name) const;

  // Human-readable table with units and sample counts; percentiles that
  // break the ten-beyond rule are marked.
  std::string table() const;
  // The single-line result object, restricted to `names` (in that order).
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<std::string>& names) const;

 private:
  std::map<std::string, Metric> metrics_;
};

// FNV-1a 64 over the screen's bytes (the repository's screen-hash recipe).
std::uint64_t screen_hash(const cycada::Image& image);

}  // namespace perfbench
