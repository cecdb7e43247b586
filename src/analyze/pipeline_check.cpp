// Tile-pipeline thread-ownership checker (docs/PIPELINE.md): GPU tile
// workers execute pre-resolved raster work and must never initiate persona
// crossings or diplomat calls. The guards in the kernel's crossing
// syscalls (sys_set_persona, sys_persona_batch_begin) count each violating
// crossing once into "pipeline.worker.crossings"; this checker turns any
// nonzero count into a blocking finding.
#include <string>

#include "analyze/analyze.h"
#include "trace/metrics.h"

namespace cycada::analyze {

void check_pipeline_isolation(Report& report) {
  const trace::MetricsSnapshot snapshot =
      trace::MetricsRegistry::instance().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name != "pipeline.worker.crossings") continue;
    if (counter.value == 0) continue;
    report.add("pipeline", "pipeline.worker-crossing",
               "gpu tile worker pool",
               std::to_string(counter.value) +
                   " persona/diplomat crossing(s) initiated from a GPU tile "
                   "worker thread (raster workers must only touch "
                   "pre-resolved framebuffer work; move the crossing to the "
                   "dispatch thread that records the frame)");
  }
}

}  // namespace cycada::analyze
