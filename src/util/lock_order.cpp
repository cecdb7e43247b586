#include "util/lock_order.h"

#include <algorithm>
#include <atomic>
#include <map>

namespace cycada::util {

namespace {

// The graph's own bookkeeping mutex. Deliberately a plain std::mutex: it is
// a leaf (nothing is acquired under it) and must not feed back into the
// graph it guards.
std::mutex g_graph_mutex;
std::atomic<bool> g_recording{false};

struct EdgeKey {
  int from;
  int to;
  bool operator<(const EdgeKey& other) const {
    return from != other.from ? from < other.from : to < other.to;
  }
};

struct EdgeData {
  std::string from_name;
  std::string to_name;
  std::uint64_t count = 0;
};

std::map<EdgeKey, EdgeData>& graph_edges() {
  static auto* edges = new std::map<EdgeKey, EdgeData>();
  return *edges;
}

struct LevelData {
  std::string name;
  std::uint64_t count = 0;
};

std::map<int, LevelData>& level_counts() {
  static auto* counts = new std::map<int, LevelData>();
  return *counts;
}

// Per-thread stack of currently held annotated locks. Fixed capacity: the
// deepest legitimate nest in the tree is 4 levels; overflow entries are
// dropped (and their release ignored) rather than growing the hot path.
struct HeldLock {
  const void* mutex;
  int level;
  const char* name;
  int depth;  // recursive re-acquisitions of the same instance
};
constexpr int kMaxHeld = 16;
thread_local HeldLock t_held[kMaxHeld];
thread_local int t_held_count = 0;

// Process-wide tally of entries currently on any thread's held stack.
// Pushes and pops pair exactly (note_released only decrements when it finds
// the entry a push counted), so this is zero whenever no recorded lock is
// held — the invariant check_fault_safety() relies on. Deliberately not
// cleared by reset(): locks held across a reset are still held.
std::atomic<std::int64_t> g_held_total{0};

}  // namespace

const char* lock_level_name(int level) {
  switch (static_cast<LockLevel>(level)) {
    case LockLevel::kDegradedEgl: return "degraded-egl";
    case LockLevel::kLinker: return "linker";
    case LockLevel::kDiplomatRegistry: return "diplomat-registry";
    case LockLevel::kTlsTracker: return "tls-tracker";
    case LockLevel::kKernelThreads: return "kernel-threads";
    case LockLevel::kKernelKeys: return "kernel-keys";
    case LockLevel::kThreadTls: return "thread-tls";
    case LockLevel::kFaultRegistry: return "fault-registry";
    case LockLevel::kWatchdog: return "watchdog";
    case LockLevel::kSessionRegistry: return "session-registry";
    case LockLevel::kMetrics: return "metrics";
    case LockLevel::kTracer: return "tracer";
    case LockLevel::kLogEmit: return "log-emit";
  }
  return "?";
}

LockOrderGraph& LockOrderGraph::instance() {
  static LockOrderGraph* graph = new LockOrderGraph();
  return *graph;
}

void LockOrderGraph::set_recording(bool enabled) {
  g_recording.store(enabled, std::memory_order_relaxed);
}

bool LockOrderGraph::recording() const {
  return g_recording.load(std::memory_order_relaxed);
}

std::vector<LockOrderGraph::Edge> LockOrderGraph::edges() const {
  std::lock_guard lock(g_graph_mutex);
  std::vector<Edge> out;
  out.reserve(graph_edges().size());
  for (const auto& [key, data] : graph_edges()) {
    out.push_back({key.from, key.to, data.from_name, data.to_name, data.count});
  }
  return out;
}

std::vector<LockOrderGraph::Edge> LockOrderGraph::inversions() const {
  std::vector<Edge> out;
  for (Edge& edge : edges()) {
    if (edge.from_level >= edge.to_level) out.push_back(std::move(edge));
  }
  return out;
}

std::vector<std::vector<std::string>> LockOrderGraph::find_cycles() const {
  // DFS over the level graph with tricolor marking; one cycle reported per
  // back edge. Level count is tiny, so simplicity beats asymptotics.
  std::map<int, std::vector<int>> adjacency;
  for (const Edge& edge : edges()) {
    adjacency[edge.from_level].push_back(edge.to_level);
    adjacency.try_emplace(edge.to_level);
  }
  std::vector<std::vector<std::string>> cycles;
  std::map<int, int> color;  // 0 white, 1 grey, 2 black
  std::vector<int> path;

  auto dfs = [&](auto&& self, int node) -> void {
    color[node] = 1;
    path.push_back(node);
    for (int next : adjacency[node]) {
      if (color[next] == 1) {
        auto it = std::find(path.begin(), path.end(), next);
        std::vector<std::string> cycle;
        for (; it != path.end(); ++it) cycle.push_back(lock_level_name(*it));
        cycle.push_back(lock_level_name(next));
        cycles.push_back(std::move(cycle));
      } else if (color[next] == 0) {
        self(self, next);
      }
    }
    path.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, _] : adjacency) {
    if (color[node] == 0) dfs(dfs, node);
  }
  return cycles;
}

std::vector<LockOrderGraph::LevelCount> LockOrderGraph::acquisition_counts()
    const {
  std::lock_guard lock(g_graph_mutex);
  std::vector<LevelCount> out;
  out.reserve(level_counts().size());
  for (const auto& [level, data] : level_counts()) {
    out.push_back({level, data.name, data.count});
  }
  return out;
}

std::uint64_t LockOrderGraph::acquisitions(LockLevel level) const {
  std::lock_guard lock(g_graph_mutex);
  auto it = level_counts().find(static_cast<int>(level));
  return it == level_counts().end() ? 0 : it->second.count;
}

std::int64_t LockOrderGraph::held_count() const {
  return g_held_total.load(std::memory_order_relaxed);
}

void LockOrderGraph::reset() {
  std::lock_guard lock(g_graph_mutex);
  graph_edges().clear();
  level_counts().clear();
}

namespace lock_detail {

void note_acquired(const void* mutex, int level, const char* name,
                   bool recursive) {
  for (int i = 0; i < t_held_count; ++i) {
    if (t_held[i].mutex == mutex) {
      if (recursive) {
        ++t_held[i].depth;
        return;
      }
      break;  // non-recursive relock: fall through and record the self-edge
    }
  }
  {
    std::lock_guard lock(g_graph_mutex);
    LevelData& tally = level_counts()[level];
    if (tally.count == 0) tally.name = name;
    ++tally.count;
    for (int i = 0; i < t_held_count; ++i) {
      if (t_held[i].mutex == mutex) continue;
      EdgeData& data = graph_edges()[{t_held[i].level, level}];
      if (data.count == 0) {
        data.from_name = t_held[i].name;
        data.to_name = name;
      }
      ++data.count;
    }
  }
  if (t_held_count < kMaxHeld) {
    t_held[t_held_count++] = {mutex, level, name, 1};
    g_held_total.fetch_add(1, std::memory_order_relaxed);
  }
}

void note_released(const void* mutex) {
  for (int i = t_held_count - 1; i >= 0; --i) {
    if (t_held[i].mutex != mutex) continue;
    if (--t_held[i].depth > 0) return;
    for (int j = i; j < t_held_count - 1; ++j) t_held[j] = t_held[j + 1];
    --t_held_count;
    g_held_total.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
}

}  // namespace lock_detail

}  // namespace cycada::util
