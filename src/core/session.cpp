#include "core/session.h"

#include <cassert>
#include <cstdlib>
#include <string>

#include "trace/metrics.h"
#include "util/faultpoint.h"
#include "util/log.h"

namespace cycada::core {

namespace {

// Immortal pool of watchdog ladders. Blocks are never freed: the watchdog
// monitor may hold a ladder pointer read from a thread slot across a
// session's destruction, so a destroyed session parks its zeroed ladder
// here for the next session instead of deleting it.
std::mutex g_ladder_mutex;
std::vector<WatchdogLadder*>& parked_ladders() {
  static auto* parked = new std::vector<WatchdogLadder*>();
  return *parked;
}

WatchdogLadder* acquire_ladder() {
  std::lock_guard lock(g_ladder_mutex);
  std::vector<WatchdogLadder*>& parked = parked_ladders();
  if (!parked.empty()) {
    WatchdogLadder* ladder = parked.back();
    parked.pop_back();
    return ladder;
  }
  return new WatchdogLadder();
}

void park_ladder(WatchdogLadder* ladder) {
  if (ladder == nullptr) return;
  ladder->reset();
  std::lock_guard lock(g_ladder_mutex);
  parked_ladders().push_back(ladder);
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

}  // namespace

const char* session_layer_name(SessionLayer layer) {
  switch (layer) {
    case SessionLayer::kKernel: return "kernel";
    case SessionLayer::kLinker: return "linker";
    case SessionLayer::kTls: return "tls";
    case SessionLayer::kGpu: return "gpu";
    case SessionLayer::kSurface: return "surface";
    case SessionLayer::kGralloc: return "gralloc";
    case SessionLayer::kIoSurface: return "iosurface";
    case SessionLayer::kCount: break;
  }
  return "?";
}

namespace session_detail {
int next_facet_index() {
  static std::atomic<int> next{0};
  const int index = next.fetch_add(1, std::memory_order_relaxed);
  assert(index < Session::kMaxFacets && "facet slot space exhausted");
  return index;
}
}  // namespace session_detail

thread_local Session* Session::t_bound = nullptr;
thread_local Session* Session::t_constructing = nullptr;

Session::Session(std::uint32_t id, std::string name)
    : id_(id), name_(std::move(name)), ladder_(acquire_ladder()) {}

Session::~Session() {
  // Facet destructors reach back through Session::current(): the linker
  // facet drops library replicas whose destructors delete TLS keys via
  // Kernel::instance(). Bind the destroying thread to the dying session so
  // those lookups resolve to the session being torn down, not whatever the
  // caller happened to be bound to. Only non-default sessions are destroyed.
  Session* const previous = t_bound;
  t_bound = this;
  // Facets go down highest teardown tier first (the linker's library
  // instances tear contexts/TLS down through the kernel and GPU facets, so
  // the linker is on a raised tier), reverse creation order within a tier
  // (a later facet may hold references into an earlier one — e.g. the TLS
  // tracker's kernel hooks). Re-scan instead of iterating: a destructor may
  // lazily re-create a facet, which appends a record that must be destroyed
  // too.
  while (!facet_records_.empty()) {
    std::size_t pick = 0;
    for (std::size_t i = 1; i < facet_records_.size(); ++i) {
      // >= so ties resolve to the latest-created record.
      if (facet_records_[i].teardown_order >=
          facet_records_[pick].teardown_order) {
        pick = i;
      }
    }
    FacetRecord record = facet_records_[pick];
    facet_records_.erase(facet_records_.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    facets_[record.index].store(nullptr, std::memory_order_release);
    record.destroy(record.ptr);
  }
  t_bound = previous;
  park_ladder(ladder_);
  ladder_ = nullptr;
}

Session& Session::default_session() {
  // Immortal, like the singletons it hosts: default-session facets are
  // never destroyed, which is exactly the pre-session singleton lifetime.
  static Session* session = new Session(0, "default");
  return *session;
}

void* Session::facet_slow(int index, void* thunk, void* (*make)(void*),
                          void (*destroy)(void*), int teardown_order) {
  assert(index >= 0 && index < kMaxFacets);
  std::lock_guard lock(facet_mutex_);
  if (void* existing = facets_[index].load(std::memory_order_acquire)) {
    return existing;
  }
  Session* const previous = t_constructing;
  t_constructing = this;
  void* made = make(thunk);
  t_constructing = previous;
  facet_records_.push_back({index, made, destroy, teardown_order});
  facets_[index].store(made, std::memory_order_release);
  return made;
}

void Session::cross_access_slow(const Session* owner, SessionLayer layer) {
  cross_leaks_[static_cast<int>(layer)].fetch_add(1,
                                                  std::memory_order_relaxed);
  trace::MetricsRegistry::instance()
      .counter(std::string("session.cross_leak.") + session_layer_name(layer))
      .add();
  CYCADA_LOG(kWarn) << "cross-session access: thread bound to session s"
                   << id_ << " (" << name_ << ") touched " << "s"
                   << owner->id() << " (" << owner->name() << ") "
                   << session_layer_name(layer) << " state";
}

std::uint64_t Session::cross_leak_total() const {
  std::uint64_t total = 0;
  for (const auto& counter : cross_leaks_) {
    total += counter.load(std::memory_order_relaxed);
  }
  return total;
}

void Session::clear_cross_leak_evidence() {
  for (auto& counter : cross_leaks_) counter.store(0);
}

SessionRegistry& SessionRegistry::instance() {
  static SessionRegistry* registry = new SessionRegistry();
  return *registry;
}

SessionRegistry::SessionRegistry() {
  const int cap = env_int("CYCADA_SESSIONS", 0);
  if (cap > 0) max_sessions_.store(static_cast<std::size_t>(cap));
  sessions_.push_back(&Session::default_session());
}

StatusOr<Session*> SessionRegistry::create(std::string name) {
  // The probe fires before any state changes so an injected failure is
  // atomic: no half-created session, nothing to unwind. Evaluated outside
  // the registry mutex (the fault registry sits below it in the lock
  // order).
  static util::FaultPoint& probe =
      util::FaultRegistry::instance().point("session.create");
  if (probe.should_fail()) {
    return Status::resource_exhausted("injected fault: session.create");
  }
  Session* session = nullptr;
  {
    std::lock_guard lock(mutex_);
    const std::size_t cap = max_sessions_.load(std::memory_order_relaxed);
    if (cap != 0 && sessions_.size() >= cap + 1) {  // +1: the default
      return Status::resource_exhausted(
          "session cap reached (CYCADA_SESSIONS=" + std::to_string(cap) + ")");
    }
    session = new Session(next_id_++, std::move(name));
    sessions_.push_back(session);
  }
  created_.fetch_add(1, std::memory_order_relaxed);
  static trace::Counter& created_metric =
      trace::MetricsRegistry::instance().counter("session.created");
  created_metric.add();
  return session;
}

void SessionRegistry::destroy(Session* session) {
  if (session == nullptr || session->is_default()) return;
  {
    std::lock_guard lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (*it == session) {
        sessions_.erase(it);
        break;
      }
    }
  }
  // Facet teardown runs outside the registry mutex: destructors reach into
  // subsystems whose locks sit below kSessionRegistry in the order.
  delete session;
  destroyed_.fetch_add(1, std::memory_order_relaxed);
  static trace::Counter& destroyed_metric =
      trace::MetricsRegistry::instance().counter("session.destroyed");
  destroyed_metric.add();
}

Session* SessionRegistry::find(std::uint32_t id) const {
  std::lock_guard lock(mutex_);
  for (Session* session : sessions_) {
    if (session->id() == id) return session;
  }
  return nullptr;
}

std::vector<Session*> SessionRegistry::live_sessions() const {
  std::lock_guard lock(mutex_);
  return sessions_;
}

std::size_t SessionRegistry::live_count() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

std::vector<SessionRegistry::CrossLeak> SessionRegistry::cross_leak_snapshot()
    const {
  std::vector<CrossLeak> out;
  std::lock_guard lock(mutex_);
  for (Session* session : sessions_) {
    for (int layer = 0; layer < static_cast<int>(SessionLayer::kCount);
         ++layer) {
      const std::uint64_t count =
          session->cross_leak_count(static_cast<SessionLayer>(layer));
      if (count != 0) {
        out.push_back({session->id(), session->name(),
                       static_cast<SessionLayer>(layer), count});
      }
    }
  }
  return out;
}

void SessionRegistry::clear_cross_leak_evidence() {
  std::lock_guard lock(mutex_);
  for (Session* session : sessions_) session->clear_cross_leak_evidence();
}

}  // namespace cycada::core
