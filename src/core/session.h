// Session-scoped runtime: one process hosting N independent iOS app
// instances (ROADMAP "multi-session server mode"; Anception's per-app
// virtualization with shared-kernel efficiencies is the grounding).
//
// A `Session` owns the per-app half of the bridge — kernel thread/persona
// registry, linker images + replica namespaces, graphics-TLS tracker, GPU
// device frame state and surface registries. Cross-cutting infrastructure
// (diplomat registry, tracer, metrics, fault registry, watchdog monitor,
// tile worker pool) stays process-global; what *degrades* — watchdog rung
// ladders, fault filters — is per-session so one wedged app never stalls
// its neighbors.
//
// Per-session state hangs off the session as type-erased **facets**: the
// first `Session::facet<Kernel>(...)` call on a session constructs that
// session's Kernel and caches it in a fixed slot; subsequent calls are one
// acquire load. Singleton accessors like `Kernel::instance()` now resolve
// through `Session::current()`, which falls back to an immortal default
// session when the calling thread is unbound — the zero-cost single-session
// compatibility path (all pre-session tests, benches and examples run
// unmodified against the default session, whose facets are never destroyed,
// preserving the old intentionally-immortal singleton semantics).
//
// Threads join a session with `session->bind_current_thread()` or the RAII
// `SessionScope`. A thread bound to session A that touches state owned by
// session B is a **cross-session leak**: the owning accessors call
// `Session::check_access()`, which records evidence counters that the
// analyzer's `session.cross-leak` rule turns into findings.
//
// docs/SESSIONS.md is the ownership map and the fleet-harness runbook.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/lock_order.h"
#include "util/status.h"

namespace cycada::core {

class Session;
class SessionRegistry;

// The layers whose accessors carry cross-session leak guards. Used to index
// a session's evidence counters; names feed the analyzer finding text.
enum class SessionLayer : int {
  kKernel = 0,
  kLinker,
  kTls,
  kGpu,
  kSurface,
  kGralloc,
  kIoSurface,
  kCount,
};

const char* session_layer_name(SessionLayer layer);

// Per-session watchdog recovery ladder (rung + hysteresis per domain; the
// metric counters stay process-global on the Watchdog itself). Ladders are
// **immortal pooled blocks**: a session acquires one at creation and parks
// it (zeroed) at destruction, so the watchdog monitor thread may dereference
// a ladder pointer read from a thread slot without any lifetime
// coordination — the worst case is an escalation recorded against a parked
// ladder, which the next owner starts from rung 0 anyway.
struct WatchdogLadder {
  // Sized for util::WatchdogDomain::kCount without including watchdog.h
  // here (watchdog.cpp static_asserts the fit).
  static constexpr int kMaxDomains = 8;
  struct Domain {
    std::atomic<int> rung{0};
    std::atomic<int> clean_streak{0};
    std::atomic<bool> stalled_since_frame{false};
  };
  std::array<Domain, kMaxDomains> domains;

  void reset() {
    for (Domain& domain : domains) {
      domain.rung.store(0, std::memory_order_relaxed);
      domain.clean_streak.store(0, std::memory_order_relaxed);
      domain.stalled_since_frame.store(false, std::memory_order_relaxed);
    }
  }
};

namespace session_detail {
// Dense per-type facet slot allocation. One index per distinct T across the
// process; handed out on first use.
int next_facet_index();
template <typename T>
int facet_index() {
  static const int index = next_facet_index();
  return index;
}
}  // namespace session_detail

class Session {
 public:
  static constexpr int kMaxFacets = 32;

  // The calling thread's session: its binding, else the default session.
  // This is the hot compatibility path (one TLS load + branch).
  static Session& current() {
    Session* session = t_bound;
    return session != nullptr ? *session : default_session();
  }
  // The explicit binding only (nullptr when the thread runs unbound).
  static Session* bound() { return t_bound; }
  // The immortal default session every unbound thread resolves to. Its
  // facets are never destroyed — exactly the old singleton lifetime.
  static Session& default_session();
  // During facet construction: the session the facet is being built for.
  // Converted singletons capture this as their owner for leak checking.
  static Session* constructing_owner() { return t_constructing; }

  std::uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  bool is_default() const { return id_ == 0; }

  WatchdogLadder* watchdog_ladder() const { return ladder_; }

  // Binds the calling thread to this session (nullptr-safe counterpart:
  // unbind_current_thread). Prefer SessionScope for scoped binding.
  void bind_current_thread() { t_bound = this; }
  static void unbind_current_thread() { t_bound = nullptr; }

  // The per-session instance of T, constructed on first use via `make`
  // (a capture-less thunk, so converted singletons keep private
  // constructors: the thunk lives inside the member function). Facets are
  // destroyed when the session is destroyed — never for the default
  // session — highest teardown_order first, reverse creation order within
  // a tier. The linker facet uses a raised tier: library instances it
  // unloads tear GL/TLS state down through the kernel and GPU facets, so
  // those must still be alive when the libraries go.
  template <typename T>
  T& facet(T* (*make)(), int teardown_order = 0) {
    const int index = session_detail::facet_index<T>();
    if (void* existing = facets_[index].load(std::memory_order_acquire)) {
      return *static_cast<T*>(existing);
    }
    return *static_cast<T*>(facet_slow(
        index, reinterpret_cast<void*>(make),
        [](void* thunk) -> void* {
          return reinterpret_cast<T* (*)()>(thunk)();
        },
        [](void* ptr) { delete static_cast<T*>(ptr); }, teardown_order));
  }

  // Cross-session leak guard, called by owning accessors on their cold
  // paths. No-op for unbound threads, unowned objects, and same-session
  // access; a mismatch records evidence on the *accessing* session and
  // bumps the global session.cross_leak.<layer> counter.
  static void check_access(const Session* owner, SessionLayer layer) {
    Session* accessor = t_bound;
    if (accessor == nullptr || owner == nullptr || accessor == owner) return;
    accessor->cross_access_slow(owner, layer);
  }

  std::uint64_t cross_leak_count(SessionLayer layer) const {
    return cross_leaks_[static_cast<int>(layer)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t cross_leak_total() const;
  void clear_cross_leak_evidence();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  friend class SessionRegistry;

  Session(std::uint32_t id, std::string name);
  ~Session();

  void* facet_slow(int index, void* thunk, void* (*make)(void*),
                   void (*destroy)(void*), int teardown_order);
  void cross_access_slow(const Session* owner, SessionLayer layer);

  struct FacetRecord {
    int index;
    void* ptr;
    void (*destroy)(void*);
    int teardown_order;
  };

  const std::uint32_t id_;
  const std::string name_;
  WatchdogLadder* ladder_ = nullptr;
  std::array<std::atomic<void*>, kMaxFacets> facets_{};
  // Recursive: a facet's constructor may itself resolve another facet of
  // the same session (e.g. the TLS tracker constructing against the
  // session's kernel). Deliberately a plain mutex — it is held across
  // arbitrary facet constructors, which acquire ordered locks at many
  // levels, and creation is a cold path.
  std::recursive_mutex facet_mutex_;
  std::vector<FacetRecord> facet_records_;  // guarded by facet_mutex_
  std::array<std::atomic<std::uint64_t>,
             static_cast<int>(SessionLayer::kCount)>
      cross_leaks_{};

  static thread_local Session* t_bound;
  static thread_local Session* t_constructing;
};

// RAII thread→session binding. Restores the previous binding (including
// "unbound") on destruction, so scopes nest.
class SessionScope {
 public:
  explicit SessionScope(Session& session) : previous_(Session::bound()) {
    session.bind_current_thread();
  }
  ~SessionScope() {
    if (previous_ != nullptr) {
      previous_->bind_current_thread();
    } else {
      Session::unbind_current_thread();
    }
  }
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  Session* previous_;
};

// Process-wide session directory. Creation runs the `session.create` fault
// probe (CYCADA_FAULT injectable); destruction tears the session's facets
// down in reverse creation order and parks its watchdog ladder. The
// registry mutex sits above kWatchdog in the lock order so the watchdog
// reset path may enumerate live sessions.
class SessionRegistry {
 public:
  static SessionRegistry& instance();

  // Creates a live session. Fails only under fault injection
  // (session.create) or when CYCADA_SESSIONS caps the live count.
  StatusOr<Session*> create(std::string name);
  // Destroys a live session: facets torn down in reverse creation order.
  // The caller must have unbound every thread from it. Destroying the
  // default session is a no-op.
  void destroy(Session* session);

  Session* find(std::uint32_t id) const;
  // Live sessions including the default (always first).
  std::vector<Session*> live_sessions() const;
  std::size_t live_count() const;

  std::uint64_t created_total() const {
    return created_.load(std::memory_order_relaxed);
  }
  std::uint64_t destroyed_total() const {
    return destroyed_.load(std::memory_order_relaxed);
  }

  // Evidence snapshot for the analyzer's session.cross-leak rule: one row
  // per (live session, layer) with a nonzero counter.
  struct CrossLeak {
    std::uint32_t session_id;
    std::string session_name;
    SessionLayer layer;
    std::uint64_t count;
  };
  std::vector<CrossLeak> cross_leak_snapshot() const;
  void clear_cross_leak_evidence();

  // Maximum live sessions (0 = unlimited); seeded from CYCADA_SESSIONS.
  std::size_t max_sessions() const {
    return max_sessions_.load(std::memory_order_relaxed);
  }
  void set_max_sessions(std::size_t cap) {
    max_sessions_.store(cap, std::memory_order_relaxed);
  }

 private:
  SessionRegistry();

  mutable util::OrderedMutex mutex_{util::LockLevel::kSessionRegistry,
                                    "core.session-registry"};
  std::vector<Session*> sessions_;  // live, default session first
  std::uint32_t next_id_ = 1;
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> destroyed_{0};
  std::atomic<std::size_t> max_sessions_{0};
};

}  // namespace cycada::core
