// Simulated dynamic linker with Dynamic Library Replication (DLR, paper §8.1).
//
// "Libraries" are registered images: a name, a dependency list and a factory
// that constructs a LibraryInstance — the per-load globals, initialization
// data and symbol table of one loaded copy. dlopen() follows the normal
// rules (a library already present in the namespace is shared and
// reference-counted); dlforce() creates a *replica*: a fresh namespace into
// which the library and its entire dependency closure are loaded as if they
// had never been loaded before. Every symbol of every replica — functions,
// globals, init data — has a distinct address, and all constructors run
// again, which is exactly the property Cycada needs to give each iOS
// EAGLContext its own vendor EGL/GLES connection.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/lock_order.h"
#include "util/status.h"

namespace cycada::core {
class Session;
}  // namespace cycada::core

namespace cycada::linker {

class Linker;
class LoadedLibrary;

// Namespace 0 is the global (normal dlopen) namespace; each dlforce call
// mints a new one.
using NamespaceId = int;
inline constexpr NamespaceId kGlobalNamespace = 0;

// One loaded copy of a library: owns that copy's globals and resolves its
// exported symbols to per-copy addresses. Authored by each library module
// (vendor GLES, libui_wrapper, ...).
class LibraryInstance {
 public:
  virtual ~LibraryInstance() = default;
  // Per-instance address of an exported symbol; nullptr when not exported.
  virtual void* symbol(std::string_view name) = 0;
  // The names symbol() resolves, globals included. Drives the DLR replica
  // isolation check (`analyze::check_replica_isolation()`): every listed
  // symbol of every loaded copy must have a distinct address. Libraries
  // that return {} are skipped by the check.
  virtual std::vector<std::string> exported_symbols() const { return {}; }
};

// What a library factory sees while its constructors run.
class LoadContext {
 public:
  LoadContext(Linker& linker, NamespaceId ns, LoadedLibrary* self)
      : linker_(linker), ns_(ns), self_(self) {}

  Linker& linker() { return linker_; }
  // The namespace this load is happening in; libraries that dlopen lazily at
  // run time must remember it so lookups stay inside their replica tree.
  NamespaceId namespace_id() const { return ns_; }
  // Instance of a declared dependency (already loaded); nullptr if `name`
  // was not declared as a dependency.
  LibraryInstance* dep(std::string_view name);

 private:
  Linker& linker_;
  NamespaceId ns_;
  LoadedLibrary* self_;
};

using LibraryFactory =
    std::function<std::unique_ptr<LibraryInstance>(LoadContext&)>;

// The on-disk image: immutable description registered once per library.
struct LibraryImage {
  std::string name;
  std::vector<std::string> deps;
  LibraryFactory factory;
  // Marks a member of the DLR-replicated vendor stack. Once any replica of
  // it exists, run-time dlopens of the library into the global namespace
  // are recorded as replica-path bypasses (a lazily-loading library that
  // forgot its LoadContext namespace would alias replica state).
  bool replica_aware = false;
};

// A node in a loaded tree. Exposed so callers can walk replica trees in
// tests; user code normally holds only Handle.
class LoadedLibrary {
 public:
  // The name is copied out of the image: a Handle can outlive the image
  // registry entry it was loaded from (Linker::reset unregisters images
  // while stale handles may still be held), and dlclose must be able to
  // name a stale handle without touching freed registry memory.
  LoadedLibrary(const LibraryImage* image, NamespaceId ns)
      : name_(image->name), ns_(ns) {}

  const std::string& name() const { return name_; }
  NamespaceId namespace_id() const { return ns_; }
  LibraryInstance* instance() { return instance_.get(); }
  const std::vector<std::shared_ptr<LoadedLibrary>>& deps() const {
    return deps_;
  }

 private:
  friend class Linker;
  friend class LoadContext;

  std::string name_;
  NamespaceId ns_;
  // deps_ is declared before instance_ on purpose: members destroy in
  // reverse order, so the instance (whose destructor may call into a
  // dependency's replica — UiWrapper tears its contexts down through the
  // vendor GLES engine) goes down while the dependency handles it relies
  // on are still alive.
  std::vector<std::shared_ptr<LoadedLibrary>> deps_;
  std::unique_ptr<LibraryInstance> instance_;
  int refcount_ = 0;
};

using Handle = std::shared_ptr<LoadedLibrary>;

// Transparent comparator for (namespace, name) keys: lets the loaded-copy
// tables be probed with a string_view without materializing a std::string.
struct NsNameLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    if (a.first != b.first) return a.first < b.first;
    return std::string_view(a.second) < std::string_view(b.second);
  }
};

class Linker {
 public:
  static Linker& instance();

  // Unregisters all images and unloads everything (test support).
  void reset();

  // Registers an image; fails if the name is taken.
  Status register_image(LibraryImage image);
  bool has_image(std::string_view name) const;

  // Normal load: shares an already-loaded copy in `ns` (refcounted),
  // otherwise loads the library and its dependencies into `ns`.
  StatusOr<Handle> dlopen(std::string_view name,
                          NamespaceId ns = kGlobalNamespace);

  // Degraded-mode load into the global namespace (docs/ROBUSTNESS.md):
  // used when replica creation has exhausted its retries and the EGL layer
  // deliberately falls back to one shared vendor stack. Skips both the
  // linker.dlopen fault point (the fallback must not itself be injectable
  // — it is the floor of the degradation ladder) and the replica-bypass
  // audit (the sharing is intentional and separately serialized), and
  // counts degrade.linker_shared_open instead.
  StatusOr<Handle> dlopen_shared_fallback(std::string_view name);

  // DLR load (paper §8.1): loads `name` and its whole dependency closure
  // into a brand-new namespace as if nothing had ever been loaded. Returns
  // the replica root; dlsym/dlopen against it stay inside the replica tree.
  StatusOr<Handle> dlforce(std::string_view name);

  // Resolves `symbol` in the handle's library, then breadth-first through
  // its dependency tree (never escaping the handle's namespace).
  void* dlsym(const Handle& handle, std::string_view symbol);

  // Drops one reference; the copy (and, for replica roots, the whole tree)
  // is destroyed when the last reference goes away. A handle that is not
  // the currently loaded copy of its (namespace, name) — already fully
  // closed, or stale after the slot was reloaded — returns NOT_FOUND and
  // touches nothing, so a double dlclose can never unload a copy that
  // other callers still share.
  Status dlclose(Handle handle);

  // Introspection for tests and the DESIGN.md invariants.
  int load_count(std::string_view name) const;   // total loads ever
  int live_copy_count(std::string_view name) const;  // currently loaded copies

  // Every currently loaded copy, for the replica isolation check. The
  // shared_ptrs keep the copies alive while the checker walks them.
  struct LoadedCopy {
    std::string name;
    NamespaceId ns;
    std::shared_ptr<LoadedLibrary> copy;
  };
  std::vector<LoadedCopy> loaded_copies() const;

  // Global-namespace dlopens of replica_aware images that happened while a
  // replica of the image was live — each is a bypass of the replica-aware
  // load path. Cleared by reset().
  std::vector<std::string> replica_bypass_events() const;

  // The owning session (nullptr for directly constructed instances).
  core::Session* owner() const { return owner_; }

 private:
  friend class core::Session;
  Linker() = default;

  StatusOr<std::shared_ptr<LoadedLibrary>> load_locked(std::string_view name,
                                                       NamespaceId ns);

  // Guards the tables and the namespace counter below, readers included.
  // Recursive: library constructors run under it and may call back into
  // the linker.
  mutable util::OrderedRecursiveMutex mutex_{util::LockLevel::kLinker,
                                             "linker"};
  std::map<std::string, LibraryImage, std::less<>> images_;
  // (namespace, name) -> loaded copy shared within that namespace.
  std::map<std::pair<NamespaceId, std::string>,
           std::shared_ptr<LoadedLibrary>, NsNameLess>
      loaded_;
  std::map<std::string, int, std::less<>> load_counts_;
  std::vector<std::string> replica_bypasses_;
  NamespaceId next_namespace_ = 1;
  core::Session* owner_ = nullptr;  // set in instance()'s facet thunk
};

}  // namespace cycada::linker
