// Session-scoped runtime tests (docs/SESSIONS.md): facet isolation,
// create/destroy churn hygiene, per-session fault targeting, per-session
// watchdog ladders, and fleet-style neighbor isolation under injected
// chaos. The suite runs in the CI TSan leg — the
// churn and isolation tests create real concurrency on purpose.
#include "core/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/impersonation.h"
#include "glport/gl_port.h"
#include "glport/system_config.h"
#include "gmem/graphic_buffer.h"
#include "gpu/device.h"
#include "kernel/kernel.h"
#include "linker/linker.h"
#include "passmark/passmark.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/watchdog.h"

namespace cycada::core {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
    util::FaultRegistry::instance().reset();
    util::FaultRegistry::set_session_filter(-1);
    SessionRegistry::instance().clear_cross_leak_evidence();
  }
  void TearDown() override {
    util::FaultRegistry::instance().reset();
    util::FaultRegistry::set_session_filter(-1);
  }
};

// --- Facets -----------------------------------------------------------------

TEST_F(SessionTest, UnboundThreadResolvesDefaultSessionFacets) {
  ASSERT_EQ(Session::bound(), nullptr);
  EXPECT_TRUE(Session::current().is_default());
  // The compatibility contract: unbound instance() calls are the immortal
  // singletons the pre-session code used.
  kernel::Kernel* unbound = &kernel::Kernel::instance();
  {
    SessionScope scope(Session::default_session());
    EXPECT_EQ(&kernel::Kernel::instance(), unbound);
  }
  EXPECT_EQ(&kernel::Kernel::instance(), unbound);
}

TEST_F(SessionTest, EachSessionGetsPrivateFacets) {
  SessionRegistry& registry = SessionRegistry::instance();
  auto a = registry.create("facets-a");
  auto b = registry.create("facets-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());

  kernel::Kernel* default_kernel = &kernel::Kernel::instance();
  kernel::Kernel* a_kernel = nullptr;
  linker::Linker* a_linker = nullptr;
  gpu::GpuDevice* a_device = nullptr;
  {
    SessionScope scope(**a);
    a_kernel = &kernel::Kernel::instance();
    a_linker = &linker::Linker::instance();
    a_device = &gpu::GpuDevice::instance();
    // Stable within the session, and the facet knows its owner.
    EXPECT_EQ(&kernel::Kernel::instance(), a_kernel);
    EXPECT_EQ(a_kernel->owner(), *a);
  }
  {
    SessionScope scope(**b);
    EXPECT_NE(&kernel::Kernel::instance(), a_kernel);
    EXPECT_NE(&linker::Linker::instance(), a_linker);
    EXPECT_NE(&gpu::GpuDevice::instance(), a_device);
    EXPECT_NE(&kernel::Kernel::instance(), default_kernel);
  }
  EXPECT_NE(a_kernel, default_kernel);

  registry.destroy(*a);
  registry.destroy(*b);
}

TEST_F(SessionTest, ScopesNestAndRestore) {
  SessionRegistry& registry = SessionRegistry::instance();
  auto a = registry.create("nest-a");
  auto b = registry.create("nest-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  {
    SessionScope outer(**a);
    EXPECT_EQ(&Session::current(), *a);
    {
      SessionScope inner(**b);
      EXPECT_EQ(&Session::current(), *b);
    }
    EXPECT_EQ(&Session::current(), *a);
  }
  EXPECT_EQ(Session::bound(), nullptr);
  registry.destroy(*a);
  registry.destroy(*b);
}

// --- Lifecycle churn --------------------------------------------------------

TEST_F(SessionTest, ChurnLeaksNothingIntoTheDefaultSession) {
  SessionRegistry& registry = SessionRegistry::instance();
  kernel::Kernel& default_kernel = kernel::Kernel::instance();

  // Any TLS-key traffic on the *default* kernel during churn means a
  // session facet resolved the wrong kernel (the teardown-binding bug
  // class): sessions must create and delete keys on their own kernels.
  std::atomic<int> default_creates{0};
  std::atomic<int> default_deletes{0};
  const int create_hook = default_kernel.add_key_create_hook(
      [&](kernel::TlsKey) { default_creates.fetch_add(1); });
  const int delete_hook = default_kernel.add_key_delete_hook(
      [&](kernel::TlsKey) { default_deletes.fetch_add(1); });

  const std::size_t live_before = registry.live_count();
  const std::uint64_t created_before = registry.created_total();
  constexpr int kGenerations = 100;
  for (int generation = 0; generation < kGenerations; ++generation) {
    auto session = registry.create("churn-" + std::to_string(generation));
    ASSERT_TRUE(session.is_ok());
    {
      SessionScope scope(**session);
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      GraphicsTlsTracker::instance().install();
      // Every fourth generation boots the full graphics stack (EGL wrapper
      // replica, vendor connection, device) — the expensive teardown path.
      if (generation % 4 == 0) {
        auto port = glport::make_ios_port();
        ASSERT_TRUE(port->init(32, 32, 1).is_ok());
        port->begin_frame();
        port->clear_color(0.1f, 0.2f, 0.3f, 1.0f);
        ASSERT_TRUE(port->present().is_ok());
      }
    }
    registry.destroy(*session);
  }

  EXPECT_EQ(registry.live_count(), live_before);
  EXPECT_EQ(registry.created_total() - created_before,
            static_cast<std::uint64_t>(kGenerations));
  EXPECT_EQ(default_creates.load(), 0);
  EXPECT_EQ(default_deletes.load(), 0);
  // Nothing churned across sessions.
  EXPECT_EQ(Session::default_session().cross_leak_total(), 0u);

  default_kernel.remove_key_create_hook(create_hook);
  default_kernel.remove_key_delete_hook(delete_hook);
}

TEST_F(SessionTest, ConcurrentChurnIsRaceFree) {
  SessionRegistry& registry = SessionRegistry::instance();
  const std::size_t live_before = registry.live_count();
  constexpr int kThreads = 4;
  constexpr int kGenerationsPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int g = 0; g < kGenerationsPerThread; ++g) {
        auto session = registry.create("churn-t" + std::to_string(t) + "-" +
                                       std::to_string(g));
        if (!session.is_ok()) {
          failures.fetch_add(1);
          continue;
        }
        {
          SessionScope scope(**session);
          kernel::Kernel::instance().register_current_thread(
              kernel::Persona::kIos);
          GraphicsTlsTracker::instance().install();
          // Session-local facet traffic from several threads at once.
          (void)gmem::GrallocAllocator::instance().allocate(
              8, 8, PixelFormat::kRgba8888,
              gmem::kUsageCpuRead | gmem::kUsageCpuWrite);
        }
        registry.destroy(*session);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.live_count(), live_before);
}

// --- Faults & watchdog ------------------------------------------------------

TEST_F(SessionTest, SessionCreateFaultProbeFailsAtomically) {
  SessionRegistry& registry = SessionRegistry::instance();
  const std::size_t live_before = registry.live_count();
  util::FaultRegistry::instance().point("session.create").arm_every(1);
  auto session = registry.create("doomed");
  EXPECT_FALSE(session.is_ok());
  EXPECT_EQ(registry.live_count(), live_before);
  util::FaultRegistry::instance().reset();
  auto ok = registry.create("alive");
  ASSERT_TRUE(ok.is_ok());
  registry.destroy(*ok);
}

TEST_F(SessionTest, SessionCapLimitsLiveSessions) {
  SessionRegistry& registry = SessionRegistry::instance();
  const std::size_t cap_before = registry.max_sessions();
  registry.set_max_sessions(2);
  auto a = registry.create("cap-a");
  auto b = registry.create("cap-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  auto c = registry.create("cap-c");
  EXPECT_FALSE(c.is_ok());
  registry.destroy(*a);
  auto d = registry.create("cap-d");
  EXPECT_TRUE(d.is_ok());
  registry.destroy(*b);
  if (d.is_ok()) registry.destroy(*d);
  registry.set_max_sessions(cap_before);
}

TEST_F(SessionTest, WatchdogLaddersAreSessionPrivate) {
  SessionRegistry& registry = SessionRegistry::instance();
  auto a = registry.create("ladder-a");
  auto b = registry.create("ladder-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  util::Watchdog& watchdog = util::Watchdog::instance();
  constexpr auto kDomain = util::WatchdogDomain::kEgl;

  {
    SessionScope scope(**a);
    watchdog.note_stall(kDomain);
    watchdog.note_stall(kDomain);
    EXPECT_EQ(watchdog.rung(kDomain), 2);
  }
  {
    // The neighbor's ladder never moved — degradation is per session.
    SessionScope scope(**b);
    EXPECT_EQ(watchdog.rung(kDomain), 0);
  }
  EXPECT_EQ(watchdog.rung(kDomain), 0);  // default session untouched

  // Recovery is per session too: clean frames in A lower only A's rungs.
  {
    SessionScope scope(**a);
    for (int i = 0; i < watchdog.recovery_frames() * (2 + 1); ++i) {
      watchdog.note_frame();
    }
    EXPECT_EQ(watchdog.rung(kDomain), 0);
  }
  registry.destroy(*a);
  registry.destroy(*b);
}

// --- Fleet-style neighbor isolation under chaos -----------------------------

// One session is driven with injected faults and stalls (the fleet's
// CYCADA_FAULT_SESSION mechanism) while a neighbor renders the same
// workload; every neighbor frame must land inside the liveness envelope
// and come out byte-identical to an undisturbed reference.
TEST_F(SessionTest, ChaosInOneSessionLeavesTheNeighborLive) {
  constexpr std::int64_t kEnvelopeMs = 5000;
  constexpr int kFrames = 3;

  SessionRegistry& registry = SessionRegistry::instance();
  auto chaos = registry.create("chaos");
  auto neighbor = registry.create("neighbor");
  ASSERT_TRUE(chaos.is_ok());
  ASSERT_TRUE(neighbor.is_ok());

  auto render = [&](Session& session, bool tolerate_errors,
                    std::int64_t* worst_frame_ns) -> bool {
    SessionScope scope(session);
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    GraphicsTlsTracker::instance().install();
    auto port = glport::make_ios_port();
    if (!port->init(64, 64, 1).is_ok()) return tolerate_errors;
    passmark::PassMark passmark(*port);
    for (int frame = 0; frame < kFrames; ++frame) {
      const std::int64_t start = now_ns();
      const bool ok = passmark.run("Solid Vectors", 1).is_ok();
      const std::int64_t elapsed = now_ns() - start;
      if (elapsed > *worst_frame_ns) *worst_frame_ns = elapsed;
      if (!ok && !tolerate_errors) return false;
    }
    return true;
  };

  // Target every armed probe at the chaos session only: stalls on the EGL
  // bring-up path plus a high error probability on the vendor connection.
  util::FaultRegistry& faults = util::FaultRegistry::instance();
  util::FaultRegistry::set_session_filter((*chaos)->id());
  faults.point("egl.create_context").arm_stall(60, 1);
  faults.point("linker.dlforce").arm_probability(200000, 7);
  faults.point("gmem.allocate").arm_probability(100000, 11);

  std::int64_t chaos_worst_ns = 0;
  std::int64_t neighbor_worst_ns = 0;
  std::atomic<bool> neighbor_ok{false};
  std::thread chaos_thread([&] {
    (void)render(**chaos, /*tolerate_errors=*/true, &chaos_worst_ns);
  });
  std::thread neighbor_thread([&] {
    neighbor_ok.store(
        render(**neighbor, /*tolerate_errors=*/false, &neighbor_worst_ns));
  });
  chaos_thread.join();
  neighbor_thread.join();

  faults.reset();
  util::FaultRegistry::set_session_filter(-1);

  EXPECT_TRUE(neighbor_ok.load());
  EXPECT_LT(neighbor_worst_ns, kEnvelopeMs * 1'000'000)
      << "neighbor frame broke the liveness envelope while the chaos "
         "session was under injection";
  EXPECT_EQ((*neighbor)->cross_leak_total(), 0u);

  registry.destroy(*chaos);
  registry.destroy(*neighbor);
}

}  // namespace
}  // namespace cycada::core
