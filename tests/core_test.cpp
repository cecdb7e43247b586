#include "core/diplomat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/classification.h"
#include "core/impersonation.h"
#include "trace/metrics.h"
#include "util/faultpoint.h"

namespace cycada::core {
namespace {

class DiplomatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel::Kernel::instance().reset(kernel::TrapModel::kCycada);
    DiplomatRegistry::instance().reset();
    GraphicsTlsTracker::instance().reset();
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kIos);
  }
};

TEST_F(DiplomatTest, CallRunsDomesticInAndroidPersona) {
  DiplomatEntry& entry =
      DiplomatRegistry::instance().entry("glClear", DiplomatPattern::kDirect);
  kernel::Persona seen = kernel::Persona::kIos;
  diplomat_call(entry, {}, [&] {
    seen = kernel::Kernel::instance().current_thread().persona();
  });
  EXPECT_EQ(seen, kernel::Persona::kAndroid);
  // Back in the foreign persona after the call.
  EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(),
            kernel::Persona::kIos);
  EXPECT_EQ(entry.calls.load(), 1u);
}

TEST_F(DiplomatTest, CallReturnsDomesticValue) {
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glGetError", DiplomatPattern::kDirect);
  const int value = diplomat_call(entry, {}, [] { return 42; });
  EXPECT_EQ(value, 42);
}

TEST_F(DiplomatTest, PreludeAndPostludeRunInForeignPersona) {
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glFlush", DiplomatPattern::kDirect);
  std::vector<std::pair<std::string, kernel::Persona>> trace;
  DiplomatHooks hooks;
  hooks.prelude = [&] {
    trace.emplace_back("prelude",
                       kernel::Kernel::instance().current_thread().persona());
  };
  hooks.postlude = [&] {
    trace.emplace_back("postlude",
                       kernel::Kernel::instance().current_thread().persona());
  };
  diplomat_call(entry, hooks, [&] {
    trace.emplace_back("domestic",
                       kernel::Kernel::instance().current_thread().persona());
  });
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], (std::pair<std::string, kernel::Persona>{
                          "prelude", kernel::Persona::kIos}));
  EXPECT_EQ(trace[1], (std::pair<std::string, kernel::Persona>{
                          "domestic", kernel::Persona::kAndroid}));
  EXPECT_EQ(trace[2], (std::pair<std::string, kernel::Persona>{
                          "postlude", kernel::Persona::kIos}));
}

TEST_F(DiplomatTest, ErrnoIsConvertedToDarwin) {
  DiplomatEntry& entry =
      DiplomatRegistry::instance().entry("open", DiplomatPattern::kDirect);
  diplomat_call(entry, {}, [] {
    kernel::libc::set_errno(11);  // Linux EAGAIN
  });
  // The foreign persona sees Darwin EAGAIN (35).
  EXPECT_EQ(kernel::libc::get_errno(), 35);
}

TEST_F(DiplomatTest, NestedDiplomatsRestorePersona) {
  DiplomatEntry& outer =
      DiplomatRegistry::instance().entry("outer", DiplomatPattern::kMulti);
  DiplomatEntry& inner =
      DiplomatRegistry::instance().entry("inner", DiplomatPattern::kDirect);
  diplomat_call(outer, {}, [&] {
    // Domestic code invoking another diplomat: caller persona is Android
    // and must be restored to Android, not blindly to iOS.
    diplomat_call(inner, {}, [] {});
    EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(),
              kernel::Persona::kAndroid);
  });
  EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(),
            kernel::Persona::kIos);
}

TEST_F(DiplomatTest, ProfilingRecordsTime) {
  DiplomatRegistry::instance().set_profiling(true);
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glDrawArrays", DiplomatPattern::kDirect);
  diplomat_call(entry, {}, [] {
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  });
  EXPECT_EQ(entry.calls.load(), 1u);
  EXPECT_GT(entry.total_ns(), 0);
  // Entries are process-lifetime, so other tests' entries may also be in
  // the snapshot; find ours rather than assuming it is alone.
  auto snapshot = DiplomatRegistry::instance().snapshot();
  auto it = std::find_if(snapshot.begin(), snapshot.end(), [](const auto& s) {
    return s.name == "glDrawArrays";
  });
  ASSERT_NE(it, snapshot.end());
  EXPECT_GT(it->p50_ns, 0);
  EXPECT_GE(it->p99_ns, it->p50_ns);
  DiplomatRegistry::instance().clear_stats();
  for (const auto& s : DiplomatRegistry::instance().snapshot()) {
    EXPECT_EQ(s.calls, 0u);
  }
}

TEST_F(DiplomatTest, CallCountsIdenticalWithProfilingOnAndOff) {
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glFinish", DiplomatPattern::kDirect);
  DiplomatRegistry::instance().set_profiling(false);
  for (int i = 0; i < 3; ++i) diplomat_call(entry, {}, [] {});
  EXPECT_EQ(entry.calls.load(), 3u);
  EXPECT_EQ(entry.latency.count(), 0u);  // no latency samples when off
  DiplomatRegistry::instance().set_profiling(true);
  for (int i = 0; i < 3; ++i) diplomat_call(entry, {}, [] {});
  EXPECT_EQ(entry.calls.load(), 6u);
  EXPECT_EQ(entry.latency.count(), 3u);
}

TEST_F(DiplomatTest, RegistryDeduplicatesEntries) {
  DiplomatEntry& a =
      DiplomatRegistry::instance().entry("glClear", DiplomatPattern::kDirect);
  DiplomatEntry& b =
      DiplomatRegistry::instance().entry("glClear", DiplomatPattern::kDirect);
  EXPECT_EQ(&a, &b);
}

// A call crosses into Android in one of four forms: a single diplomat, a
// multi diplomat, a recorded batch replayed under one crossing, and a batch
// whose crossing cannot open (every set_persona fails) and so falls back to
// plain calls. From either caller persona, each form runs its hooks in the
// caller's persona and its domestic code in Android, restores the caller's
// persona, hands step 9's errno back, and keeps the contract counters below.
TEST_F(DiplomatTest, EveryCrossingFormKeepsTheProcedureContract) {
  enum class Form { kSingle, kMulti, kBatch, kAbortedBatch };
  struct Expected {
    Form form;
    const char* name;
    DiplomatPattern pattern;
    std::uint64_t calls, domestic_calls, batched_calls, preludes, postludes,
        switches;
  };
  const Expected forms[] = {
      {Form::kSingle, "contract.single", DiplomatPattern::kDirect, 1, 1, 0, 1,
       1, 2},
      // One call coalescing three Android calls under one token crossing.
      {Form::kMulti, "contract.multi", DiplomatPattern::kMulti, 1, 1, 3, 1, 1,
       2},
      // Three recorded calls share one crossing and one prelude/postlude.
      {Form::kBatch, "glEnable", DiplomatPattern::kDirect, 3, 3, 3, 1, 1, 2},
      // The batch's own prelude is balanced by its postlude, then each call
      // runs the plain procedure: three failed set_persona attempts each
      // way before the forced switch, so 3 x 6 counted switches.
      {Form::kAbortedBatch, "glEnable", DiplomatPattern::kDirect, 3, 3, 0, 4,
       4, 18},
  };
  kernel::Kernel& kernel = kernel::Kernel::instance();
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("kernel.set_persona");
  trace::Counter& switches =
      trace::MetricsRegistry::instance().counter("persona.switches");
  trace::Counter& aborted =
      trace::MetricsRegistry::instance().counter("dispatch.batch.aborted");

  for (const kernel::Persona caller :
       {kernel::Persona::kIos, kernel::Persona::kAndroid}) {
    for (const Expected& want : forms) {
      SCOPED_TRACE(std::string(want.name) + " form " +
                   std::to_string(static_cast<int>(want.form)) +
                   (caller == kernel::Persona::kIos ? " from iOS"
                                                    : " from Android"));
      DiplomatEntry& entry =
          DiplomatRegistry::instance().entry(want.name, want.pattern);
      std::vector<kernel::Persona> hook_personas;
      std::vector<kernel::Persona> domestic_personas;
      DiplomatHooks hooks;
      hooks.prelude = [&] {
        hook_personas.push_back(kernel.current_thread().persona());
      };
      hooks.postlude = hooks.prelude;
      const auto domestic = [&] {
        domestic_personas.push_back(kernel.current_thread().persona());
        kernel::libc::set_errno(11);  // Linux EAGAIN
      };

      kernel::ScopedPersona as_caller(caller);
      kernel::libc::set_errno(0);
      const DiplomatContract& contract = entry.contract;
      const std::uint64_t calls = entry.calls.load();
      const std::uint64_t domestic_calls = contract.domestic_calls.load();
      const std::uint64_t batched_calls = contract.batched_calls.load();
      const std::uint64_t preludes = contract.preludes.load();
      const std::uint64_t postludes = contract.postludes.load();
      const std::uint64_t switches_before = switches.value();
      const std::uint64_t aborted_before = aborted.value();

      switch (want.form) {
        case Form::kSingle:
          diplomat_call(entry, hooks, domestic);
          break;
        case Form::kMulti:
          multi_diplomat_call(entry, hooks, /*coalesced_calls=*/3, domestic);
          break;
        case Form::kBatch:
        case Form::kAbortedBatch: {
          BatchScope scope;
          for (int i = 0; i < 3; ++i) {
            ASSERT_TRUE(batch_record(entry, hooks, domestic));
          }
          if (want.form == Form::kAbortedBatch) fault.arm_every(1);
          flush_current_batch(BatchFlushReason::kExplicit);
          fault.disarm();
          break;
        }
      }

      const std::size_t domestic_runs = want.form == Form::kMulti ||
                                                want.form == Form::kSingle
                                            ? 1
                                            : 3;
      EXPECT_EQ(domestic_personas, std::vector<kernel::Persona>(
                                       domestic_runs, kernel::Persona::kAndroid));
      EXPECT_EQ(hook_personas,
                std::vector<kernel::Persona>(want.preludes + want.postludes,
                                             caller));
      EXPECT_EQ(kernel.current_thread().persona(), caller);
      EXPECT_EQ(kernel::libc::get_errno(),
                caller == kernel::Persona::kIos ? 35 : 11);
      EXPECT_EQ(entry.calls.load() - calls, want.calls);
      EXPECT_EQ(contract.domestic_calls.load() - domestic_calls,
                want.domestic_calls);
      EXPECT_EQ(contract.batched_calls.load() - batched_calls,
                want.batched_calls);
      EXPECT_EQ(contract.preludes.load() - preludes, want.preludes);
      EXPECT_EQ(contract.postludes.load() - postludes, want.postludes);
      EXPECT_EQ(switches.value() - switches_before, want.switches);
      EXPECT_EQ(aborted.value() - aborted_before,
                want.form == Form::kAbortedBatch ? 1u : 0u);
    }
  }
}

TEST(DiplomatDeathTest, IdSpaceExhaustionAbortsInEveryBuild) {
  // Names can come from a replayed trace, so running out of ids must stop
  // the process loudly in release builds too, never overrun the id array.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DiplomatRegistry& registry = DiplomatRegistry::instance();
        for (int i = 0; i <= 16384; ++i) {
          (void)registry.entry("exhaust." + std::to_string(i),
                               DiplomatPattern::kIndirect);
        }
      },
      "diplomat id space exhausted");
}

class TrackerTest : public DiplomatTest {};

TEST_F(TrackerTest, OnlyGatedKeysAreGraphicsKeys) {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  const kernel::TlsKey plain = kernel::libc::pthread_key_create();
  tracker.enter_graphics_diplomat();
  const kernel::TlsKey graphics = kernel::libc::pthread_key_create();
  tracker.exit_graphics_diplomat();
  EXPECT_FALSE(tracker.is_graphics_key(plain));
  EXPECT_TRUE(tracker.is_graphics_key(graphics));
  // Deleting a key untracks it.
  kernel::libc::pthread_key_delete(graphics);
  EXPECT_FALSE(tracker.is_graphics_key(graphics));
}

TEST_F(TrackerTest, WellKnownKeysAreTracked) {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  const kernel::TlsKey apple_slot = kernel::libc::pthread_key_create();
  tracker.add_well_known_key(apple_slot);
  EXPECT_TRUE(tracker.is_graphics_key(apple_slot));
}

TEST_F(TrackerTest, GatingIsReentrant) {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  tracker.enter_graphics_diplomat();
  tracker.enter_graphics_diplomat();
  tracker.exit_graphics_diplomat();
  EXPECT_TRUE(tracker.in_graphics_diplomat());
  tracker.exit_graphics_diplomat();
  EXPECT_FALSE(tracker.in_graphics_diplomat());
}

class ImpersonationTest : public DiplomatTest {};

TEST_F(ImpersonationTest, MigratesGraphicsTlsBothWays) {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  tracker.enter_graphics_diplomat();
  const kernel::TlsKey key = kernel::libc::pthread_key_create();
  tracker.exit_graphics_diplomat();

  kernel::Kernel& kernel = kernel::Kernel::instance();
  // Target thread sets its graphics TLS (Android persona) and stays alive.
  kernel::Tid target_tid = kernel::kInvalidTid;
  int target_value = 1;
  int running_value = 2;
  std::atomic<bool> ready{false}, done{false};
  void* target_after = nullptr;
  std::thread target([&] {
    kernel.register_current_thread(kernel::Persona::kAndroid);
    target_tid = kernel.current_thread().tid();
    kernel.tls_set(key, &target_value);
    ready.store(true);
    while (!done.load()) std::this_thread::yield();
    target_after = kernel.tls_get(key);
  });
  while (!ready.load()) std::this_thread::yield();

  // Running thread (iOS persona): its own value in the Android slot.
  {
    kernel::ScopedPersona android(kernel::Persona::kAndroid);
    kernel.tls_set(key, &running_value);
  }

  int updated_value = 3;
  {
    ThreadImpersonation impersonation(target_tid);
    ASSERT_TRUE(impersonation.active());
    EXPECT_EQ(kernel::sys_gettid(), target_tid);
    kernel::ScopedPersona android(kernel::Persona::kAndroid);
    // The running thread now sees the target's value...
    EXPECT_EQ(kernel.tls_get(key), &target_value);
    // ...and updates it while impersonating.
    kernel.tls_set(key, &updated_value);
  }
  // Identity restored.
  EXPECT_EQ(kernel::sys_gettid(), kernel.current_thread().tid());
  {
    kernel::ScopedPersona android(kernel::Persona::kAndroid);
    // The running thread's own TLS was restored.
    EXPECT_EQ(kernel.tls_get(key), &running_value);
  }
  done.store(true);
  target.join();
  // The update was reflected back to the target thread.
  EXPECT_EQ(target_after, &updated_value);
}

TEST_F(ImpersonationTest, SelfAndInvalidTargetsAreNoOps) {
  const kernel::Tid self = kernel::Kernel::instance().current_thread().tid();
  ThreadImpersonation self_imp(self);
  EXPECT_FALSE(self_imp.active());
  ThreadImpersonation bad(99999);
  EXPECT_FALSE(bad.active());
  EXPECT_EQ(kernel::sys_gettid(), self);
}

TEST(ClassificationTest, Table2CountsMatchPaper) {
  const Table2Counts counts = count_table2();
  EXPECT_EQ(counts.direct, 312);
  EXPECT_EQ(counts.indirect, 15);
  EXPECT_EQ(counts.data_dependent, 5);
  EXPECT_EQ(counts.multi, 2);
  EXPECT_EQ(counts.unimplemented, 10);
  EXPECT_EQ(counts.total(), 344);
}

TEST(ClassificationTest, AppleFenceIsIndirect) {
  EXPECT_EQ(classify_ios_gl_function("glSetFenceAPPLE"),
            DiplomatPattern::kIndirect);
  EXPECT_EQ(classify_ios_gl_function("glGetString"),
            DiplomatPattern::kDataDependent);
  EXPECT_EQ(classify_ios_gl_function("glDeleteTextures"),
            DiplomatPattern::kMulti);
  EXPECT_EQ(classify_ios_gl_function("glClear"), DiplomatPattern::kDirect);
}

}  // namespace
}  // namespace cycada::core
