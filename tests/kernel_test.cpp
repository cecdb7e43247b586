#include "kernel/kernel.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "kernel/libc.h"

namespace cycada::kernel {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override { Kernel::instance().reset(TrapModel::kCycada); }
};

TEST_F(KernelTest, FirstThreadBecomesLeader) {
  ThreadState& main = Kernel::instance().current_thread();
  EXPECT_EQ(main.tid(), main.tgid());
  EXPECT_EQ(Kernel::instance().main_tid(), main.tid());
}

TEST_F(KernelTest, ThreadsGetUniqueTids) {
  const Tid main_tid = Kernel::instance().current_thread().tid();
  Tid worker_tid = kInvalidTid;
  Tid worker_tgid = kInvalidTid;
  std::thread worker([&] {
    ThreadState& me = Kernel::instance().current_thread();
    worker_tid = me.tid();
    worker_tgid = me.tgid();
  });
  worker.join();
  EXPECT_NE(worker_tid, main_tid);
  EXPECT_EQ(worker_tgid, main_tid);
}

TEST_F(KernelTest, OnlyThreadsThatEndCleanUnregister) {
  Kernel& kernel = Kernel::instance();
  const auto exits = [&](bool leak_crossing) {
    Tid tid = kInvalidTid;
    std::thread worker([&] {
      tid = kernel.register_current_thread(Persona::kIos).tid();
      if (leak_crossing) sys_set_persona(Persona::kAndroid);
      kernel.unregister_current_thread();
    });
    worker.join();
    return tid;
  };
  // A thread back in its registered persona is forgotten.
  EXPECT_EQ(kernel.find_thread(exits(false)), nullptr);
  // One that leaked a crossing stays for the fault-safety audit.
  EXPECT_NE(kernel.find_thread(exits(true)), nullptr);
}

TEST_F(KernelTest, NullSyscallReturnsZero) {
  EXPECT_EQ(sys_null(), 0);
}

TEST_F(KernelTest, GetTidMatchesThreadState) {
  EXPECT_EQ(sys_gettid(), Kernel::instance().current_thread().tid());
}

TEST_F(KernelTest, SetPersonaSwitchesTlsArea) {
  Kernel& kernel = Kernel::instance();
  kernel.register_current_thread(Persona::kAndroid);
  auto key = kernel.tls_key_create();
  ASSERT_TRUE(key.is_ok());

  int android_value = 1;
  kernel.tls_set(*key, &android_value);
  EXPECT_EQ(kernel.tls_get(*key), &android_value);

  ASSERT_EQ(sys_set_persona(Persona::kIos), 0);
  // The iOS persona has its own TLS area: slot starts empty.
  EXPECT_EQ(kernel.tls_get(*key), nullptr);
  int ios_value = 2;
  kernel.tls_set(*key, &ios_value);
  EXPECT_EQ(kernel.tls_get(*key), &ios_value);

  ASSERT_EQ(sys_set_persona(Persona::kAndroid), 0);
  EXPECT_EQ(kernel.tls_get(*key), &android_value);
}

TEST_F(KernelTest, SetPersonaRejectsBadValue) {
  SyscallArgs args;
  args.reg[0] = 99;
  EXPECT_EQ(Kernel::instance().syscall(Sys::kSetPersona, args), kErrInval);
}

TEST_F(KernelTest, ForeignNumberingIsTranslated) {
  // In the iOS persona, syscalls are issued with foreign numbers; the native
  // index must be rejected and the foreign number accepted.
  ASSERT_EQ(sys_set_persona(Persona::kIos), 0);
  Kernel& kernel = Kernel::instance();
  // Foreign-numbered null syscall via the raw trap.
  EXPECT_EQ(kernel.trap(foreign_syscall_number(Sys::kNull), {}), 0);
  // Native index 0 is not a valid foreign number.
  EXPECT_LT(kernel.trap(static_cast<std::int32_t>(Sys::kNull), {}), 0);
  sys_set_persona(Persona::kAndroid);
}

TEST_F(KernelTest, UnknownForeignSyscallReturnsDarwinENOSYS) {
  ASSERT_EQ(sys_set_persona(Persona::kIos), 0);
  // Linux ENOSYS is 38; Darwin's is 78. The foreign caller must see 78.
  EXPECT_EQ(Kernel::instance().trap(kForeignSyscallBase + 1, {}), -78);
  sys_set_persona(Persona::kAndroid);
}

TEST_F(KernelTest, ImpersonateChangesEffectiveTid) {
  Kernel& kernel = Kernel::instance();
  const Tid self = kernel.current_thread().tid();

  Tid other = kInvalidTid;
  std::thread worker([&] { other = kernel.current_thread().tid(); });
  worker.join();

  ASSERT_EQ(sys_impersonate(other), 0);
  EXPECT_EQ(sys_gettid(), other);
  ASSERT_EQ(sys_impersonate(kInvalidTid), 0);
  EXPECT_EQ(sys_gettid(), self);
}

TEST_F(KernelTest, ImpersonateUnknownTidFails) {
  EXPECT_EQ(sys_impersonate(99999), kErrSrch);
}

TEST_F(KernelTest, LocateAndPropagateTlsAcrossThreads) {
  Kernel& kernel = Kernel::instance();
  auto key = kernel.tls_key_create();
  ASSERT_TRUE(key.is_ok());

  Tid worker_tid = kInvalidTid;
  int worker_value = 42;
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  void* observed_back = nullptr;

  std::thread worker([&] {
    kernel.register_current_thread(Persona::kAndroid);
    worker_tid = kernel.current_thread().tid();
    kernel.tls_set(*key, &worker_value);
    ready.store(true);
    while (!done.load()) std::this_thread::yield();
    observed_back = kernel.tls_get(*key);
  });
  while (!ready.load()) std::this_thread::yield();

  // locate_tls reads the worker's Android-persona slot.
  void* value = nullptr;
  TlsKey keys[1] = {*key};
  ASSERT_EQ(sys_locate_tls(worker_tid, Persona::kAndroid, keys, &value, 1), 0);
  EXPECT_EQ(value, &worker_value);

  // propagate_tls overwrites it; the worker sees the new value.
  int replacement = 7;
  void* new_values[1] = {&replacement};
  ASSERT_EQ(
      sys_propagate_tls(worker_tid, Persona::kAndroid, keys, new_values, 1), 0);
  done.store(true);
  worker.join();
  EXPECT_EQ(observed_back, &replacement);
}

TEST_F(KernelTest, LocateTlsValidatesArguments) {
  TlsKey keys[1] = {0};
  void* values[1] = {nullptr};
  EXPECT_EQ(sys_locate_tls(12345, Persona::kAndroid, keys, values, 1),
            kErrSrch);
  const Tid self = Kernel::instance().current_thread().tid();
  TlsKey bad_keys[1] = {kMaxTlsSlots + 5};
  EXPECT_EQ(sys_locate_tls(self, Persona::kAndroid, bad_keys, values, 1),
            kErrInval);
}

TEST_F(KernelTest, TlsKeyHooksFire) {
  Kernel& kernel = Kernel::instance();
  std::vector<TlsKey> created;
  std::vector<TlsKey> deleted;
  const int create_id =
      kernel.add_key_create_hook([&](TlsKey k) { created.push_back(k); });
  const int delete_id =
      kernel.add_key_delete_hook([&](TlsKey k) { deleted.push_back(k); });

  auto key = kernel.tls_key_create();
  ASSERT_TRUE(key.is_ok());
  ASSERT_EQ(created.size(), 1u);
  EXPECT_EQ(created[0], *key);

  ASSERT_TRUE(kernel.tls_key_delete(*key).is_ok());
  ASSERT_EQ(deleted.size(), 1u);
  EXPECT_EQ(deleted[0], *key);

  kernel.remove_key_create_hook(create_id);
  kernel.remove_key_delete_hook(delete_id);
  auto key2 = kernel.tls_key_create();
  ASSERT_TRUE(key2.is_ok());
  EXPECT_EQ(created.size(), 1u);  // hook removed, no new notification
}

TEST_F(KernelTest, TlsKeysAreRecycledAndExhaustible) {
  Kernel& kernel = Kernel::instance();
  std::vector<TlsKey> keys;
  for (int i = 0; i < kMaxTlsSlots - kFirstUserTlsKey; ++i) {
    auto key = kernel.tls_key_create();
    ASSERT_TRUE(key.is_ok()) << "exhausted early at " << i;
    keys.push_back(*key);
  }
  auto overflow = kernel.tls_key_create();
  EXPECT_FALSE(overflow.is_ok());
  ASSERT_TRUE(kernel.tls_key_delete(keys.back()).is_ok());
  auto recycled = kernel.tls_key_create();
  EXPECT_TRUE(recycled.is_ok());
}

TEST_F(KernelTest, DeleteInvalidKeyFails) {
  EXPECT_FALSE(Kernel::instance().tls_key_delete(kInvalidTlsKey).is_ok());
  EXPECT_FALSE(Kernel::instance().tls_key_delete(kMaxTlsSlots).is_ok());
  EXPECT_FALSE(Kernel::instance().tls_key_delete(kFirstUserTlsKey).is_ok());
}

TEST_F(KernelTest, ScopedPersonaRestores) {
  Kernel& kernel = Kernel::instance();
  kernel.register_current_thread(Persona::kIos);
  sys_set_persona(Persona::kIos);
  {
    ScopedPersona as_android(Persona::kAndroid);
    EXPECT_EQ(kernel.current_thread().persona(), Persona::kAndroid);
    {
      ScopedPersona nested(Persona::kIos);
      EXPECT_EQ(kernel.current_thread().persona(), Persona::kIos);
    }
    EXPECT_EQ(kernel.current_thread().persona(), Persona::kAndroid);
  }
  EXPECT_EQ(kernel.current_thread().persona(), Persona::kIos);
}

TEST_F(KernelTest, PerPersonaErrnoIsIndependent) {
  libc::set_errno(11);
  sys_set_persona(Persona::kIos);
  EXPECT_EQ(libc::get_errno(), 0);
  libc::set_errno(35);
  sys_set_persona(Persona::kAndroid);
  EXPECT_EQ(libc::get_errno(), 11);
}

// Every trap model must execute the full syscall set correctly; only the
// entry-path cost differs (Table 3).
class TrapModelTest : public ::testing::TestWithParam<TrapModel> {
 protected:
  void SetUp() override { Kernel::instance().reset(GetParam()); }
};

TEST_P(TrapModelTest, NullAndGetTidWork) {
  if (GetParam() == TrapModel::kIpadIos) {
    Kernel::instance().register_current_thread(Persona::kIos);
  }
  EXPECT_EQ(sys_null(), 0);
  EXPECT_EQ(sys_gettid(), Kernel::instance().current_thread().tid());
}

TEST_P(TrapModelTest, OutOfRangeSyscallRejected) {
  EXPECT_LT(Kernel::instance().trap(0x7fffffff, {}), 0);
  EXPECT_LT(Kernel::instance().trap(-1, {}), 0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, TrapModelTest,
                         ::testing::Values(TrapModel::kStockAndroid,
                                           TrapModel::kCycada,
                                           TrapModel::kIpadIos),
                         [](const auto& info) {
                           switch (info.param) {
                             case TrapModel::kStockAndroid:
                               return "StockAndroid";
                             case TrapModel::kCycada: return "Cycada";
                             case TrapModel::kIpadIos: return "IpadIos";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace cycada::kernel
