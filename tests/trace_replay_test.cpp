// Trace capture/replay (src/trace/cyt.h, src/core/replay.h) and the trace
// miner (analyze::check_trace, docs/TRACING.md): byte-identical round
// trips, rejection of truncated/corrupt/wrong-version files with errors
// that name the defect, capture→replay count fidelity, every seeded mining
// rule, and the committed golden PassMark corpus.
#include "core/replay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "analyze/analyze.h"
#include "core/batch.h"
#include "core/diplomat.h"
#include "glport/system_config.h"
#include "trace/cyt.h"
#include "util/status.h"

namespace cycada::core {
namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "cyt_" + name + ".cyt";
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

trace::CytRecord make_def(std::uint32_t id, const char* name,
                          DiplomatPattern pattern, bool batchable) {
  trace::CytRecord def = trace::cyt_zero_record();
  def.type = static_cast<std::uint8_t>(trace::CytRecordType::kDef);
  def.kind = static_cast<std::uint8_t>(pattern);
  def.flags = batchable ? trace::kCytDefFlagBatchable : 0;
  def.id = id;
  std::strncpy(def.name, name, trace::kCytNameChars - 1);
  return def;
}

trace::CytRecord make_event(std::uint32_t id, trace::CytEventKind kind,
                            std::uint8_t flags = 0, std::uint32_t aux = 0,
                            std::uint32_t tid = 0) {
  trace::CytRecord event = trace::cyt_zero_record();
  event.type = static_cast<std::uint8_t>(trace::CytRecordType::kEvent);
  event.kind = static_cast<std::uint8_t>(kind);
  event.flags = flags;
  event.id = id;
  event.tid = tid;
  event.aux = aux;
  return event;
}

// Flags of a recorded batch-eligible plain call.
constexpr std::uint8_t kEligible =
    trace::kCytFlagVoidReturn | trace::kCytFlagScalarArgs;

Status write_trace(const std::string& path,
                   const std::vector<trace::CytRecord>& records) {
  trace::CytHeader header{};
  return trace::write_cyt(path, header, records);
}

// Captures `workload` into `path` through the real recorder.
void capture(const std::string& path, const std::function<void()>& workload) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  ASSERT_TRUE(recorder.start(path).is_ok());
  workload();
  ASSERT_TRUE(recorder.stop().is_ok());
  ASSERT_EQ(recorder.dropped(), 0u);
}

std::map<std::string, std::uint64_t> registry_call_counts() {
  std::map<std::string, std::uint64_t> counts;
  for (const DiplomatSnapshot& s : DiplomatRegistry::instance().snapshot()) {
    if (s.calls != 0) counts[s.name] = s.calls;
  }
  return counts;
}

std::map<std::string, std::uint64_t> delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, count] : after) {
    auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (count != base) out[name] = count - base;
  }
  return out;
}

class TraceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  }
};

// --- Format round trips ------------------------------------------------------

TEST_F(TraceReplayTest, RecorderFileRoundTripsByteIdentical) {
  const std::string path = tmp_path("roundtrip");
  DiplomatEntry& enable =
      DiplomatRegistry::instance().entry("glEnable", DiplomatPattern::kDirect);
  capture(path, [&] {
    {
      BatchScope scope;
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(batch_record(enable, {}, [] {}));
    }
    diplomat_call(enable, {}, [] {});
  });

  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_FALSE(parsed->records.empty());

  const std::string rewritten = tmp_path("roundtrip2");
  ASSERT_TRUE(trace::write_cyt(rewritten, parsed->header, parsed->records,
                               parsed->dropped)
                  .is_ok());
  EXPECT_EQ(read_file(path), read_file(rewritten));
}

TEST_F(TraceReplayTest, TruncatedFilesAreRejectedWithClearErrors) {
  const std::string path = tmp_path("trunc_src");
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect,
                                          false),
                                 make_event(1, trace::CytEventKind::kCall)})
                  .is_ok());
  const std::string bytes = read_file(path);

  const std::string trunc = tmp_path("trunc");
  // Shorter than header + footer: structurally impossible.
  write_file(trunc, bytes.substr(0, 40));
  auto r1 = trace::read_cyt(trunc);
  ASSERT_FALSE(r1.is_ok());
  EXPECT_NE(r1.status().message().find("truncated"), std::string::npos)
      << r1.status().to_string();

  // Cut mid-record: the payload is no longer a whole number of records.
  write_file(trunc, bytes.substr(0, bytes.size() - 100));
  auto r2 = trace::read_cyt(trunc);
  ASSERT_FALSE(r2.is_ok());
  EXPECT_NE(r2.status().message().find("truncated"), std::string::npos)
      << r2.status().to_string();

  // Whole records but the footer is gone (crashed writer).
  write_file(trunc, bytes.substr(0, bytes.size() - sizeof(trace::CytFooter)));
  auto r3 = trace::read_cyt(trunc);
  ASSERT_FALSE(r3.is_ok());
  EXPECT_NE(r3.status().message().find("truncated"), std::string::npos)
      << r3.status().to_string();
}

TEST_F(TraceReplayTest, CorruptRecordFailsTheChecksum) {
  const std::string path = tmp_path("corrupt");
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect,
                                          false),
                                 make_event(1, trace::CytEventKind::kCall)})
                  .is_ok());
  std::string bytes = read_file(path);
  // Flip one byte inside the first record's name field.
  bytes[sizeof(trace::CytHeader) + 100] ^= 0x5a;
  write_file(path, bytes);
  auto parsed = trace::read_cyt(path);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
      << parsed.status().to_string();
}

TEST_F(TraceReplayTest, WrongVersionAndMagicAreRejected) {
  const std::string path = tmp_path("version");
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect,
                                          false)})
                  .is_ok());
  std::string bytes = read_file(path);

  trace::CytHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = trace::kCytVersion + 7;
  std::string versioned = bytes;
  std::memcpy(versioned.data(), &header, sizeof(header));
  write_file(path, versioned);
  auto wrong_version = trace::read_cyt(path);
  ASSERT_FALSE(wrong_version.is_ok());
  EXPECT_NE(wrong_version.status().message().find("version"),
            std::string::npos)
      << wrong_version.status().to_string();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  write_file(path, bad_magic);
  auto not_cyt = trace::read_cyt(path);
  ASSERT_FALSE(not_cyt.is_ok());
  EXPECT_NE(not_cyt.status().message().find("magic"), std::string::npos)
      << not_cyt.status().to_string();

  EXPECT_FALSE(trace::read_cyt(path + ".does-not-exist").is_ok());
}

// --- Capture → replay fidelity ----------------------------------------------

TEST_F(TraceReplayTest, ReplayReproducesCapturedCallCountsExactly) {
  const std::string path = tmp_path("fidelity");
  DiplomatEntry& enable =
      DiplomatRegistry::instance().entry("glEnable", DiplomatPattern::kDirect);
  DiplomatEntry& skip = DiplomatRegistry::instance().entry(
      "glGetString", DiplomatPattern::kDataDependent);
  DiplomatEntry& plain = DiplomatRegistry::instance().entry(
      "trace_replay_test.plain", DiplomatPattern::kDirect);
  capture(path, [&] {
    {
      BatchScope scope;
      for (int i = 0; i < 5; ++i) ASSERT_TRUE(batch_record(enable, {}, [] {}));
    }
    for (int i = 0; i < 2; ++i) diplomat_call(plain, {}, [] {});
    diplomat_skip(skip);
  });

  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const std::map<std::string, std::uint64_t> per_pass =
      trace_call_counts(*parsed);
  EXPECT_EQ(per_pass.at("glEnable"), 5u);
  EXPECT_EQ(per_pass.at("trace_replay_test.plain"), 2u);
  EXPECT_EQ(per_pass.at("glGetString"), 1u);

  ReplayOptions options;
  options.threads = 2;
  options.iterations = 3;
  const std::map<std::string, std::uint64_t> before = registry_call_counts();
  const std::size_t threads_before =
      kernel::Kernel::instance().registered_tids().size();
  auto stats = replay_trace(*parsed, options);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  const std::map<std::string, std::uint64_t> replayed =
      delta(before, registry_call_counts());
  // The replay threads ended clean, so none left its kernel state behind.
  EXPECT_EQ(kernel::Kernel::instance().registered_tids().size(),
            threads_before);

  for (const auto& [name, count] : per_pass) {
    EXPECT_EQ(replayed.at(name), count * 6) << name;
  }
  EXPECT_EQ(replayed.size(), per_pass.size());

  // Crossings per call must track the recorded stream within 5%: the five
  // batched calls share one crossing, the skip crosses nothing.
  const double expected =
      static_cast<double>(trace_expected_crossings(*parsed) * 6) /
      static_cast<double>(stats->calls);
  EXPECT_NEAR(stats->crossings_per_call(), expected, expected * 0.05);
  EXPECT_EQ(stats->skips, 6u);
  EXPECT_EQ(stats->batched, 30u);
}

TEST_F(TraceReplayTest, ReplayRejectsDeflessIdsAndBadOptions) {
  const std::string path = tmp_path("defless");
  ASSERT_TRUE(
      write_trace(path, {make_event(7, trace::CytEventKind::kCall)}).is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_FALSE(replay_trace(*parsed, {}).is_ok());

  ReplayOptions bad;
  bad.threads = 0;
  EXPECT_FALSE(replay_trace(trace::ParsedTrace{}, bad).is_ok());
}

// --- Trace mining ------------------------------------------------------------

TEST_F(TraceReplayTest, MinerFlagsEverySeededViolation) {
  const std::string path = tmp_path("violations");
  std::vector<trace::CytRecord> records = {
      // kSkip on a direct diplomat: only data-dependent entries may skip.
      make_def(1, "mine.direct", DiplomatPattern::kDirect, false),
      make_event(1, trace::CytEventKind::kSkip),
      // Batched evidence on a non-batchable def.
      make_event(1, trace::CytEventKind::kBatchedCall),
      // A coalesced multi crossing on a non-multi def.
      make_event(1, trace::CytEventKind::kMulti),
      // An invoked kUnimplemented diplomat.
      make_def(2, "mine.unimpl", DiplomatPattern::kUnimplemented, false),
      make_event(2, trace::CytEventKind::kCall),
      // An event with no def record at all.
      make_event(99, trace::CytEventKind::kCall),
      // A flush that crossed personas carrying nothing.
      make_def(3, "mine.opener", DiplomatPattern::kDirect, true),
      make_event(3, trace::CytEventKind::kBatchFlush, 0, /*aux=*/0),
      // A Table 2 name recorded with the wrong pattern.
      make_def(4, "glClear", DiplomatPattern::kIndirect, false),
      make_event(4, trace::CytEventKind::kCall),
  };
  ASSERT_TRUE(write_trace(path, records).is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_EQ(audit.events, 7u);
  EXPECT_TRUE(report.has_rule("trace.illegal-skip"));
  EXPECT_TRUE(report.has_rule("trace.illegal-batched-call"));
  EXPECT_TRUE(report.has_rule("trace.pattern-contradiction"));
  EXPECT_TRUE(report.has_rule("trace.unimplemented-invoked"));
  EXPECT_TRUE(report.has_rule("trace.def-missing"));
  EXPECT_TRUE(report.has_rule("trace.empty-flush"));
  EXPECT_TRUE(report.has_rule("trace.classification-mismatch"));
}

TEST_F(TraceReplayTest, MinerFindsUnbatchedRunsAndHonorsSuppression) {
  const std::string path = tmp_path("candidates");
  std::vector<trace::CytRecord> records = {
      make_def(1, "mine.run", DiplomatPattern::kDirect, true),
      make_def(2, "mine.already_batched", DiplomatPattern::kDirect, true),
  };
  // A run of five batch-eligible plain calls: a candidate.
  for (int i = 0; i < 5; ++i) {
    records.push_back(make_event(1, trace::CytEventKind::kCall, kEligible));
  }
  // This def DID batch elsewhere in the trace, so its run is not reported.
  records.push_back(
      make_event(2, trace::CytEventKind::kBatchedCall, kEligible));
  records.push_back(make_event(2, trace::CytEventKind::kBatchFlush, 0, 1));
  for (int i = 0; i < 5; ++i) {
    records.push_back(make_event(2, trace::CytEventKind::kCall, kEligible));
  }
  ASSERT_TRUE(write_trace(path, records).is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok());

  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_TRUE(report.clean()) << report.findings().size();
  ASSERT_EQ(audit.candidates.size(), 1u);
  EXPECT_EQ(audit.candidates[0].name, "mine.run");
  EXPECT_EQ(audit.candidates[0].longest_run, 5u);
  EXPECT_TRUE(audit.candidates[0].classifier_batchable);

  // Below the run-length floor nothing is reported.
  analyze::TraceAuditOptions strict;
  strict.min_run_length = 6;
  analyze::Report quiet_report;
  EXPECT_TRUE(
      analyze::check_trace(*parsed, quiet_report, strict).candidates.empty());
}

TEST_F(TraceReplayTest, ReplayDivergenceComparesCountMaps) {
  analyze::Report report;
  analyze::check_replay_divergence({{"a", 4}, {"b", 2}}, {{"a", 4}, {"b", 2}},
                                   report);
  EXPECT_TRUE(report.clean());

  analyze::check_replay_divergence({{"a", 4}, {"gone", 1}},
                                   {{"a", 3}, {"extra", 2}}, report);
  EXPECT_EQ(report.by_checker("trace").size(), 3u);
  EXPECT_TRUE(report.has_rule("trace.replay-divergence"));
}

// --- The committed golden corpus --------------------------------------------

TEST_F(TraceReplayTest, GoldenPassmarkTraceMinesCleanAndReplaysFaithfully) {
  const std::string path =
      std::string(CYCADA_SOURCE_DIR) + "/tests/data/golden_passmark.cyt";
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->dropped, 0u);
  EXPECT_GT(parsed->records.size(), 50u);

  // The miner must find no contract violations and at least one actionable
  // batchability candidate (the generator plants an un-batched run).
  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_TRUE(report.clean()) << report.findings().front().rule;
  EXPECT_GE(audit.candidates.size(), 1u);

  // Max-rate replay reproduces the live per-diplomat counts exactly and
  // crossings-per-call within 5% (the ISSUE acceptance bar).
  ReplayOptions options;
  options.threads = 1;
  options.iterations = 1;
  const std::map<std::string, std::uint64_t> before = registry_call_counts();
  auto stats = replay_trace(*parsed, options);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  const std::map<std::string, std::uint64_t> replayed =
      delta(before, registry_call_counts());
  const std::map<std::string, std::uint64_t> expected =
      trace_call_counts(*parsed);
  EXPECT_EQ(replayed, expected);

  const double expected_cpc =
      static_cast<double>(trace_expected_crossings(*parsed)) /
      static_cast<double>(stats->calls);
  EXPECT_NEAR(stats->crossings_per_call(), expected_cpc, expected_cpc * 0.05);
}

// Evidence is complete or refused: the trace consumers reject a capture
// whose footer counts dropped records, with exit status 2 and a message
// naming the drop count. The lossy file is the golden PassMark capture
// re-footed with three drops; the golden file itself is accepted.
class LossyTraceToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto golden = trace::read_complete_cyt(golden_);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    // One file per test: ctest runs the tests as parallel processes.
    lossy_ = tmp_path(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    ASSERT_TRUE(trace::write_cyt(lossy_, golden->header, golden->records,
                                 /*dropped=*/3)
                    .is_ok());
    auto lossy = trace::read_complete_cyt(lossy_);
    ASSERT_FALSE(lossy.is_ok());
    EXPECT_EQ(lossy.status().code(), StatusCode::kFailedPrecondition);
  }

  // Runs `command`; returns its exit status, with stdout and stderr in
  // `output`.
  static int run(const std::string& command, std::string& output) {
    output.clear();
    std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr) return -1;
    char buf[512];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  const std::string golden_ =
      CYCADA_SOURCE_DIR "/tests/data/golden_passmark.cyt";
  std::string lossy_;
};

TEST_F(LossyTraceToolTest, ReplayRefusesALossyTrace) {
  const std::string replay = std::string(CYCADA_REPLAY_BIN) + " ";
  std::string output;
  EXPECT_EQ(run(replay + lossy_, output), 2) << output;
  EXPECT_NE(output.find("3 record(s) dropped"), std::string::npos) << output;
  EXPECT_EQ(run(replay + golden_ + " --threads 1 --iterations 1", output), 0)
      << output;
}

TEST_F(LossyTraceToolTest, CheckRefusesALossyTrace) {
  const std::string check = std::string(CYCADA_CHECK_BIN) + " --trace ";
  std::string output;
  EXPECT_EQ(run(check + lossy_, output), 2) << output;
  EXPECT_NE(output.find("3 record(s) dropped"), std::string::npos) << output;
  EXPECT_EQ(run(check + golden_, output), 0) << output;
}

}  // namespace
}  // namespace cycada::core
