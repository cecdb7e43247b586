#include "trace/cyt.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "trace/metrics.h"
#include "util/clock.h"

namespace cycada::trace {

namespace {

// Capture-local thread ordinals: stable within one process, dense, and
// independent of the kernel layer (the trace library sits below it).
std::uint32_t capture_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1);
  return tid;
}

// Per-thread annotation state stamped onto every event this thread records.
struct CaptureTls {
  std::uint64_t context_id = 0;
  bool impersonating = false;
  std::int64_t stamp_ns = 0;  // cached clock, refreshed every 16 events
  int stamp_ttl = 0;
  CytStagedArgs staged;
};
CaptureTls& capture_tls() {
  thread_local CaptureTls tls;
  return tls;
}

// Event timestamp for callers that did not already read the clock. A real
// clock read costs ~28 ns on this host — half a simulated dispatch — so
// the stamp is refreshed every 16th event per thread and reused in
// between. Timestamps stay monotonic per thread; replay pacing operates
// at sleep_for granularity (tens of µs), far above the plateau this
// introduces.
std::int64_t coarse_now_ns(CaptureTls& tls) {
  if (--tls.stamp_ttl < 0) {
    tls.stamp_ns = now_ns();
    tls.stamp_ttl = 15;
  }
  return tls.stamp_ns;
}

// One bit per DiplomatId: whether this capture already wrote the def
// record. Ids are immortal (DiplomatRegistry entries survive resets), so a
// fixed bitmap sized to the registry's 16384-id ceiling suffices.
constexpr std::size_t kDefBitmapWords = 16384 / 64;
std::atomic<std::uint64_t> g_def_bits[kDefBitmapWords];

// Returns true exactly once per id per capture. The plain load first keeps
// the steady state (id already claimed, i.e. every event after a
// diplomat's first) to one read of a read-mostly line instead of an atomic
// RMW that would bounce the bitmap line between capturing threads.
bool claim_def(std::uint32_t id) {
  if (id >= kDefBitmapWords * 64) return false;
  const std::uint64_t bit = 1ull << (id % 64);
  std::atomic<std::uint64_t>& word = g_def_bits[id / 64];
  if ((word.load(std::memory_order_relaxed) & bit) != 0) return false;
  return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
}

void clear_defs() {
  for (std::size_t i = 0; i < kDefBitmapWords; ++i) {
    g_def_bits[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace

// FNV-1a folded over the record's sixteen 64-bit words rather than its 128
// bytes: one eighth of the sequential multiplies. The checksum runs on the
// writer thread, but on a single-CPU host the writer timeshares with the
// dispatch hot path, so its per-record cost is capture overhead too.
std::uint64_t cyt_checksum_update(std::uint64_t hash,
                                  const CytRecord& record) {
  std::uint64_t words[sizeof(CytRecord) / sizeof(std::uint64_t)];
  std::memcpy(words, &record, sizeof(words));
  for (const std::uint64_t word : words) {
    hash ^= word;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::int64_t ParsedTrace::duration_ns() const {
  std::int64_t last = header.start_ns;
  for (const CytRecord& record : records) {
    if (record.timestamp_ns > last) last = record.timestamp_ns;
  }
  return last - header.start_ns;
}

StatusOr<ParsedTrace> read_cyt(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::not_found("cyt: cannot open " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);

  const long envelope =
      static_cast<long>(sizeof(CytHeader) + sizeof(CytFooter));
  if (size < envelope) {
    std::fclose(file);
    return Status::invalid_argument(
        "cyt: " + path + " truncated: " + std::to_string(size) +
        " bytes is smaller than the header+footer envelope");
  }
  if ((size - envelope) % static_cast<long>(sizeof(CytRecord)) != 0) {
    std::fclose(file);
    return Status::invalid_argument(
        "cyt: " + path + " truncated: payload of " +
        std::to_string(size - envelope) +
        " bytes is not a whole number of records");
  }

  ParsedTrace trace;
  if (std::fread(&trace.header, sizeof(trace.header), 1, file) != 1) {
    std::fclose(file);
    return Status::internal("cyt: short read of header in " + path);
  }
  if (std::memcmp(trace.header.magic, kCytMagic, sizeof(kCytMagic)) != 0) {
    std::fclose(file);
    return Status::invalid_argument("cyt: " + path +
                                    " is not a .cyt trace (bad magic)");
  }
  if (trace.header.version != kCytVersion) {
    std::fclose(file);
    return Status::invalid_argument(
        "cyt: " + path + " is format version " +
        std::to_string(trace.header.version) + "; this build reads version " +
        std::to_string(kCytVersion));
  }
  if (trace.header.record_size != sizeof(CytRecord)) {
    std::fclose(file);
    return Status::invalid_argument(
        "cyt: " + path + " declares " +
        std::to_string(trace.header.record_size) +
        "-byte records; version 1 records are " +
        std::to_string(sizeof(CytRecord)) + " bytes");
  }

  const std::size_t count =
      static_cast<std::size_t>(size - envelope) / sizeof(CytRecord);
  trace.records.resize(count, cyt_zero_record());
  std::uint64_t checksum = kCytChecksumSeed;
  for (std::size_t i = 0; i < count; ++i) {
    if (std::fread(&trace.records[i], sizeof(CytRecord), 1, file) != 1) {
      std::fclose(file);
      return Status::internal("cyt: short read of record " +
                              std::to_string(i) + " in " + path);
    }
    checksum = cyt_checksum_update(checksum, trace.records[i]);
  }

  CytFooter footer;
  if (std::fread(&footer, sizeof(footer), 1, file) != 1) {
    std::fclose(file);
    return Status::internal("cyt: short read of footer in " + path);
  }
  std::fclose(file);

  if (std::memcmp(footer.magic, kCytFooterMagic, sizeof(kCytFooterMagic)) !=
      0) {
    return Status::invalid_argument(
        "cyt: " + path + " truncated: the footer magic is missing "
        "(capture stopped mid-write?)");
  }
  if (footer.record_count != count) {
    return Status::invalid_argument(
        "cyt: " + path + " corrupt: footer claims " +
        std::to_string(footer.record_count) + " record(s), file holds " +
        std::to_string(count));
  }
  if (footer.checksum != checksum) {
    return Status::invalid_argument("cyt: " + path +
                                    " corrupt: record checksum mismatch");
  }
  trace.dropped = footer.dropped;

  for (const CytRecord& record : trace.records) {
    if (record.type != static_cast<std::uint8_t>(CytRecordType::kDef)) {
      continue;
    }
    CytDef def;
    def.name.assign(record.name,
                    strnlen(record.name, sizeof(record.name)));
    def.pattern = record.kind;
    def.batchable = (record.flags & kCytDefFlagBatchable) != 0;
    trace.defs.emplace(record.id, std::move(def));
  }
  return trace;
}

StatusOr<ParsedTrace> read_complete_cyt(const std::string& path) {
  auto trace = read_cyt(path);
  if (trace.is_ok() && trace->dropped > 0) {
    return Status::failed_precondition(
        "cyt: " + path + " is lossy: " + std::to_string(trace->dropped) +
        " record(s) dropped at capture");
  }
  return trace;
}

Status write_cyt(const std::string& path, const CytHeader& header,
                 const std::vector<CytRecord>& records,
                 std::uint64_t dropped) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::internal("cyt: cannot create " + path);
  }
  CytHeader out = header;
  std::memcpy(out.magic, kCytMagic, sizeof(kCytMagic));
  out.version = kCytVersion;
  out.record_size = sizeof(CytRecord);
  out.reserved = 0;
  out.reserved2 = 0;
  bool ok = std::fwrite(&out, sizeof(out), 1, file) == 1;

  std::uint64_t checksum = kCytChecksumSeed;
  for (const CytRecord& record : records) {
    ok = ok && std::fwrite(&record, sizeof(record), 1, file) == 1;
    checksum = cyt_checksum_update(checksum, record);
  }

  CytFooter footer;
  std::memset(&footer, 0, sizeof(footer));
  std::memcpy(footer.magic, kCytFooterMagic, sizeof(kCytFooterMagic));
  footer.record_count = records.size();
  footer.checksum = checksum;
  footer.dropped = dropped;
  ok = ok && std::fwrite(&footer, sizeof(footer), 1, file) == 1;
  ok = std::fclose(file) == 0 && ok;
  return ok ? Status::ok() : Status::internal("cyt: short write to " + path);
}

// --- Capture ----------------------------------------------------------------

void capture_stage_args(const double* args, int count, bool void_return) {
  CytStagedArgs& staged = capture_tls().staged;
  staged.count = static_cast<std::uint8_t>(count < 0 ? 0 : count);
  const int stored = count > kCytMaxArgs ? kCytMaxArgs : count;
  for (int i = 0; i < kCytMaxArgs; ++i) {
    staged.args[i] = i < stored ? args[i] : 0.0;
  }
  staged.void_return = void_return;
  staged.armed = true;
}

CytStagedArgs capture_take_staged() {
  CytStagedArgs& staged = capture_tls().staged;
  CytStagedArgs out = staged;
  staged = CytStagedArgs{};
  return out;
}

void capture_diplomat_event(CytEventKind kind, std::uint32_t id,
                            std::string_view name, std::uint8_t pattern,
                            bool batchable, std::uint8_t persona,
                            std::uint32_t aux, std::uint8_t reason,
                            const CytStagedArgs* explicit_args,
                            std::int64_t timestamp_ns) {
  TraceRecorder& recorder = TraceRecorder::instance();
  CaptureTls& tls = capture_tls();
  // Consume the staging only when armed: the common no-args event skips
  // the 64-byte copy-and-clear entirely.
  CytStagedArgs taken;
  const CytStagedArgs* staged = explicit_args;
  if (staged == nullptr && tls.staged.armed) {
    taken = tls.staged;
    tls.staged = CytStagedArgs{};
    staged = &taken;
  }
  if (!recorder.active()) return;
  if (timestamp_ns == 0) timestamp_ns = coarse_now_ns(tls);

  if (id != kCytMarkerId && claim_def(id)) {
    CytRecord def = cyt_zero_record();
    def.type = static_cast<std::uint8_t>(CytRecordType::kDef);
    def.kind = pattern;
    def.flags = batchable ? kCytDefFlagBatchable : 0;
    def.id = id;
    def.tid = capture_tid();
    def.timestamp_ns = timestamp_ns;
    std::memcpy(def.name, name.data(),
                name.size() < sizeof(def.name) ? name.size()
                                               : sizeof(def.name) - 1);
    recorder.push(def);
  }

  CytRecord event = cyt_zero_record();
  event.type = static_cast<std::uint8_t>(CytRecordType::kEvent);
  event.kind = static_cast<std::uint8_t>(kind);
  event.persona = persona;
  const bool armed = staged != nullptr && staged->armed;
  std::uint8_t flags = 0;
  if (tls.impersonating) flags |= kCytFlagImpersonating;
  if (armed && staged->void_return) flags |= kCytFlagVoidReturn;
  if (armed && staged->count > 0) flags |= kCytFlagScalarArgs;
  event.flags = cyt_pack_flush_reason(flags, reason);
  event.id = id;
  event.tid = capture_tid();
  event.aux = aux;
  event.timestamp_ns = timestamp_ns;
  event.context_id = tls.context_id;
  if (armed) {
    for (int i = 0; i < kCytMaxArgs; ++i) event.args[i] = staged->args[i];
    event.arg_count = staged->count;
  }
  recorder.push(event);
}

void capture_set_context(std::uint64_t context_id) {
  CaptureTls& tls = capture_tls();
  if (tls.context_id == context_id) return;
  tls.context_id = context_id;
  if (!capture_enabled()) return;
  CytRecord marker = cyt_zero_record();
  marker.type = static_cast<std::uint8_t>(CytRecordType::kEvent);
  marker.kind = static_cast<std::uint8_t>(CytEventKind::kContextSet);
  marker.id = kCytMarkerId;
  marker.tid = capture_tid();
  marker.timestamp_ns = now_ns();
  marker.context_id = context_id;
  if (tls.impersonating) marker.flags = kCytFlagImpersonating;
  TraceRecorder::instance().push(marker);
}

void capture_set_impersonating(bool active) {
  CaptureTls& tls = capture_tls();
  if (tls.impersonating == active) return;
  tls.impersonating = active;
  if (!capture_enabled()) return;
  CytRecord marker = cyt_zero_record();
  marker.type = static_cast<std::uint8_t>(CytRecordType::kEvent);
  marker.kind = static_cast<std::uint8_t>(CytEventKind::kImpersonate);
  marker.id = kCytMarkerId;
  marker.tid = capture_tid();
  marker.aux = active ? 1 : 0;
  marker.timestamp_ns = now_ns();
  marker.context_id = tls.context_id;
  if (tls.impersonating) marker.flags = kCytFlagImpersonating;
  TraceRecorder::instance().push(marker);
}

// --- TraceRecorder ----------------------------------------------------------

// A producing thread's private block of records. Only the owning thread
// stores into `records` and `count`; the writer thread (or stop()) reads
// them after `count`'s release store publishes each record.
struct TraceRecorder::Chunk {
  static constexpr std::uint32_t kRecordsPerChunk = 256;  // 32 KiB

  alignas(64) CytRecord records[kRecordsPerChunk];
  std::atomic<std::uint32_t> count{0};
};

struct TraceRecorder::Impl {
  std::FILE* file = nullptr;
  std::string path;
  std::thread writer;
  std::uint64_t written = 0;
  std::mutex control_mutex;  // start/stop only, never the push path

  // Chunk accounting: taken once per kRecordsPerChunk records on the
  // producer side and once per writer wakeup — never per record.
  // `full` keeps retirement order, which preserves each thread's own
  // record order in the file (a thread retires its chunks in order).
  std::mutex chunks_mutex;
  std::vector<char> file_buffer;             // large stdio buffer, lazy
  std::vector<std::unique_ptr<Chunk>> pool;  // backing storage, lazy
  std::vector<Chunk*> free_chunks;
  std::deque<Chunk*> full_chunks;
  std::map<std::uint32_t, Chunk*> current;  // capture tid -> open chunk
};

// Pool depth: 128 chunks x 256 records buffer ~32k records between writer
// wakeups, an order of magnitude above what the hottest measured producer
// emits per millisecond.
constexpr std::size_t kChunkPoolSize = 128;

namespace {

// Copies one record into the owning thread's chunk. A plain copy, on
// purpose: non-temporal stores measured several times SLOWER here (the
// write-combining path is pathological under this virtualized host), and
// the chunk lines are prefetched one record ahead by push() so the copy
// lands in already-owned lines instead of stalling on the RFO.
inline void stream_record(CytRecord* dst, const CytRecord& src) {
  std::memcpy(dst, &src, sizeof(CytRecord));
}

}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRecorder::TraceRecorder() : impl_(new Impl()) {}

TraceRecorder::~TraceRecorder() { (void)stop(); }

Status TraceRecorder::start(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->control_mutex);
  if (active_.load(std::memory_order_acquire)) {
    return Status::failed_precondition("cyt: a capture is already running");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::internal("cyt: cannot create " + path);
  }
  // One write syscall per several chunks instead of several per chunk;
  // on a single-CPU host every writer-side syscall is stolen from the
  // dispatch path being captured.
  if (impl_->file_buffer.empty()) impl_->file_buffer.resize(1 << 20);
  std::setvbuf(file, impl_->file_buffer.data(), _IOFBF,
               impl_->file_buffer.size());
  CytHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kCytMagic, sizeof(kCytMagic));
  header.version = kCytVersion;
  header.record_size = sizeof(CytRecord);
  header.start_ns = now_ns();
  if (std::fwrite(&header, sizeof(header), 1, file) != 1) {
    std::fclose(file);
    return Status::internal("cyt: cannot write header to " + path);
  }

  // Reset per-capture state; stop() returned every chunk to the pool.
  {
    std::lock_guard<std::mutex> chunks_lock(impl_->chunks_mutex);
    if (impl_->pool.empty()) {
      impl_->pool.reserve(kChunkPoolSize);
      impl_->free_chunks.reserve(kChunkPoolSize);
      for (std::size_t i = 0; i < kChunkPoolSize; ++i) {
        impl_->pool.push_back(std::make_unique<Chunk>());
      }
    }
    impl_->free_chunks.clear();
    for (const auto& chunk : impl_->pool) {
      chunk->count.store(0, std::memory_order_relaxed);
      impl_->free_chunks.push_back(chunk.get());
    }
    impl_->full_chunks.clear();
    impl_->current.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
  clear_defs();

  impl_->file = file;
  impl_->path = path;
  impl_->written = 0;
  epoch_.fetch_add(1, std::memory_order_release);  // stale every TLS chunk
  running_.store(true, std::memory_order_release);
  impl_->writer = std::thread([this] { writer_loop(); });
  active_.store(true, std::memory_order_release);
  g_cyt_capture_enabled.store(true, std::memory_order_release);
  return Status::ok();
}

Status TraceRecorder::stop() {
  std::lock_guard<std::mutex> lock(impl_->control_mutex);
  if (!active_.load(std::memory_order_acquire)) return Status::ok();
  g_cyt_capture_enabled.store(false, std::memory_order_release);
  active_.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  if (impl_->writer.joinable()) impl_->writer.join();

  // The writer thread is gone: flush retired chunks, then every thread's
  // open chunk (records published before the gate flipped; per-thread
  // order holds because a thread's full chunks all retired earlier).
  drain_full_chunks();
  {
    std::lock_guard<std::mutex> chunks_lock(impl_->chunks_mutex);
    for (const auto& [tid, chunk] : impl_->current) {
      write_records(chunk->records,
                    chunk->count.load(std::memory_order_acquire));
      impl_->free_chunks.push_back(chunk);
    }
    impl_->current.clear();
  }

  // Checksum by re-reading the flushed records (page-cache warm) AFTER the
  // capture is over: computing it per record on the writer thread would
  // timeshare with the workload being captured on single-CPU hosts and
  // charge the hash to the dispatch hot path.
  bool ok = std::fflush(impl_->file) == 0;
  std::uint64_t checksum = kCytChecksumSeed;
  if (std::FILE* readback = std::fopen(impl_->path.c_str(), "rb")) {
    ok = ok && std::fseek(readback, sizeof(CytHeader), SEEK_SET) == 0;
    CytRecord record;
    for (std::uint64_t i = 0; ok && i < impl_->written; ++i) {
      ok = std::fread(&record, sizeof(record), 1, readback) == 1;
      checksum = cyt_checksum_update(checksum, record);
    }
    std::fclose(readback);
  } else {
    ok = false;
  }

  CytFooter footer;
  std::memset(&footer, 0, sizeof(footer));
  std::memcpy(footer.magic, kCytFooterMagic, sizeof(kCytFooterMagic));
  footer.record_count = impl_->written;
  footer.checksum = checksum;
  footer.dropped = dropped_.load(std::memory_order_relaxed);
  ok = std::fwrite(&footer, sizeof(footer), 1, impl_->file) == 1 && ok;
  ok = std::fclose(impl_->file) == 0 && ok;
  impl_->file = nullptr;

  MetricsRegistry::instance()
      .counter("capture.records")
      .add(impl_->written);
  if (footer.dropped > 0) {
    MetricsRegistry::instance().counter("capture.dropped").add(footer.dropped);
  }
  return ok ? Status::ok()
            : Status::internal("cyt: short write while closing capture");
}

std::uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(impl_->chunks_mutex);
  std::uint64_t total = impl_->written;
  for (const Chunk* chunk : impl_->full_chunks) {
    total += chunk->count.load(std::memory_order_acquire);
  }
  for (const auto& [tid, chunk] : impl_->current) {
    total += chunk->count.load(std::memory_order_acquire);
  }
  return total;
}

void TraceRecorder::push(const CytRecord& record) {
  if (!active_.load(std::memory_order_acquire)) return;
  // The thread's open chunk, cached across calls; a stale epoch means the
  // pointer belongs to an earlier capture (stop() already collected it)
  // and must not be retired or written.
  struct TlsChunk {
    Chunk* chunk = nullptr;
    std::uint64_t epoch = 0;
  };
  static thread_local TlsChunk tls;
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  Chunk* chunk = tls.epoch == epoch ? tls.chunk : nullptr;
  std::uint32_t count =
      chunk != nullptr ? chunk->count.load(std::memory_order_relaxed)
                       : Chunk::kRecordsPerChunk;
  if (count == Chunk::kRecordsPerChunk) {
    chunk = rotate_chunk(chunk, capture_tid());
    tls.chunk = chunk;
    tls.epoch = epoch;
    if (chunk == nullptr) {
      // Pool exhausted: the hot path never blocks — drop and count.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    count = 0;
  }
  stream_record(&chunk->records[count], record);
  chunk->count.store(count + 1, std::memory_order_release);
  if (count + 1 < Chunk::kRecordsPerChunk) {
    // Pull the next record's lines into this core now, so the next push
    // (tens to hundreds of ns away) copies into owned lines instead of
    // paying the read-for-ownership miss inline.
    __builtin_prefetch(&chunk->records[count + 1], 1, 0);
    __builtin_prefetch(
        reinterpret_cast<const char*>(&chunk->records[count + 1]) + 64, 1, 0);
  }
}

TraceRecorder::Chunk* TraceRecorder::rotate_chunk(Chunk* retired,
                                                  std::uint32_t tid) {
  std::lock_guard<std::mutex> lock(impl_->chunks_mutex);
  if (retired != nullptr) {
    impl_->full_chunks.push_back(retired);
  }
  if (impl_->free_chunks.empty()) {
    impl_->current.erase(tid);
    return nullptr;
  }
  Chunk* fresh = impl_->free_chunks.back();
  impl_->free_chunks.pop_back();
  fresh->count.store(0, std::memory_order_relaxed);
  impl_->current[tid] = fresh;
  return fresh;
}

void TraceRecorder::write_records(const CytRecord* records,
                                  std::size_t count) {
  if (count == 0) return;
  (void)std::fwrite(records, sizeof(CytRecord), count, impl_->file);
  impl_->written += count;
}

void TraceRecorder::drain_full_chunks() {
  for (;;) {
    Chunk* chunk = nullptr;
    {
      std::lock_guard<std::mutex> lock(impl_->chunks_mutex);
      if (!impl_->full_chunks.empty()) {
        chunk = impl_->full_chunks.front();
        impl_->full_chunks.pop_front();
      }
    }
    if (chunk == nullptr) return;
    write_records(chunk->records,
                  chunk->count.load(std::memory_order_acquire));
    std::lock_guard<std::mutex> lock(impl_->chunks_mutex);
    impl_->free_chunks.push_back(chunk);
  }
}

void TraceRecorder::writer_loop() {
  while (running_.load(std::memory_order_acquire)) {
    // Working a millisecond behind the producers is deliberate: draining
    // lock-step behind them keeps this thread's cache hot on exactly the
    // lines producers are streaming into. The pool absorbs ~32k records
    // per wakeup, far above any measured producer burst.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    drain_full_chunks();
  }
  // Final drain before handing the file back to stop().
  drain_full_chunks();
}

}  // namespace cycada::trace
