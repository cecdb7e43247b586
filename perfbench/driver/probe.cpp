#include "probe.h"

#include <algorithm>
#include <cstdio>

#include "core/session.h"
#include "util/clock.h"

namespace perfbench {

using cycada::now_ns;
namespace glport = cycada::glport;

// ---- Spans ------------------------------------------------------------------

namespace {

thread_local std::int64_t t_current_span = -1;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog* log = new SpanLog();  // lives until exit, like its users
  return *log;
}

void SpanLog::record(const Span& span) {
  std::lock_guard lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(span);
}

SpanLog::Scope::Scope(const char* name) : name_(name) {
  if (!SpanLog::instance().enabled()) return;
  id_ = SpanLog::instance().next_id_.fetch_add(1);
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = now_ns();
}

SpanLog::Scope::~Scope() {
  if (id_ < 0) return;
  const std::int64_t end = now_ns();
  t_current_span = parent_;
  SpanLog::instance().record(
      Span{name_, cycada::core::Session::current().id(), thread_number(),
           start_ns_, end, id_, parent_});
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard lock(mutex_);
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld}}",
                 i == 0 ? "" : ",\n", span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.group, span.thread, static_cast<long long>(span.id),
                 static_cast<long long>(span.parent));
  }
  std::fprintf(file, "\n], \"droppedSpans\": %llu}\n",
               static_cast<unsigned long long>(dropped_.load()));
  return std::fclose(file) == 0;
}

// ---- Timing port --------------------------------------------------------------

std::uint64_t PortTimings::total_calls() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : calls) total += count;
  return total;
}

class TimingPort::Timer {
 public:
  Timer(TimingPort& port, CallKind kind)
      : port_(port.enabled_.load(std::memory_order_relaxed) ? &port : nullptr),
        kind_(kind),
        start_ns_(port_ != nullptr ? now_ns() : 0) {}
  ~Timer() {
    if (port_ != nullptr) port_->account(kind_, now_ns() - start_ns_);
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  std::int64_t elapsed_ns() const { return now_ns() - start_ns_; }
  bool active() const { return port_ != nullptr; }

 private:
  TimingPort* port_;
  CallKind kind_;
  std::int64_t start_ns_;
};

void TimingPort::account(CallKind kind, std::int64_t ns) {
  const int index = static_cast<int>(kind);
  calls_[index].fetch_add(1, std::memory_order_relaxed);
  ns_[index].fetch_add(ns, std::memory_order_relaxed);
}

void TimingPort::set_timing(bool on) {
  if (on) {
    {
      std::lock_guard lock(samples_mutex_);
      present_ms_.clear();
      lock_us_.clear();
    }
    for (auto& count : calls_) count.store(0);
    for (auto& total : ns_) total.store(0);
  }
  enabled_.store(on);
}

PortTimings TimingPort::timings() const {
  PortTimings out;
  for (int i = 0; i < static_cast<int>(CallKind::kCount); ++i) {
    out.calls[i] = calls_[i].load();
    out.ns[i] = ns_[i].load();
  }
  std::lock_guard lock(samples_mutex_);
  out.present_ms = present_ms_;
  out.lock_us = lock_us_;
  return out;
}

#define PB_STATE Timer timer(*this, CallKind::kState)
#define PB_DRAW Timer timer(*this, CallKind::kDraw)
#define PB_TEXTURE Timer timer(*this, CallKind::kTexture)

void TimingPort::begin_frame() { PB_STATE; inner_->begin_frame(); }

cycada::Status TimingPort::present() {
  SpanLog::Scope span("glport.present");
  Timer timer(*this, CallKind::kPresent);
  cycada::Status status = inner_->present();
  if (timer.active()) {
    const double ms = static_cast<double>(timer.elapsed_ns()) / 1e6;
    std::lock_guard lock(samples_mutex_);
    present_ms_.push_back(ms);
  }
  return status;
}

void TimingPort::clear_color(float r, float g, float b, float a) {
  PB_STATE; inner_->clear_color(r, g, b, a);
}
void TimingPort::clear(glport::GLbitfield mask) { PB_DRAW; inner_->clear(mask); }
void TimingPort::viewport(int x, int y, int w, int h) {
  PB_STATE; inner_->viewport(x, y, w, h);
}
void TimingPort::enable(glport::GLenum cap) { PB_STATE; inner_->enable(cap); }
void TimingPort::disable(glport::GLenum cap) { PB_STATE; inner_->disable(cap); }
void TimingPort::blend_func(glport::GLenum src, glport::GLenum dst) {
  PB_STATE; inner_->blend_func(src, dst);
}
void TimingPort::depth_func(glport::GLenum func) {
  PB_STATE; inner_->depth_func(func);
}
void TimingPort::flush() { PB_DRAW; inner_->flush(); }
glport::GLenum TimingPort::get_error() { PB_STATE; return inner_->get_error(); }

void TimingPort::matrix_mode(glport::GLenum mode) {
  PB_STATE; inner_->matrix_mode(mode);
}
void TimingPort::load_identity() { PB_STATE; inner_->load_identity(); }
void TimingPort::orthof(float l, float r, float b, float t, float n, float f) {
  PB_STATE; inner_->orthof(l, r, b, t, n, f);
}
void TimingPort::frustumf(float l, float r, float b, float t, float n,
                          float f) {
  PB_STATE; inner_->frustumf(l, r, b, t, n, f);
}
void TimingPort::translatef(float x, float y, float z) {
  PB_STATE; inner_->translatef(x, y, z);
}
void TimingPort::rotatef(float angle, float x, float y, float z) {
  PB_STATE; inner_->rotatef(angle, x, y, z);
}
void TimingPort::scalef(float x, float y, float z) {
  PB_STATE; inner_->scalef(x, y, z);
}
void TimingPort::push_matrix() { PB_STATE; inner_->push_matrix(); }
void TimingPort::pop_matrix() { PB_STATE; inner_->pop_matrix(); }
void TimingPort::color4f(float r, float g, float b, float a) {
  PB_STATE; inner_->color4f(r, g, b, a);
}
void TimingPort::enable_client_state(glport::GLenum array) {
  PB_STATE; inner_->enable_client_state(array);
}
void TimingPort::disable_client_state(glport::GLenum array) {
  PB_STATE; inner_->disable_client_state(array);
}
void TimingPort::vertex_pointer(int size, const float* data) {
  PB_STATE; inner_->vertex_pointer(size, data);
}
void TimingPort::color_pointer(int size, const float* data) {
  PB_STATE; inner_->color_pointer(size, data);
}
void TimingPort::texcoord_pointer(int size, const float* data) {
  PB_STATE; inner_->texcoord_pointer(size, data);
}
void TimingPort::draw_arrays(glport::GLenum mode, int first, int count) {
  PB_DRAW; inner_->draw_arrays(mode, first, count);
}
void TimingPort::draw_elements(glport::GLenum mode, int count,
                               const std::uint16_t* indices) {
  PB_DRAW; inner_->draw_elements(mode, count, indices);
}
void TimingPort::tex_env_replace(bool replace) {
  PB_STATE; inner_->tex_env_replace(replace);
}

glport::GLuint TimingPort::gen_texture() {
  PB_TEXTURE; return inner_->gen_texture();
}
void TimingPort::delete_texture(glport::GLuint name) {
  PB_TEXTURE; inner_->delete_texture(name);
}
void TimingPort::bind_texture(glport::GLuint name) {
  PB_TEXTURE; inner_->bind_texture(name);
}
void TimingPort::tex_image(int w, int h, const std::uint32_t* pixels) {
  PB_TEXTURE; inner_->tex_image(w, h, pixels);
}
void TimingPort::tex_sub_image(int x, int y, int w, int h,
                               const std::uint32_t* pixels) {
  PB_TEXTURE; inner_->tex_sub_image(x, y, w, h, pixels);
}
void TimingPort::tex_filter_nearest(bool nearest) {
  PB_TEXTURE; inner_->tex_filter_nearest(nearest);
}

glport::GLuint TimingPort::build_program(const char* vs, const char* fs) {
  PB_STATE; return inner_->build_program(vs, fs);
}
void TimingPort::use_program(glport::GLuint program) {
  PB_STATE; inner_->use_program(program);
}
glport::GLint TimingPort::uniform_location(glport::GLuint program,
                                           const char* name) {
  PB_STATE; return inner_->uniform_location(program, name);
}
void TimingPort::uniform_matrix(glport::GLint location, const cycada::Mat4& m) {
  PB_STATE; inner_->uniform_matrix(location, m);
}
void TimingPort::uniform4f(glport::GLint location, float x, float y, float z,
                           float w) {
  PB_STATE; inner_->uniform4f(location, x, y, z, w);
}
void TimingPort::uniform1i(glport::GLint location, int value) {
  PB_STATE; inner_->uniform1i(location, value);
}
void TimingPort::enable_vertex_attrib(glport::GLuint index) {
  PB_STATE; inner_->enable_vertex_attrib(index);
}
void TimingPort::disable_vertex_attrib(glport::GLuint index) {
  PB_STATE; inner_->disable_vertex_attrib(index);
}
void TimingPort::vertex_attrib_pointer(glport::GLuint index, int size,
                                       const float* data) {
  PB_STATE; inner_->vertex_attrib_pointer(index, size, data);
}

cycada::StatusOr<int> TimingPort::create_shared_buffer(int w, int h) {
  PB_TEXTURE; return inner_->create_shared_buffer(w, h);
}

cycada::StatusOr<glport::CpuCanvas> TimingPort::lock_buffer(int handle) {
  SpanLog::Scope span("glport.lock_buffer");
  Timer timer(*this, CallKind::kBufferLock);
  auto canvas = inner_->lock_buffer(handle);
  if (timer.active()) {
    const double us = static_cast<double>(timer.elapsed_ns()) / 1e3;
    std::lock_guard lock(samples_mutex_);
    lock_us_.push_back(us);
  }
  return canvas;
}

cycada::Status TimingPort::unlock_buffer(int handle) {
  Timer timer(*this, CallKind::kBufferLock);
  return inner_->unlock_buffer(handle);
}

cycada::Status TimingPort::bind_buffer_to_texture(int handle,
                                                  glport::GLuint texture) {
  PB_TEXTURE; return inner_->bind_buffer_to_texture(handle, texture);
}

#undef PB_STATE
#undef PB_DRAW
#undef PB_TEXTURE

}  // namespace perfbench
