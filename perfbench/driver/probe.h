// Outside-in instrumentation for traced runs: a forwarding GlPort that
// times every call by kind, and an in-memory span log written at exit.
// Neither touches the program's own tracing; both are inert until enabled.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "glport/gl_port.h"

namespace perfbench {

// ---- Spans ------------------------------------------------------------------

// One timed interval around a call into a layer. `group` is the session id
// the calling thread is bound to, so fleet sessions sit side by side.
struct Span {
  const char* name;
  std::uint32_t group;
  std::uint32_t thread;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;
  std::int64_t parent;  // -1 for a root span
};

class SpanLog {
 public:
  static SpanLog& instance();

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Chrome trace-event JSON (ph "X"; pid = session, tid = thread).
  bool write_chrome_json(const std::string& path) const;

  // Records [construction, destruction) as a span when the log is enabled.
  // Nested scopes on one thread record their enclosing span as parent.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const char* name_;
    std::int64_t start_ns_ = 0;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
  };

 private:
  SpanLog() = default;
  void record(const Span& span);

  static constexpr std::size_t kMaxSpans = 1u << 20;
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// ---- Timing port ------------------------------------------------------------

enum class CallKind : int { kState, kDraw, kTexture, kPresent, kBufferLock, kCount };

// Thread-safe per-kind call counts and busy time, plus per-call samples of
// present() and lock_buffer().
struct PortTimings {
  std::array<std::uint64_t, static_cast<int>(CallKind::kCount)> calls{};
  std::array<std::int64_t, static_cast<int>(CallKind::kCount)> ns{};
  std::vector<double> present_ms;
  std::vector<double> lock_us;
  std::uint64_t total_calls() const;
};

class TimingPort final : public cycada::glport::GlPort {
 public:
  explicit TimingPort(std::unique_ptr<cycada::glport::GlPort> inner)
      : inner_(std::move(inner)) {}

  // Turning timing on clears everything recorded so far.
  void set_timing(bool on);
  PortTimings timings() const;

  cycada::Status init(int width, int height, int gles_version) override {
    return inner_->init(width, height, gles_version);
  }
  int width() const override { return inner_->width(); }
  int height() const override { return inner_->height(); }
  void begin_frame() override;
  cycada::Status present() override;
  cycada::Image screen() override { return inner_->screen(); }

  void clear_color(float r, float g, float b, float a) override;
  void clear(cycada::glport::GLbitfield mask) override;
  void viewport(int x, int y, int w, int h) override;
  void enable(cycada::glport::GLenum cap) override;
  void disable(cycada::glport::GLenum cap) override;
  void blend_func(cycada::glport::GLenum src,
                  cycada::glport::GLenum dst) override;
  void depth_func(cycada::glport::GLenum func) override;
  void flush() override;
  cycada::glport::GLenum get_error() override;

  void matrix_mode(cycada::glport::GLenum mode) override;
  void load_identity() override;
  void orthof(float l, float r, float b, float t, float n, float f) override;
  void frustumf(float l, float r, float b, float t, float n, float f) override;
  void translatef(float x, float y, float z) override;
  void rotatef(float angle, float x, float y, float z) override;
  void scalef(float x, float y, float z) override;
  void push_matrix() override;
  void pop_matrix() override;
  void color4f(float r, float g, float b, float a) override;
  void enable_client_state(cycada::glport::GLenum array) override;
  void disable_client_state(cycada::glport::GLenum array) override;
  void vertex_pointer(int size, const float* data) override;
  void color_pointer(int size, const float* data) override;
  void texcoord_pointer(int size, const float* data) override;
  void draw_arrays(cycada::glport::GLenum mode, int first, int count) override;
  void draw_elements(cycada::glport::GLenum mode, int count,
                     const std::uint16_t* indices) override;
  void tex_env_replace(bool replace) override;

  cycada::glport::GLuint gen_texture() override;
  void delete_texture(cycada::glport::GLuint name) override;
  void bind_texture(cycada::glport::GLuint name) override;
  void tex_image(int w, int h, const std::uint32_t* pixels) override;
  void tex_sub_image(int x, int y, int w, int h,
                     const std::uint32_t* pixels) override;
  void tex_filter_nearest(bool nearest) override;

  cycada::glport::GLuint build_program(const char* vs,
                                       const char* fs) override;
  void use_program(cycada::glport::GLuint program) override;
  cycada::glport::GLint uniform_location(cycada::glport::GLuint program,
                                         const char* name) override;
  void uniform_matrix(cycada::glport::GLint location,
                      const cycada::Mat4& m) override;
  void uniform4f(cycada::glport::GLint location, float x, float y, float z,
                 float w) override;
  void uniform1i(cycada::glport::GLint location, int value) override;
  void enable_vertex_attrib(cycada::glport::GLuint index) override;
  void disable_vertex_attrib(cycada::glport::GLuint index) override;
  void vertex_attrib_pointer(cycada::glport::GLuint index, int size,
                             const float* data) override;

  cycada::StatusOr<int> create_shared_buffer(int w, int h) override;
  cycada::StatusOr<cycada::glport::CpuCanvas> lock_buffer(int handle) override;
  cycada::Status unlock_buffer(int handle) override;
  cycada::Status bind_buffer_to_texture(int handle,
                                        cycada::glport::GLuint texture) override;

 private:
  class Timer;

  void account(CallKind kind, std::int64_t ns);

  std::unique_ptr<cycada::glport::GlPort> inner_;
  std::atomic<bool> enabled_{false};
  std::array<std::atomic<std::uint64_t>, static_cast<int>(CallKind::kCount)>
      calls_{};
  std::array<std::atomic<std::int64_t>, static_cast<int>(CallKind::kCount)>
      ns_{};
  mutable std::mutex samples_mutex_;
  std::vector<double> present_ms_;  // guarded by samples_mutex_
  std::vector<double> lock_us_;     // guarded by samples_mutex_
};

}  // namespace perfbench
