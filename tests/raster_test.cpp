// Differential fuzz of the span kernels (src/gpu/raster.cpp) against the
// scalar fragment path they replaced (tests/raster_reference.cpp). Both
// render the same primitives into their own copy of the same target, call
// by call over the same tile limits, and must agree exactly: every color
// byte, every depth bit and every fragment count.
//
// The sweep covers every DepthFunc x blend factor pair, with color masks,
// filter, wrap, tex-env, cull mode, primitive kind and scissor varied per
// case; targets whose width and stride are not multiples of 4; textures
// with non-power-of-two sizes, padded strides and no texels at all;
// textures aliasing their own target (framebuffer feedback); and NaN,
// infinite and huge attributes, w next to the near-plane epsilon, and
// degenerate triangles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/raster.h"
#include "raster_reference.h"

namespace cycada::gpu {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// A render target plus a separate texture, owned as plain vectors.
struct Scene {
  int width = 0, height = 0, stride = 0;
  bool has_depth = false;
  std::vector<std::uint32_t> color;
  std::vector<float> depth;
  std::vector<std::uint32_t> texels;
  // Texture placement: in `texels`, or inside `color` when feedback.
  bool feedback = false;
  bool textured = false;
  int tex_offset = 0, tex_width = 0, tex_height = 0, tex_stride = 0;

  TargetView target() {
    return TargetView{color.data(), has_depth ? depth.data() : nullptr, width,
                      height, stride};
  }
  TextureView texture() {
    if (!textured) return TextureView{};
    const std::uint32_t* base = feedback ? color.data() : texels.data();
    return TextureView{base + tex_offset, tex_width, tex_height, tex_stride};
  }
};

class Fuzzer {
 public:
  explicit Fuzzer(std::uint32_t seed) : rng_(seed) {}

  int below(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }
  bool chance(int percent) { return below(100) < percent; }
  float uniform(float lo, float hi) {
    return std::uniform_real_distribution<float>(lo, hi)(rng_);
  }

  // Mostly ordinary values in [lo, hi], sometimes the values that break
  // naive lane code: NaN, infinities, signed zeros, huge magnitudes.
  float value(float lo, float hi, int special_percent) {
    if (!chance(special_percent)) return uniform(lo, hi);
    static constexpr float kSpecials[] = {kNaN,   kInf,   -kInf, 0.f,
                                          -0.f,   1e30f,  -1e30f, 3e9f,
                                          -3e9f,  1e-30f, 0.5f,  -0.5f};
    return kSpecials[below(std::size(kSpecials))];
  }

  Scene scene() {
    Scene s;
    s.width = chance(15) ? 65 + below(70) : 1 + below(40);
    s.height = chance(15) ? 65 + below(30) : 1 + below(30);
    s.stride = s.width + (chance(50) ? 0 : 1 + below(7));
    s.has_depth = chance(80);
    s.color.resize(static_cast<std::size_t>(s.stride) * s.height);
    for (auto& px : s.color) px = static_cast<std::uint32_t>(rng_());
    s.depth.resize(static_cast<std::size_t>(s.width) * s.height);
    for (auto& d : s.depth) d = value(0.f, 1.f, 3);

    const int kind = below(10);
    if (kind < 2) return s;  // untextured
    s.textured = true;
    if (kind == 2) {  // texture aliasing the target
      s.feedback = true;
      const int ox = below(s.width), oy = below(s.height);
      s.tex_offset = oy * s.stride + ox;
      s.tex_width = 1 + below(s.width - ox);
      s.tex_height = 1 + below(s.height - oy);
      s.tex_stride = s.stride;
      return s;
    }
    if (kind == 3) {  // bound but empty: samples white
      s.tex_width = below(2) == 0 ? 0 : 3;
      s.tex_height = s.tex_width == 0 ? 4 : 0;
      s.tex_stride = 4;
      s.texels.resize(16);
      return s;
    }
    static constexpr int kSizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64};
    s.tex_width = kSizes[below(std::size(kSizes))];
    s.tex_height = kSizes[below(std::size(kSizes))];
    s.tex_stride = s.tex_width + (chance(50) ? 0 : 1 + below(5));
    s.texels.resize(static_cast<std::size_t>(s.tex_stride) * s.tex_height);
    for (auto& t : s.texels) t = static_cast<std::uint32_t>(rng_());
    return s;
  }

  RasterState state(int index, const Scene& scene) {
    RasterState st;
    st.depth_func = static_cast<DepthFunc>(index % 8);
    st.blend_src = static_cast<BlendFactor>((index / 8) % 8);
    st.blend_dst = static_cast<BlendFactor>((index / 64) % 8);
    const int mask = (index / 512 + below(16)) % 16;
    for (int i = 0; i < 4; ++i) st.color_mask[i] = ((mask >> i) & 1) == 0;
    st.blend = chance(60);
    st.depth_test = chance(60);
    st.depth_write = chance(75);
    st.filter = chance(50) ? TextureFilter::kNearest : TextureFilter::kLinear;
    st.wrap = chance(50) ? TextureWrap::kRepeat : TextureWrap::kClampToEdge;
    st.tex_env = chance(50) ? TexEnv::kModulate : TexEnv::kReplace;
    st.cull = chance(50) ? CullMode::kNone
                         : (chance(50) ? CullMode::kBack : CullMode::kFront);
    if (chance(30)) {
      st.scissor = ScissorRect{below(scene.width + 4) - 2,
                               below(scene.height + 4) - 2,
                               below(scene.width + 4), below(scene.height + 4)};
    }
    if (chance(20)) {
      st.viewport = Viewport{below(5) - 2, below(5) - 2,
                             scene.width + below(9) - 4,
                             scene.height + below(9) - 4};
    }
    static constexpr float kPointSizes[] = {1.f, 2.f, 3.f, 4.5f, 7.f, 0.f};
    st.point_size = kPointSizes[below(std::size(kPointSizes))];
    return st;
  }

  ShadedVertex shaded_vertex() {
    ShadedVertex v;
    const float w = chance(25) ? near_w() : uniform(0.2f, 3.f);
    v.clip_pos = {value(-1.6f, 1.6f, 4) * w, value(-1.6f, 1.6f, 4) * w,
                  value(-1.2f, 1.2f, 4) * w, w};
    v.color = {value(-0.2f, 1.2f, 6), value(-0.2f, 1.2f, 6),
               value(-0.2f, 1.2f, 6), value(-0.2f, 1.2f, 6)};
    v.texcoord = {value(-2.f, 3.f, 8), value(-2.f, 3.f, 8)};
    return v;
  }

  // Primitives built straight in screen space, skipping the vertex stage's
  // clipping: odd 1/w, off-target and non-finite positions, long lines.
  ScreenPrim screen_prim(PrimitiveKind kind, const Scene& scene,
                         const PixelRect& clip) {
    ScreenPrim prim;
    prim.kind = kind;
    const float span_x = static_cast<float>(scene.width);
    const float span_y = static_cast<float>(scene.height);
    for (ScreenVertex& v : prim.v) {
      if (kind == PrimitiveKind::kPoints) {
        v.x = uniform(-4.f, span_x + 4.f);
        v.y = uniform(-4.f, span_y + 4.f);
      } else {
        v.x = value(-8.f, span_x + 8.f, 4);
        v.y = value(-8.f, span_y + 8.f, 4);
      }
      v.z = value(-0.5f, 1.5f, 8);
      v.inv_w = chance(20) ? value(-2.f, 1e6f, 50) : uniform(0.3f, 4.f);
      v.color = {value(0.f, 1.f, 8), value(0.f, 1.f, 8), value(0.f, 1.f, 8),
                 value(0.f, 1.f, 8)};
      v.texcoord = {value(-1.f, 2.f, 12), value(-1.f, 2.f, 12)};
    }
    if (chance(30)) {
      // Half-pixel grid: pixel centers land exactly on edges (w_i == 0), so
      // the ownership tie-break decides coverage.
      for (ScreenVertex& v : prim.v) {
        v.x = std::round(v.x * 2.f) / 2.f;
        v.y = std::round(v.y * 2.f) / 2.f;
      }
    }
    if (kind == PrimitiveKind::kLines && chance(15)) {
      // Far outside int range with a short extent: the walk cannot use its
      // monotonic search there and must still agree.
      const float base = chance(50) ? 3e9f : -1.5e9f;
      prim.v[0].x = base;
      prim.v[1].x = base + uniform(0.f, 600.f);
    }
    if (kind == PrimitiveKind::kTriangles && chance(10)) {
      prim.v[2] = chance(50) ? prim.v[0] : prim.v[1];  // degenerate
    }
    prim.bbox = chance(70) ? clip
                           : intersect(clip, PixelRect{below(scene.width),
                                                       below(scene.height),
                                                       scene.width,
                                                       scene.height});
    return prim;
  }

 private:
  float near_w() {
    static constexpr float kNear[] = {1.0001e-6f, 1.1e-6f, 2e-6f, 1e-6f,
                                      9.9e-7f,    -1e-6f,  1e-5f};
    return kNear[below(std::size(kNear))];
  }

  std::mt19937 rng_;
};

std::string describe(const RasterState& st, const Scene& scene,
                     const ScreenPrim& prim, const PixelRect& limit) {
  std::ostringstream out;
  out << "target " << scene.width << "x" << scene.height << " stride "
      << scene.stride << (scene.has_depth ? " +depth" : "") << "; texture "
      << (scene.textured ? std::to_string(scene.tex_width) + "x" +
                               std::to_string(scene.tex_height)
                         : "none")
      << (scene.feedback ? " (aliases target)" : "") << "; kind "
      << static_cast<int>(prim.kind) << "; depth_test " << st.depth_test
      << " func " << static_cast<int>(st.depth_func) << "; blend "
      << st.blend << " " << static_cast<int>(st.blend_src) << "/"
      << static_cast<int>(st.blend_dst) << "; mask " << st.color_mask[0]
      << st.color_mask[1] << st.color_mask[2] << st.color_mask[3]
      << "; filter " << static_cast<int>(st.filter) << " wrap "
      << static_cast<int>(st.wrap) << " env " << static_cast<int>(st.tex_env)
      << "; limit [" << limit.x0 << "," << limit.y0 << "," << limit.x1 << ","
      << limit.y1 << ")";
  return out.str();
}

TEST(RasterTest, SpanKernelsMatchScalarReference) {
  constexpr int kCases = 8 * 64 * 8;  // every DepthFunc x blend pair, 8x
  Fuzzer fuzz(20171206);
  std::uint64_t total_fragments = 0;
  int feedback_cases = 0;
  for (int index = 0; index < kCases; ++index) {
    Scene kernel = fuzz.scene();
    Scene oracle = kernel;
    const RasterState state = fuzz.state(index, kernel);
    if (kernel.feedback) ++feedback_cases;

    const PixelRect clip = clip_rect(kernel.target(), state);
    const auto kind = static_cast<PrimitiveKind>(fuzz.below(3));
    std::vector<ScreenPrim> prims;
    if (fuzz.chance(50)) {
      std::vector<ShadedVertex> vertices;
      const int per_prim = kind == PrimitiveKind::kTriangles ? 3
                           : kind == PrimitiveKind::kLines   ? 2
                                                             : 1;
      for (int i = 0; i < per_prim * (1 + fuzz.below(6)); ++i) {
        vertices.push_back(fuzz.shaded_vertex());
      }
      build_screen_prims(kernel.target(), state, kind, vertices, prims);
    } else {
      for (int i = 0, n = 1 + fuzz.below(6); i < n; ++i) {
        prims.push_back(fuzz.screen_prim(kind, kernel, clip));
      }
    }

    static constexpr int kTileSizes[] = {1, 3, 4, 5, 8, 13, 64, 1 << 20};
    const int tile = kTileSizes[fuzz.below(std::size(kTileSizes))];
    for (const ScreenPrim& prim : prims) {
      for (int ty = 0; ty < kernel.height; ty += tile) {
        for (int tx = 0; tx < kernel.width; tx += tile) {
          const PixelRect limit{tx, ty, std::min(tx + tile, kernel.width),
                                std::min(ty + tile, kernel.height)};
          const std::uint64_t got = raster_screen_prim(
              kernel.target(), state, prim, kernel.texture(), limit);
          const std::uint64_t want = reference::raster_screen_prim(
              oracle.target(), state, prim, oracle.texture(), limit);
          total_fragments += got;
          ASSERT_EQ(got, want) << "case " << index << ": fragment count; "
                               << describe(state, kernel, prim, limit);
        }
      }
      const PixelRect whole{0, 0, kernel.width, kernel.height};
      ASSERT_EQ(kernel.color, oracle.color)
          << "case " << index << ": color; "
          << describe(state, kernel, prim, whole);
      ASSERT_EQ(std::memcmp(kernel.depth.data(), oracle.depth.data(),
                            kernel.depth.size() * sizeof(float)),
                0)
          << "case " << index << ": depth; "
          << describe(state, kernel, prim, whole);
    }
  }
  // The sweep must actually shade, and reach the feedback lane order.
  EXPECT_GT(total_fragments, 100000u);
  EXPECT_GT(feedback_cases, 100);
}

// With the texture aliasing its target, pixel x samples texel x - 1 of its
// own row, which the previous lane of the same step has just written. Shaded
// in pixel order, column 0's color runs across the whole row; shading the
// four lanes of a step together would stop it after one pixel.
TEST(RasterTest, FeedbackShadesLanesInPixelOrder) {
  constexpr int kWidth = 13, kHeight = 3, kStride = 16;
  std::vector<std::uint32_t> color(kStride * kHeight, 0xff000000u);
  for (int y = 0; y < kHeight; ++y) color[y * kStride] = 0xff3366ccu + y;
  std::vector<std::uint32_t> reference_color = color;

  RasterState state;
  state.filter = TextureFilter::kNearest;
  state.wrap = TextureWrap::kClampToEdge;
  state.tex_env = TexEnv::kReplace;
  // One triangle covering the target, whose u maps pixel center x + 0.5 to
  // (x - 0.5) / width, i.e. texel x - 1.
  const auto corner = [](float x, float y) {
    ShadedVertex v;
    v.clip_pos = {x * 2.f / kWidth - 1.f, 1.f - y * 2.f / kHeight, 0.f, 1.f};
    v.texcoord = {(x - 1.f) / kWidth, y / kHeight};
    return v;
  };
  const std::vector<ShadedVertex> cover = {corner(0, 0), corner(2 * kWidth, 0),
                                           corner(0, 2 * kHeight)};
  const auto draw = [&](std::vector<std::uint32_t>& pixels, auto raster) {
    const TargetView target{pixels.data(), nullptr, kWidth, kHeight, kStride};
    const TextureView texture{pixels.data(), kWidth, kHeight, kStride};
    std::vector<ScreenPrim> prims;
    build_screen_prims(target, state, PrimitiveKind::kTriangles, cover, prims);
    for (const ScreenPrim& prim : prims) {
      raster(target, state, prim, texture,
             PixelRect{0, 0, kWidth, kHeight});
    }
  };
  draw(color, raster_screen_prim);
  draw(reference_color, reference::raster_screen_prim);

  EXPECT_EQ(color, reference_color);
  for (int y = 0; y < kHeight; ++y) {
    for (int x = 0; x < kWidth; ++x) {
      EXPECT_EQ(color[y * kStride + x], 0xff3366ccu + y) << x << "," << y;
    }
  }
}

}  // namespace
}  // namespace cycada::gpu
