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
// degenerate triangles. Every primitive is offered to mark_copy_span as the
// bin stage offers it, and a share of the cases are half-rectangles that
// sample their texture 1:1, so copy spans and their near misses meet the
// same oracle. CopySpansMatchScalarReference sweeps the copy-span shapes
// themselves.
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

// Texcoords of the texel at integer coordinates (tx, ty); exact in float
// for a power-of-two texture, so mark_copy_span can admit the primitive.
Vec2 texcoord(float tx, float ty, const Scene& scene) {
  return {tx / static_cast<float>(std::max(scene.tex_width, 1)),
          ty / static_cast<float>(std::max(scene.tex_height, 1))};
}

// One half of rectangle [x, x + w) x [y, y + h): `half` 0 and 1 split it
// along the main diagonal, 2 and 3 along the other one, and `flip` reverses
// the winding. Color white, 1/w 1, texcoords left to the caller.
ScreenPrim half_rectangle(int x, int y, int w, int h, int half, bool flip) {
  const auto at = [](int px, int py) {
    ScreenVertex v{};
    v.x = static_cast<float>(px);
    v.y = static_cast<float>(py);
    v.inv_w = 1.f;
    v.color = {1.f, 1.f, 1.f, 1.f};
    return v;
  };
  const ScreenVertex p00 = at(x, y), p10 = at(x + w, y),
                     p11 = at(x + w, y + h), p01 = at(x, y + h);
  const ScreenVertex corners[4][3] = {{p00, p10, p11},
                                      {p00, p11, p01},
                                      {p10, p11, p01},
                                      {p10, p01, p00}};
  ScreenPrim prim;
  prim.kind = PrimitiveKind::kTriangles;
  prim.v[0] = corners[half][0];
  prim.v[1] = corners[half][flip ? 2 : 1];
  prim.v[2] = corners[half][flip ? 1 : 2];
  prim.bbox = PixelRect{std::min(x, x + w), std::min(y, y + h),
                        std::max(x, x + w), std::max(y, y + h)};
  return prim;
}

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

  // A half-rectangle with integral corners whose texcoords put texel
  // (x + dx, y + dy) on pixel (x, y), the shape mark_copy_span admits; now
  // and then one corner, texcoord, color or 1/w is nudged off that shape.
  ScreenPrim copy_prim(const Scene& scene, const PixelRect& clip) {
    const int w = 1 + below(scene.width + 4);
    const int h = 1 + below(scene.height + 4);
    const int x = below(scene.width + 4) - 4;
    const int y = below(scene.height + 4) - 4;
    const int dx = below(200) - 100;
    const int dy = below(200) - 100;
    const float inv_w = chance(80) ? 1.f : uniform(0.3f, 4.f);
    const bool white = chance(80);
    ScreenPrim prim = half_rectangle(x, y, w, h, below(4), chance(50));
    for (ScreenVertex& v : prim.v) {
      v.z = value(-0.5f, 1.5f, 8);
      v.inv_w = inv_w;
      v.color = white ? Color{1.f, 1.f, 1.f, 1.f}
                      : Color{uniform(0.f, 1.f), 1.f, 1.f, 1.f};
      v.texcoord = texcoord(v.x + dx, v.y + dy, scene);
    }
    ScreenVertex& nudged = prim.v[below(3)];
    switch (below(10)) {
      case 0: nudged.x += 0.5f; break;
      case 1: nudged.texcoord.x = std::nextafter(nudged.texcoord.x, kInf);
        break;
      case 2: nudged.color.a = 0.99999994f; break;
      case 3: nudged.inv_w = std::nextafter(nudged.inv_w, kInf); break;
      default: break;
    }
    prim.bbox = clip;
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
  int copied = 0;
  for (int index = 0; index < kCases; ++index) {
    Scene kernel = fuzz.scene();
    Scene oracle = kernel;
    RasterState state = fuzz.state(index, kernel);
    if (kernel.feedback) ++feedback_cases;

    const PixelRect clip = clip_rect(kernel.target(), state);
    auto kind = static_cast<PrimitiveKind>(fuzz.below(3));
    std::vector<ScreenPrim> prims;
    if (fuzz.chance(25)) {
      // Copy-shaped, mostly under the plain state a copy span needs.
      kind = PrimitiveKind::kTriangles;
      if (fuzz.chance(70)) {
        state.depth_test = state.blend = false;
        state.cull = CullMode::kNone;
        std::fill(std::begin(state.color_mask), std::end(state.color_mask),
                  true);
        state.filter = TextureFilter::kNearest;
      }
      for (int i = 0, n = 1 + fuzz.below(4); i < n; ++i) {
        prims.push_back(fuzz.copy_prim(kernel, clip));
      }
    } else if (fuzz.chance(50)) {
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
    for (ScreenPrim& prim : prims) {
      copied += mark_copy_span(kernel.target(), state, kernel.texture(), prim);
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
  // The sweep must actually shade, and reach the feedback lane order and
  // the copy spans.
  EXPECT_GT(total_fragments, 100000u);
  EXPECT_GT(feedback_cases, 100);
  EXPECT_GT(copied, 100);
}

// A target and a separate texture of the given sizes, random bytes in
// both, rows padded by 0-3 pixels.
Scene copy_scene(int width, int height, int tex_width, int tex_height,
                 std::mt19937& rng) {
  Scene s;
  s.width = width;
  s.height = height;
  s.stride = width + static_cast<int>(rng() % 4);
  s.color.resize(static_cast<std::size_t>(s.stride) * height);
  for (auto& px : s.color) px = static_cast<std::uint32_t>(rng());
  s.textured = true;
  s.tex_width = tex_width;
  s.tex_height = tex_height;
  s.tex_stride = tex_width + static_cast<int>(rng() % 4);
  s.texels.resize(static_cast<std::size_t>(s.tex_stride) * tex_height);
  for (auto& t : s.texels) t = static_cast<std::uint32_t>(rng());
  return s;
}

struct CopyTally {
  int prims = 0;
  int copied = 0;      // primitives mark_copy_span admitted
  int mismatches = 0;  // differing fragment counts and pixels
};

// `prim` with texel (x + dx, y + dy) on pixel (x, y) of `scene`.
ScreenPrim mapped(ScreenPrim prim, int dx, int dy, const Scene& scene) {
  for (ScreenVertex& v : prim.v) {
    v.texcoord = texcoord(v.x + dx, v.y + dy, scene);
  }
  return prim;
}

// Draws `prim` into `kernel` through mark_copy_span and the span kernels
// and into `oracle` through the scalar path, over `tile`-sized limits, then
// compares the two targets.
void copy_both(Scene& kernel, Scene& oracle, const RasterState& state,
               ScreenPrim prim, int tile, CopyTally& tally) {
  prim.bbox = intersect(prim.bbox, clip_rect(kernel.target(), state));
  ++tally.prims;
  tally.copied += mark_copy_span(kernel.target(), state, kernel.texture(), prim);
  for (int ty = 0; ty < kernel.height; ty += tile) {
    for (int tx = 0; tx < kernel.width; tx += tile) {
      const PixelRect limit{tx, ty, std::min(tx + tile, kernel.width),
                            std::min(ty + tile, kernel.height)};
      if (intersect(limit, prim.bbox).empty()) continue;
      tally.mismatches +=
          raster_screen_prim(kernel.target(), state, prim, kernel.texture(),
                             limit) !=
          reference::raster_screen_prim(oracle.target(), state, prim,
                                        oracle.texture(), limit);
    }
  }
  for (std::size_t i = 0; i < kernel.color.size(); ++i) {
    tally.mismatches += kernel.color[i] != oracle.color[i];
  }
}

RasterState copy_state(TexEnv env, TextureWrap wrap) {
  RasterState st;
  st.filter = TextureFilter::kNearest;
  st.tex_env = env;
  st.wrap = wrap;
  return st;
}

TEST(RasterTest, CopySpansMatchScalarReference) {
  std::mt19937 rng(20171206);

  // Every half-rectangle up to 64x64, both diagonals, both halves, both
  // windings, with texel offsets before, inside and beyond power-of-two
  // textures under repeat and clamp, replace and modulate by white, and
  // tile limits down to 1 px.
  CopyTally shapes;
  static constexpr int kTiles[] = {1, 5, 16, 64, 1 << 20};
  for (int w = 1; w <= 64; ++w) {
    for (int h = 1; h <= 64; ++h) {
      const int variant = w * 65 + h;
      Scene kernel = copy_scene(70, 70, 8 << (variant % 5),
                                8 << (variant / 5 % 5), rng);
      Scene oracle = kernel;
      const RasterState state = copy_state(
          variant % 2 ? TexEnv::kModulate : TexEnv::kReplace,
          variant / 2 % 2 ? TextureWrap::kClampToEdge : TextureWrap::kRepeat);
      const int x = static_cast<int>(rng() % (74 - w)) - 2;
      const int y = static_cast<int>(rng() % (74 - h)) - 2;
      const int dx = static_cast<int>(rng() % (4 * kernel.tex_width)) -
                     2 * kernel.tex_width;
      const int dy = static_cast<int>(rng() % (4 * kernel.tex_height)) -
                     2 * kernel.tex_height;
      int tile = kTiles[variant % std::size(kTiles)];
      if (tile == 1 && w * h > 512) tile = 3;
      for (int half = 0; half < 4; ++half) {
        for (const bool flip : {false, true}) {
          copy_both(kernel, oracle, state,
                    mapped(half_rectangle(x, y, w, h, half, flip), dx, dy,
                           kernel),
                    tile, shapes);
        }
      }
    }
  }
  EXPECT_EQ(shapes.mismatches, 0);
  EXPECT_EQ(shapes.copied, shapes.prims);

  // Whole-target quads at present sizes, texture the size of the target:
  // uv 0..1 maps 1:1, and so does uv shifted by a whole texture.
  CopyTally quads;
  struct Quad {
    int width, height, tile;
  };
  static constexpr Quad kQuads[] = {{128, 128, 64}, {192, 160, 1 << 20},
                                    {512, 512, 64}, {1024, 1024, 64},
                                    {1, 1024, 64},  {1024, 1, 1}};
  for (const Quad& q : kQuads) {
    for (const int shift : {0, -1, 1}) {
      Scene kernel = copy_scene(q.width, q.height, q.width, q.height, rng);
      Scene oracle = kernel;
      const RasterState state = copy_state(
          shift == 0 ? TexEnv::kReplace : TexEnv::kModulate,
          shift == 1 ? TextureWrap::kClampToEdge : TextureWrap::kRepeat);
      for (const int half : {0, 1}) {
        copy_both(kernel, oracle, state,
                  mapped(half_rectangle(0, 0, q.width, q.height, half, false),
                         shift * q.width, shift * q.height, kernel),
                  q.tile, quads);
      }
      if (q.width * q.height > 512 * 512) break;  // the reference is slow
    }
  }
  EXPECT_EQ(quads.mismatches, 0);
  EXPECT_EQ(quads.copied, quads.prims);

  // Near misses take the shading kernels and still match: a corner off by
  // half a pixel, a texcoord off by one ulp, a color one ulp below white,
  // unequal 1/w, and an extent of 1025 px. Unperturbed, each is a copy.
  CopyTally near;
  const auto near_miss = [&](int width, int height, int tex_width,
                             auto perturb) {
    for (const bool perturbed : {false, true}) {
      Scene kernel = copy_scene(width + 8, height + 8, tex_width, 64, rng);
      Scene oracle = kernel;
      const RasterState state =
          copy_state(TexEnv::kModulate, TextureWrap::kRepeat);
      ScreenPrim prim =
          mapped(half_rectangle(4, 4, width, height, 1, false), 0, 0, kernel);
      if (perturbed) perturb(prim);
      const int copied = near.copied;
      copy_both(kernel, oracle, state, prim, 16, near);
      EXPECT_EQ(near.copied - copied, perturbed ? 0 : 1)
          << width << "x" << height << (perturbed ? " perturbed" : "");
    }
  };
  near_miss(64, 48, 64, [](ScreenPrim& p) { p.v[0].x += 0.5f; });
  near_miss(64, 48, 64, [](ScreenPrim& p) {
    p.v[2].texcoord.y = std::nextafter(p.v[2].texcoord.y, kInf);
  });
  near_miss(64, 48, 64, [](ScreenPrim& p) { p.v[1].color.g = 0.99999994f; });
  near_miss(64, 48, 64, [](ScreenPrim& p) { p.v[0].inv_w = 0.5f; });
  near_miss(1024, 8, 2048, [](ScreenPrim& p) {
    for (ScreenVertex& v : p.v) {
      if (v.x > 4.f) v.texcoord.x = ++v.x / 2048.f;
    }
  });
  EXPECT_EQ(near.mismatches, 0);
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
