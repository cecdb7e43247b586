#include "gpu/raster.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cycada::gpu {

namespace {

constexpr float kNearEpsilon = 1e-6f;

// --- Lanes -------------------------------------------------------------------
//
// The fragment stage shades four pixels per step in GCC/Clang vector
// registers (baseline SSE2 on x86-64). Each lane evaluates the IEEE
// expression the one-fragment-at-a-time rasterizer evaluated, operand for
// operand and in the same order, so every lane's bytes equal shading that
// fragment alone (docs/PIPELINE.md, "Raster kernel").

constexpr int kLanes = 4;
constexpr int kAllLanes = (1 << kLanes) - 1;
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));

constexpr I4 kLaneIndex = {0, 1, 2, 3};
constexpr F4 kZero = {0.f, 0.f, 0.f, 0.f};
constexpr F4 kOne = {1.f, 1.f, 1.f, 1.f};
constexpr I4 kNoLanes = {0, 0, 0, 0};
constexpr std::int32_t kIntMin = std::numeric_limits<std::int32_t>::min();

// Bit k set when lane k of a comparison mask is set.
inline int lane_bits(I4 mask) {
#if defined(__SSE2__)
  return _mm_movemask_ps((__m128)mask);
#else
  return (mask[0] & 1) | (mask[1] & 2) | (mask[2] & 4) | (mask[3] & 8);
#endif
}

// static_cast<int>(v) per lane. An out-of-range or NaN lane yields what the
// scalar conversion yields on the same machine (INT_MIN on x86-64).
inline I4 truncate(F4 v) {
#if defined(__SSE2__)
  return (I4)_mm_cvttps_epi32((__m128)v);
#else
  I4 out;
  for (int k = 0; k < kLanes; ++k) out[k] = static_cast<std::int32_t>(v[k]);
  return out;
#endif
}

inline F4 to_float(I4 v) { return __builtin_convertvector(v, F4); }

// Broadcasts without arithmetic, so -0.f and NaN payloads survive.
inline F4 splat(float v) { return F4{v, v, v, v}; }

// static_cast<int>(std::floor(v)) per lane: truncation rounds a negative
// non-integer up, so step it down. |v| >= 2^23 is integral, so the float
// compare is exact; a lane the conversion saturated keeps its result.
inline I4 floor_to_int(F4 v) {
  const I4 t = truncate(v);
  return t + ((v < to_float(t)) & (t != kIntMin));
}

// static_cast<int>(std::round(v)): truncate, then step away from zero when
// the dropped fraction is at least one half. |v| >= 2^23 (and NaN) is
// already integral, so only the conversion applies.
inline int round_to_int(float v) {
  const int t = static_cast<int>(v);
  if (!(std::fabs(v) < 8388608.f)) return t;
  const float fraction = v - static_cast<float>(t);
  if (fraction >= 0.5f) return t + 1;
  if (fraction <= -0.5f) return t - 1;
  return t;
}

// Two's-complement int addition. A screen coordinate beyond int range
// converts to INT_MIN, and bounding-box padding has always wrapped from
// there (leaving the box empty); this keeps those bytes without the
// signed overflow.
inline int wrapping_add(int a, int b) {
  return static_cast<int>(static_cast<unsigned>(a) + static_cast<unsigned>(b));
}

// Lanes outside `bits` read as zero and are never touched in memory, so a
// row tail never reads or writes past the last live pixel.
template <class V, class T>
inline V load_lanes(const T* p, int bits) {
  V v{};
  if (bits == kAllLanes) {
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  for (int k = 0; k < kLanes; ++k) {
    if ((bits >> k) & 1) v[k] = p[k];
  }
  return v;
}

template <class V, class T>
inline void store_lanes(T* p, V v, int bits) {
  if (bits == kAllLanes) {
    std::memcpy(p, &v, sizeof v);
    return;
  }
  for (int k = 0; k < kLanes; ++k) {
    if ((bits >> k) & 1) p[k] = v[k];
  }
}

// Four colors, one per lane, channel-major.
struct Colors {
  F4 r, g, b, a;
};

// unpack_rgba8888 per lane.
inline Colors unpack(U4 packed) {
  constexpr float kInv = 1.f / 255.f;
  const auto channel = [&](int shift) {
    return to_float((I4)((packed >> shift) & 0xffu)) * kInv;
  };
  return {channel(0), channel(8), channel(16), channel(24)};
}

// pack_rgba8888 per lane. clamp01 then round-half-up to a byte; NaN packs
// to 0, as the scalar float-to-unsigned conversion produces.
inline U4 pack(const Colors& c) {
  const auto to8 = [](F4 v) {
    v = v > kZero ? v : kZero;
    v = v > kOne ? kOne : v;
    return (U4)truncate(v * 255.f + 0.5f);
  };
  return to8(c.r) | (to8(c.g) << 8) | (to8(c.b) << 16) | (to8(c.a) << 24);
}

// Four fragments' interpolated inputs, one per lane.
struct Frags {
  F4 z;
  Colors color;
  F4 u, v;
};

inline I4 depth_passes(DepthFunc func, F4 incoming, F4 stored) {
  switch (func) {
    case DepthFunc::kNever: return kNoLanes;
    case DepthFunc::kLess: return incoming < stored;
    case DepthFunc::kEqual: return incoming == stored;
    case DepthFunc::kLessEqual: return incoming <= stored;
    case DepthFunc::kGreater: return incoming > stored;
    case DepthFunc::kNotEqual: return incoming != stored;
    case DepthFunc::kGreaterEqual: return incoming >= stored;
    case DepthFunc::kAlways: return ~kNoLanes;
  }
  return ~kNoLanes;
}

inline F4 blend_factor(BlendFactor factor, F4 src_component, F4 src_alpha,
                       F4 dst_alpha) {
  switch (factor) {
    case BlendFactor::kZero: return kZero;
    case BlendFactor::kOne: return kOne;
    case BlendFactor::kSrcAlpha: return src_alpha;
    case BlendFactor::kOneMinusSrcAlpha: return 1.f - src_alpha;
    case BlendFactor::kDstAlpha: return dst_alpha;
    case BlendFactor::kOneMinusDstAlpha: return 1.f - dst_alpha;
    case BlendFactor::kSrcColor: return src_component;
    case BlendFactor::kOneMinusSrcColor: return 1.f - src_component;
  }
  return kOne;
}

// --- Per-primitive state -----------------------------------------------------

enum class TexMode : std::uint8_t { kNone, kNearest, kLinear };

// One primitive's draw as the kernel reads it. `texture` is the view
// actually sampled (see kWhiteTexel).
struct Shader {
  const TargetView& target;
  const RasterState& state;
  TextureView texture;
  // The texture aliases the target (framebuffer feedback): a lane may sample
  // a texel an earlier lane of the same step writes, so lanes shade one at
  // a time in pixel order.
  bool feedback = false;
};

// wrap_coord per lane (`size` >= 1).
inline I4 wrap_coord(I4 coord, int size, TextureWrap wrap) {
  if (wrap == TextureWrap::kClampToEdge) {
    const I4 last = kNoLanes + (size - 1);
    coord = coord < 0 ? kNoLanes : coord;
    return coord > last ? last : coord;
  }
  // A power-of-two modulus is the low bits, negative coords included.
  if ((size & (size - 1)) == 0) return coord & (size - 1);
  for (int k = 0; k < kLanes; ++k) {
    int c = coord[k] % size;
    if (c < 0) c += size;
    coord[k] = c;
  }
  return coord;
}

inline Colors fetch(const TextureView& texture, I4 x, I4 y) {
  U4 texels;
  for (int k = 0; k < kLanes; ++k) {
    texels[k] =
        texture.texels[static_cast<std::size_t>(y[k]) * texture.stride_px +
                       x[k]];
  }
  return unpack(texels);
}

inline F4 lerp_terms(F4 from, F4 to, F4 t) { return from * (1.f - t) + to * t; }

template <TexMode kTex>
Colors sample(const Shader& s, F4 u, F4 v) {
  const TextureView& t = s.texture;
  const TextureWrap wrap = s.state.wrap;
  const float width = static_cast<float>(t.width);
  const float height = static_cast<float>(t.height);
  if constexpr (kTex == TexMode::kNearest) {
    return fetch(t, wrap_coord(floor_to_int(u * width), t.width, wrap),
                 wrap_coord(floor_to_int(v * height), t.height, wrap));
  } else {
    const F4 fx = u * width - 0.5f;
    const F4 fy = v * height - 0.5f;
    const I4 x0 = floor_to_int(fx);
    const I4 y0 = floor_to_int(fy);
    const F4 tx = fx - to_float(x0);
    const F4 ty = fy - to_float(y0);
    const I4 xa = wrap_coord(x0, t.width, wrap);
    const I4 xb = wrap_coord(x0 + 1, t.width, wrap);
    const I4 ya = wrap_coord(y0, t.height, wrap);
    const I4 yb = wrap_coord(y0 + 1, t.height, wrap);
    const Colors c00 = fetch(t, xa, ya);
    const Colors c10 = fetch(t, xb, ya);
    const Colors c01 = fetch(t, xa, yb);
    const Colors c11 = fetch(t, xb, yb);
    const auto bilerp = [&](F4 f00, F4 f10, F4 f01, F4 f11) {
      return lerp_terms(lerp_terms(f00, f10, tx), lerp_terms(f01, f11, tx),
                        ty);
    };
    return {bilerp(c00.r, c10.r, c01.r, c11.r),
            bilerp(c00.g, c10.g, c01.g, c11.g),
            bilerp(c00.b, c10.b, c01.b, c11.b),
            bilerp(c00.a, c10.a, c01.a, c11.a)};
  }
}

// --- The kernel --------------------------------------------------------------
//
// One compile-time variant per (depth test, texture mode, blend-or-mask).
// shade() runs the fragment stage for the live lanes (`bits`) of pixels
// (x..x+3, y): depth test, texturing, blend, mask, pack, write-back. It
// reads and writes only those pixels, so concurrent calls on disjoint
// pixel rects of the same target never race.
template <bool kDepth, TexMode kTex, bool kBlend>
struct Kernel {
  static std::uint64_t shade(const Shader& s, int x, int y, int bits,
                             const Frags& f) {
    const RasterState& state = s.state;
    float* depth = nullptr;
    if constexpr (kDepth) {
      depth = s.target.depth + static_cast<std::size_t>(y) * s.target.width + x;
      bits &= lane_bits(
          depth_passes(state.depth_func, f.z, load_lanes<F4>(depth, bits)));
      if (bits == 0) return 0;
    }

    Colors out = f.color;
    if constexpr (kTex != TexMode::kNone) {
      const Colors texel = sample<kTex>(s, f.u, f.v);
      out = state.tex_env == TexEnv::kReplace
                ? texel
                      : Colors{texel.r * f.color.r, texel.g * f.color.g,
                               texel.b * f.color.b, texel.a * f.color.a};
    }

    std::uint32_t* pixel =
        s.target.color + static_cast<std::size_t>(y) * s.target.stride_px + x;
    if constexpr (kBlend) {
      const Colors dst = unpack(load_lanes<U4>(pixel, bits));
      if (state.blend) {
        const F4 sa = out.a;
        const F4 da = dst.a;
        const auto combine = [&](F4 src, F4 d) {
          return src * blend_factor(state.blend_src, src, sa, da) +
                 d * blend_factor(state.blend_dst, src, sa, da);
        };
        out = Colors{combine(out.r, dst.r), combine(out.g, dst.g),
                     combine(out.b, dst.b), combine(out.a, dst.a)};
      }
      if (!state.color_mask[0]) out.r = dst.r;
      if (!state.color_mask[1]) out.g = dst.g;
      if (!state.color_mask[2]) out.b = dst.b;
      if (!state.color_mask[3]) out.a = dst.a;
    }
    store_lanes(pixel, pack(out), bits);
    if constexpr (kDepth) {
      if (state.depth_write) store_lanes(depth, f.z, bits);
    }
    return static_cast<std::uint64_t>(__builtin_popcount(bits));
  }

  // shade() for one triangle span step, one lane at a time under feedback.
  static std::uint64_t emit(const Shader& s, int x, int y, int bits,
                            const Frags& f) {
    if (!s.feedback) return shade(s, x, y, bits, f);
    std::uint64_t fragments = 0;
    for (int k = 0; k < kLanes; ++k) {
      if ((bits >> k) & 1) fragments += shade(s, x, y, 1 << k, f);
    }
    return fragments;
  }

  static std::uint64_t triangle(const Shader& s, const ScreenVertex& a,
                                const ScreenVertex& b, const ScreenVertex& c,
                                const PixelRect& limit) {
    const float area =
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    if (area == 0.f) return 0;
    if (s.state.cull == CullMode::kBack && area > 0.f) return 0;
    if (s.state.cull == CullMode::kFront && area < 0.f) return 0;

    const int x0 = std::max(
        limit.x0, static_cast<int>(std::floor(std::min({a.x, b.x, c.x}))));
    const int y0 = std::max(
        limit.y0, static_cast<int>(std::floor(std::min({a.y, b.y, c.y}))));
    const int x1 = std::min(
        limit.x1, static_cast<int>(std::ceil(std::max({a.x, b.x, c.x}))));
    const int y1 = std::min(
        limit.y1, static_cast<int>(std::ceil(std::max({a.y, b.y, c.y}))));
    if (x0 >= x1 || y0 >= y1) return 0;

    const float inv_area = 1.f / area;
    // Fill rule: a pixel center exactly on an edge belongs to only one of
    // the two triangles sharing it. The directed shared edge has opposite
    // orientation in the two triangles (consistent winding), so an
    // orientation-sensitive predicate dedups coverage. `sign` normalizes
    // the winding so the predicate sees a consistent orientation. A lane
    // whose weight w_i is exactly 0 lies on the edge opposite vertex i
    // (b->c, c->a, a->b) and is dropped unless that edge owns it.
    const float sign = area > 0.f ? 1.f : -1.f;
    const auto disowned = [sign](float ex, float ey) {
      ex *= sign;
      ey *= sign;
      return ey > 0.f || (ey == 0.f && ex > 0.f) ? kNoLanes : ~kNoLanes;
    };
    const I4 disown0 = disowned(c.x - b.x, c.y - b.y);
    const I4 disown1 = disowned(a.x - c.x, a.y - c.y);
    const I4 disown2 = disowned(b.x - a.x, b.y - a.y);

    std::uint64_t fragments = 0;
    for (int y = y0; y < y1; ++y) {
      const float py = static_cast<float>(y) + 0.5f;
      for (int x = x0; x < x1; x += kLanes) {
        const I4 xs = x + kLaneIndex;
        const F4 px = to_float(xs) + 0.5f;
        // Barycentric weights via edge functions (sign-normalized by area
        // so both windings rasterize).
        const F4 w0 =
            ((b.x - px) * (c.y - py) - (b.y - py) * (c.x - px)) * inv_area;
        const F4 w1 =
            ((c.x - px) * (a.y - py) - (c.y - py) * (a.x - px)) * inv_area;
        const F4 w2 = 1.f - w0 - w1;
        const I4 covered = (xs < x1) & ~((w0 < kZero) | (w1 < kZero) |
                                         (w2 < kZero)) &
                           ~((w0 == kZero) & disown0) &
                           ~((w1 == kZero) & disown1) &
                           ~((w2 == kZero) & disown2);
        const int bits = lane_bits(covered);
        if (bits == 0) continue;

        Frags f;
        f.z = w0 * a.z + w1 * b.z + w2 * c.z;
        // Perspective-correct interpolation: weights scaled by 1/w.
        const F4 iw = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
        const F4 p0 = w0 * a.inv_w / iw;
        const F4 p1 = w1 * b.inv_w / iw;
        const F4 p2 = 1.f - p0 - p1;
        const auto mix = [&](float va, float vb, float vc) {
          return va * p0 + vb * p1 + vc * p2;
        };
        f.color = {mix(a.color.r, b.color.r, c.color.r),
                   mix(a.color.g, b.color.g, c.color.g),
                   mix(a.color.b, b.color.b, c.color.b),
                   mix(a.color.a, b.color.a, c.color.a)};
        if constexpr (kTex != TexMode::kNone) {
          f.u = mix(a.texcoord.x, b.texcoord.x, c.texcoord.x);
          f.v = mix(a.texcoord.y, b.texcoord.y, c.texcoord.y);
        }
        fragments += emit(s, x, y, bits, f);
      }
    }
    return fragments;
  }

  // A line walks step i = 0..steps to pixel (round(x(i)), round(y(i))),
  // shading each step alone: consecutive steps can land on one pixel, so
  // their order matters. x(i) and y(i) are monotonic in i, so the steps
  // inside `limit` form one interval; a binary search finds it and only
  // that interval is walked. The union over disjoint tiles therefore equals
  // the full-target walk exactly.
  static std::uint64_t line(const Shader& s, const ScreenVertex& a,
                            const ScreenVertex& b, const PixelRect& limit) {
    const float dx = b.x - a.x;
    const float dy = b.y - a.y;
    const int steps =
        std::max(1, static_cast<int>(std::ceil(std::max(std::fabs(dx),
                                                        std::fabs(dy)))));
    const auto t_at = [steps](int i) {
      return static_cast<float>(i) / steps;
    };
    const auto x_at = [&](int i) { return round_to_int(a.x + dx * t_at(i)); };
    const auto y_at = [&](int i) { return round_to_int(a.y + dy * t_at(i)); };

    int first = 0;
    int last = steps + 1;
    // Monotonic in int terms only while no step can leave int range.
    constexpr float kSafe = 1073741824.f;  // 2^30
    if (std::fabs(a.x) <= kSafe && std::fabs(b.x) <= kSafe &&
        std::fabs(a.y) <= kSafe && std::fabs(b.y) <= kSafe) {
      // First step in [first, last) where a monotone predicate turns true.
      const auto first_where = [&](auto pred) {
        int lo = first, hi = last;
        while (lo < hi) {
          const int mid = lo + (hi - lo) / 2;
          if (pred(mid)) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        return lo;
      };
      // Narrows [first, last) to the steps whose coordinate is in [lo, hi).
      const auto narrow = [&](auto coord_at, float delta, int lo, int hi) {
        int begin, end;
        if (delta >= 0.f) {
          begin = first_where([&](int i) { return coord_at(i) >= lo; });
          end = first_where([&](int i) { return coord_at(i) >= hi; });
        } else {
          begin = first_where([&](int i) { return coord_at(i) < hi; });
          end = first_where([&](int i) { return coord_at(i) < lo; });
        }
        first = begin;
        last = end;
      };
      narrow(x_at, dx, limit.x0, limit.x1);
      narrow(y_at, dy, limit.y0, limit.y1);
    }

    std::uint64_t fragments = 0;
    for (int i = first; i < last; ++i) {
      const float t = t_at(i);
      const int x = x_at(i);
      const int y = y_at(i);
      if (x < limit.x0 || x >= limit.x1 || y < limit.y0 || y >= limit.y1) {
        continue;
      }
      Frags f{};
      f.z[0] = a.z + (b.z - a.z) * t;
      f.color.r[0] = a.color.r * (1.f - t) + b.color.r * t;
      f.color.g[0] = a.color.g * (1.f - t) + b.color.g * t;
      f.color.b[0] = a.color.b * (1.f - t) + b.color.b * t;
      f.color.a[0] = a.color.a * (1.f - t) + b.color.a * t;
      f.u[0] = a.texcoord.x + (b.texcoord.x - a.texcoord.x) * t;
      f.v[0] = a.texcoord.y + (b.texcoord.y - a.texcoord.y) * t;
      fragments += shade(s, x, y, 1, f);
    }
    return fragments;
  }

  // A point is a square of identical fragments, each shaded at width 1.
  static std::uint64_t point(const Shader& s, const ScreenVertex& v,
                             const PixelRect& limit) {
    const std::int64_t half =
        std::max(0, static_cast<int>(s.state.point_size / 2.f));
    const std::int64_t cx = round_to_int(v.x);
    const std::int64_t cy = round_to_int(v.y);
    const auto clamp_to = [](std::int64_t v, int lo, int hi) {
      return static_cast<int>(std::clamp<std::int64_t>(v, lo, hi));
    };
    const int x0 = clamp_to(cx - half, limit.x0, limit.x1);
    const int y0 = clamp_to(cy - half, limit.y0, limit.y1);
    const int x1 = clamp_to(cx + half + 1, limit.x0, limit.x1);
    const int y1 = clamp_to(cy + half + 1, limit.y0, limit.y1);
    Frags f;
    f.z = splat(v.z);
    f.color = {splat(v.color.r), splat(v.color.g), splat(v.color.b),
               splat(v.color.a)};
    f.u = splat(v.texcoord.x);
    f.v = splat(v.texcoord.y);
    std::uint64_t fragments = 0;
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) fragments += shade(s, x, y, 1, f);
    }
    return fragments;
  }

  static std::uint64_t raster(const Shader& s, const ScreenPrim& prim,
                              const PixelRect& limit) {
    switch (prim.kind) {
      case PrimitiveKind::kTriangles:
        return triangle(s, prim.v[0], prim.v[1], prim.v[2], limit);
      case PrimitiveKind::kLines:
        return line(s, prim.v[0], prim.v[1], limit);
      case PrimitiveKind::kPoints:
        return point(s, prim.v[0], limit);
    }
    return 0;
  }
};

using PrimKernel = std::uint64_t (*)(const Shader&, const ScreenPrim&,
                                     const PixelRect&);

// Indexed [depth test][TexMode][blend or color mask].
constexpr PrimKernel kKernels[2][3][2] = {
    {{Kernel<false, TexMode::kNone, false>::raster,
      Kernel<false, TexMode::kNone, true>::raster},
     {Kernel<false, TexMode::kNearest, false>::raster,
      Kernel<false, TexMode::kNearest, true>::raster},
     {Kernel<false, TexMode::kLinear, false>::raster,
      Kernel<false, TexMode::kLinear, true>::raster}},
    {{Kernel<true, TexMode::kNone, false>::raster,
      Kernel<true, TexMode::kNone, true>::raster},
     {Kernel<true, TexMode::kNearest, false>::raster,
      Kernel<true, TexMode::kNearest, true>::raster},
     {Kernel<true, TexMode::kLinear, false>::raster,
      Kernel<true, TexMode::kLinear, true>::raster}}};

// Sampling a texture with no texels in it yields white; one white texel
// under nearest filtering yields the same for any uv and wrap.
constexpr std::uint32_t kWhiteTexel = 0xffffffffu;

// --- Copy spans --------------------------------------------------------------
//
// mark_copy_span() admits a triangle whose kernel output is provably the
// texel at a fixed offset from each covered pixel. copy_span() splits each
// row of such a triangle in three: lanes outside an outer interval cannot
// be covered; lanes inside an inner interval are covered and are copied
// from the texture row; the kernel shades the lanes between, so the float
// predicate and its tie-break decide them exactly as before.
//
// The error bound behind the intervals, with u = 2^-24 the unit roundoff.
// Vertices are integers of magnitude <= 2^20, extents are <= 1024 and pixel
// centers are half integers inside the vertex rectangle, so every
// difference in an edge function is a half integer below 2^11, every
// product a quarter integer below 2^20 and their difference a quarter
// integer below 2^21: each edge function E_i is exact, and so is the area.
// Let l_i = E_i / area be the exact barycentrics; inside the rectangle of a
// half-rectangle triangle |l_i| <= 1.
//   w0 = fl(E0 * fl(1 / area)) rounds twice: |w0 - l0| <= 2u + u^2, and
//     w0 has the sign of l0 exactly. The same holds for w1.
//   w2 = fl(fl(1 - w0) - w1) adds u |1 - w0| <= 2u + 3u^2 and
//     u |w2| <= u + 9u^2 to the 4u + 2u^2 of w0 and w1:
//     |w2 - l2| <= 7u + 14u^2 < kWeightError = 8u.
// So l_i > 8u for every i makes all three weights positive (covered, no
// tie-break), and l_i < -8u for some i makes w_i negative (not covered).
//
// A lane with every l_i > 8u samples texel (x + dx, y + dy). With one
// common 1/w the perspective weights p_i approximate l_i: iw sums three
// positive terms (3u relative), the divide adds 2u more, and w_i / sum(w)
// differs from l_i by at most 12u, so |p0 - l0|, |p1 - l1| < 20u and
// p2 = fl(fl(1 - p0) - p1) has |p2 - l2| < 43u. The texel coordinate
// fl(fl(sum u_i p_i) * W) has exact value sum U_i l_i = x + 0.5 + dx, where
// U_i = u_i W are the vertex texel coordinates, and misses it by at most
// sum |U_i| |p_i - l_i| plus four roundings of about sum |U_i p_i|:
// < 90u max|U_i|. With |U_i| <= kMaxTexelCoord = 2^12 that is below
// 90 * 2^-12 < 0.025 texel, far from the half texel that would move floor()
// off x + dx. The color is the texel's: replace passes it through, and
// modulate by a color interpolated from exact 1.f values (within 5u of 1)
// scales unpack(t) by 1 +- 8u, which pack() rounds back to t's byte.
constexpr double kRoundoff = 1.0 / (1 << 24);
constexpr double kWeightError = 8 * kRoundoff;
constexpr float kMaxVertexCoord = 1 << 20;
constexpr float kMaxExtent = 1024.f;
constexpr double kMaxTexelCoord = 1 << 12;

// floor(n / d) and ceil(n / d) for d > 0.
inline std::int64_t floor_div(std::int64_t n, std::int64_t d) {
  const std::int64_t q = n / d;
  return (n % d != 0 && n < 0) ? q - 1 : q;
}
inline std::int64_t ceil_div(std::int64_t n, std::int64_t d) {
  return -floor_div(-n, d);
}

// Writes `n` texels of row `row` starting at column `tx` (any integer)
// under `wrap`, as wrap_coord() maps each column.
void copy_texels(const std::uint32_t* row, int width, TextureWrap wrap,
                 std::int64_t tx, std::uint32_t* out, std::int64_t n) {
  if (wrap == TextureWrap::kClampToEdge) {
    const std::int64_t before = std::clamp<std::int64_t>(-tx, 0, n);
    std::fill(out, out + before, row[0]);
    out += before;
    n -= before;
    tx += before;
    const std::int64_t inside = std::clamp<std::int64_t>(width - tx, 0, n);
    if (inside > 0) std::memcpy(out, row + tx, inside * sizeof *out);
    std::fill(out + inside, out + n, row[width - 1]);
    return;
  }
  tx = ((tx % width) + width) % width;
  while (n > 0) {
    const std::int64_t run = std::min<std::int64_t>(n, width - tx);
    std::memcpy(out, row + tx, run * sizeof *out);
    out += run;
    n -= run;
    tx = 0;
  }
}

std::uint64_t copy_span(const Shader& s, const ScreenPrim& prim,
                        const PixelRect& raw_limit) {
  using Nearest = Kernel<false, TexMode::kNearest, false>;
  const ScreenVertex& a = prim.v[0];
  const ScreenVertex& b = prim.v[1];
  const ScreenVertex& c = prim.v[2];
  const PixelRect limit = intersect(
      raw_limit,
      PixelRect{static_cast<int>(std::min({a.x, b.x, c.x})),
                static_cast<int>(std::min({a.y, b.y, c.y})),
                static_cast<int>(std::max({a.x, b.x, c.x})),
                static_cast<int>(std::max({a.y, b.y, c.y}))});
  if (limit.empty()) return 0;

  // Edge functions in doubled coordinates, where pixel centers are odd
  // integers: 4 E_i, sign-normalized so l_i = e_i / (4 |area|).
  struct Point {
    std::int64_t x, y;
  };
  const Point p[3] = {{2 * static_cast<std::int64_t>(a.x),
                       2 * static_cast<std::int64_t>(a.y)},
                      {2 * static_cast<std::int64_t>(b.x),
                       2 * static_cast<std::int64_t>(b.y)},
                      {2 * static_cast<std::int64_t>(c.x),
                       2 * static_cast<std::int64_t>(c.y)}};
  const std::int64_t area2 =
      (p[1].x - p[0].x) * (p[2].y - p[0].y) -
      (p[1].y - p[0].y) * (p[2].x - p[0].x);  // 4 area
  const std::int64_t sign = area2 > 0 ? 1 : -1;
  const auto edge = [&](int i, std::int64_t px, std::int64_t py) {
    const Point& from = p[(i + 1) % 3];
    const Point& to = p[(i + 2) % 3];
    return sign * ((from.x - px) * (to.y - py) - (from.y - py) * (to.x - px));
  };
  // l_i > 8u is e_i > 32u |area| = |4 area| 8u, and e_i is an integer.
  const std::int64_t margin = static_cast<std::int64_t>(
      std::floor(static_cast<double>(sign * area2) * kWeightError));

  const TextureView& t = s.texture;
  const TextureWrap wrap = s.state.wrap;
  std::uint64_t fragments = 0;
  for (int y = limit.y0; y < limit.y1; ++y) {
    const std::int64_t py = 2 * static_cast<std::int64_t>(y) + 1;
    const std::int64_t px = 2 * static_cast<std::int64_t>(limit.x0) + 1;
    // [lo, hi) narrows to the lanes where e_i >= k for all i; the edges are
    // linear in x, so each one cuts a half-line.
    const auto interval = [&](std::int64_t k, std::int64_t& lo,
                              std::int64_t& hi) {
      lo = limit.x0;
      hi = limit.x1;
      for (int i = 0; i < 3; ++i) {
        const std::int64_t at = edge(i, px, py);
        const std::int64_t slope = edge(i, px + 2, py) - at;
        if (slope > 0) {
          lo = std::max(lo, limit.x0 + ceil_div(k - at, slope));
        } else if (slope < 0) {
          hi = std::min(hi, limit.x0 + floor_div(at - k, -slope) + 1);
        } else if (at < k) {
          hi = lo;
        }
      }
    };
    std::int64_t outer_lo, outer_hi, inner_lo, inner_hi;
    interval(-margin, outer_lo, outer_hi);
    if (outer_lo >= outer_hi) continue;
    interval(margin + 1, inner_lo, inner_hi);
    if (inner_lo >= inner_hi) inner_lo = inner_hi = outer_hi;
    const auto shade = [&](std::int64_t lo, std::int64_t hi) {
      if (lo >= hi) return;
      fragments += Nearest::triangle(
          s, a, b, c,
          PixelRect{static_cast<int>(lo), y, static_cast<int>(hi), y + 1});
    };
    shade(outer_lo, inner_lo);
    if (inner_lo < inner_hi) {
      std::int64_t ty = static_cast<std::int64_t>(y) + prim.copy_dy;
      ty = wrap == TextureWrap::kClampToEdge
               ? std::clamp<std::int64_t>(ty, 0, t.height - 1)
               : ((ty % t.height) + t.height) % t.height;
      copy_texels(t.texels + ty * t.stride_px, t.width, wrap,
                  inner_lo + prim.copy_dx,
                  s.target.color +
                      static_cast<std::size_t>(y) * s.target.stride_px +
                      inner_lo,
                  inner_hi - inner_lo);
      fragments += static_cast<std::uint64_t>(inner_hi - inner_lo);
    }
    shade(inner_hi, outer_hi);
  }
  return fragments;
}

PixelRect triangle_bbox(const ScreenVertex& a, const ScreenVertex& b,
                        const ScreenVertex& c, const PixelRect& clip) {
  PixelRect box;
  box.x0 = static_cast<int>(std::floor(std::min({a.x, b.x, c.x})));
  box.y0 = static_cast<int>(std::floor(std::min({a.y, b.y, c.y})));
  box.x1 = static_cast<int>(std::ceil(std::max({a.x, b.x, c.x})));
  box.y1 = static_cast<int>(std::ceil(std::max({a.y, b.y, c.y})));
  return intersect(box, clip);
}

}  // namespace

PixelRect clip_rect(const TargetView& target, const RasterState& state) {
  PixelRect b{0, 0, target.width, target.height};
  const Viewport& vp = state.viewport;
  if (vp.width > 0 && vp.height > 0) {
    b.x0 = std::max(b.x0, vp.x);
    b.y0 = std::max(b.y0, vp.y);
    b.x1 = std::min(b.x1, vp.x + vp.width);
    b.y1 = std::min(b.y1, vp.y + vp.height);
  }
  if (state.scissor.has_value()) {
    const ScissorRect& sc = *state.scissor;
    b.x0 = std::max(b.x0, sc.x);
    b.y0 = std::max(b.y0, sc.y);
    b.x1 = std::min(b.x1, sc.x + sc.width);
    b.y1 = std::min(b.y1, sc.y + sc.height);
  }
  return b;
}

bool views_overlap(const TextureView& texture, const TargetView& target) {
  if (texture.texels == nullptr || target.color == nullptr) return false;
  const std::uint32_t* tex_end =
      texture.texels + static_cast<std::size_t>(texture.height > 0
                                                    ? (texture.height - 1)
                                                    : 0) *
                           texture.stride_px +
      texture.width;
  const std::uint32_t* color_end =
      target.color + static_cast<std::size_t>(target.height > 0
                                                  ? (target.height - 1)
                                                  : 0) *
                         target.stride_px +
      target.width;
  return texture.texels < color_end && target.color < tex_end;
}

std::uint64_t build_screen_prims(const TargetView& target,
                                 const RasterState& state, PrimitiveKind kind,
                                 std::span<const ShadedVertex> vertices,
                                 std::vector<ScreenPrim>& out) {
  if (target.color == nullptr) return 0;
  const PixelRect clip = clip_rect(target, state);

  const Viewport vp = state.viewport.width > 0
                          ? state.viewport
                          : Viewport{0, 0, target.width, target.height};
  const auto to_screen = [&](const ShadedVertex& v) {
    ScreenVertex s;
    const float inv_w = 1.f / v.clip_pos.w;
    s.x = (v.clip_pos.x * inv_w * 0.5f + 0.5f) * vp.width + vp.x;
    s.y = (1.f - (v.clip_pos.y * inv_w * 0.5f + 0.5f)) * vp.height + vp.y;
    s.z = v.clip_pos.z * inv_w * 0.5f + 0.5f;
    s.inv_w = inv_w;
    s.color = v.color;
    s.texcoord = v.texcoord;
    return s;
  };

  std::uint64_t triangles = 0;
  switch (kind) {
    case PrimitiveKind::kTriangles: {
      for (std::size_t i = 0; i + 2 < vertices.size(); i += 3) {
        // Near-plane clip (w > epsilon) via Sutherland-Hodgman on w.
        const ShadedVertex* tri[3] = {&vertices[i], &vertices[i + 1],
                                      &vertices[i + 2]};
        ShadedVertex clipped[4];
        int clipped_count = 0;
        for (int e = 0; e < 3 && clipped_count < 4; ++e) {
          const ShadedVertex& cur = *tri[e];
          const ShadedVertex& nxt = *tri[(e + 1) % 3];
          const bool cur_in = cur.clip_pos.w > kNearEpsilon;
          const bool nxt_in = nxt.clip_pos.w > kNearEpsilon;
          if (cur_in) clipped[clipped_count++] = cur;
          if (cur_in != nxt_in && clipped_count < 4) {
            const float t = (kNearEpsilon - cur.clip_pos.w) /
                            (nxt.clip_pos.w - cur.clip_pos.w);
            ShadedVertex mid;
            mid.clip_pos = cur.clip_pos + (nxt.clip_pos - cur.clip_pos) * t;
            mid.color = cur.color + (nxt.color + cur.color * -1.f) * t;
            mid.texcoord = {cur.texcoord.x + (nxt.texcoord.x - cur.texcoord.x) * t,
                            cur.texcoord.y + (nxt.texcoord.y - cur.texcoord.y) * t};
            clipped[clipped_count++] = mid;
          }
        }
        if (clipped_count < 3) continue;
        const ScreenVertex s0 = to_screen(clipped[0]);
        for (int k = 1; k + 1 < clipped_count; ++k) {
          ScreenPrim prim;
          prim.kind = PrimitiveKind::kTriangles;
          prim.v[0] = s0;
          prim.v[1] = to_screen(clipped[k]);
          prim.v[2] = to_screen(clipped[k + 1]);
          prim.bbox = triangle_bbox(prim.v[0], prim.v[1], prim.v[2], clip);
          out.push_back(prim);
          ++triangles;
        }
      }
      break;
    }
    case PrimitiveKind::kLines: {
      for (std::size_t i = 0; i + 1 < vertices.size(); i += 2) {
        if (vertices[i].clip_pos.w <= kNearEpsilon ||
            vertices[i + 1].clip_pos.w <= kNearEpsilon) {
          continue;
        }
        ScreenPrim prim;
        prim.kind = PrimitiveKind::kLines;
        prim.v[0] = to_screen(vertices[i]);
        prim.v[1] = to_screen(vertices[i + 1]);
        // Step rounding can land one pixel past the float extent; pad the
        // bbox so tile coverage never misses a plotted pixel (the walk's
        // own limit check rejects strays exactly).
        PixelRect box;
        box.x0 = wrapping_add(static_cast<int>(std::floor(
                                  std::min(prim.v[0].x, prim.v[1].x))),
                              -1);
        box.y0 = wrapping_add(static_cast<int>(std::floor(
                                  std::min(prim.v[0].y, prim.v[1].y))),
                              -1);
        box.x1 = wrapping_add(static_cast<int>(std::ceil(
                                  std::max(prim.v[0].x, prim.v[1].x))),
                              1);
        box.y1 = wrapping_add(static_cast<int>(std::ceil(
                                  std::max(prim.v[0].y, prim.v[1].y))),
                              1);
        prim.bbox = intersect(box, clip);
        out.push_back(prim);
      }
      break;
    }
    case PrimitiveKind::kPoints: {
      const int half = std::max(0, static_cast<int>(state.point_size / 2.f));
      for (const ShadedVertex& v : vertices) {
        if (v.clip_pos.w <= kNearEpsilon) continue;
        ScreenPrim prim;
        prim.kind = PrimitiveKind::kPoints;
        prim.v[0] = to_screen(v);
        const int cx = round_to_int(prim.v[0].x);
        const int cy = round_to_int(prim.v[0].y);
        prim.bbox = intersect(
            PixelRect{wrapping_add(cx, -half), wrapping_add(cy, -half),
                      wrapping_add(cx, half + 1), wrapping_add(cy, half + 1)},
            clip);
        out.push_back(prim);
      }
      break;
    }
  }
  return triangles;
}

std::uint64_t raster_screen_prim(const TargetView& target,
                                 const RasterState& state,
                                 const ScreenPrim& prim, TextureView texture,
                                 const PixelRect& raw_limit) {
  // The bbox already carries viewport ∩ scissor ∩ target, so the effective
  // rect is the same whether `raw_limit` is one tile or the whole target.
  const PixelRect limit = intersect(raw_limit, prim.bbox);
  if (limit.empty()) return 0;
  // A depth-tested draw into a target without depth passes no fragment.
  if (state.depth_test && target.depth == nullptr) return 0;

  Shader s{target, state, texture};
  TexMode tex = TexMode::kNone;
  if (texture.texels != nullptr) {
    tex = state.filter == TextureFilter::kNearest ? TexMode::kNearest
                                                  : TexMode::kLinear;
    if (texture.width <= 0 || texture.height <= 0) {
      s.texture = TextureView{&kWhiteTexel, 1, 1, 1};
      tex = TexMode::kNearest;
    }
    s.feedback = views_overlap(s.texture, target);
  }
  if (prim.copy) return copy_span(s, prim, limit);
  const bool masked = !state.color_mask[0] || !state.color_mask[1] ||
                      !state.color_mask[2] || !state.color_mask[3];
  return kKernels[state.depth_test][static_cast<int>(tex)]
                 [state.blend || masked](s, prim, limit);
}

bool mark_copy_span(const TargetView& target, const RasterState& state,
                    TextureView texture, ScreenPrim& prim) {
  prim.copy = false;
  if (prim.kind != PrimitiveKind::kTriangles || state.depth_test ||
      state.blend || state.filter != TextureFilter::kNearest) {
    return false;
  }
  for (const bool channel : state.color_mask) {
    if (!channel) return false;
  }
  if (texture.texels == nullptr || texture.width <= 0 ||
      texture.height <= 0 || texture.width > (1 << 16) ||
      texture.height > (1 << 16) || views_overlap(texture, target)) {
    return false;
  }
  const ScreenVertex& a = prim.v[0];
  const ScreenVertex& b = prim.v[1];
  const ScreenVertex& c = prim.v[2];
  // One 1/w, far from overflow and underflow in w_i * inv_w.
  const float inv_w = a.inv_w;
  if (!(inv_w >= 0x1p-64f && inv_w <= 0x1p64f) || b.inv_w != inv_w ||
      c.inv_w != inv_w) {
    return false;
  }
  for (const ScreenVertex& v : prim.v) {
    if (!(std::fabs(v.x) <= kMaxVertexCoord && std::floor(v.x) == v.x &&
          std::fabs(v.y) <= kMaxVertexCoord && std::floor(v.y) == v.y)) {
      return false;
    }
    if (state.tex_env == TexEnv::kModulate &&
        !(v.color.r == 1.f && v.color.g == 1.f && v.color.b == 1.f &&
          v.color.a == 1.f)) {
      return false;
    }
  }
  if (std::max({a.x, b.x, c.x}) - std::min({a.x, b.x, c.x}) > kMaxExtent ||
      std::max({a.y, b.y, c.y}) - std::min({a.y, b.y, c.y}) > kMaxExtent) {
    return false;
  }
  // Half of an axis-aligned rectangle: one vertex shares x with a second
  // and y with the third.
  const auto corner = [](const ScreenVertex& at, const ScreenVertex& p,
                         const ScreenVertex& q) {
    return (p.x == at.x && q.y == at.y) || (p.y == at.y && q.x == at.x);
  };
  if (!corner(a, b, c) && !corner(b, c, a) && !corner(c, a, b)) return false;
  const float area = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
  if (area == 0.f || (state.cull == CullMode::kBack && area > 0.f) ||
      (state.cull == CullMode::kFront && area < 0.f)) {
    return false;
  }
  // Texel coordinate minus pixel coordinate, the same integer at every
  // vertex. A float times an int below 2^17 is exact in double.
  const auto offset = [](float coord, int size, float pixel, double& out) {
    const double texel = static_cast<double>(coord) * size;
    out = texel - pixel;
    return std::fabs(texel) <= kMaxTexelCoord && std::floor(texel) == texel;
  };
  double dx[3], dy[3];
  for (int i = 0; i < 3; ++i) {
    const ScreenVertex& v = prim.v[i];
    if (!offset(v.texcoord.x, texture.width, v.x, dx[i]) ||
        !offset(v.texcoord.y, texture.height, v.y, dy[i])) {
      return false;
    }
  }
  if (dx[1] != dx[0] || dx[2] != dx[0] || dy[1] != dy[0] || dy[2] != dy[0]) {
    return false;
  }
  prim.copy = true;
  prim.copy_dx = static_cast<int>(dx[0]);
  prim.copy_dy = static_cast<int>(dy[0]);
  return true;
}

void clear_rect(const TargetView& target,
                const std::optional<ScissorRect>& scissor, bool clear_color,
                Color color, bool clear_depth, float depth_value,
                const PixelRect& limit) {
  RasterState bounds_state;
  bounds_state.scissor = scissor;
  const PixelRect b = intersect(clip_rect(target, bounds_state), limit);
  if (b.empty()) return;
  const std::uint32_t packed = pack_rgba8888(color);
  for (int y = b.y0; y < b.y1; ++y) {
    if (clear_color) {
      std::uint32_t* row =
          &target.color[static_cast<std::size_t>(y) * target.stride_px];
      std::fill(row + b.x0, row + b.x1, packed);
    }
    if (clear_depth && target.depth != nullptr) {
      float* row = &target.depth[static_cast<std::size_t>(y) * target.width];
      std::fill(row + b.x0, row + b.x1, depth_value);
    }
  }
}

}  // namespace cycada::gpu
