#include "raster_reference.h"

#include <algorithm>
#include <cmath>

namespace cycada::gpu::reference {

namespace {

float blend_factor(BlendFactor factor, float src_component, float src_alpha,
                   float /*dst_component*/, float dst_alpha) {
  switch (factor) {
    case BlendFactor::kZero: return 0.f;
    case BlendFactor::kOne: return 1.f;
    case BlendFactor::kSrcAlpha: return src_alpha;
    case BlendFactor::kOneMinusSrcAlpha: return 1.f - src_alpha;
    case BlendFactor::kDstAlpha: return dst_alpha;
    case BlendFactor::kOneMinusDstAlpha: return 1.f - dst_alpha;
    case BlendFactor::kSrcColor: return src_component;
    case BlendFactor::kOneMinusSrcColor: return 1.f - src_component;
  }
  return 1.f;
}

bool depth_passes(DepthFunc func, float incoming, float stored) {
  switch (func) {
    case DepthFunc::kNever: return false;
    case DepthFunc::kLess: return incoming < stored;
    case DepthFunc::kEqual: return incoming == stored;
    case DepthFunc::kLessEqual: return incoming <= stored;
    case DepthFunc::kGreater: return incoming > stored;
    case DepthFunc::kNotEqual: return incoming != stored;
    case DepthFunc::kGreaterEqual: return incoming >= stored;
    case DepthFunc::kAlways: return true;
  }
  return true;
}

int wrap_coord(int coord, int size, TextureWrap wrap) {
  if (size <= 0) return 0;
  if (wrap == TextureWrap::kRepeat) {
    coord %= size;
    if (coord < 0) coord += size;
    return coord;
  }
  return std::clamp(coord, 0, size - 1);
}

// Emits one fragment: depth test, texturing, blending, write-back. Reads
// and writes only the (x, y) pixel, so concurrent calls on disjoint pixel
// rects of the same target never race.
bool shade_fragment(const TargetView& target, const RasterState& state, int x,
                    int y, float z, Color color, Vec2 uv,
                    TextureView texture) {
  float* depth_slot = nullptr;
  if (state.depth_test) {
    if (target.depth == nullptr) return false;
    depth_slot = &target.depth[static_cast<std::size_t>(y) * target.width + x];
    if (!depth_passes(state.depth_func, z, *depth_slot)) return false;
  }

  Color out = color;
  if (texture.texels != nullptr) {
    const Color texel = sample_texture(texture, uv, state.filter, state.wrap);
    out = state.tex_env == TexEnv::kReplace ? texel : texel * color;
  }

  std::uint32_t* pixel =
      &target.color[static_cast<std::size_t>(y) * target.stride_px + x];
  const bool masked = !state.color_mask[0] || !state.color_mask[1] ||
                      !state.color_mask[2] || !state.color_mask[3];
  if (state.blend || masked) {
    const Color dst = unpack_rgba8888(*pixel);
    const float sa = out.a;
    const float da = dst.a;
    const auto combine = [&](float s, float d) {
      return s * blend_factor(state.blend_src, s, sa, d, da) +
             d * blend_factor(state.blend_dst, s, sa, d, da);
    };
    if (state.blend) {
      out = Color{combine(out.r, dst.r), combine(out.g, dst.g),
                  combine(out.b, dst.b), combine(out.a, dst.a)};
    }
    if (masked) {
      if (!state.color_mask[0]) out.r = dst.r;
      if (!state.color_mask[1]) out.g = dst.g;
      if (!state.color_mask[2]) out.b = dst.b;
      if (!state.color_mask[3]) out.a = dst.a;
    }
  }
  *pixel = pack_rgba8888(out);
  if (depth_slot != nullptr && state.depth_write) *depth_slot = z;
  return true;
}

std::uint64_t raster_triangle(const TargetView& target,
                              const RasterState& state, const ScreenVertex& a,
                              const ScreenVertex& b, const ScreenVertex& c,
                              TextureView texture, const PixelRect& limit) {
  const float area =
      (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
  if (area == 0.f) return 0;
  if (state.cull == CullMode::kBack && area > 0.f) return 0;
  if (state.cull == CullMode::kFront && area < 0.f) return 0;

  const int x0 = std::max(limit.x0, static_cast<int>(
                                        std::floor(std::min({a.x, b.x, c.x}))));
  const int y0 = std::max(limit.y0, static_cast<int>(
                                        std::floor(std::min({a.y, b.y, c.y}))));
  const int x1 = std::min(limit.x1, static_cast<int>(
                                        std::ceil(std::max({a.x, b.x, c.x}))));
  const int y1 = std::min(limit.y1, static_cast<int>(
                                        std::ceil(std::max({a.y, b.y, c.y}))));
  if (x0 >= x1 || y0 >= y1) return 0;

  const float inv_area = 1.f / area;
  // Fill rule: a pixel center exactly on an edge belongs to only one of the
  // two triangles sharing it. The directed shared edge has opposite
  // orientation in the two triangles (consistent winding), so an
  // orientation-sensitive predicate dedups coverage. `sign` normalizes the
  // winding so the predicate sees a consistent orientation.
  const float sign = area > 0.f ? 1.f : -1.f;
  const auto edge_owns_boundary = [sign](float ex, float ey) {
    ex *= sign;
    ey *= sign;
    return ey > 0.f || (ey == 0.f && ex > 0.f);
  };
  std::uint64_t fragments = 0;
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      const float px = static_cast<float>(x) + 0.5f;
      const float py = static_cast<float>(y) + 0.5f;
      // Barycentric weights via edge functions (sign-normalized by area so
      // both windings rasterize).
      float w0 = ((b.x - px) * (c.y - py) - (b.y - py) * (c.x - px)) * inv_area;
      float w1 = ((c.x - px) * (a.y - py) - (c.y - py) * (a.x - px)) * inv_area;
      float w2 = 1.f - w0 - w1;
      if (w0 < 0.f || w1 < 0.f || w2 < 0.f) continue;
      // Boundary tie-break (w_i == 0 means the center lies on the edge
      // opposite vertex i: b->c, c->a, a->b respectively).
      if (w0 == 0.f && !edge_owns_boundary(c.x - b.x, c.y - b.y)) continue;
      if (w1 == 0.f && !edge_owns_boundary(a.x - c.x, a.y - c.y)) continue;
      if (w2 == 0.f && !edge_owns_boundary(b.x - a.x, b.y - a.y)) continue;

      const float z = w0 * a.z + w1 * b.z + w2 * c.z;
      // Perspective-correct interpolation: weights scaled by 1/w.
      const float iw = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
      const float p0 = w0 * a.inv_w / iw;
      const float p1 = w1 * b.inv_w / iw;
      const float p2 = 1.f - p0 - p1;
      const Color color = a.color * p0 + b.color * p1 + c.color * p2;
      const Vec2 uv{a.texcoord.x * p0 + b.texcoord.x * p1 + c.texcoord.x * p2,
                    a.texcoord.y * p0 + b.texcoord.y * p1 + c.texcoord.y * p2};
      if (shade_fragment(target, state, x, y, z, color, uv, texture)) {
        ++fragments;
      }
    }
  }
  return fragments;
}

// A line walks the same step sequence regardless of `limit`; fragments
// whose pixel falls outside it are skipped, so the union over disjoint
// tiles equals the full-target walk exactly.
std::uint64_t raster_line(const TargetView& target, const RasterState& state,
                          const ScreenVertex& a, const ScreenVertex& b,
                          TextureView texture, const PixelRect& limit) {
  if (limit.empty()) return 0;
  const float dx = b.x - a.x;
  const float dy = b.y - a.y;
  const int steps =
      std::max(1, static_cast<int>(std::ceil(std::max(std::fabs(dx),
                                                      std::fabs(dy)))));
  std::uint64_t fragments = 0;
  for (int i = 0; i <= steps; ++i) {
    const float t = static_cast<float>(i) / steps;
    const int x = static_cast<int>(std::round(a.x + dx * t));
    const int y = static_cast<int>(std::round(a.y + dy * t));
    if (x < limit.x0 || x >= limit.x1 || y < limit.y0 || y >= limit.y1) {
      continue;
    }
    const float z = a.z + (b.z - a.z) * t;
    const Color color = a.color * (1.f - t) + b.color * t;
    const Vec2 uv{a.texcoord.x + (b.texcoord.x - a.texcoord.x) * t,
                  a.texcoord.y + (b.texcoord.y - a.texcoord.y) * t};
    if (shade_fragment(target, state, x, y, z, color, uv, texture)) {
      ++fragments;
    }
  }
  return fragments;
}

std::uint64_t raster_point(const TargetView& target, const RasterState& state,
                           const ScreenVertex& v, TextureView texture,
                           const PixelRect& limit) {
  if (limit.empty()) return 0;
  const int half = std::max(0, static_cast<int>(state.point_size / 2.f));
  const int cx = static_cast<int>(std::round(v.x));
  const int cy = static_cast<int>(std::round(v.y));
  std::uint64_t fragments = 0;
  for (int y = cy - half; y <= cy + half; ++y) {
    for (int x = cx - half; x <= cx + half; ++x) {
      if (x < limit.x0 || x >= limit.x1 || y < limit.y0 || y >= limit.y1) {
        continue;
      }
      if (shade_fragment(target, state, x, y, v.z, v.color, v.texcoord,
                         texture)) {
        ++fragments;
      }
    }
  }
  return fragments;
}

}  // namespace

Color sample_texture(TextureView texture, Vec2 uv, TextureFilter filter,
                     TextureWrap wrap) {
  if (texture.texels == nullptr || texture.width <= 0 || texture.height <= 0) {
    return {1.f, 1.f, 1.f, 1.f};
  }
  const auto texel_at = [&](int x, int y) {
    x = wrap_coord(x, texture.width, wrap);
    y = wrap_coord(y, texture.height, wrap);
    return unpack_rgba8888(
        texture.texels[static_cast<std::size_t>(y) * texture.stride_px + x]);
  };
  if (filter == TextureFilter::kNearest) {
    const int x = static_cast<int>(std::floor(uv.x * texture.width));
    const int y = static_cast<int>(std::floor(uv.y * texture.height));
    return texel_at(x, y);
  }
  // Bilinear.
  const float fx = uv.x * texture.width - 0.5f;
  const float fy = uv.y * texture.height - 0.5f;
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const float tx = fx - x0;
  const float ty = fy - y0;
  const Color c00 = texel_at(x0, y0);
  const Color c10 = texel_at(x0 + 1, y0);
  const Color c01 = texel_at(x0, y0 + 1);
  const Color c11 = texel_at(x0 + 1, y0 + 1);
  const Color top = c00 * (1.f - tx) + c10 * tx;
  const Color bottom = c01 * (1.f - tx) + c11 * tx;
  return top * (1.f - ty) + bottom * ty;
}

std::uint64_t raster_screen_prim(const TargetView& target,
                                 const RasterState& state,
                                 const ScreenPrim& prim, TextureView texture,
                                 const PixelRect& raw_limit) {
  // The bbox already carries viewport ∩ scissor ∩ target, so the effective
  // rect is the same whether `raw_limit` is one tile or the whole target.
  const PixelRect limit = intersect(raw_limit, prim.bbox);
  if (limit.empty()) return 0;
  switch (prim.kind) {
    case PrimitiveKind::kTriangles:
      return raster_triangle(target, state, prim.v[0], prim.v[1], prim.v[2],
                             texture, limit);
    case PrimitiveKind::kLines:
      return raster_line(target, state, prim.v[0], prim.v[1], texture, limit);
    case PrimitiveKind::kPoints:
      return raster_point(target, state, prim.v[0], texture, limit);
  }
  return 0;
}

}  // namespace cycada::gpu::reference
