// The rasterizer at the bottom of the software GPU. Operates on raw
// color/depth buffer views; GpuDevice owns resource lookup and hands the
// rasterizer plain spans.
//
// Two stages serve the tile pipeline (docs/PIPELINE.md):
// build_screen_prims() runs the vertex post-processing once per draw
// (near-plane clip, perspective divide, viewport transform, bounding boxes)
// on the binning thread, and raster_screen_prim() shades one primitive
// clamped to an arbitrary pixel rect (a 64x64 tile). Per-fragment results
// depend only on the fragment's own inputs, so rasterizing a primitive
// tile-by-tile produces bytes identical to scanning its full bounding box,
// which is what makes N-worker output byte-equal to single-threaded output.
//
// The fragment stage is a set of span kernels ("Raster kernel" in
// docs/PIPELINE.md): raster_screen_prim() resolves the draw state once per
// primitive into a compile-time variant (depth test on/off, texture
// none/nearest/linear, blend-or-color-mask on/off), which shades four
// pixels of a row per step. Each lane computes the exact IEEE expression
// of one-fragment-at-a-time shading, so screens are byte-identical to it;
// tests/raster_reference.cpp keeps that scalar path as the test oracle.
// A triangle that samples its texture 1:1 under plain state (the present
// quad) is a copy span instead: the rows the kernel would provably cover
// are copied from the texture, and only the lanes near its edges shade.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpu/types.h"

namespace cycada::gpu {

// A writable color target (RGBA8888) with an optional depth buffer. `color`
// may alias externally-owned memory (GraphicBuffer / IOSurface zero-copy).
struct TargetView {
  std::uint32_t* color = nullptr;
  float* depth = nullptr;  // null when the target has no depth buffer
  int width = 0;
  int height = 0;
  int stride_px = 0;  // row pitch of `color` in pixels
};

// A readable texture (RGBA8888 working format).
struct TextureView {
  const std::uint32_t* texels = nullptr;
  int width = 0;
  int height = 0;
  int stride_px = 0;
};

// A vertex after perspective divide and viewport transform.
struct ScreenVertex {
  float x, y, z;  // window coordinates
  float inv_w;    // 1/w for perspective-correct interpolation
  Color color;
  Vec2 texcoord;
};

// An inclusive-exclusive pixel rect (tile bounds, clip bounds, bboxes).
struct PixelRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool empty() const { return x0 >= x1 || y0 >= y1; }
};

inline PixelRect intersect(const PixelRect& a, const PixelRect& b) {
  return PixelRect{std::max(a.x0, b.x0), std::max(a.y0, b.y0),
                   std::min(a.x1, b.x1), std::min(a.y1, b.y1)};
}

// One post-transform primitive, ready to rasterize. `bbox` is the pixel
// footprint already clamped to the draw's viewport/scissor clip bounds; the
// binner intersects it with tile rects to decide coverage.
struct ScreenPrim {
  PrimitiveKind kind = PrimitiveKind::kTriangles;
  ScreenVertex v[3];  // triangles use 3, lines 2, points 1
  PixelRect bbox;
  // A copy span (set by mark_copy_span): pixel (x, y) shows texel
  // (x + copy_dx, y + copy_dy) under the draw's wrap mode.
  bool copy = false;
  int copy_dx = 0, copy_dy = 0;
};

// The viewport ∩ scissor ∩ target rect a draw may touch.
PixelRect clip_rect(const TargetView& target, const RasterState& state);

// Vertex post-processing for one draw call: near-plane clipping (triangles
// fan out via Sutherland-Hodgman on w), perspective divide, viewport
// transform and per-primitive bounding boxes. Appends to `out`; returns the
// number of triangles emitted (post-clip, for the device triangle counter).
std::uint64_t build_screen_prims(const TargetView& target,
                                 const RasterState& state, PrimitiveKind kind,
                                 std::span<const ShadedVertex> vertices,
                                 std::vector<ScreenPrim>& out);

// Marks `prim` as a copy span when shading it under `state` from `texture`
// into `target` provably writes the texel at a fixed integer offset from
// each covered pixel, byte for byte: a half-rectangle triangle with
// integral vertices, one 1/w, nearest filtering, no depth test, blend,
// color mask or feedback, tex-env replace (or modulate by exact white) and
// texcoords that map one texel to one pixel. Returns prim.copy. Decided once
// per primitive on the binning thread; raster_screen_prim trusts the mark,
// so a marked primitive must be rastered with the same state and views.
bool mark_copy_span(const TargetView& target, const RasterState& state,
                    TextureView texture, ScreenPrim& prim);

// Shades one primitive restricted to `limit` (already intersected with the
// target; fragments outside it are not touched). Returns fragments shaded.
// Pure function of its arguments — safe to call concurrently for disjoint
// `limit` rects of the same target.
std::uint64_t raster_screen_prim(const TargetView& target,
                                 const RasterState& state,
                                 const ScreenPrim& prim, TextureView texture,
                                 const PixelRect& limit);

// Clears color and/or depth inside scissor ∩ `limit`.
void clear_rect(const TargetView& target,
                const std::optional<ScissorRect>& scissor, bool clear_color,
                Color color, bool clear_depth, float depth_value,
                const PixelRect& limit);

// True when `texture` and `target` share memory (framebuffer feedback, a
// draw sampling its own render target). Such a draw's lanes shade one at a
// time in pixel order, and the pipeline runs its phase on one thread.
bool views_overlap(const TextureView& texture, const TargetView& target);

}  // namespace cycada::gpu
