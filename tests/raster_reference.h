// The scalar fragment path the span kernels in src/gpu/raster.cpp replaced,
// kept verbatim as the differential oracle for tests/raster_test.cpp. One
// fragment at a time: edge weights, tie-break, perspective divide, texture
// fetch, tex-env, blend, mask and pack, each through the out-of-line
// util/pixel.h conversions. Not linked into anything but the tests.
#pragma once

#include <cstdint>

#include "gpu/raster.h"

namespace cycada::gpu::reference {

// Same contract as gpu::raster_screen_prim.
std::uint64_t raster_screen_prim(const TargetView& target,
                                 const RasterState& state,
                                 const ScreenPrim& prim, TextureView texture,
                                 const PixelRect& raw_limit);

// Samples `texture` at normalized coordinates under filter/wrap settings.
Color sample_texture(TextureView texture, Vec2 uv, TextureFilter filter,
                     TextureWrap wrap);

}  // namespace cycada::gpu::reference
