// Integration tests of the app layer (browser, PassMark, GCD dispatch)
// across the four system configurations of the paper's evaluation.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "dispatch/dispatch.h"
#include "glport/system_config.h"
#include "gpu/pipeline.h"
#include "passmark/passmark.h"
#include "ios_gl/gles.h"
#include "trace/metrics.h"
#include "webkit/browser.h"
#include "webkit/raster.h"

namespace cycada {
namespace {

using glport::SystemConfig;

class ConfigTest : public ::testing::TestWithParam<SystemConfig> {
 protected:
  void SetUp() override { glport::apply_system_config(GetParam()); }
};

TEST_P(ConfigTest, PortRendersAndPresents) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(64, 64, 2).is_ok());
  port->begin_frame();
  port->clear_color(1.f, 0.f, 0.f, 1.f);
  port->clear(glcore::GL_COLOR_BUFFER_BIT);
  ASSERT_TRUE(port->present().is_ok());
  const Image screen = port->screen();
  EXPECT_EQ(screen.at(0, 0), 0xff0000ffu);
  EXPECT_EQ(screen.at(63, 63), 0xff0000ffu);
  EXPECT_EQ(port->get_error(), glcore::GL_NO_ERROR);
}

TEST_P(ConfigTest, SharedBufferLockRoundTrip) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(32, 32, 2).is_ok());
  auto handle = port->create_shared_buffer(16, 16);
  ASSERT_TRUE(handle.is_ok());
  const glport::GLuint texture = port->gen_texture();
  ASSERT_TRUE(port->bind_buffer_to_texture(*handle, texture).is_ok());
  // Lock while texture-bound: the restriction dance must make this work on
  // every configuration.
  auto canvas = port->lock_buffer(*handle);
  ASSERT_TRUE(canvas.is_ok()) << canvas.status().to_string();
  canvas->pixels[0] = 0xff00ff00u;
  ASSERT_TRUE(port->unlock_buffer(*handle).is_ok());
  EXPECT_EQ(port->get_error(), glcore::GL_NO_ERROR);
}

TEST_P(ConfigTest, BrowserAcidScoreIs100) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(256, 192, 2).is_ok());
  webkit::Browser browser(*port, /*jit_enabled=*/true);
  EXPECT_EQ(browser.acid_score(), 100) << glport::config_name(GetParam());
}

TEST_P(ConfigTest, BrowserRunsScriptAndRendersResults) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(128, 128, 2).is_ok());
  const bool jit = GetParam() != SystemConfig::kCycadaIos;  // the Mach VM bug
  webkit::Browser browser(*port, jit);
  auto result = browser.run_script("var s = 0; for (var i = 1; i <= 10; i++) s += i; s;");
  ASSERT_TRUE(result.is_ok());
  EXPECT_DOUBLE_EQ(*result, 55.0);
  EXPECT_GE(browser.frames_rendered(), 1);
}

TEST_P(ConfigTest, PassMarkTestsRunCleanly) {
  glport::apply_system_config(GetParam());
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(96, 96, 1).is_ok());
  passmark::PassMark passmark(*port);
  for (const auto& spec : passmark::test_specs()) {
    auto primitives = passmark.run(spec.name, 2);
    ASSERT_TRUE(primitives.is_ok())
        << spec.name << " on " << glport::config_name(GetParam()) << ": "
        << primitives.status().to_string();
    EXPECT_GT(*primitives, 0u) << spec.name;
  }
}

// The EAGL present draws the app's frame onto the window as a 1:1
// nearest-textured quad, and the bin stage marks its two triangles as copy
// spans. The present draws under plain state whatever the app left enabled
// (blending in Transparent Vectors, the depth test in the 3D tests), and no
// test's own primitives take the copy shape, so every frame of every test
// copies exactly those two.
TEST(PresentCopyTest, PlainStatePresentsCopyTheirQuad) {
  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  for (const int workers : {1, 4}) {
    pool.set_worker_count(workers);
    for (const auto& spec : passmark::test_specs()) {
      glport::apply_system_config(SystemConfig::kCycadaIos);
      auto port = glport::make_gl_port(SystemConfig::kCycadaIos);
      ASSERT_TRUE(port->init(128, 128, 1).is_ok());
      passmark::PassMark passmark(*port);
      ASSERT_TRUE(passmark.run(spec.name, 1).is_ok());  // setup frame
      pool.drain();
      const trace::Counter& copied =
          trace::MetricsRegistry::instance().counter("pipeline.prims.copied");
      const std::uint64_t before = copied.value();
      ASSERT_TRUE(passmark.run(spec.name, 1).is_ok());
      pool.drain();
      EXPECT_EQ(copied.value() - before, 2u)
          << spec.name << " at " << workers << " workers";
    }
  }
  pool.set_worker_count(saved_workers);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigTest,
                         ::testing::Values(SystemConfig::kAndroid,
                                           SystemConfig::kCycadaAndroid,
                                           SystemConfig::kCycadaIos,
                                           SystemConfig::kIos),
                         [](const auto& info) {
                           switch (info.param) {
                             case SystemConfig::kAndroid: return "Android";
                             case SystemConfig::kCycadaAndroid:
                               return "CycadaAndroid";
                             case SystemConfig::kCycadaIos: return "CycadaIos";
                             case SystemConfig::kIos: return "Ios";
                           }
                           return "Unknown";
                         });

TEST(CrossConfigTest, BrowserPixelsIdenticalEverywhere) {
  // The paper's functional claim, strengthened: the same page renders
  // pixel-for-pixel identically on all four configurations.
  const char* page =
      "<body bg=#dbe6f0><h1 color=#101820>Cycada</h1>"
      "<div bg=#c02030 width=80 height=24></div>"
      "<p color=#203040>binary compatible graphics support for iOS apps on "
      "Android devices</p></body>";
  std::vector<Image> screens;
  for (SystemConfig config :
       {SystemConfig::kAndroid, SystemConfig::kCycadaAndroid,
        SystemConfig::kCycadaIos, SystemConfig::kIos}) {
    glport::apply_system_config(config);
    auto port = glport::make_gl_port(config);
    ASSERT_TRUE(port->init(192, 160, 2).is_ok());
    webkit::Browser browser(*port, true);
    ASSERT_TRUE(browser.load(page).is_ok());
    screens.push_back(browser.screen());
  }
  for (std::size_t i = 1; i < screens.size(); ++i) {
    EXPECT_EQ(Image::diff_count(screens[0], screens[i]), 0u) << i;
  }
  // And it matches the software reference renderer.
  glport::apply_system_config(SystemConfig::kAndroid);
}

// The paper's claim is binary compatibility, so the oracle is the native
// platform rather than recorded bytes: every PassMark test must leave the
// same screen on Cycada iOS as on iOS after each power-of-two frame count,
// at 1 and at 4 tile workers. A present pass that inherited the app's GL
// state (blending, the depth test) fails it from the first frames on.
TEST(CrossConfigTest, CycadaIosPassMarkScreensEqualNativeIos) {
  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  const int checkpoints[] = {1, 2, 4, 8, 16, 32};
  for (const int workers : {1, 4}) {
    pool.set_worker_count(workers);
    for (const auto& spec : passmark::test_specs()) {
      std::vector<Image> screens[2];
      for (int side = 0; side < 2; ++side) {
        const SystemConfig config =
            side == 0 ? SystemConfig::kIos : SystemConfig::kCycadaIos;
        glport::apply_system_config(config);
        auto port = glport::make_gl_port(config);
        ASSERT_TRUE(port->init(128, 128, 1).is_ok());
        passmark::PassMark passmark(*port);
        int frames = 0;
        for (const int target : checkpoints) {
          ASSERT_TRUE(passmark.run(spec.name, target - frames).is_ok());
          frames = target;
          screens[side].push_back(port->screen());
        }
      }
      for (std::size_t i = 0; i < std::size(checkpoints); ++i) {
        EXPECT_EQ(Image::diff_count(screens[0][i], screens[1][i]), 0u)
            << spec.name << " after " << checkpoints[i] << " frames at "
            << workers << " workers";
      }
    }
  }
  pool.set_worker_count(saved_workers);
  glport::apply_system_config(SystemConfig::kAndroid);
}

TEST(DocumentTest, ParsesNestedMarkup) {
  auto doc = webkit::Document::parse(
      "<body bg=#000000><div bg=#ff0000 width=10 height=20>"
      "<span color=#00ff00>hi</span></div><p>text here</p></body>");
  ASSERT_TRUE(doc.is_ok());
  const auto& body = doc->body();
  EXPECT_EQ(body.tag, "body");
  ASSERT_EQ(body.children.size(), 2u);
  EXPECT_EQ(body.children[0]->tag, "div");
  EXPECT_EQ(body.children[0]->width, 10);
  EXPECT_EQ(body.children[0]->bg, 0xff0000ffu);
  EXPECT_EQ(body.children[1]->tag, "p");
}

TEST(DocumentTest, RejectsMalformedMarkup) {
  EXPECT_FALSE(webkit::Document::parse("<div>").is_ok());
  EXPECT_FALSE(webkit::Document::parse("<div></span>").is_ok());
  EXPECT_FALSE(webkit::Document::parse("<div foo>").is_ok());
}

TEST(LayoutTest, TextWrapsAtViewportWidth) {
  auto doc = webkit::Document::parse(
      "<body><p>aaaa bbbb cccc dddd eeee ffff</p></body>");
  ASSERT_TRUE(doc.is_ok());
  const auto narrow = webkit::layout(*doc, 80);
  const auto wide = webkit::layout(*doc, 600);
  // The narrow viewport needs more lines (taller content, more runs).
  EXPECT_GT(narrow.text_runs.size(), wide.text_runs.size());
  EXPECT_GT(narrow.content_height, wide.content_height);
}

TEST(LayoutTest, ExplicitHeightsRespected) {
  auto doc = webkit::Document::parse(
      "<body><div bg=#112233 height=40></div><div bg=#445566 height=8></div>"
      "</body>");
  ASSERT_TRUE(doc.is_ok());
  const auto list = webkit::layout(*doc, 100);
  ASSERT_GE(list.rects.size(), 2u);
  EXPECT_EQ(list.rects[0].rect.height, 40);
  EXPECT_EQ(list.rects[1].rect.height, 8);
  EXPECT_GE(list.rects[1].rect.y, list.rects[0].rect.y + 40);
}

TEST(RasterTest, GlyphsAreDeterministic) {
  int set_pixels = 0;
  for (int gy = 0; gy < webkit::kGlyphHeight; ++gy) {
    for (int gx = 0; gx < webkit::kGlyphWidth; ++gx) {
      EXPECT_EQ(webkit::glyph_pixel('A', gx, gy),
                webkit::glyph_pixel('A', gx, gy));
      set_pixels += webkit::glyph_pixel('A', gx, gy);
      EXPECT_FALSE(webkit::glyph_pixel(' ', gx, gy));
    }
  }
  EXPECT_GT(set_pixels, 0);
}

TEST(DispatchTest, AsyncJobsAdoptSubmitterContext) {
  glport::apply_system_config(SystemConfig::kCycadaIos);
  auto context =
      ios_gl::EAGLContext::init_with_api(ios_gl::EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(ios_gl::EAGLContext::set_current_context(*context));

  dispatch::DispatchQueue queue("com.cycada.render");
  std::atomic<bool> adopted{false};
  std::atomic<int> gl_error{-1};
  queue.sync([&] {
    // The job sees the submitter's EAGL context (GCD semantics, paper §7).
    adopted.store(ios_gl::EAGLContext::current_context().get() ==
                  context->get());
    ios_gl::glClearColor(0.f, 1.f, 0.f, 1.f);
    gl_error.store(static_cast<int>(ios_gl::glGetError()));
  });
  EXPECT_TRUE(adopted.load());
  EXPECT_EQ(gl_error.load(), static_cast<int>(glcore::GL_NO_ERROR));

  // Many async jobs across a concurrent queue all complete.
  dispatch::DispatchQueue pool("com.cycada.pool",
                               dispatch::DispatchQueue::Kind::kConcurrent, 3);
  std::atomic<int> done{0};
  for (int i = 0; i < 24; ++i) {
    pool.async([&] { done.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(done.load(), 24);
  EXPECT_EQ(pool.jobs_completed(), 24u);
  ios_gl::EAGLContext::clear_current_context();
}

}  // namespace
}  // namespace cycada
