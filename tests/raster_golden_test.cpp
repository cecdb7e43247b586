// Absolute screen pins for the software GPU. Every PassMark test renders on
// a fresh 128x128 Cycada iOS port in the default session, and the FNV-1a
// hash of its screen after 1, 2, 4 and 8 frames must equal the recorded
// line in tests/data/raster_golden.txt, at 1 and at 4 tile workers. The
// worker-count identity tests elsewhere only compare runs with each other,
// so a change that moves every byte the same way passes them; this one
// does not.
//
// On a mismatch the test writes the hashes it computed, in the file's
// format, to raster_golden.actual.txt in the working directory. Replace the
// golden file with it only for a change that is meant to alter screens.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "glport/system_config.h"
#include "gpu/pipeline.h"
#include "passmark/passmark.h"
#include "util/image.h"

namespace cycada {
namespace {

constexpr const char* kGoldenPath =
    CYCADA_SOURCE_DIR "/tests/data/raster_golden.txt";

std::uint64_t fnv1a(const Image& image) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::uint32_t pixel : image.pixels()) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (pixel >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

// One "<workers> <frames> <hash> <test name>" line per screen, in test order
// and then frame order.
std::string render_hashes(int workers) {
  std::ostringstream out;
  for (const auto& spec : passmark::test_specs()) {
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
    auto port = glport::make_gl_port(glport::SystemConfig::kCycadaIos);
    EXPECT_TRUE(port->init(128, 128, 1).is_ok());
    passmark::PassMark passmark(*port);
    int frames = 0;
    for (const int target : {1, 2, 4, 8}) {
      EXPECT_TRUE(passmark.run(spec.name, target - frames).is_ok())
          << spec.name;
      frames = target;
      char hash[17];
      std::snprintf(hash, sizeof hash, "%016llx",
                    static_cast<unsigned long long>(fnv1a(port->screen())));
      out << workers << ' ' << frames << ' ' << hash << ' ' << spec.name
          << '\n';
    }
  }
  return out.str();
}

TEST(RasterGoldenTest, PassMarkScreensMatchRecordedHashes) {
  std::ifstream file(kGoldenPath);
  EXPECT_TRUE(file.good()) << "missing " << kGoldenPath;
  std::string golden;
  for (std::string line; std::getline(file, line);) {
    if (line.empty() || line[0] == '#') continue;
    golden += line + '\n';
  }

  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  std::string actual;
  for (const int workers : {1, 4}) {
    pool.set_worker_count(workers);
    actual += render_hashes(workers);
  }
  pool.set_worker_count(saved_workers);

  if (actual != golden) {
    std::ofstream("raster_golden.actual.txt") << actual;
  }
  EXPECT_EQ(actual, golden)
      << "screens moved; computed hashes written to raster_golden.actual.txt";
}

}  // namespace
}  // namespace cycada
