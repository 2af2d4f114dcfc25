// Seeded mutation fuzzing of the two file loaders, data::LoadCsv and
// nn::LoadParams. Each starts from a valid file and applies a few thousand
// mutations: byte flips, truncations, appended bytes, and number cells
// swapped for nan / 1e400 / junk. Every call must either fail cleanly or
// load data and parameters that are all finite and correctly shaped; no
// call may throw or abort. The seed is fixed, so a failure reproduces.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/diffode_model.h"
#include "data/csv_loader.h"
#include "nn/serialize.h"
#include "tensor/random.h"

namespace diffode {
namespace {

constexpr std::uint64_t kSeed = 20240611;
constexpr int kMutationsPerFile = 1500;

std::string ReadBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  for (int c; (c = std::fgetc(f)) != EOF;)
    bytes.push_back(static_cast<char>(c));
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::size_t Pick(Rng* rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng->UniformInt(0, static_cast<Index>(n) - 1));
}

// The mutations common to both formats. Returns false when it did nothing,
// so the caller can apply a format-specific one instead.
bool MutateBytes(Rng* rng, std::string* bytes) {
  switch (rng->UniformInt(0, 3)) {
    case 0:  // flip one byte
      if (bytes->empty()) return false;
      (*bytes)[Pick(rng, bytes->size())] ^=
          static_cast<char>(rng->UniformInt(1, 255));
      return true;
    case 1:  // truncate
      bytes->resize(Pick(rng, bytes->size() + 1));
      return true;
    case 2: {  // append bytes, drawn from what the formats are made of
      static const char kAlphabet[] = "0123456789.,-+eE\nnaif \x7f\xff";
      const Index n = rng->UniformInt(1, 16);
      for (Index i = 0; i < n; ++i)
        bytes->push_back(kAlphabet[Pick(rng, sizeof(kAlphabet) - 1)]);
      return true;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// LoadCsv

const char kUnlabeledCsv[] =
    "series_id,time,ch0,ch1,ch2\n"
    "0,0.0,0.5,,-1.25\n"
    "0,0.75,,2.0,\n"
    "0,1.5,1.0,3.5,0.125\n"
    "1,0.25,,,4.0\n"
    "1,2.0,-0.5,1e-3,\n"
    "1,3.125,6.0,,2.5e1\n";

const char kLabeledCsv[] =
    "series_id,time,ch0,label\n"
    "a,0.5,1.0,1\n"
    "a,1.5,,1\n"
    "a,2.0,3.0,1\n"
    "b,0.0,4.0,0\n"
    "b,2.0,5.0,0\n";

// Swaps one cell (text between delimiters) for a hostile number.
void SwapCell(Rng* rng, std::string* text) {
  static const char* const kCells[] = {
      "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0x1p2000",
      "1.2.3", "abc", "", " ", "-3", "2.5", "1e19", "9e300"};
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < text->size(); ++i)
    if ((*text)[i] == ',' || (*text)[i] == '\n') starts.push_back(i + 1);
  const std::size_t b = starts[Pick(rng, starts.size())];
  std::size_t e = b;
  while (e < text->size() && (*text)[e] != ',' && (*text)[e] != '\n') ++e;
  text->replace(b, e - b, kCells[Pick(rng, std::size(kCells))]);
}

void ExpectWellFormed(const std::vector<data::IrregularSeries>& series,
                      Index channels, bool has_label) {
  for (const data::IrregularSeries& s : series) {
    const Index n = s.length();
    ASSERT_GE(n, 1);
    ASSERT_EQ(static_cast<Index>(s.times.size()), n);
    ASSERT_TRUE(s.values.shape() == (Shape{n, channels}));
    ASSERT_TRUE(s.mask.shape() == (Shape{n, channels}));
    EXPECT_TRUE(s.values.AllFinite());
    for (Index i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(s.times[static_cast<std::size_t>(i)]));
      if (i > 0) {
        EXPECT_LE(s.times[static_cast<std::size_t>(i - 1)],
                  s.times[static_cast<std::size_t>(i)]);
      }
      for (Index c = 0; c < channels; ++c)
        EXPECT_TRUE(s.mask.at(i, c) == 0.0 || s.mask.at(i, c) == 1.0);
    }
    if (has_label) {
      EXPECT_GE(s.label, 0);
    } else {
      EXPECT_EQ(s.label, -1);
    }
  }
}

void FuzzCsv(const char* name, const std::string& clean, Index channels,
             bool has_label, std::uint64_t seed) {
  const std::string path = ::testing::TempDir() + name;
  {
    WriteBytes(path, clean);
    std::string error;
    ASSERT_FALSE(data::LoadCsv(path, channels, has_label, &error).empty())
        << error;
  }
  Rng rng(seed);
  for (int it = 0; it < kMutationsPerFile; ++it) {
    std::string bytes = clean;
    const Index edits = rng.UniformInt(1, 3);
    for (Index e = 0; e < edits; ++e)
      if (!MutateBytes(&rng, &bytes)) SwapCell(&rng, &bytes);
    WriteBytes(path, bytes);
    std::string error;
    std::vector<data::IrregularSeries> series;
    ASSERT_NO_THROW(series = data::LoadCsv(path, channels, has_label, &error))
        << "mutation " << it;
    SCOPED_TRACE(::testing::Message() << "mutation " << it << ": " << bytes);
    ExpectWellFormed(series, channels, has_label);
    if (::testing::Test::HasFailure()) break;
  }
  std::remove(path.c_str());
}

TEST(LoadFuzzTest, LoadCsvFailsCleanlyOrLoadsFiniteWellShapedSeries) {
  FuzzCsv("fuzz_unlabeled.csv", kUnlabeledCsv, 3, /*has_label=*/false, kSeed);
  FuzzCsv("fuzz_labeled.csv", kLabeledCsv, 1, /*has_label=*/true, kSeed + 1);
}

// ---------------------------------------------------------------------------
// LoadParams

core::DiffOdeConfig TinyConfig() {
  core::DiffOdeConfig config;
  config.input_dim = 2;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.num_classes = 3;
  return config;
}

// Overwrites one 8-byte value slot past the magic with a hostile double.
void SwapValue(Rng* rng, std::string* bytes) {
  if (bytes->size() < 24) return;
  const Scalar kValues[] = {std::numeric_limits<Scalar>::quiet_NaN(),
                            std::numeric_limits<Scalar>::infinity(),
                            -std::numeric_limits<Scalar>::infinity(),
                            std::numeric_limits<Scalar>::max(),
                            std::numeric_limits<Scalar>::denorm_min()};
  const std::size_t slot = 2 + Pick(rng, bytes->size() / 8 - 2);
  if (rng->Bernoulli(0.25)) {  // junk: random bits, NaN and inf included
    const std::uint64_t junk = rng->engine()();
    std::memcpy(bytes->data() + 8 * slot, &junk, sizeof(junk));
  } else {
    const Scalar v = kValues[Pick(rng, std::size(kValues))];
    std::memcpy(bytes->data() + 8 * slot, &v, sizeof(v));
  }
}

TEST(LoadFuzzTest, LoadParamsFailsCleanlyOrLoadsFiniteWellShapedParams) {
  const std::string path = ::testing::TempDir() + "fuzz_params.ckpt";
  std::string clean;
  {
    core::DiffOde saved(TinyConfig());
    ASSERT_TRUE(nn::SaveParams(saved.Params(), path));
    clean = ReadBytes(path);
  }
  core::DiffOdeConfig other = TinyConfig();
  other.seed += 1;
  core::DiffOde model(other);
  auto params = model.Params();
  Rng rng(kSeed + 2);
  for (int it = 0; it < kMutationsPerFile; ++it) {
    std::string bytes = clean;
    const Index edits = rng.UniformInt(1, 3);
    for (Index e = 0; e < edits; ++e)
      if (!MutateBytes(&rng, &bytes)) SwapValue(&rng, &bytes);
    WriteBytes(path, bytes);
    std::vector<Tensor> before;
    for (const auto& p : params) before.push_back(p.value());
    bool loaded = false;
    ASSERT_NO_THROW(loaded = nn::LoadParams(&params, path))
        << "mutation " << it;
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Tensor& now = params[i].value();
      ASSERT_TRUE(now.shape() == before[i].shape()) << "mutation " << it;
      EXPECT_TRUE(now.AllFinite()) << "mutation " << it << " param " << i;
      if (!loaded) {
        EXPECT_EQ(std::memcmp(now.data(), before[i].data(),
                              sizeof(Scalar) * static_cast<std::size_t>(
                                                   now.numel())),
                  0)
            << "failed load changed param " << i << ", mutation " << it;
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace diffode
