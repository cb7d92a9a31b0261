// Shared helpers for the bench harnesses: the command line, scale
// selection, banner printing and JSON rows. Every harness runs at a
// reduced default scale so the full bench sweep finishes in minutes; pass
// --full for paper-scale data sets (Table 2 tuple counts, s = 100).
//
// Resource note for --full: the widest data sets (Satellite, PenDigits)
// put ~10^6 sample positions on each attribute axis; the global finders
// (UDT-GP/UDT-ES) keep every attribute's scan alive, which peaks around a
// gigabyte, and exhaustive UDT needs hours of CPU - both in line with the
// "information explosion" the paper reports for s = 100.

#ifndef UDT_BENCH_BENCH_COMMON_H_
#define UDT_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/uci_like.h"
#include "pdf/pdf_builder.h"
#include "table/dataset.h"

namespace udt {

// Standard bench command line: every harness accepts
//   --full          paper-scale rows (default: scaled down)
//   --scale=F       explicit scale factor in (0,1]
//   --s=N           samples per pdf
//   --folds=N       cross-validation folds
//   --threads=N     training threads for the parallel columns (default 4;
//                   0 = one per hardware thread); honored by the
//                   harnesses that report thread scaling (fig6)
//   --json=PATH     write the machine-readable result rows to PATH;
//                   without it (or with an empty PATH) nothing is
//                   written, so a run never rewrites a committed
//                   BENCH_<harness>.json sidecar unless PATH names it;
//                   honored by the harnesses that emit JSON rows
// Unknown flags abort with a usage message.
struct BenchOptions {
  bool full = false;
  double scale = 0.0;  // 0 = use the bench's default
  int samples_per_pdf = 0;
  int folds = 0;
  int num_threads = 4;
  std::string json_path;  // empty: write no JSON rows
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--full") == 0) {
      options.full = true;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      std::optional<double> v = ParseDouble(arg + 8);
      if (!v.has_value() || *v <= 0.0 || *v > 1.0) {
        std::fprintf(stderr, "bad --scale value: %s\n", arg + 8);
        std::exit(2);
      }
      options.scale = *v;
    } else if (std::strncmp(arg, "--s=", 4) == 0) {
      std::optional<int> v = ParseInt(arg + 4);
      if (!v.has_value() || *v < 1) {
        std::fprintf(stderr, "bad --s value: %s\n", arg + 4);
        std::exit(2);
      }
      options.samples_per_pdf = *v;
    } else if (std::strncmp(arg, "--folds=", 8) == 0) {
      std::optional<int> v = ParseInt(arg + 8);
      if (!v.has_value() || *v < 2) {
        std::fprintf(stderr, "bad --folds value: %s\n", arg + 8);
        std::exit(2);
      }
      options.folds = *v;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      std::optional<int> v = ParseInt(arg + 10);
      if (!v.has_value() || *v < 0) {
        std::fprintf(stderr, "bad --threads value: %s\n", arg + 10);
        std::exit(2);
      }
      options.num_threads = *v;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      options.json_path = arg + 7;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\n"
                   "usage: %s [--full] [--scale=F] [--s=N] [--folds=N] "
                   "[--threads=N] [--json=PATH]\n"
                   "(--threads/--json are honored by the harnesses that "
                   "report thread scaling or JSON rows)\n",
                   arg, argv[0]);
      std::exit(2);
    }
  }
  return options;
}

namespace bench {

// Caps a data set at `max_tuples` unless --full / --scale override.
inline double ScaleFor(const datagen::UciDatasetSpec& spec,
                       const BenchOptions& options, int max_tuples) {
  if (options.scale > 0.0) return options.scale;
  if (options.full) return 1.0;
  return std::min(1.0, static_cast<double>(max_tuples) / spec.num_tuples);
}

// Samples per pdf: paper uses s = 100; reduced default keeps runs quick.
inline int SamplesFor(const BenchOptions& options, int default_s) {
  if (options.samples_per_pdf > 0) return options.samples_per_pdf;
  return options.full ? 100 : default_s;
}

inline int FoldsFor(const BenchOptions& options, int default_folds) {
  if (options.folds > 0) return options.folds;
  return options.full ? 10 : default_folds;
}

// The serving benches' numeric data set: `classes` classes round-robin,
// each attribute a Gaussian error pdf (s samples, width 0.5-1.5) around a
// class-dependent centre.
inline Dataset NumericDataset(int tuples, int attributes, int classes, int s,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back(StrFormat("c%d", c));
  Dataset ds(Schema::Numerical(attributes, names));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % classes;
    for (int j = 0; j < attributes; ++j) {
      double center = rng.Gaussian(static_cast<double>(t.label) * 1.2, 1.0);
      auto pdf = MakeGaussianErrorPdf(center, rng.Uniform(0.5, 1.5), s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

inline void PrintBanner(const char* title, const char* paper_ref,
                        const BenchOptions& options) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %s (use --full for paper scale; --scale=F --s=N "
              "--folds=N to override)\n",
              options.full ? "FULL (paper)" : "reduced default");
  std::printf("==============================================================="
              "=================\n");
}

// Collects machine-readable result rows (one JSON object per line) and
// writes them where --json=PATH points, so successive runs can be tracked
// as a trajectory; without --json= it writes nothing. Re-recording a
// committed sidecar means naming it: --json=BENCH_<harness>.json. Keys and
// values are emitted in insertion order; string values must not need
// escaping (data-set and algorithm names).
class JsonRows {
 public:
  explicit JsonRows(const BenchOptions& options) : path_(options.json_path) {}

  class Row {
   public:
    explicit Row(JsonRows* sink) : sink_(sink) {}
    // The destructor emits the row, so copies would emit duplicates;
    // AddRow's prvalue return needs no copy or move under C++17 elision.
    Row(const Row&) = delete;
    Row& operator=(const Row&) = delete;
    Row& Str(const char* key, const std::string& value) {
      Append(key, "\"" + value + "\"");
      return *this;
    }
    Row& Num(const char* key, double value) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.6g", value);
      Append(key, buffer);
      return *this;
    }
    Row& Int(const char* key, long long value) {
      Append(key, std::to_string(value));
      return *this;
    }
    ~Row() { sink_->rows_.push_back("{" + fields_ + "}"); }

   private:
    void Append(const char* key, const std::string& value) {
      if (!fields_.empty()) fields_ += ",";
      fields_ += std::string("\"") + key + "\":" + value;
    }
    JsonRows* sink_;
    std::string fields_;
  };

  Row AddRow() { return Row(this); }

  // Writes the rows; call once at the end of main.
  void Flush() {
    if (path_.empty() || rows_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    for (const std::string& row : rows_) {
      std::fprintf(f, "%s\n", row.c_str());
    }
    std::fclose(f);
    std::printf("\nwrote %zu JSON rows to %s\n", rows_.size(), path_.c_str());
  }

 private:
  std::string path_;
  std::vector<std::string> rows_;
};

}  // namespace bench
}  // namespace udt

#endif  // UDT_BENCH_BENCH_COMMON_H_
