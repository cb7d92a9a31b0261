// The "udt-dataset v1" on-disk container: a columnar, quantized uncertain
// data set laid out for chunk-streamed reading. Like every udt container
// it is line-oriented text with hexfloat doubles (grids round-trip
// bitwise) and a versioned magic line; the schema block is the shared
// table/schema_io one.
//
// Layout:
//
//   udt-dataset v1
//   quantized bins <B> chunk <C>
//   tuples <N>
//   source bytes <S>                  (exact decoded footprint of the source)
//   <schema block>                    (classes + attributes)
//   columns <K>
//   per numerical attribute j:
//     column <j> num grid <G> dict <D>
//     g <hexfloat> x G                (one line: the shared grid)
//     d <u16> x G                     (D lines: the dictionary entries)
//   per categorical attribute j:
//     column <j> cat width <W> dict <D>
//     d <u16> x W                     (D lines)
//   chunks <M>                        (M = ceil(N / C))
//   per chunk i:
//     chunk <i> tuples <n>
//     l <label> x n                   (one line)
//     c <j> <u32 id> x n              (one line per attribute, ascending j)
//   end
//
// Everything before `chunks` is the resident part: grids and dictionaries
// load once and stay in memory; the per-chunk id rows stream. That is what
// makes the reader out-of-core — its resident footprint is the dictionary
// footprint, independent of N.
//
// Out-of-core training is two explicit calls: MaterializeDataset streams
// the file into one pooled, budget-checked Dataset, and the ordinary
// in-memory TrainRequest::For(dataset) trains on it. The trainers never
// see the storage representation, only ordinary SampledPdfs.
//
// Cost: the adaptive loop spills every scheduled retrain split through
// this format, at the width its forest trains at. Each attribute has its
// own grid, dictionary, id row and decode cache, so every layer runs its
// column body on a TaskPool (inline without one), and the bytes, the
// decoded pdfs and every reader verdict are the same at any width. No
// text layer makes a string per token. The writer formats each column's
// header, grid and dictionary rows with std::to_chars into the column's
// own buffer and writes the buffers in column order. Open reads the
// resident lines in one pass, then parses each column's dictionary rows:
// a row shaped as the writer emits it ("d" and plain digit runs, one
// space apart) in one pass over the line, any other line split into
// string_views and parsed token by token, which decides its verdict and
// message; a bad row is reported only if no earlier line failed. At the
// retrain split's Segment shape (768 tuples x 19 attributes, s = 20,
// ~8.6k dictionary rows of 64 masses) BM_SpillRoundTrip reads, width 1
// -> 4 (Release, 4-vCPU x86, medians of 10): round trip 23 -> 12 ms,
// quantize 7.6 -> 2.0 ms, ConvertDatasetToFile 12.5 -> 4.2 ms, Open
// 4.3 -> 2.1 ms (its serial line read is ~1.5 ms) and MaterializeDataset
// 7.1 -> 3.3 ms.

#ifndef UDT_STORAGE_DATASET_FILE_H_
#define UDT_STORAGE_DATASET_FILE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "common/task_pool.h"
#include "storage/quantized_pdf.h"
#include "table/dataset.h"
#include "table/schema_io.h"

namespace udt {

// What ConvertDatasetToFile measured while writing.
struct DatasetFileStats {
  int64_t num_tuples = 0;
  int64_t dictionary_entries = 0;
  double dictionary_hit_rate = 0.0;
  // Exact decoded footprint of the source (unshared accounting).
  size_t source_decoded_bytes = 0;
  // Resident footprint of the quantized representation.
  size_t quantized_bytes = 0;
  // Bytes of the container on disk.
  size_t file_bytes = 0;
};

// Quantizes `source` under `options` and writes it to `path` as a
// "udt-dataset v1" container, the one writer of the format. The header's
// source-bytes figure is the source's unshared decoded footprint
// (Dataset::UnsharedMemoryUsageBytes), the figure out-of-core demos
// compare their budget against. Columns quantize and format on `pool`'s
// threads (inline when null); the bytes do not depend on the pool.
StatusOr<DatasetFileStats> ConvertDatasetToFile(
    const Dataset& source, const std::string& path,
    const QuantizationOptions& options = {}, TaskPool* pool = nullptr);

// Chunk-streaming reader over a "udt-dataset v1" file. Open parses the
// resident part (header, schema, grids, dictionaries) and stops at the
// first chunk; AppendChunk then decodes one chunk at a time, in ascending
// order, sharing decoded pdf slices across chunks. The reader makes one
// pass. Parse errors carry the absolute 1-based line number; with or
// without a pool, a file's verdict is its first bad line.
class DatasetReader {
 public:
  // Reads the resident lines in one pass, then parses each column's
  // dictionary rows on `pool`'s threads (inline when null).
  [[nodiscard]] static StatusOr<DatasetReader> Open(const std::string& path,
                                                    TaskPool* pool = nullptr);

  DatasetReader(DatasetReader&&) = default;
  DatasetReader& operator=(DatasetReader&&) = default;

  const Schema& schema() const { return schema_; }
  int64_t num_tuples() const { return num_tuples_; }
  int64_t num_chunks() const { return num_chunks_; }
  // Streaming: `chunk` must be exactly the next unread chunk (0, 1, ...).
  // Reading the final chunk also consumes and checks the `end` sentinel,
  // so a truncated file fails on its last chunk, not silently. Each
  // column decodes its ids on `pool`'s threads (inline when null); the
  // tuples are assembled in order.
  Status AppendChunk(int64_t chunk, Dataset* out, TaskPool* pool = nullptr);
  // Grids + dictionaries — the only per-data parts held resident; the id
  // rows stream through the chunk buffer and are not retained.
  size_t MemoryUsageBytes() const;

  int bins() const { return bins_; }
  int chunk_tuples() const { return chunk_tuples_; }
  // The header's record of the source's exact decoded footprint.
  size_t source_decoded_bytes() const { return source_decoded_bytes_; }
  int64_t dictionary_entries() const;

 private:
  explicit DatasetReader(Schema schema) : schema_(std::move(schema)) {}

  // The stream and reader live behind pointers so the reader type stays
  // movable (LineReader holds an istream reference).
  std::unique_ptr<std::ifstream> in_;
  std::unique_ptr<LineReader> reader_;
  Schema schema_;
  std::vector<QuantizedColumn> columns_;
  int bins_ = 0;
  int chunk_tuples_ = 0;
  int64_t num_tuples_ = 0;
  int64_t num_chunks_ = 0;
  size_t source_decoded_bytes_ = 0;
  int64_t next_chunk_ = 0;
  // Token views into the reader's current line, reused across chunks.
  std::vector<std::string_view> tokens_;
};

// Memory ceiling for a training materialisation. The budget is enforced
// against the *pooled* footprint (Dataset::MemoryUsageBytes, which counts
// each shared pdf slice once) — the bytes the working set actually
// occupies — so a source whose exact decoded size dwarfs the budget still
// trains as long as its distinct distributions fit.
struct StorageBudget {
  // 0 = unlimited.
  size_t max_materialized_bytes = 0;
};

// Streams chunks 0..num_chunks()-1 of a freshly opened `reader` into one
// Dataset, checking `budget` against the materialised footprint after
// every chunk, so an oversized source fails at the first chunk that
// bursts the ceiling instead of after decoding everything. The footprint
// is a running sum (DatasetFootprint), so each chunk's check walks only
// that chunk. Tuples that share a dictionary entry share one decoded pdf
// slice. Fails (OutOfRange) on a burst budget. Open rejects a file
// without tuples, so the result is never empty. Chunks decode on `pool`'s
// threads (AppendChunk).
StatusOr<Dataset> MaterializeDataset(DatasetReader* reader,
                                     const StorageBudget& budget = {},
                                     TaskPool* pool = nullptr);

}  // namespace udt

#endif  // UDT_STORAGE_DATASET_FILE_H_
