// Wire tags shared by the versioned persistence containers ("udt-model
// v1", "udt-compiled v1", "udt-forest-model v1", "udt-forest v1"): the
// ModelKind and ForestVote tag maps, the bitwise table comparison
// LayoutEquals implementations build on, and the file half of every
// container's Save/Load. One copy keeps a tag a container
// serialises parseable by every sibling container forever — adding an
// enum value means touching exactly this header.

#ifndef UDT_API_CONTAINER_TAGS_H_
#define UDT_API_CONTAINER_TAGS_H_

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "api/forest.h"
#include "api/model.h"
#include "common/statusor.h"

namespace udt {
namespace wire {

inline const char* KindTag(ModelKind kind) {
  return kind == ModelKind::kAveraging ? "avg" : "udt";
}

inline StatusOr<ModelKind> ParseKindTag(std::string_view tag) {
  if (tag == "avg") return ModelKind::kAveraging;
  if (tag == "udt") return ModelKind::kUdt;
  return Status::InvalidArgument("unknown model kind: " + std::string(tag));
}

inline const char* VoteTag(ForestVote vote) {
  return vote == ForestVote::kAverage ? "avg" : "majority";
}

inline StatusOr<ForestVote> ParseVoteTag(std::string_view tag) {
  if (tag == "avg") return ForestVote::kAverage;
  if (tag == "majority") return ForestVote::kMajority;
  return Status::InvalidArgument("unknown forest vote: " + std::string(tag));
}

// Byte equality of two plain-data arrays — the primitive behind every
// LayoutEquals.
template <typename T>
bool BitwiseEquals(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Writes `text` to `path` in one go; IOError if the file cannot be opened
// or written.
inline Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << text;
  out.close();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

// Reads the whole file at `path`; IOError if it cannot be opened.
inline StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace wire
}  // namespace udt

#endif  // UDT_API_CONTAINER_TAGS_H_
