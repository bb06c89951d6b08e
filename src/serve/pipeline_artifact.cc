#include "serve/pipeline_artifact.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "core/registry.h"
#include "serve/artifact.h"

namespace fairbench {
namespace {

constexpr uint32_t kApproachTag = ArtifactTag('A', 'P', 'I', 'D');

uint64_t HashBytes(const void* data, std::size_t size, uint64_t h) {
  return Fnv1a64(data, size, h);
}

uint64_t HashU64(uint64_t value, uint64_t h) {
  // One multiply-mix round per 64-bit word (splitmix64's finalizer over
  // the running state). The fingerprint is recomputed on *every* scoring
  // request to form the cache key and is never persisted, so word-wise
  // mixing — ~8x the throughput of byte-wise FNV on the column data —
  // is what keeps the warm-cache path fit-free AND cheap.
  h ^= value + 0x9e3779b97f4a7c15ull;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

uint64_t HashString(const std::string& s, uint64_t h) {
  // Length prefix keeps ("ab","c") distinct from ("a","bc").
  h = HashU64(s.size(), h);
  return HashBytes(s.data(), s.size(), h);
}

uint64_t HashDoubles(const std::vector<double>& values, uint64_t h) {
  h = HashU64(values.size(), h);
  for (double v : values) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h = HashU64(bits, h);
  }
  return h;
}

uint64_t HashInts(const std::vector<int>& values, uint64_t h) {
  h = HashU64(values.size(), h);
  for (int v : values) h = HashU64(static_cast<uint64_t>(v), h);
  return h;
}

}  // namespace

Result<std::string> SerializePipeline(const Pipeline& pipeline,
                                      const std::string& approach_id) {
  if (!pipeline.fitted()) {
    return Status::FailedPrecondition(
        "SerializePipeline: pipeline is not fitted");
  }
  ArtifactWriter writer;
  writer.WriteTag(kApproachTag);
  writer.WriteString(approach_id);
  FAIRBENCH_RETURN_NOT_OK(pipeline.SaveState(&writer));
  return writer.Finish();
}

Result<std::string> PeekApproachId(const std::string& bytes) {
  FAIRBENCH_ASSIGN_OR_RETURN(ArtifactReader reader, ArtifactReader::Open(bytes));
  FAIRBENCH_RETURN_NOT_OK(reader.ExpectTag(kApproachTag));
  return reader.ReadString();
}

Result<Pipeline> DeserializePipeline(const std::string& bytes) {
  FAIRBENCH_ASSIGN_OR_RETURN(ArtifactReader reader, ArtifactReader::Open(bytes));
  FAIRBENCH_RETURN_NOT_OK(reader.ExpectTag(kApproachTag));
  FAIRBENCH_ASSIGN_OR_RETURN(std::string approach_id, reader.ReadString());
  FAIRBENCH_ASSIGN_OR_RETURN(Pipeline pipeline, MakePipeline(approach_id));
  FAIRBENCH_RETURN_NOT_OK(pipeline.LoadState(&reader));
  FAIRBENCH_RETURN_NOT_OK(reader.ExpectEnd());
  return pipeline;
}

Status SavePipelineArtifact(const Pipeline& pipeline,
                            const std::string& approach_id,
                            const std::string& path) {
  FAIRBENCH_ASSIGN_OR_RETURN(std::string bytes,
                             SerializePipeline(pipeline, approach_id));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IoError(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<Pipeline> LoadPipelineArtifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(
        StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError(StrFormat("read error on '%s'", path.c_str()));
  }
  return DeserializePipeline(buffer.str());
}

uint64_t DatasetFingerprint(const Dataset& dataset) {
  const uint64_t memo = dataset.fingerprint_.Load();
  if (memo != 0) return memo;
  uint64_t h = Fnv1a64("", 0);  // FNV offset basis.
  h = HashString(dataset.name(), h);
  h = HashString(dataset.sensitive_name(), h);
  h = HashString(dataset.label_name(), h);
  const Schema& schema = dataset.schema();
  h = HashU64(schema.num_columns(), h);
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnSpec& spec = schema.column(c);
    h = HashString(spec.name, h);
    h = HashU64(spec.type == ColumnType::kNumeric ? 0 : 1, h);
    h = HashU64(spec.categories.size(), h);
    for (const std::string& category : spec.categories) {
      h = HashString(category, h);
    }
    if (spec.type == ColumnType::kNumeric) {
      h = HashDoubles(dataset.column(c).numeric, h);
    } else {
      h = HashInts(dataset.column(c).codes, h);
    }
  }
  h = HashInts(dataset.sensitive(), h);
  h = HashInts(dataset.labels(), h);
  h = HashDoubles(dataset.weights(), h);
  // Racing first callers store the same value; a true hash of 0 is simply
  // recomputed next time.
  dataset.fingerprint_.Store(h);
  return h;
}

}  // namespace fairbench
