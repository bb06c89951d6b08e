#ifndef FAIRBENCH_SERVE_PIPELINE_ARTIFACT_H_
#define FAIRBENCH_SERVE_PIPELINE_ARTIFACT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/pipeline.h"
#include "data/dataset.h"

namespace fairbench {

/// Whole-artifact packaging on top of the ArtifactWriter/ArtifactReader
/// field layer: a fitted pipeline plus the registry id it was built from,
/// so an artifact is self-describing — loading needs only the bytes.
///
/// Only *learned parameters* are stored. The pipeline structure (which
/// stages, their options) is recreated via MakePipeline(approach_id), which
/// keeps artifacts small and makes "artifact written by a different
/// approach" a structural mismatch caught at load time.

/// Serializes a fitted pipeline into artifact bytes. `approach_id` must be
/// a registry id (it is embedded and later drives reconstruction).
Result<std::string> SerializePipeline(const Pipeline& pipeline,
                                      const std::string& approach_id);

/// Registry id embedded in artifact bytes (validates the envelope first).
Result<std::string> PeekApproachId(const std::string& bytes);

/// Rebuilds the approach's pipeline from the registry and restores the
/// learned parameters. Corruption yields DataLoss; an artifact whose id is
/// not in the registry yields NotFound.
Result<Pipeline> DeserializePipeline(const std::string& bytes);

/// File convenience wrappers (binary I/O, whole-file).
Status SavePipelineArtifact(const Pipeline& pipeline,
                            const std::string& approach_id,
                            const std::string& path);
Result<Pipeline> LoadPipelineArtifact(const std::string& path);

/// Order-sensitive fingerprint of a dataset's contents (schema, features,
/// S, Y, weights); FNV-1a over the names, word-wise multiply-mix over the
/// column data. Computed once per dataset value: the result is memoized
/// on the Dataset and every mutator drops it (see dataset.h), so the
/// sharded router and the shard-local cache lookup of one request share a
/// single hash, and later requests on the same training set only load it.
/// Two datasets with equal fingerprints are treated as the same training
/// data by the scoring-service cache. Not persisted in artifacts — the
/// value may change between builds without invalidating anything on disk.
uint64_t DatasetFingerprint(const Dataset& dataset);

}  // namespace fairbench

#endif  // FAIRBENCH_SERVE_PIPELINE_ARTIFACT_H_
