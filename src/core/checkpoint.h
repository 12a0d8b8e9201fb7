/**
 * @file
 * The `.ckpt` checkpoint container: a versioned, checksummed envelope
 * around an engine state payload (see Engine::saveState).
 *
 * Layout (little-endian, like `.ctrb`):
 *
 *   [CheckpointHeader — 40 bytes]
 *   [payload — opaque StateWriter bytes]
 *
 * The header carries a whole-payload checksum (same 4-lane FNV as the
 * trace image) and a *fingerprint*: a digest of everything the payload
 * is only meaningful against — engine configuration, policy name and
 * workload shape.  Restoring a checkpoint into a run with a different
 * seed, cluster, policy or trace is rejected up front instead of
 * diverging silently.
 *
 * A `.ckpt` file is a CheckpointBuffer on disk: makeCheckpointBuffer
 * builds every header, openCheckpointBuffer's checks validate every
 * checkpoint, and the file functions only move the bytes.  Writes are
 * atomic (tmp file + rename) so an interrupted checkpoint never
 * clobbers the previous good one.
 */

#ifndef CIDRE_CORE_CHECKPOINT_H
#define CIDRE_CORE_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "trace/trace_view.h"

namespace cidre::core {

/** On-disk header of a `.ckpt` file. */
struct CheckpointHeader
{
    char magic[8];                  //!< "CIDRECKP"
    std::uint32_t version;          //!< kCheckpointVersion
    std::uint32_t header_bytes;     //!< sizeof(CheckpointHeader)
    std::uint64_t file_bytes;       //!< header + payload
    std::uint64_t payload_checksum; //!< traceImageChecksum(payload)
    std::uint64_t fingerprint;      //!< checkpointFingerprint(...)
};
static_assert(sizeof(CheckpointHeader) == 40,
              "on-disk checkpoint header layout must not change silently");

/**
 * Bumped whenever a payload layout changes.  Since version 2 a `run`
 * checkpoint is the driver's simulated time followed by
 * ShardedEngine::saveState, whatever the cell count.  Version 3 stores
 * RunMetrics' distributions as integer-µs stats::LatencyHistogram
 * state.  Version 4 stores each engine's pending events as one vector
 * of sim::Event records.  Version 5 drops the run timeline from
 * RunMetrics and the change epoch from every sliding window.  Version 6
 * holds each waiting request by value, and a live run's stream state.
 * Version 7 carries the idle ranking (buckets and scan records) of
 * every ranked keep-alive policy, not only CIP's.
 */
inline constexpr std::uint32_t kCheckpointVersion = 7;

/**
 * Digest of the run configuration a checkpoint belongs to: engine
 * config (cluster shape, seeds, knobs), policy bundle name and the
 * workload's function/request counts.  Two runs that would diverge
 * produce different fingerprints; restore refuses on mismatch.
 */
std::uint64_t checkpointFingerprint(const EngineConfig &config,
                                    const std::string &policy_name,
                                    trace::TraceView workload);

/**
 * An in-memory checkpoint: the same envelope as a `.ckpt` file (header
 * with checksum + fingerprint, then the payload) held in a buffer
 * instead of on disk.  This is what lets a `tune` sweep fork thousands
 * of trials from one shared warm snapshot without any file I/O — the
 * buffer is built once per (cluster-shape, workload) equivalence class
 * and read concurrently by every trial in the class.  Immutable after
 * construction, so concurrent openCheckpointBuffer() calls are safe.
 */
struct CheckpointBuffer
{
    CheckpointHeader header{};
    std::vector<std::byte> payload;
};

/** Seal @p payload into a checkpoint: the one header builder. */
CheckpointBuffer makeCheckpointBuffer(std::uint64_t fingerprint,
                                      std::vector<std::byte> payload);

/**
 * Validate @p buffer — magic, version, header size, payload size,
 * payload checksum, fingerprint — and return its payload for a
 * StateReader.  @throws std::runtime_error on corruption or a
 * fingerprint mismatch, labelled "<memory>".
 */
const std::vector<std::byte> &
openCheckpointBuffer(const CheckpointBuffer &buffer,
                     std::uint64_t expected_fingerprint);

/**
 * Write @p buffer to @p path atomically (tmp + rename).
 * @throws std::runtime_error on I/O failure.
 */
void writeCheckpointFile(const std::string &path,
                         const CheckpointBuffer &buffer);

/**
 * Read a `.ckpt` file into a buffer, validate it as openCheckpointBuffer
 * does and return its payload.  @throws std::runtime_error naming the
 * path on a missing or short file or any failed check.
 */
std::vector<std::byte> readCheckpointFile(const std::string &path,
                                          std::uint64_t expected_fingerprint);

} // namespace cidre::core

#endif // CIDRE_CORE_CHECKPOINT_H
