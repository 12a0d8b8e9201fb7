#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "sim/serialize.h"
#include "trace/trace_image.h"

namespace cidre::core {

namespace {

constexpr char kMagic[8] = {'C', 'I', 'D', 'R', 'E', 'C', 'K', 'P'};

[[noreturn]] void
fail(const std::string &path, const std::string &why)
{
    throw std::runtime_error("Checkpoint: " + path + ": " + why);
}

/**
 * The validation ladder of every checkpoint, in a file or in memory:
 * magic, version, header size, payload size, checksum, fingerprint.
 * Errors are labelled with @p where (the path, or "<memory>").
 */
void
validate(const CheckpointBuffer &buffer, std::uint64_t expected_fingerprint,
         const std::string &where)
{
    const CheckpointHeader &header = buffer.header;
    if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0)
        fail(where, "not a .ckpt checkpoint (bad magic)");
    if (header.version != kCheckpointVersion) {
        fail(where, "unsupported checkpoint version " +
                        std::to_string(header.version) + " (expected " +
                        std::to_string(kCheckpointVersion) + ")");
    }
    if (header.header_bytes != sizeof(CheckpointHeader))
        fail(where, "malformed checkpoint (header size mismatch)");
    const std::uint64_t actual_bytes =
        sizeof(CheckpointHeader) + buffer.payload.size();
    if (header.file_bytes > actual_bytes)
        fail(where, "truncated checkpoint (payload shorter than header "
                    "claims)");
    if (header.file_bytes < actual_bytes)
        fail(where, "malformed checkpoint (payload longer than header "
                    "claims)");
    if (trace::traceImageChecksum(buffer.payload.data(),
                                  buffer.payload.size()) !=
        header.payload_checksum) {
        fail(where, "checksum mismatch (corrupt checkpoint)");
    }
    if (header.fingerprint != expected_fingerprint) {
        fail(where, "fingerprint mismatch (checkpoint was written by a "
                    "different run configuration)");
    }
}

} // namespace

std::uint64_t
checkpointFingerprint(const EngineConfig &config,
                      const std::string &policy_name,
                      trace::TraceView workload)
{
    // Serialize every run-defining input into a flat buffer and digest
    // it with the same checksum the payload uses.  Field order is part
    // of the format: changing it invalidates old checkpoints, which is
    // exactly what bumping kCheckpointVersion is for.
    sim::StateWriter writer;
    writer.put(config.cluster.workers);
    writer.put(config.cluster.total_memory_mb);
    writer.putVector(config.cluster.speed_factors);
    writer.putVector(config.cluster.worker_memory_mb);
    writer.put(static_cast<std::uint8_t>(config.speculation_mode));
    writer.put(static_cast<std::uint8_t>(config.placement));
    writer.put<std::uint8_t>(config.cancel_stale_speculation ? 1 : 0);
    writer.put(config.container_threads);
    writer.put(config.maintenance_interval);
    writer.put(config.stats_window);
    writer.put<std::uint64_t>(config.window_max_samples);
    writer.put(config.te_percentile);
    writer.put(config.seed);
    writer.put(config.shard_cells);
    writer.put<std::uint8_t>(config.record_per_request ? 1 : 0);
    writer.put(config.slo_us);
    writer.put(config.compression_ratio);
    writer.put(config.restore_cost_fraction);
    writer.putString(policy_name);
    writer.put<std::uint64_t>(workload.functionCount());
    writer.put<std::uint64_t>(workload.requestCount());
    const std::vector<std::byte> bytes = writer.release();
    return trace::traceImageChecksum(bytes.data(), bytes.size());
}

CheckpointBuffer
makeCheckpointBuffer(std::uint64_t fingerprint,
                     std::vector<std::byte> payload)
{
    CheckpointBuffer buffer;
    std::memcpy(buffer.header.magic, kMagic, sizeof kMagic);
    buffer.header.version = kCheckpointVersion;
    buffer.header.header_bytes = sizeof(CheckpointHeader);
    buffer.header.file_bytes = sizeof(CheckpointHeader) + payload.size();
    buffer.header.payload_checksum =
        trace::traceImageChecksum(payload.data(), payload.size());
    buffer.header.fingerprint = fingerprint;
    buffer.payload = std::move(payload);
    return buffer;
}

const std::vector<std::byte> &
openCheckpointBuffer(const CheckpointBuffer &buffer,
                     std::uint64_t expected_fingerprint)
{
    // The buffer is typically long-lived and shared across worker
    // threads, so a stray write anywhere in it must be caught here
    // rather than surface as silent divergence downstream.
    validate(buffer, expected_fingerprint, "<memory>");
    return buffer.payload;
}

void
writeCheckpointFile(const std::string &path, const CheckpointBuffer &buffer)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fail(path, "cannot open for writing");
        out.write(reinterpret_cast<const char *>(&buffer.header),
                  sizeof buffer.header);
        out.write(reinterpret_cast<const char *>(buffer.payload.data()),
                  static_cast<std::streamsize>(buffer.payload.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            fail(path, "write failed");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fail(path, "rename failed");
    }
}

std::vector<std::byte>
readCheckpointFile(const std::string &path,
                   std::uint64_t expected_fingerprint)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        fail(path, "cannot open");
    const std::streamoff file_bytes = in.tellg();
    in.seekg(0);

    // The file becomes a buffer: its header, then every later byte as
    // the payload, for validate() to hold against the header's claims.
    CheckpointBuffer buffer;
    if (file_bytes < static_cast<std::streamoff>(sizeof buffer.header) ||
        !in.read(reinterpret_cast<char *>(&buffer.header),
                 sizeof buffer.header)) {
        fail(path, "truncated checkpoint (file smaller than header)");
    }
    buffer.payload.resize(static_cast<std::size_t>(file_bytes) -
                          sizeof buffer.header);
    if (!in.read(reinterpret_cast<char *>(buffer.payload.data()),
                 static_cast<std::streamsize>(buffer.payload.size())))
        fail(path, "read failed");
    validate(buffer, expected_fingerprint, path);
    return std::move(buffer.payload);
}

} // namespace cidre::core
