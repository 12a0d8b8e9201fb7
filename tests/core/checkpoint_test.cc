/**
 * @file
 * Tests for the `.ckpt` checkpoint container (corruption rejection
 * mirroring the `.ctrb` suite: magic, version, truncation both ways,
 * checksum, fingerprint) and for resume bit-identity: an engine
 * restored from a mid-run checkpoint must finish with metrics exactly
 * equal to the uninterrupted run — single-shard and sharded.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "policies/registry.h"
#include "sim/serialize.h"
#include "tests/core/test_helpers.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "trace/trace_view.h"

namespace cidre::core {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The readCheckpointFile error for @p path, or "" if it succeeded. */
std::string
readError(const std::string &path, std::uint64_t fingerprint)
{
    try {
        (void)readCheckpointFile(path, fingerprint);
        return "";
    } catch (const std::runtime_error &e) {
        return e.what();
    }
}

std::vector<std::byte>
samplePayload()
{
    std::vector<std::byte> payload(1000);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
    return payload;
}

constexpr std::uint64_t kFingerprint = 0x1234ABCD5678EF09ull;

std::string
sampleCheckpoint(const std::string &name)
{
    const std::string path = tempPath(name);
    writeCheckpointFile(path, kFingerprint, samplePayload());
    return path;
}

TEST(CheckpointFile, RoundTripsPayloadExactly)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_roundtrip.ckpt");
    EXPECT_EQ(readCheckpointFile(path, kFingerprint), samplePayload());
}

TEST(CheckpointFile, RejectsMissingFile)
{
    const std::string error =
        readError(tempPath("cidre_ckpt_missing.ckpt"), kFingerprint);
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(CheckpointFile, RejectsBadMagic)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_badmagic.ckpt");
    std::vector<char> bytes = readAll(path);
    bytes[0] = 'X';
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
    EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(CheckpointFile, RejectsUnsupportedVersion)
{
    // Version 1 is the format before the `run` payload dropped its
    // engine-kind byte, version 2 the one before RunMetrics stored
    // integer-µs histograms, version 3 the one before pending events
    // were stored as plain records: an old file must fail as a version
    // mismatch, not as a misleading payload error.
    for (const std::uint32_t bogus : {kCheckpointVersion + 5, 1u, 2u, 3u}) {
        const std::string path =
            sampleCheckpoint("cidre_ckpt_badversion.ckpt");
        std::vector<char> bytes = readAll(path);
        std::memcpy(bytes.data() + offsetof(CheckpointHeader, version),
                    &bogus, sizeof bogus);
        writeAll(path, bytes);
        const std::string error = readError(path, kFingerprint);
        EXPECT_NE(error.find("unsupported .ckpt version"),
                  std::string::npos)
            << "version " << bogus << ": " << error;
    }
}

TEST(CheckpointFile, RejectsFileSmallerThanHeader)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_tiny.ckpt");
    std::vector<char> bytes = readAll(path);
    bytes.resize(sizeof(CheckpointHeader) / 2);
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("file smaller than header"), std::string::npos)
        << error;
}

TEST(CheckpointFile, RejectsTruncatedPayload)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_short.ckpt");
    std::vector<char> bytes = readAll(path);
    bytes.resize(bytes.size() - 100);
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("shorter than header claims"), std::string::npos)
        << error;
}

TEST(CheckpointFile, RejectsTrailingGarbage)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_long.ckpt");
    std::vector<char> bytes = readAll(path);
    bytes.push_back('\0');
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("longer than header claims"), std::string::npos)
        << error;
}

TEST(CheckpointFile, RejectsChecksumMismatch)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_corrupt.ckpt");
    std::vector<char> bytes = readAll(path);
    bytes[bytes.size() - 5] ^= 0x01;
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

TEST(CheckpointFile, RejectsFingerprintMismatch)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_foreign.ckpt");
    const std::string error = readError(path, kFingerprint + 1);
    EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos)
        << error;
}

TEST(CheckpointFile, WriteLeavesNoTmpFileBehind)
{
    const std::string path = sampleCheckpoint("cidre_ckpt_clean.ckpt");
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
}

// ---- in-memory checkpoint buffers (the tune warm-snapshot carrier) ------

/** The openCheckpointBuffer error for @p buffer, or "" on success. */
std::string
openError(const CheckpointBuffer &buffer, std::uint64_t fingerprint)
{
    try {
        (void)openCheckpointBuffer(buffer, fingerprint);
        return "";
    } catch (const std::runtime_error &e) {
        return e.what();
    }
}

TEST(CheckpointBuffer, RoundTripsPayloadExactly)
{
    const CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    EXPECT_EQ(openCheckpointBuffer(buffer, kFingerprint),
              samplePayload());
}

TEST(CheckpointBuffer, MatchesTheFileEnvelopeBitForBit)
{
    // The buffer is the file format minus the file: writing header +
    // payload to disk must yield a .ckpt readCheckpointFile accepts.
    const CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    const std::string path = tempPath("cidre_ckpt_buffer_as_file.ckpt");
    std::vector<char> bytes(sizeof(CheckpointHeader) +
                            buffer.payload.size());
    std::memcpy(bytes.data(), &buffer.header, sizeof(CheckpointHeader));
    std::memcpy(bytes.data() + sizeof(CheckpointHeader),
                buffer.payload.data(), buffer.payload.size());
    writeAll(path, bytes);
    EXPECT_EQ(readCheckpointFile(path, kFingerprint), samplePayload());
}

TEST(CheckpointBuffer, RejectsBadMagic)
{
    CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    buffer.header.magic[0] = 'X';
    EXPECT_NE(openError(buffer, kFingerprint).find("bad magic"),
              std::string::npos);
}

TEST(CheckpointBuffer, RejectsUnsupportedVersion)
{
    CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    buffer.header.version = kCheckpointVersion + 5;
    EXPECT_NE(
        openError(buffer, kFingerprint).find("unsupported checkpoint"),
        std::string::npos);
}

TEST(CheckpointBuffer, RejectsPayloadSizeDrift)
{
    CheckpointBuffer truncated =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    truncated.payload.resize(truncated.payload.size() - 1);
    EXPECT_NE(openError(truncated, kFingerprint)
                  .find("payload size does not match"),
              std::string::npos);

    CheckpointBuffer grown =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    grown.payload.push_back(std::byte{0});
    EXPECT_NE(openError(grown, kFingerprint)
                  .find("payload size does not match"),
              std::string::npos);
}

TEST(CheckpointBuffer, RejectsStrayPayloadWrite)
{
    CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    buffer.payload[buffer.payload.size() / 2] ^= std::byte{0x01};
    EXPECT_NE(openError(buffer, kFingerprint).find("checksum mismatch"),
              std::string::npos);
}

TEST(CheckpointBuffer, RejectsFingerprintMismatch)
{
    const CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    EXPECT_NE(
        openError(buffer, kFingerprint + 1).find("fingerprint mismatch"),
        std::string::npos);
}

// ---- fingerprint sensitivity --------------------------------------------

TEST(CheckpointFingerprint, ChangesWithRunDefiningInputs)
{
    const trace::Trace a = trace::makeAzureLikeTrace(42, 0.01);
    const trace::Trace b = trace::makeAzureLikeTrace(43, 0.012);
    EngineConfig config;
    const std::uint64_t base =
        checkpointFingerprint(config, "cidre", trace::TraceView(a));

    EngineConfig seeded = config;
    seeded.seed = config.seed + 1;
    EXPECT_NE(checkpointFingerprint(seeded, "cidre", trace::TraceView(a)),
              base);
    EXPECT_NE(checkpointFingerprint(config, "ttl", trace::TraceView(a)),
              base);
    EXPECT_NE(checkpointFingerprint(config, "cidre", trace::TraceView(b)),
              base);
    EXPECT_EQ(checkpointFingerprint(config, "cidre", trace::TraceView(a)),
              base);
}

// ---- resume bit-identity ------------------------------------------------

void
expectMetricsIdentical(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(b.total(), a.total());
    EXPECT_EQ(b.coldRatio(), a.coldRatio());
    EXPECT_EQ(b.makespan(), a.makespan());
    EXPECT_EQ(b.avgMemoryGb(), a.avgMemoryGb());
    EXPECT_EQ(b.e2eHistogram().percentile(0.5),
              a.e2eHistogram().percentile(0.5));
    EXPECT_EQ(b.e2eHistogram().percentile(0.99),
              a.e2eHistogram().percentile(0.99));
    EXPECT_EQ(b.overheadHistogram().percentile(0.5),
              a.overheadHistogram().percentile(0.5));
    EXPECT_EQ(b.overheadHistogram().percentile(0.99),
              a.overheadHistogram().percentile(0.99));
}

const trace::Trace &
resumeTrace()
{
    static const trace::Trace trace = trace::makeAzureLikeTrace(42, 0.05);
    return trace;
}

TEST(CheckpointResume, SingleShardResumeIsBitIdentical)
{
    const trace::TraceView view(resumeTrace());
    EngineConfig config;
    config.cluster.workers = 2;
    config.cluster.total_memory_mb = 8 * 1024;

    Engine uninterrupted(view, config,
                         policies::makePolicy("cidre", config));
    const RunMetrics golden = uninterrupted.run();

    // Run to the midpoint, checkpoint, and restore into a fresh engine.
    Engine first_half(view, config, policies::makePolicy("cidre", config));
    first_half.begin();
    first_half.stepUntil(view.duration() / 2);
    sim::StateWriter writer;
    first_half.saveState(writer);
    const std::vector<std::byte> state = writer.release();

    Engine resumed(view, config, policies::makePolicy("cidre", config));
    sim::StateReader reader(state);
    resumed.loadState(reader);
    expectMetricsIdentical(golden, resumed.finish());
}

TEST(CheckpointResume, SingleShardResumeSurvivesTheCkptContainer)
{
    // Same flow, but the state crosses an actual .ckpt file.
    const trace::TraceView view(resumeTrace());
    EngineConfig config;
    config.cluster.workers = 2;
    config.cluster.total_memory_mb = 8 * 1024;
    const std::uint64_t fingerprint =
        checkpointFingerprint(config, "ttl", view);

    Engine uninterrupted(view, config, policies::makePolicy("ttl", config));
    const RunMetrics golden = uninterrupted.run();

    Engine first_half(view, config, policies::makePolicy("ttl", config));
    first_half.begin();
    first_half.stepUntil(view.duration() / 3);
    sim::StateWriter writer;
    first_half.saveState(writer);
    const std::string path = tempPath("cidre_ckpt_resume.ckpt");
    writeCheckpointFile(path, fingerprint, writer.release());

    const std::vector<std::byte> state =
        readCheckpointFile(path, fingerprint);
    Engine resumed(view, config, policies::makePolicy("ttl", config));
    sim::StateReader reader(state);
    resumed.loadState(reader);
    expectMetricsIdentical(golden, resumed.finish());
}

TEST(CheckpointResume, ShardedResumeIsBitIdentical)
{
    const trace::TraceView view(resumeTrace());
    EngineConfig config;
    config.cluster.workers = 4;
    config.cluster.total_memory_mb = 16 * 1024;
    config.shard_cells = 2;
    const auto factory = [](const EngineConfig &cell_config) {
        return policies::makePolicy("cidre", cell_config);
    };

    ShardedEngine uninterrupted(view, config, factory);
    const RunMetrics golden = uninterrupted.run();

    ShardedEngine first_half(view, config, factory);
    first_half.begin();
    first_half.stepUntil(view.duration() / 2);
    sim::StateWriter writer;
    first_half.saveState(writer);
    const std::vector<std::byte> state = writer.release();

    ShardedEngine resumed(view, config, factory);
    sim::StateReader reader(state);
    resumed.loadState(reader);
    expectMetricsIdentical(golden, resumed.finish());
}

TEST(CheckpointResume, LoadRejectsAForeignEngineShape)
{
    // State saved against one workload must not restore into an engine
    // over a different one.
    const trace::TraceView view(resumeTrace());
    EngineConfig config;
    config.cluster.workers = 2;
    config.cluster.total_memory_mb = 8 * 1024;

    Engine source(view, config, policies::makePolicy("ttl", config));
    source.begin();
    source.stepUntil(view.duration() / 4);
    sim::StateWriter writer;
    source.saveState(writer);
    const std::vector<std::byte> state = writer.release();

    const trace::Trace other = trace::makeAzureLikeTrace(7, 0.01);
    Engine target(trace::TraceView(other), config,
                  policies::makePolicy("ttl", config));
    sim::StateReader reader(state);
    EXPECT_THROW(target.loadState(reader), std::runtime_error);
}

TEST(CheckpointResume, LoadRejectsACorruptPendingEvent)
{
    // One function with a 100 ms cold start; request 0 arrives at 1 s
    // and runs 500 ms.  Stepped to 1.1 s, its provision has completed,
    // so its execution-complete event (kind 3, container 0, request 0)
    // is pending at 1.6 s.
    trace::Trace t;
    const trace::FunctionId fn =
        test::addFunction(t, 256, sim::msec(100), sim::msec(500));
    t.addRequest(fn, sim::sec(1), sim::msec(500));
    t.addRequest(fn, sim::sec(10), sim::msec(500));
    t.seal();
    const trace::TraceView view(t);
    const EngineConfig config = test::smallConfig();

    Engine source(view, config, test::simpleBundle());
    source.begin();
    source.stepUntil(sim::sec(1) + sim::msec(100));
    sim::StateWriter writer;
    source.saveState(writer);
    const std::vector<std::byte> state = writer.release();

    // Find the record by its time and payload; its sequence number is
    // whatever the engine assigned.
    const sim::Event wanted{sim::sec(1) + sim::msec(600), 0, 3, 0, 0};
    std::vector<std::size_t> found;
    for (std::size_t at = 0; at + sizeof(sim::Event) <= state.size(); ++at) {
        const std::byte *record = state.data() + at;
        if (std::memcmp(record, &wanted.when, sizeof wanted.when) == 0 &&
            std::memcmp(record + offsetof(sim::Event, kind), &wanted.kind,
                        sizeof(sim::Event) -
                            offsetof(sim::Event, kind)) == 0) {
            found.push_back(at);
        }
    }
    ASSERT_EQ(found.size(), 1u);

    const auto loadPatched = [&](std::size_t field, const void *value,
                                 std::size_t size) {
        std::vector<std::byte> patched = state;
        std::memcpy(patched.data() + found[0] + field, value, size);
        Engine target(view, config, test::simpleBundle());
        sim::StateReader reader(patched);
        target.loadState(reader);
        return target.finish().total();
    };
    // Rewriting the record's own time changes nothing: it loads and runs.
    EXPECT_EQ(loadPatched(0, &wanted.when, sizeof wanted.when), 2u);

    for (const std::uint32_t kind : {0u, 5u}) {
        EXPECT_THROW(loadPatched(offsetof(sim::Event, kind), &kind,
                                 sizeof kind),
                     std::runtime_error)
            << "kind " << kind;
    }
    const std::uint32_t container = 1; // the slab holds one container
    EXPECT_THROW(
        loadPatched(offsetof(sim::Event, a), &container, sizeof container),
        std::runtime_error);
    const std::uint64_t request = view.requestCount();
    EXPECT_THROW(
        loadPatched(offsetof(sim::Event, b), &request, sizeof request),
        std::runtime_error);
}

} // namespace
} // namespace cidre::core
