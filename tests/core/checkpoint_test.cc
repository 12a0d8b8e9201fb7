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
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "policies/registry.h"
#include "sim/serialize.h"
#include "tests/core/test_helpers.h"
#include "tests/temp_file.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "trace/trace_view.h"

namespace cidre::core {
namespace {

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

/** A `.ckpt` of samplePayload() under kFingerprint, removed on scope exit. */
struct SampleCheckpoint
{
    explicit SampleCheckpoint(const std::string &name) : file(name)
    {
        writeCheckpointFile(file.path(),
                            makeCheckpointBuffer(kFingerprint,
                                                 samplePayload()));
    }

    const std::string &path() const { return file.path(); }

    test::TempFile file;
};

TEST(CheckpointFile, RoundTripsPayloadExactly)
{
    const SampleCheckpoint sample("roundtrip.ckpt");
    EXPECT_EQ(readCheckpointFile(sample.path(), kFingerprint),
              samplePayload());
}

TEST(CheckpointFile, RejectsMissingFile)
{
    const test::TempFile missing("missing.ckpt");
    const std::string error = readError(missing.path(), kFingerprint);
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(CheckpointFile, RejectsBadMagic)
{
    const SampleCheckpoint sample("badmagic.ckpt");
    const std::string &path = sample.path();
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
    // were stored as plain records, version 4 the one before the run
    // timeline and the window change epochs were dropped, version 5
    // the one before held requests were stored by value, version 6 the
    // one before every ranked keep-alive policy stored its idle
    // ranking: an old file must fail as a version mismatch, not as a
    // misleading payload error.
    for (const std::uint32_t bogus :
         {kCheckpointVersion + 5, 1u, 2u, 3u, 4u, 5u, 6u}) {
        const SampleCheckpoint sample("badversion.ckpt");
        const std::string &path = sample.path();
        std::vector<char> bytes = readAll(path);
        std::memcpy(bytes.data() + offsetof(CheckpointHeader, version),
                    &bogus, sizeof bogus);
        writeAll(path, bytes);
        const std::string error = readError(path, kFingerprint);
        EXPECT_NE(error.find("unsupported checkpoint version"),
                  std::string::npos)
            << "version " << bogus << ": " << error;
    }
}

TEST(CheckpointFile, RejectsFileSmallerThanHeader)
{
    const SampleCheckpoint sample("tiny.ckpt");
    const std::string &path = sample.path();
    std::vector<char> bytes = readAll(path);
    bytes.resize(sizeof(CheckpointHeader) / 2);
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("file smaller than header"), std::string::npos)
        << error;
}

TEST(CheckpointFile, RejectsTruncatedPayload)
{
    const SampleCheckpoint sample("short.ckpt");
    const std::string &path = sample.path();
    std::vector<char> bytes = readAll(path);
    bytes.resize(bytes.size() - 100);
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("shorter than header claims"), std::string::npos)
        << error;
}

TEST(CheckpointFile, RejectsTrailingGarbage)
{
    const SampleCheckpoint sample("long.ckpt");
    const std::string &path = sample.path();
    std::vector<char> bytes = readAll(path);
    bytes.push_back('\0');
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("longer than header claims"), std::string::npos)
        << error;
}

TEST(CheckpointFile, RejectsChecksumMismatch)
{
    const SampleCheckpoint sample("corrupt.ckpt");
    const std::string &path = sample.path();
    std::vector<char> bytes = readAll(path);
    bytes[bytes.size() - 5] ^= 0x01;
    writeAll(path, bytes);
    const std::string error = readError(path, kFingerprint);
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

TEST(CheckpointFile, RejectsFingerprintMismatch)
{
    const SampleCheckpoint sample("foreign.ckpt");
    const std::string &path = sample.path();
    const std::string error = readError(path, kFingerprint + 1);
    EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos)
        << error;
}

TEST(CheckpointFile, WriteLeavesNoTmpFileBehind)
{
    const SampleCheckpoint sample("clean.ckpt");
    const std::string &path = sample.path();
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

TEST(CheckpointBuffer, HeaderBytesArePinned)
{
    // Fixed bytes, so that a change to the header layout fails here even
    // when the builder and the validator move together: "CIDRECKP",
    // version 7, 40 header bytes, 1040 file bytes, the payload
    // checksum, then the fingerprint.
    const CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    static_assert(sizeof buffer.header == 40);
    unsigned char bytes[sizeof buffer.header];
    std::memcpy(bytes, &buffer.header, sizeof bytes);
    std::string hex;
    for (const unsigned char byte : bytes) {
        hex += "0123456789abcdef"[byte >> 4];
        hex += "0123456789abcdef"[byte & 0xF];
    }
    EXPECT_EQ(hex, "4349445245434b500700000028000000"
                   "1004000000000000abf74a4eb1e9fe98"
                   "09ef7856cdab3412");
}

TEST(CheckpointBuffer, MatchesTheFileEnvelopeBitForBit)
{
    // The buffer is the file format minus the file: writing header +
    // payload to disk must yield a .ckpt readCheckpointFile accepts.
    const CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    const test::TempFile file("buffer_as_file.ckpt");
    const std::string &path = file.path();
    std::vector<char> bytes(sizeof(CheckpointHeader) +
                            buffer.payload.size());
    std::memcpy(bytes.data(), &buffer.header, sizeof(CheckpointHeader));
    std::memcpy(bytes.data() + sizeof(CheckpointHeader),
                buffer.payload.data(), buffer.payload.size());
    writeAll(path, bytes);
    EXPECT_EQ(readCheckpointFile(path, kFingerprint), samplePayload());
}

TEST(CheckpointBuffer, FileAndBufferFailTheSameChecks)
{
    // One validation ladder: a corrupt buffer written out as a file
    // fails with the buffer's error, labelled with the path instead of
    // "<memory>".
    const std::vector<void (*)(CheckpointBuffer &)> corruptions = {
        [](CheckpointBuffer &b) { b.header.magic[0] = 'X'; },
        [](CheckpointBuffer &b) { b.header.version = 4; },
        [](CheckpointBuffer &b) { b.header.header_bytes = 48; },
        [](CheckpointBuffer &b) { b.payload.pop_back(); },
        [](CheckpointBuffer &b) { b.payload.push_back(std::byte{0}); },
        [](CheckpointBuffer &b) { b.payload[7] ^= std::byte{0x40}; },
        [](CheckpointBuffer &b) { b.header.fingerprint ^= 1; },
    };
    for (std::size_t i = 0; i < corruptions.size(); ++i) {
        CheckpointBuffer buffer =
            makeCheckpointBuffer(kFingerprint, samplePayload());
        corruptions[i](buffer);
        const test::TempFile file("ladder.ckpt");
        writeCheckpointFile(file.path(), buffer);

        std::string expected = openError(buffer, kFingerprint);
        ASSERT_FALSE(expected.empty()) << "corruption " << i;
        expected.replace(expected.find("<memory>"), 8, file.path());
        EXPECT_EQ(readError(file.path(), kFingerprint), expected)
            << "corruption " << i;
    }
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
                  .find("payload shorter than header claims"),
              std::string::npos);

    CheckpointBuffer grown =
        makeCheckpointBuffer(kFingerprint, samplePayload());
    grown.payload.push_back(std::byte{0});
    EXPECT_NE(openError(grown, kFingerprint)
                  .find("payload longer than header claims"),
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
    const test::TempFile file("resume.ckpt");
    writeCheckpointFile(file.path(),
                        makeCheckpointBuffer(fingerprint, writer.release()));

    const std::vector<std::byte> state =
        readCheckpointFile(file.path(), fingerprint);
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

TEST(CheckpointResume, IdenticalRunsSaveIdenticalBytes)
{
    // Records are checkpointed raw, so any padding byte left
    // uninitialised would make two identical runs save different
    // payloads (and checksums).  CIP's idle buckets fill up under
    // pressure on 4 cells, and the per-request log is on; the heap is
    // dirtied between the runs so stale bytes would differ.
    const trace::TraceView view(resumeTrace());
    EngineConfig config;
    config.cluster.workers = 4;
    config.cluster.total_memory_mb = 16 * 1024;
    config.shard_cells = 4;
    config.record_per_request = true;
    const auto save = [&] {
        ShardedEngine engine(view, config, [](const EngineConfig &cell) {
            return policies::makePolicy("cidre", cell);
        });
        engine.begin();
        engine.stepUntil(view.duration() / 2);
        sim::StateWriter writer;
        engine.saveState(writer);
        return writer.release();
    };
    const std::vector<std::byte> first = save();
    for (std::size_t size = 8; size <= 4096; size *= 2) {
        std::vector<std::vector<std::byte>> junk(
            64, std::vector<std::byte>(size, std::byte{0xA5}));
    }
    const std::vector<std::byte> second = save();
    ASSERT_EQ(first.size(), second.size());
    EXPECT_TRUE(first == second);
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

/** Offsets at which @p pattern occurs in @p bytes. */
std::vector<std::size_t>
findAll(const std::vector<std::byte> &bytes,
        const std::vector<std::byte> &pattern)
{
    std::vector<std::size_t> found;
    for (std::size_t at = 0; at + pattern.size() <= bytes.size(); ++at) {
        if (std::memcmp(bytes.data() + at, pattern.data(),
                        pattern.size()) == 0) {
            found.push_back(at);
        }
    }
    return found;
}

std::vector<std::byte>
savedState(const Engine &engine)
{
    sim::StateWriter writer;
    engine.saveState(writer);
    return writer.release();
}

/**
 * A fresh simpleBundle() engine restored from @p payload, resealed first
 * so that only the engine's own checks see it.  Corrupt payloads must
 * fail here: one that slipped through could strand a request and keep
 * the tick chain running forever in finish().
 */
std::unique_ptr<Engine>
restored(const trace::TraceView &view, const EngineConfig &config,
         std::vector<std::byte> payload)
{
    const CheckpointBuffer buffer =
        makeCheckpointBuffer(kFingerprint, std::move(payload));
    const std::vector<std::byte> opened =
        openCheckpointBuffer(buffer, kFingerprint);
    auto engine = std::make_unique<Engine>(view, config, test::simpleBundle());
    sim::StateReader reader(opened);
    engine->loadState(reader);
    return engine;
}

/** Offset of the one saved event at @p when with @p wanted's kind, a and
 *  b; its sequence number is whatever the engine assigned. */
std::size_t
findEvent(const std::vector<std::byte> &state, const sim::Event &wanted)
{
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
    EXPECT_EQ(found.size(), 1u) << "event at " << wanted.when;
    return found.empty() ? state.size() : found[0];
}

/** Copy of @p state with @p value written at @p at. */
template <typename T>
std::vector<std::byte>
patchedAt(const std::vector<std::byte> &state, std::size_t at, T value)
{
    std::vector<std::byte> patched = state;
    std::memcpy(patched.data() + at, &value, sizeof value);
    return patched;
}

TEST(CheckpointResume, LoadRejectsACorruptPendingEvent)
{
    // One function with a 100 ms cold start; request 0 arrives at 1 s
    // and runs 500 ms.  Stepped to 1.1 s, its provision has completed,
    // so its execution-complete event (kind 3, container 0, exec
    // 500 ms) is pending at 1.6 s.
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
    const std::vector<std::byte> state = savedState(source);

    const std::size_t at = findEvent(
        state, {sim::sec(1) + sim::msec(600), 0, 3, 0,
                static_cast<std::uint64_t>(sim::msec(500))});
    ASSERT_LT(at, state.size());
    const auto loadPatched = [&](std::size_t field, const void *value,
                                 std::size_t size) {
        std::vector<std::byte> patched = state;
        std::memcpy(patched.data() + at + field, value, size);
        return restored(view, config, std::move(patched))->finish().total();
    };
    // Rewriting the record's own time changes nothing: it loads and runs.
    const sim::SimTime when = sim::sec(1) + sim::msec(600);
    EXPECT_EQ(loadPatched(0, &when, sizeof when), 2u);

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
    // A negative exec time, and one past the simulated time horizon.
    for (const std::uint64_t exec :
         {~std::uint64_t{0}, static_cast<std::uint64_t>(sim::kTimeInfinity)}) {
        EXPECT_THROW(loadPatched(offsetof(sim::Event, b), &exec, sizeof exec),
                     std::runtime_error)
            << "exec " << exec;
    }
    // The event must be owed by a busy container: the completion kind
    // turned into a provision completion names a live container.
    const std::uint32_t provision = 4;
    EXPECT_THROW(loadPatched(offsetof(sim::Event, kind), &provision,
                             sizeof provision),
                 std::runtime_error);

    // The payload opens with one byte each for ran_, tick_scheduled_,
    // in_retry_, live_ and stream_closed_.  An engine that never began
    // holds no state to resume, and begin() on it would schedule a
    // second arrival.
    constexpr std::size_t kStreamClosedAt = 4;
    EXPECT_THROW(restored(view, config, patchedAt(state, 0, false)),
                 std::runtime_error)
        << "never began";

    // Request 1's arrival (kind 1, function 0, exec 500 ms) waits at
    // 10 s.  It is the queue's last saved record, right after the other
    // pending ones and their count: dropping it leaves a trace run that
    // never sees row 1, whether its stream stays open (its tick chain
    // would run forever) or is marked closed (finish() would return
    // one request's metrics).
    const std::size_t arrival_at = findEvent(
        state, {sim::sec(10), 0, 1, fn,
                static_cast<std::uint64_t>(sim::msec(500))});
    ASSERT_LT(arrival_at, state.size());
    std::size_t count_at = state.size();
    for (std::uint64_t count = 1; count * sizeof(sim::Event) <= arrival_at;
         ++count) {
        const std::size_t candidate =
            arrival_at + sizeof(sim::Event) - count * sizeof(sim::Event) - 8;
        std::uint64_t saved = 0;
        std::memcpy(&saved, state.data() + candidate, sizeof saved);
        if (saved == count) {
            count_at = candidate;
            break;
        }
    }
    ASSERT_LT(count_at, arrival_at);
    std::uint64_t pending_count = 0;
    std::memcpy(&pending_count, state.data() + count_at, sizeof pending_count);
    std::vector<std::byte> dropped =
        patchedAt(state, count_at, pending_count - 1);
    dropped.erase(
        dropped.begin() + static_cast<std::ptrdiff_t>(arrival_at),
        dropped.begin() +
            static_cast<std::ptrdiff_t>(arrival_at + sizeof(sim::Event)));
    EXPECT_THROW(restored(view, config, dropped), std::runtime_error)
        << "arrival dropped, stream open";
    EXPECT_THROW(restored(view, config,
                          patchedAt(dropped, kStreamClosedAt, true)),
                 std::runtime_error)
        << "arrival dropped, stream closed";

    // Stepped past the last row, every request has arrived and the
    // stream is closed; request 1 runs until 10.5 s and the next tick
    // (kind 2) is pending at 11 s.
    Engine ended_source(view, config, test::simpleBundle());
    ended_source.begin();
    ended_source.stepUntil(sim::sec(10) + sim::msec(100));
    const std::vector<std::byte> ended = savedState(ended_source);
    EXPECT_EQ(restored(view, config, ended)->finish().total(), 2u);

    // Reopening the stream would re-arm the tick forever.
    EXPECT_THROW(restored(view, config,
                          patchedAt(ended, kStreamClosedAt, false)),
                 std::runtime_error)
        << "stream reopened";
    // The tick turned into an arrival (function 0, exec 0) would be a
    // third request in a two-row trace, its outcome recorded past the
    // end of the per-request log.
    const std::size_t tick_at = findEvent(ended, {sim::sec(11), 0, 2, 0, 0});
    ASSERT_LT(tick_at, ended.size());
    EXPECT_THROW(restored(view, config,
                          patchedAt(ended,
                                    tick_at + offsetof(sim::Event, kind),
                                    std::uint32_t{1})),
                 std::runtime_error)
        << "extra arrival";

    // A live run schedules each admission inside admit(), so none is
    // pending between two: the tick turned into an arrival would admit
    // a request nobody sent.
    EngineConfig live_config = config;
    live_config.record_per_request = false;
    Engine live_source(view, live_config, test::simpleBundle());
    live_source.beginLive();
    live_source.admit(sim::sec(1), fn, sim::msec(500));
    live_source.stepUntil(sim::sec(1) + sim::msec(100));
    const std::vector<std::byte> live = savedState(live_source);
    EXPECT_NO_THROW(restored(view, live_config, live));
    const std::size_t live_tick_at = findEvent(live, {sim::sec(2), 0, 2, 0, 0});
    ASSERT_LT(live_tick_at, live.size());
    EXPECT_THROW(restored(view, live_config,
                          patchedAt(live,
                                    live_tick_at + offsetof(sim::Event, kind),
                                    std::uint32_t{1})),
                 std::runtime_error)
        << "live arrival pending";
}

TEST(CheckpointResume, LoadRejectsACorruptDeferredProvision)
{
    // One 1000 MB worker.  a's 600 MB container is busy from 0.1 s to
    // 10.1 s, so b's cold start at 1 s is deferred, bound to request 1.
    trace::Trace t;
    const trace::FunctionId a = test::addFunction(t, 600, sim::msec(100));
    const trace::FunctionId b = test::addFunction(t, 600, sim::msec(100));
    t.addRequest(a, 0, sim::sec(10));
    t.addRequest(b, sim::sec(1), sim::msec(10));
    t.seal();
    const trace::TraceView view(t);
    const EngineConfig config = test::smallConfig(1000);

    Engine source(view, config, test::simpleBundle());
    source.begin();
    source.stepUntil(sim::sec(2));
    ASSERT_EQ(source.metrics().deferred_provisions, 1u);
    const std::vector<std::byte> state = savedState(source);

    // The deferred list: a count, then per entry the function (u32),
    // the reason byte and, for a Demand provision, the bound request's
    // record {index, arrival, exec}.
    sim::StateWriter record;
    record.put<std::uint64_t>(1);
    record.put(b);
    record.put(cluster::ProvisionReason::Demand);
    record.put(cluster::PendingRequest{1, sim::sec(1), sim::msec(10)});
    const std::vector<std::size_t> found = findAll(state, record.release());
    ASSERT_EQ(found.size(), 1u);
    const std::size_t function_at = found[0] + 8;
    const std::size_t reason_at = function_at + 4;
    const std::size_t index_at = reason_at + 1;
    const std::size_t arrival_at = index_at + 8;
    const std::size_t exec_at = arrival_at + 8;

    EXPECT_EQ(restored(view, config, state)->finish().total(), 2u);

    const auto corrupt = [&](std::size_t at, auto value) {
        return restored(view, config, patchedAt(state, at, value));
    };
    EXPECT_THROW(corrupt(function_at, trace::FunctionId{2}),
                 std::runtime_error);
    EXPECT_THROW(corrupt(reason_at, std::uint8_t{3}), std::runtime_error);
    // Only two requests have arrived.
    EXPECT_THROW(corrupt(index_at, std::uint64_t{2}), std::runtime_error);
    // A request from the future, or one with a negative time.
    EXPECT_THROW(corrupt(arrival_at, sim::sec(3)), std::runtime_error);
    EXPECT_THROW(corrupt(arrival_at, sim::SimTime{-1}), std::runtime_error);
    EXPECT_THROW(corrupt(exec_at, sim::SimTime{-1}), std::runtime_error);

    // The engine defers only bound Demand and unbound Speculative
    // provisions; prewarm() never defers.  A Prewarm record is corrupt,
    // and a Speculative one here leaves its request held nowhere.
    for (const auto reason : {cluster::ProvisionReason::Speculative,
                              cluster::ProvisionReason::Prewarm}) {
        EXPECT_THROW(corrupt(reason_at, reason), std::runtime_error)
            << "reason " << static_cast<int>(reason);
    }
}

TEST(CheckpointResume, LoadRejectsARequestDroppedOrDuplicated)
{
    // cidre parks a burst in the function's channel while the one
    // speculative container provisions (1 s cold start): stepped to
    // 0.5 s, five requests wait there.
    trace::Trace t;
    const trace::FunctionId fn = test::addFunction(t, 256, sim::sec(1));
    for (int i = 0; i < 5; ++i)
        t.addRequest(fn, sim::msec(10 * i), sim::msec(50));
    t.seal();
    const trace::TraceView view(t);
    const EngineConfig config = test::smallConfig();
    const auto cidre = [&config] {
        return policies::makePolicy("cidre", config);
    };

    Engine source(view, config, cidre());
    source.begin();
    source.stepUntil(sim::msec(500));
    ASSERT_EQ(source.functionState(fn).channel().size(), 5u);
    const std::vector<std::byte> state = savedState(source);

    // The channel: its count, then the records front first.
    sim::StateWriter block;
    block.put<std::uint64_t>(5);
    for (const cluster::PendingRequest &pending :
         source.functionState(fn).channel())
        block.put(pending);
    const std::vector<std::size_t> found = findAll(state, block.release());
    ASSERT_EQ(found.size(), 1u);
    const std::size_t count_at = found[0];
    const std::size_t first_at = count_at + 8;
    constexpr std::size_t kRecord = sizeof(cluster::PendingRequest);

    // Each payload is resealed, so only the engine's own checks see it.
    const auto load = [&](std::vector<std::byte> payload) {
        const CheckpointBuffer buffer =
            makeCheckpointBuffer(kFingerprint, std::move(payload));
        const std::vector<std::byte> opened =
            openCheckpointBuffer(buffer, kFingerprint);
        Engine target(view, config, cidre());
        sim::StateReader reader(opened);
        target.loadState(reader);
        return target.finish().total();
    };
    EXPECT_EQ(load(state), 5u);

    std::vector<std::byte> dropped = patchedAt(state, count_at,
                                               std::uint64_t{4});
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(first_at),
                  dropped.begin() +
                      static_cast<std::ptrdiff_t>(first_at + kRecord));
    EXPECT_THROW(load(dropped), std::runtime_error) << "record dropped";

    std::vector<std::byte> duplicated = patchedAt(state, count_at,
                                                  std::uint64_t{6});
    duplicated.insert(
        duplicated.begin() + static_cast<std::ptrdiff_t>(first_at),
        state.begin() + static_cast<std::ptrdiff_t>(first_at),
        state.begin() + static_cast<std::ptrdiff_t>(first_at + kRecord));
    EXPECT_THROW(load(duplicated), std::runtime_error) << "record duplicated";
}

TEST(CheckpointResume, LoadRejectsACorruptWorkerIdleList)
{
    // Two 1000 MB workers.  Three short requests leave containers 0 and
    // 2 idle on worker 0 and container 1 idle on worker 1.
    trace::Trace t;
    const trace::FunctionId a = test::addFunction(t, 300, sim::msec(100));
    const trace::FunctionId b = test::addFunction(t, 300, sim::msec(100));
    const trace::FunctionId c = test::addFunction(t, 300, sim::msec(100));
    t.addRequest(a, 0, sim::msec(10));
    t.addRequest(b, sim::msec(1), sim::msec(10));
    t.addRequest(c, sim::msec(2), sim::msec(10));
    t.addRequest(a, sim::sec(30), sim::msec(10));
    t.seal();
    const trace::TraceView view(t);
    const EngineConfig config = test::smallConfig(2000, 2);

    Engine source(view, config, test::simpleBundle());
    source.begin();
    source.stepUntil(sim::sec(1));
    const std::vector<cluster::ContainerId> idle0 =
        source.idleContainersOn(0);
    const std::vector<cluster::ContainerId> idle1 =
        source.idleContainersOn(1);
    ASSERT_EQ(idle0.size(), 2u);
    ASSERT_EQ(idle1.size(), 1u);
    const std::vector<std::byte> state = savedState(source);

    // The idle lists: the worker count, one id vector per worker, then
    // the epoch vector's count.
    sim::StateWriter block;
    block.put<std::uint64_t>(2);
    block.putVector(idle0);
    block.putVector(idle1);
    block.put<std::uint64_t>(2);
    const std::vector<std::size_t> found = findAll(state, block.release());
    ASSERT_EQ(found.size(), 1u);
    const std::size_t list0 = found[0] + 16; // worker 0's first id

    EXPECT_EQ(restored(view, config, state)->finish().total(), 4u);

    const auto slab_size = static_cast<cluster::ContainerId>(
        source.clusterRef().allContainers().size());
    const auto corrupt = [&](std::size_t at, auto value) {
        return restored(view, config, patchedAt(state, at, value));
    };
    EXPECT_THROW(corrupt(list0, slab_size), std::runtime_error)
        << "id out of range";
    // Idle and in slot 0, but on worker 1.
    EXPECT_THROW(corrupt(list0, idle1[0]), std::runtime_error)
        << "container of another worker";
    // Listed twice: its slot matches only the first position.
    EXPECT_THROW(corrupt(list0 + 4, idle0[0]), std::runtime_error)
        << "id listed twice";

    // In its list and slot, but no longer idle.  A slab record starts
    // with the id (u32), seq (u64), function (u32) and worker (u32),
    // then the state byte, the reason byte, the memory and the full
    // memory (i64 each) and the thread count (u32).
    const cluster::Container &listed =
        source.clusterRef().container(idle0[1]);
    sim::StateWriter head;
    head.put(listed.id);
    head.put(listed.seq);
    head.put(listed.function);
    head.put(listed.worker);
    head.put(listed.state);
    head.put(listed.reason);
    head.put(listed.memory_mb);
    head.put(listed.full_memory_mb);
    head.put(listed.threads);
    const std::vector<std::size_t> records = findAll(state, head.release());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_THROW(corrupt(records[0] + 20,
                         cluster::ContainerState::Provisioning),
                 std::runtime_error)
        << "listed container is not idle";
}

TEST(CheckpointResume, ContainerMemoryIsRebuiltFromTheSlab)
{
    // Each worker tracks the MB its containers hold as they are created,
    // compressed (codecrunch) and destroyed; a restore derives it from
    // the slab instead.  Both must equal the sum over the live
    // containers, and the resumed run must finish exactly as the
    // uninterrupted one.
    const trace::TraceView view(resumeTrace());
    EngineConfig config;
    config.cluster.workers = 2;
    config.cluster.total_memory_mb = 8 * 1024;
    const auto slabSums = [](const cluster::Cluster &cl) {
        std::vector<std::int64_t> sums(cl.workerCount(), 0);
        for (const cluster::Container &c : cl.allContainers()) {
            if (!c.evicted())
                sums[c.worker] += c.memory_mb;
        }
        return sums;
    };
    const auto containerMb = [](const cluster::Cluster &cl) {
        std::vector<std::int64_t> held;
        for (const cluster::Worker &w : cl.workers())
            held.push_back(w.containerMb());
        return held;
    };

    for (const char *policy : {"codecrunch", "rainbowcake"}) {
        SCOPED_TRACE(policy);
        Engine uninterrupted(view, config,
                             policies::makePolicy(policy, config));
        const RunMetrics golden = uninterrupted.run();

        Engine first_half(view, config, policies::makePolicy(policy, config));
        first_half.begin();
        first_half.stepUntil(view.duration() / 2);
        const cluster::Cluster &before = first_half.clusterRef();
        EXPECT_EQ(containerMb(before), slabSums(before));
        // By the midpoint codecrunch has compressed containers and
        // rainbowcake holds layer memory outside them.
        std::int64_t outside = 0;
        for (const cluster::Worker &w : before.workers())
            outside += w.usedMb() - w.containerMb();
        EXPECT_TRUE(first_half.metrics().compressions > 0 || outside > 0);
        const std::vector<std::byte> state = savedState(first_half);

        Engine resumed(view, config, policies::makePolicy(policy, config));
        sim::StateReader reader(state);
        resumed.loadState(reader);
        const cluster::Cluster &after = resumed.clusterRef();
        EXPECT_EQ(containerMb(after), slabSums(after));
        EXPECT_EQ(containerMb(after), containerMb(before));
        expectMetricsIdentical(golden, resumed.finish());
    }
}

} // namespace
} // namespace cidre::core
