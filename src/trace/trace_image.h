/**
 * @file
 * The `.ctrb` binary columnar trace format and its mmap-backed loader.
 *
 * ## Why a binary format
 *
 * The CSV path re-does O(requests) parsing and seal() sorting on every
 * load.  A `.ctrb` file stores the *sealed* representation — requests
 * already arrival-sorted, the per-function arrival index already built
 * — as flat little-endian columns, so loading is mmap + validate: the
 * kernel shares the read-only pages across every thread (and forked
 * process) of a sweep, and no per-request work happens at open time.
 *
 * ## File layout (version 1, little-endian, offsets 8-byte aligned)
 *
 *   [0,  96)  TraceImageHeader   magic "CIDRETRB", version, section
 *                                offsets, payload checksum
 *   profiles  F variable-length records:
 *               u32 name_len, u8 runtime, u8 pad[3],
 *               i64 memory_mb, i64 cold_start_us, i64 median_exec_us,
 *               name bytes, pad to 8
 *             (function ids are implicit: records are dense, in order)
 *   columns   u32 function[R]           (pad to 8)
 *             i64 arrival_us[R]         arrival-sorted, ties in
 *                                       insertion order (== seal())
 *             i64 exec_us[R]
 *   index     u64 offsets[F+1]          exclusive prefix sums
 *             i64 values[R]             arrivals grouped by function,
 *                                       each group ascending
 *
 * The checksum is a 4-lane FNV-1a-64 over the payload (everything past
 * the header), fast enough (>GB/s) that validation never dominates an
 * open.  The format assumes a little-endian host, which covers every
 * platform this harness targets; loaders reject foreign files via the
 * magic/checksum rather than byte-swapping.
 *
 * ## One encoder, one decoder
 *
 * TraceImageStreamWriter lays out every image (writeTraceImageFile,
 * `convert` and `synth` all loop over it); TraceImage::open reads every
 * image, with the same validation sweeps in both residency modes.
 */

#ifndef CIDRE_TRACE_TRACE_IMAGE_H
#define CIDRE_TRACE_TRACE_IMAGE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/trace_view.h"

namespace cidre::trace {

inline constexpr char kTraceImageMagic[8] = {'C', 'I', 'D', 'R',
                                             'E', 'T', 'R', 'B'};
inline constexpr std::uint32_t kTraceImageVersion = 1;

/** On-disk header; all offsets are absolute file offsets in bytes. */
struct TraceImageHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t header_bytes;
    std::uint64_t function_count;
    std::uint64_t request_count;
    /** Total file size; a shorter actual file means truncation. */
    std::uint64_t file_bytes;
    /** 4-lane FNV-1a-64 over bytes [header_bytes, file_bytes). */
    std::uint64_t payload_checksum;
    std::uint64_t profiles_offset;
    std::uint64_t functions_col_offset;
    std::uint64_t arrivals_col_offset;
    std::uint64_t exec_col_offset;
    std::uint64_t index_offsets_offset;
    std::uint64_t index_values_offset;
};
static_assert(sizeof(TraceImageHeader) == 96,
              "on-disk header layout must not change silently");

/** The payload checksum (also of `.ckpt` files and fingerprints). */
std::uint64_t traceImageChecksum(const std::byte *data, std::size_t size);

/**
 * The payload checksum, fed in chunks of any size: finish() returns
 * the same digest whatever the chunking, because partial 32-byte
 * blocks are buffered.  The writer checksums a multi-GB file it cannot
 * (and must not) hold in memory, and TraceImage::open sweeps the
 * mapping in bounded chunks.
 */
class TraceChecksummer
{
  public:
    TraceChecksummer();

    void update(const std::byte *data, std::size_t size);
    std::uint64_t finish() const;

  private:
    /** Fold @p blocks whole 32-byte blocks into the lanes. */
    void mix(const std::byte *data, std::size_t blocks);

    std::uint64_t lane_[4];
    std::byte pending_[32];
    std::size_t pending_size_ = 0;
};

/**
 * Serialize a sealed workload into a `.ctrb` file: a
 * TraceImageStreamWriter that declares the workload's per-function
 * counts, appends every request row and finishes, so the file is
 * published through `<path>.tmp` like every other image.
 * @throws std::runtime_error on I/O failure.
 */
void writeTraceImageFile(TraceView workload, const std::string &path);

/**
 * The `.ctrb` encoder.  Request rows are appended one at a time and
 * land in the three column sections (and the per-function arrival
 * index) through small reusable buffers, so the trace is never
 * materialized.  Peak memory is a function of the buffer sizes and the
 * function count, never of the request count, which is what lets
 * `cidre_sim synth` and `convert` produce 100M-request images on a
 * bounded heap.
 *
 * Contract: the profile table and exact per-function request counts are
 * declared up front (they fix every section offset); append() must then
 * be called exactly request_count times with non-decreasing arrivals.
 * finish() verifies the declared counts, checksums the file in one
 * sequential sweep and atomically publishes it (tmp + rename).  An
 * unfinished writer leaves no file at @p path.
 */
class TraceImageStreamWriter
{
  public:
    TraceImageStreamWriter(const std::string &path,
                           std::span<const FunctionProfile> profiles,
                           std::uint64_t request_count,
                           const std::vector<std::uint64_t> &per_function_counts);
    ~TraceImageStreamWriter();

    TraceImageStreamWriter(const TraceImageStreamWriter &) = delete;
    TraceImageStreamWriter &operator=(const TraceImageStreamWriter &) = delete;

    /**
     * Append one request row (arrival-sorted; ties keep append order).
     * @throws std::invalid_argument on a negative arrival or exec time,
     *         like Trace::seal().
     */
    void append(FunctionId function, sim::SimTime arrival_us,
                sim::SimTime exec_us);

    /** Flush, checksum, patch the header and publish the file. */
    void finish();

  private:
    struct ColumnStream
    {
        std::uint64_t section_offset = 0; //!< absolute file offset
        std::uint64_t elem_size = 0;
        std::uint64_t flushed = 0; //!< elements already on disk
        std::vector<std::byte> buffer;
    };

    void flushColumn(ColumnStream &col);
    void flushIndex(FunctionId function);
    void pwriteAll(const void *data, std::uint64_t size,
                   std::uint64_t offset);
    [[noreturn]] void ioFail(const std::string &why);

    std::string path_;
    std::string tmp_path_;
    int fd_ = -1;
    bool finished_ = false;

    TraceImageHeader header_{};
    std::uint64_t appended_ = 0;
    sim::SimTime last_arrival_;

    ColumnStream function_col_;
    ColumnStream arrival_col_;
    ColumnStream exec_col_;

    /** Exclusive prefix sums of the declared per-function counts. */
    std::vector<std::uint64_t> index_base_;
    std::vector<std::uint64_t> index_flushed_;
    std::vector<std::vector<sim::SimTime>> index_buffer_;
};

/** True if the file exists and starts with the `.ctrb` magic. */
bool isTraceImageFile(const std::string &path);

/**
 * Which pages TraceImage::open keeps.  Both modes validate with the same
 * chunked sweeps (checksum, then the structural scans).
 *
 * Resident — the default: MADV_WILLNEED the whole file so the columns
 * stay hot for random access.  Right for images that fit in memory.
 *
 * Streaming — out-of-core replay: each sweep drops its chunk's pages
 * behind it, so opening a 100M-request image never faults more than a
 * few MB into residency.  The caller is expected to manage residency
 * along its replay cursor afterwards (see trace/replay_window.h).
 */
enum class TraceOpenMode : std::uint8_t
{
    Resident,
    Streaming,
};

/**
 * A memory-mapped `.ctrb` trace: owns the mapping, hands out zero-copy
 * TraceViews over it.
 *
 * open() maps the file read-only (mmap, then MADV_WILLNEED +
 * MADV_SEQUENTIAL to prime the page cache for the checksum sweep) and
 * validates magic, version, section bounds, the payload checksum and
 * the columns (known functions, sorted arrivals, and an arrival index
 * with exactly one slot per row of each function), so a view over a
 * successfully opened image never faults on bad data.
 * Function profiles are materialized into a small owned vector (names
 * are variable-length); the request columns and arrival index stay on
 * the mapped pages.  Views borrow from the image: keep it alive (and
 * unmoved) for as long as any view is in use.
 */
class TraceImage
{
  public:
    /**
     * Map and validate @p path.
     * @throws std::runtime_error naming the file and the defect (bad
     *         magic, unsupported version, truncation, checksum
     *         mismatch, malformed sections).  Identical validation —
     *         and identical error text — in both open modes.
     */
    static TraceImage open(const std::string &path,
                           TraceOpenMode mode = TraceOpenMode::Resident);

    ~TraceImage();

    TraceImage(TraceImage &&other) noexcept;
    TraceImage &operator=(TraceImage &&other) noexcept;
    TraceImage(const TraceImage &) = delete;
    TraceImage &operator=(const TraceImage &) = delete;

    /** A zero-copy view over the mapped columns. */
    TraceView view() const;

    std::size_t functionCount() const { return functions_.size(); }
    std::uint64_t requestCount() const { return columns_.request_count; }
    /** Size of the mapping in bytes (telemetry). */
    std::size_t fileBytes() const { return map_bytes_; }

    /** The validated on-disk header (section geometry for advisers). */
    const TraceImageHeader &header() const { return header_; }

    /** Base address of the mapping (file offset 0). */
    const std::byte *mapData() const
    {
        return static_cast<const std::byte *>(map_);
    }

    /**
     * Re-advise the request columns for a sharded gather.  open()'s
     * MADV_SEQUENTIAL suits the one-pass checksum sweep; cell builders
     * instead read the columns as concurrent interleaved strides (each
     * cell picks out its own requests), so this resets those ranges to
     * MADV_NORMAL and asks for them up front with MADV_WILLNEED —
     * faulting the column pages once, before the workers fan out,
     * instead of serially inside every cell's first pass.  A hint only:
     * results and correctness never depend on it; no-op off Linux.
     */
    void adviseShardedGather() const;

  private:
    TraceImage() = default;
    void reset() noexcept;

    void *map_ = nullptr;
    std::size_t map_bytes_ = 0;
    std::vector<FunctionProfile> functions_;
    TraceView::Columns columns_;
    TraceImageHeader header_{};
};

} // namespace cidre::trace

#endif // CIDRE_TRACE_TRACE_IMAGE_H
