#include "trace/trace_image.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace cidre::trace {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
align8(std::uint64_t n)
{
    return (n + 7) & ~std::uint64_t{7};
}

[[noreturn]] void
fail(const std::string &path, const std::string &why)
{
    throw std::runtime_error("TraceImage: " + path + ": " + why);
}

template <typename T>
void
appendPod(std::vector<std::byte> &buf, const T &value)
{
    const auto offset = buf.size();
    buf.resize(offset + sizeof(T));
    std::memcpy(buf.data() + offset, &value, sizeof(T));
}

/** Streaming-open sweep granularity (page-multiple). */
constexpr std::uint64_t kSweepChunkBytes = 8ull << 20;

std::uint64_t
pageSize()
{
    const long ps = ::sysconf(_SC_PAGESIZE);
    return ps > 0 ? static_cast<std::uint64_t>(ps) : 4096;
}

/**
 * Drop the PTEs of the fully-contained pages of [begin, end) (absolute
 * file offsets): inward alignment, so a page shared with a neighbouring
 * byte range is never touched.  A residency hint only — MAP_PRIVATE
 * read-only pages refault from the page cache with identical contents.
 */
void
releaseRange(void *map, std::uint64_t begin, std::uint64_t end,
             std::uint64_t page)
{
    const std::uint64_t a = (begin + page - 1) & ~(page - 1);
    const std::uint64_t b = end & ~(page - 1);
    if (b > a)
        ::madvise(static_cast<std::byte *>(map) + a, b - a, MADV_DONTNEED);
}

} // namespace

std::uint64_t
traceImageChecksum(const std::byte *data, std::size_t size)
{
    TraceChecksummer checksummer;
    checksummer.update(data, size);
    return checksummer.finish();
}

TraceChecksummer::TraceChecksummer()
    : lane_{kFnvOffset, kFnvOffset + 1, kFnvOffset + 2, kFnvOffset + 3}
{
}

void
TraceChecksummer::mix(const std::byte *data, std::size_t blocks)
{
    // Four interleaved FNV-1a-64 lanes over 32-byte strides: the same
    // mixing per byte as scalar FNV but with four independent multiply
    // chains, so the hash runs at memory speed and never dominates an
    // open().  The lanes live in locals for the loop: @p data may alias
    // the members, which would otherwise be stored back every block.
    std::uint64_t lane[4] = {lane_[0], lane_[1], lane_[2], lane_[3]};
    for (std::size_t b = 0; b < blocks; ++b, data += 32) {
        for (std::size_t l = 0; l < 4; ++l) {
            std::uint64_t word;
            std::memcpy(&word, data + 8 * l, 8);
            lane[l] = (lane[l] ^ word) * kFnvPrime;
        }
    }
    std::copy(lane, lane + 4, lane_);
}

void
TraceChecksummer::update(const std::byte *data, std::size_t size)
{
    // Top up a buffered partial block first so lane boundaries fall at
    // the same absolute byte positions whatever the chunking.
    if (pending_size_ > 0) {
        const std::size_t take =
            std::min(size, sizeof(pending_) - pending_size_);
        std::memcpy(pending_ + pending_size_, data, take);
        pending_size_ += take;
        data += take;
        size -= take;
        if (pending_size_ < sizeof(pending_))
            return;
        mix(pending_, 1);
        pending_size_ = 0;
    }
    const std::size_t blocks = size / 32;
    mix(data, blocks);
    pending_size_ = size - 32 * blocks;
    if (pending_size_ > 0)
        std::memcpy(pending_, data + 32 * blocks, pending_size_);
}

std::uint64_t
TraceChecksummer::finish() const
{
    // Lanes fold into a fifth chain; the tail is byte-wise.
    std::uint64_t folded = kFnvOffset;
    for (std::size_t l = 0; l < 4; ++l)
        folded = (folded ^ lane_[l]) * kFnvPrime;
    for (std::size_t i = 0; i < pending_size_; ++i)
        folded = (folded ^ std::to_integer<std::uint64_t>(pending_[i])) *
                 kFnvPrime;
    return folded;
}

void
writeTraceImageFile(TraceView workload, const std::string &path)
{
    TraceImageStreamWriter writer(path, workload.functions(),
                                  workload.requestCount(),
                                  workload.requestCountByFunction());
    for (std::uint64_t i = 0; i < workload.requestCount(); ++i) {
        writer.append(workload.requestFunction(i), workload.arrivalUs(i),
                      workload.execUs(i));
    }
    writer.finish();
}

namespace {

/** Column flush granularity of the streaming writer. */
constexpr std::size_t kColumnBufferBytes = 1u << 20;
/** Per-function arrival-index flush granularity (entries). */
constexpr std::size_t kIndexBufferEntries = 512;

} // namespace

TraceImageStreamWriter::TraceImageStreamWriter(
    const std::string &path, std::span<const FunctionProfile> profiles,
    std::uint64_t request_count,
    const std::vector<std::uint64_t> &per_function_counts)
    : path_(path),
      tmp_path_(path + ".tmp"),
      last_arrival_(std::numeric_limits<sim::SimTime>::min())
{
    if (per_function_counts.size() != profiles.size()) {
        throw std::logic_error(
            "TraceImageStreamWriter: per-function count table does not "
            "match the profile table");
    }
    std::uint64_t total = 0;
    for (const std::uint64_t count : per_function_counts)
        total += count;
    if (total != request_count) {
        throw std::logic_error(
            "TraceImageStreamWriter: per-function counts do not sum to "
            "the request count");
    }

    // The declared counts fix every section offset up front.
    std::vector<std::byte> profile_bytes;
    for (const auto &fn : profiles) {
        appendPod(profile_bytes, static_cast<std::uint32_t>(fn.name.size()));
        appendPod(profile_bytes, static_cast<std::uint8_t>(fn.runtime));
        const std::uint8_t pad[3] = {0, 0, 0};
        appendPod(profile_bytes, pad);
        appendPod(profile_bytes, static_cast<std::int64_t>(fn.memory_mb));
        appendPod(profile_bytes, static_cast<std::int64_t>(fn.cold_start_us));
        appendPod(profile_bytes,
                  static_cast<std::int64_t>(fn.median_exec_us));
        const auto offset = profile_bytes.size();
        profile_bytes.resize(offset + fn.name.size());
        std::memcpy(profile_bytes.data() + offset, fn.name.data(),
                    fn.name.size());
        profile_bytes.resize(align8(profile_bytes.size()), std::byte{0});
    }

    const std::uint64_t base = sizeof(TraceImageHeader);
    const std::uint64_t function_count = profiles.size();
    std::memcpy(header_.magic, kTraceImageMagic, sizeof(header_.magic));
    header_.version = kTraceImageVersion;
    header_.header_bytes = sizeof(TraceImageHeader);
    header_.function_count = function_count;
    header_.request_count = request_count;
    header_.profiles_offset = base;
    header_.functions_col_offset = base + profile_bytes.size();
    header_.arrivals_col_offset =
        align8(header_.functions_col_offset + request_count * 4);
    header_.exec_col_offset = header_.arrivals_col_offset + request_count * 8;
    header_.index_offsets_offset =
        header_.exec_col_offset + request_count * 8;
    header_.index_values_offset =
        header_.index_offsets_offset + (function_count + 1) * 8;
    header_.file_bytes = header_.index_values_offset + request_count * 8;

    fd_ = ::open(tmp_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        ioFail(std::string("cannot open for writing: ") +
               std::strerror(errno));

    // Lay the whole file down as zeros in one sequential pass first, so
    // every alignment pad is a real zero byte and the page cache holds
    // the file in large folios that the scattered section writes below
    // fill in place.  Written piecewise, the file would sit in single
    // pages that every open() must map one at a time.
    {
        const std::vector<std::byte> zeros(kColumnBufferBytes);
        for (std::uint64_t offset = 0; offset < header_.file_bytes;
             offset += zeros.size()) {
            pwriteAll(zeros.data(),
                      std::min<std::uint64_t>(zeros.size(),
                                              header_.file_bytes - offset),
                      offset);
        }
    }

    // Header (checksum patched by finish()), profiles and the arrival
    // index offsets are all known now; only the columns stream.
    pwriteAll(&header_, sizeof(header_), 0);
    if (!profile_bytes.empty()) {
        pwriteAll(profile_bytes.data(), profile_bytes.size(),
                  header_.profiles_offset);
    }

    index_base_.resize(function_count + 1);
    std::uint64_t running = 0;
    for (std::uint64_t fn = 0; fn < function_count; ++fn) {
        index_base_[fn] = running;
        running += per_function_counts[fn];
    }
    index_base_[function_count] = running;
    pwriteAll(index_base_.data(), index_base_.size() * 8,
              header_.index_offsets_offset);

    function_col_ = {header_.functions_col_offset, 4, 0, {}};
    arrival_col_ = {header_.arrivals_col_offset, 8, 0, {}};
    exec_col_ = {header_.exec_col_offset, 8, 0, {}};
    index_flushed_.assign(function_count, 0);
    index_buffer_.resize(function_count);
}

TraceImageStreamWriter::~TraceImageStreamWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (!finished_)
        ::unlink(tmp_path_.c_str());
}

void
TraceImageStreamWriter::ioFail(const std::string &why)
{
    // A throw from the constructor skips the destructor: release here.
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    ::unlink(tmp_path_.c_str());
    throw std::runtime_error("TraceImageStreamWriter: " + path_ + ": " +
                             why);
}

void
TraceImageStreamWriter::pwriteAll(const void *data, std::uint64_t size,
                                  std::uint64_t offset)
{
    const char *cursor = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n =
            ::pwrite(fd_, cursor, size, static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ioFail(std::string("write failed: ") + std::strerror(errno));
        }
        cursor += n;
        offset += static_cast<std::uint64_t>(n);
        size -= static_cast<std::uint64_t>(n);
    }
}

void
TraceImageStreamWriter::flushColumn(ColumnStream &col)
{
    if (col.buffer.empty())
        return;
    pwriteAll(col.buffer.data(), col.buffer.size(),
              col.section_offset + col.elem_size * col.flushed);
    col.flushed += col.buffer.size() / col.elem_size;
    col.buffer.clear();
}

void
TraceImageStreamWriter::flushIndex(FunctionId function)
{
    auto &buffer = index_buffer_[function];
    if (buffer.empty())
        return;
    pwriteAll(buffer.data(), buffer.size() * 8,
              header_.index_values_offset +
                  8 * (index_base_[function] + index_flushed_[function]));
    index_flushed_[function] += buffer.size();
    buffer.clear();
}

void
TraceImageStreamWriter::append(FunctionId function, sim::SimTime arrival_us,
                               sim::SimTime exec_us)
{
    if (finished_)
        throw std::logic_error("TraceImageStreamWriter: append after "
                               "finish");
    if (function >= index_buffer_.size())
        throw std::logic_error("TraceImageStreamWriter: unknown function "
                               "id");
    if (appended_ == header_.request_count)
        throw std::logic_error("TraceImageStreamWriter: more rows than "
                               "declared");
    if (arrival_us < 0 || exec_us < 0)
        throw std::invalid_argument("Trace: negative time in request");
    if (arrival_us < last_arrival_)
        throw std::logic_error("TraceImageStreamWriter: arrivals must be "
                               "non-decreasing");
    auto &index = index_buffer_[function];
    if (index_flushed_[function] + index.size() ==
        index_base_[function + 1] - index_base_[function]) {
        throw std::logic_error("TraceImageStreamWriter: function exceeds "
                               "its declared request count");
    }

    last_arrival_ = arrival_us;
    ++appended_;
    appendPod(function_col_.buffer, static_cast<std::uint32_t>(function));
    appendPod(arrival_col_.buffer, arrival_us);
    appendPod(exec_col_.buffer, exec_us);
    if (function_col_.buffer.size() >= kColumnBufferBytes)
        flushColumn(function_col_);
    if (arrival_col_.buffer.size() >= kColumnBufferBytes)
        flushColumn(arrival_col_);
    if (exec_col_.buffer.size() >= kColumnBufferBytes)
        flushColumn(exec_col_);

    index.push_back(arrival_us);
    if (index.size() >= kIndexBufferEntries)
        flushIndex(function);
}

void
TraceImageStreamWriter::finish()
{
    if (finished_)
        throw std::logic_error("TraceImageStreamWriter: finish called "
                               "twice");
    if (appended_ != header_.request_count)
        throw std::logic_error("TraceImageStreamWriter: fewer rows than "
                               "declared");
    flushColumn(function_col_);
    flushColumn(arrival_col_);
    flushColumn(exec_col_);
    for (FunctionId fn = 0; fn < index_buffer_.size(); ++fn)
        flushIndex(fn);

    // One sequential read-back sweep digests the payload; the file is
    // still unpublished, so a crash mid-checksum leaves no bad image.
    TraceChecksummer checksummer;
    std::vector<std::byte> chunk(1u << 20);
    std::uint64_t offset = header_.header_bytes;
    while (offset < header_.file_bytes) {
        const std::uint64_t want = std::min<std::uint64_t>(
            chunk.size(), header_.file_bytes - offset);
        std::uint64_t got = 0;
        while (got < want) {
            const ssize_t n =
                ::pread(fd_, chunk.data() + got, want - got,
                        static_cast<off_t>(offset + got));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                ioFail("short read during checksum sweep");
            got += static_cast<std::uint64_t>(n);
        }
        checksummer.update(chunk.data(), want);
        offset += want;
    }
    header_.payload_checksum = checksummer.finish();
    pwriteAll(&header_, sizeof(header_), 0);

    if (::fsync(fd_) != 0)
        ioFail(std::string("fsync failed: ") + std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
        ioFail(std::string("rename failed: ") + std::strerror(errno));
    finished_ = true;
}

bool
isTraceImageFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[sizeof(kTraceImageMagic)] = {};
    in.read(magic, sizeof(magic));
    return in.gcount() == sizeof(magic) &&
           std::memcmp(magic, kTraceImageMagic, sizeof(magic)) == 0;
}

TraceImage
TraceImage::open(const std::string &path, TraceOpenMode mode)
{
    const bool streaming = mode == TraceOpenMode::Streaming;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        fail(path, std::string("cannot open: ") + std::strerror(errno));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail(path, "fstat failed");
    }
    const auto actual = static_cast<std::size_t>(st.st_size);
    if (actual < sizeof(TraceImageHeader)) {
        ::close(fd);
        fail(path, "truncated trace image (file smaller than header)");
    }
    void *map = ::mmap(nullptr, actual, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping holds its own reference to the file
    if (map == MAP_FAILED)
        fail(path, std::string("mmap failed: ") + std::strerror(errno));

    // The image owns the mapping from here: any validation failure below
    // throws through ~TraceImage, which unmaps.
    TraceImage image;
    image.map_ = map;
    image.map_bytes_ = actual;

    const auto *bytes = static_cast<const std::byte *>(map);

    // Prime the page cache for the sequential checksum sweep.  Resident
    // mode additionally asks for the whole file up front: after open the
    // pages stay hot, read-only, shared by every thread.  Streaming mode
    // must not — bounded residency is its whole point — so its sweeps
    // below drop each chunk's pages behind themselves instead.
    ::madvise(map, actual, MADV_SEQUENTIAL);
    if (!streaming)
        ::madvise(map, actual, MADV_WILLNEED);
    const std::uint64_t page = pageSize();

    TraceImageHeader header;
    std::memcpy(&header, bytes, sizeof(header));
    if (std::memcmp(header.magic, kTraceImageMagic, sizeof(header.magic)) !=
        0)
        fail(path, "not a .ctrb trace image (bad magic)");
    if (header.version != kTraceImageVersion)
        fail(path,
             "unsupported .ctrb version " + std::to_string(header.version) +
                 " (expected " + std::to_string(kTraceImageVersion) + ")");
    if (header.header_bytes != sizeof(TraceImageHeader))
        fail(path, "malformed trace image (header size mismatch)");
    if (header.file_bytes > actual)
        fail(path, "truncated trace image (file shorter than header "
                   "claims)");
    if (header.file_bytes < actual)
        fail(path, "malformed trace image (file longer than header "
                   "claims)");

    const std::uint64_t function_count = header.function_count;
    const std::uint64_t request_count = header.request_count;
    // Bounds below multiply the counts; reject absurd values first so
    // the products cannot wrap around std::uint64_t.
    if (function_count > (std::uint64_t{1} << 32) ||
        request_count > (std::uint64_t{1} << 48))
        fail(path, "malformed trace image (implausible counts)");

    const auto checkSection = [&](std::uint64_t offset, std::uint64_t size,
                                  std::uint64_t alignment,
                                  const char *what) {
        if (offset < header.header_bytes || offset % alignment != 0 ||
            offset + size > header.file_bytes)
            fail(path, std::string("malformed trace image (") + what +
                           " section out of bounds)");
    };
    checkSection(header.profiles_offset, 0, 8, "profile");
    checkSection(header.functions_col_offset, request_count * 4, 4,
                 "function column");
    checkSection(header.arrivals_col_offset, request_count * 8, 8,
                 "arrival column");
    checkSection(header.exec_col_offset, request_count * 8, 8,
                 "exec column");
    checkSection(header.index_offsets_offset, (function_count + 1) * 8, 8,
                 "index offset");
    checkSection(header.index_values_offset, request_count * 8, 8,
                 "index value");

    // One chunked checksum sweep in both modes; Streaming drops each
    // chunk's pages once consumed, like the structural sweeps below.
    TraceChecksummer checksummer;
    for (std::uint64_t offset = header.header_bytes; offset < actual;) {
        const std::uint64_t take =
            std::min<std::uint64_t>(kSweepChunkBytes, actual - offset);
        checksummer.update(bytes + offset, take);
        if (streaming)
            releaseRange(map, offset, offset + take, page);
        offset += take;
    }
    if (checksummer.finish() != header.payload_checksum)
        fail(path, "checksum mismatch (corrupt trace image)");

    // Materialize the (small, variable-length) profile table; the
    // request columns and arrival index stay on the mapped pages.
    image.functions_.reserve(function_count);
    std::uint64_t cursor = header.profiles_offset;
    const std::uint64_t profiles_end = header.functions_col_offset;
    for (std::uint64_t i = 0; i < function_count; ++i) {
        if (cursor + 32 > profiles_end)
            fail(path, "malformed trace image (profile table overruns "
                       "its section)");
        std::uint32_t name_len;
        std::uint8_t runtime_raw;
        std::memcpy(&name_len, bytes + cursor, 4);
        std::memcpy(&runtime_raw, bytes + cursor + 4, 1);
        FunctionProfile fn;
        fn.id = static_cast<FunctionId>(i);
        std::memcpy(&fn.memory_mb, bytes + cursor + 8, 8);
        std::memcpy(&fn.cold_start_us, bytes + cursor + 16, 8);
        std::memcpy(&fn.median_exec_us, bytes + cursor + 24, 8);
        if (runtime_raw >= static_cast<std::uint8_t>(Runtime::kCount))
            fail(path, "malformed trace image (unknown runtime in "
                       "profile table)");
        fn.runtime = static_cast<Runtime>(runtime_raw);
        if (cursor + 32 + name_len > profiles_end)
            fail(path, "malformed trace image (profile name out of "
                       "bounds)");
        fn.name.assign(reinterpret_cast<const char *>(bytes + cursor + 32),
                       name_len);
        image.functions_.push_back(std::move(fn));
        cursor = align8(cursor + 32 + name_len);
    }

    const auto *function_col = reinterpret_cast<const std::uint32_t *>(
        bytes + header.functions_col_offset);
    const auto *arrival_col = reinterpret_cast<const sim::SimTime *>(
        bytes + header.arrivals_col_offset);
    const auto *index_offsets = reinterpret_cast<const std::uint64_t *>(
        bytes + header.index_offsets_offset);

    // Structural invariants the engines rely on: every request names a
    // known function, arrivals are sorted (binary-searchable), and the
    // index partitions exactly the request set, each function's slots
    // matching its rows (a replay consumes one slot per row).  One
    // linear pass each — cheap next to the checksum sweep that already
    // touched the pages.  Streaming mode chunks the passes and drops the
    // pages behind them, exactly like the checksum sweep.
    std::vector<std::uint64_t> rows(function_count, 0);
    {
        const std::uint64_t stride = kSweepChunkBytes / 4;
        for (std::uint64_t i = 0; i < request_count;) {
            const std::uint64_t end = std::min(request_count, i + stride);
            const std::uint64_t begin = i;
            for (; i < end; ++i) {
                if (function_col[i] >= function_count)
                    fail(path, "malformed trace image (request references "
                               "unknown function)");
                ++rows[function_col[i]];
            }
            if (streaming)
                releaseRange(map, header.functions_col_offset + begin * 4,
                             header.functions_col_offset + end * 4, page);
        }
    }
    {
        const std::uint64_t stride = kSweepChunkBytes / 8;
        sim::SimTime previous = 0; // nothing arrives before time 0
        for (std::uint64_t i = 0; i < request_count;) {
            const std::uint64_t end = std::min(request_count, i + stride);
            const std::uint64_t begin = i;
            for (; i < end; previous = arrival_col[i++])
                if (arrival_col[i] < previous)
                    fail(path, i == 0 ? "malformed trace image (negative "
                                        "arrival time)"
                                      : "malformed trace image (arrival "
                                        "column not sorted)");
            if (streaming)
                releaseRange(map, header.arrivals_col_offset + begin * 8,
                             header.arrivals_col_offset + end * 8, page);
        }
    }
    if (index_offsets[function_count] != request_count)
        fail(path, "malformed trace image (arrival index does not cover "
                   "all requests)");
    for (std::uint64_t i = 0; i < function_count; ++i) {
        if (index_offsets[i] > index_offsets[i + 1])
            fail(path, "malformed trace image (arrival index offsets "
                       "not monotonic)");
        if (index_offsets[i + 1] - index_offsets[i] != rows[i])
            fail(path, "malformed trace image (arrival index does not "
                       "match the function column)");
    }

    if (streaming) {
        // Validation is done; hand residency control to the caller's
        // replay cursor (MADV_SEQUENTIAL would over-read ahead of the
        // arrival-index binary searches).
        ::madvise(map, actual, MADV_NORMAL);
    }

    image.header_ = header;
    image.columns_.functions = {image.functions_.data(),
                                image.functions_.size()};
    image.columns_.function = function_col;
    image.columns_.arrival_us = arrival_col;
    image.columns_.exec_us = reinterpret_cast<const sim::SimTime *>(
        bytes + header.exec_col_offset);
    image.columns_.request_count = request_count;
    image.columns_.index_offsets = index_offsets;
    image.columns_.index_values = reinterpret_cast<const sim::SimTime *>(
        bytes + header.index_values_offset);
    return image;
}

TraceImage::~TraceImage()
{
    reset();
}

TraceImage::TraceImage(TraceImage &&other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      functions_(std::move(other.functions_)),
      columns_(std::exchange(other.columns_, {})),
      header_(std::exchange(other.header_, {}))
{
    // columns_.functions spans functions_'s heap buffer, which the
    // vector move transferred intact — the span stays valid.
}

TraceImage &
TraceImage::operator=(TraceImage &&other) noexcept
{
    if (this != &other) {
        reset();
        map_ = std::exchange(other.map_, nullptr);
        map_bytes_ = std::exchange(other.map_bytes_, 0);
        functions_ = std::move(other.functions_);
        columns_ = std::exchange(other.columns_, {});
        header_ = std::exchange(other.header_, {});
    }
    return *this;
}

void
TraceImage::reset() noexcept
{
    if (map_ != nullptr)
        ::munmap(map_, map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
    functions_.clear();
    columns_ = {};
    header_ = {};
}

TraceView
TraceImage::view() const
{
    return TraceView(columns_);
}

void
TraceImage::adviseShardedGather() const
{
#if defined(__linux__)
    if (map_ == nullptr || columns_.request_count == 0)
        return;
    const long page_size = ::sysconf(_SC_PAGESIZE);
    const auto page = page_size > 0 ? static_cast<std::uintptr_t>(page_size)
                                    : std::uintptr_t{4096};
    const auto advise = [page](const void *begin, std::size_t bytes) {
        const auto addr = reinterpret_cast<std::uintptr_t>(begin);
        const auto aligned = addr & ~(page - 1);
        auto *start = reinterpret_cast<void *>(aligned);
        const std::size_t span = bytes + (addr - aligned);
        ::madvise(start, span, MADV_NORMAL);
        ::madvise(start, span, MADV_WILLNEED);
    };
    const auto n = static_cast<std::size_t>(columns_.request_count);
    advise(columns_.function, n * sizeof(*columns_.function));
    advise(columns_.arrival_us, n * sizeof(*columns_.arrival_us));
    advise(columns_.exec_us, n * sizeof(*columns_.exec_us));
#endif
}

} // namespace cidre::trace
