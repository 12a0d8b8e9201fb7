/**
 * @file
 * Tiny binary state serialization used by engine checkpoint/restore.
 *
 * StateWriter appends trivially-copyable values to a growable byte
 * buffer; StateReader plays them back with strict bounds checking
 * (every short read throws, so a truncated checkpoint can never be
 * half-applied).  The encoding is raw little-endian PODs with u64
 * length prefixes for vectors/strings — the checkpoint container
 * (core/checkpoint) adds versioning, checksums and a config
 * fingerprint on top, so this layer stays dumb and fast.
 */

#ifndef CIDRE_SIM_SERIALIZE_H
#define CIDRE_SIM_SERIALIZE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace cidre::sim {

/** Appends PODs to a byte buffer. */
class StateWriter
{
  public:
    /**
     * Starts with a little capacity.  Besides skipping the first
     * reallocations, this keeps GCC 12 from reporting a false
     * -Wstringop-overflow for the first insert into an empty buffer.
     */
    StateWriter() { buffer_.reserve(64); }

    template <typename T> void put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "StateWriter::put requires a POD type");
        const auto *raw = reinterpret_cast<const std::byte *>(&value);
        buffer_.insert(buffer_.end(), raw, raw + sizeof(T));
    }

    void putBytes(const void *data, std::size_t size)
    {
        const auto *raw = static_cast<const std::byte *>(data);
        buffer_.insert(buffer_.end(), raw, raw + size);
    }

    /** u64 length prefix + raw element bytes. */
    template <typename T> void putVector(const std::vector<T> &values)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "StateWriter::putVector requires POD elements");
        put<std::uint64_t>(values.size());
        if (!values.empty())
            putBytes(values.data(), values.size() * sizeof(T));
    }

    void putString(const std::string &value)
    {
        put<std::uint64_t>(value.size());
        putBytes(value.data(), value.size());
    }

    const std::vector<std::byte> &bytes() const { return buffer_; }
    std::vector<std::byte> release() { return std::move(buffer_); }

  private:
    std::vector<std::byte> buffer_;
};

/** Bounds-checked playback of a StateWriter buffer. */
class StateReader
{
  public:
    StateReader(const std::byte *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<std::byte> &buffer)
        : StateReader(buffer.data(), buffer.size())
    {
    }

    /**
     * A bool is read as one byte that must be 0 or 1: any other byte
     * would be an invalid bool value, so it throws instead.
     */
    template <typename T> T get()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "StateReader::get requires a POD type");
        if constexpr (std::is_same_v<T, bool>) {
            const auto byte = get<std::uint8_t>();
            if (byte > 1)
                throw std::runtime_error(
                    "StateReader: corrupt bool in checkpoint payload");
            return byte == 1;
        } else {
            T value;
            getBytes(&value, sizeof(T));
            return value;
        }
    }

    void getBytes(void *out, std::size_t size)
    {
        if (size > size_ - pos_ || pos_ > size_)
            throw std::runtime_error(
                "StateReader: truncated checkpoint payload");
        std::memcpy(out, data_ + pos_, size);
        pos_ += size;
    }

    template <typename T> std::vector<T> getVector()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "StateReader::getVector requires POD elements");
        const std::uint64_t count = get<std::uint64_t>();
        checkCount(count, sizeof(T));
        std::vector<T> values(static_cast<std::size_t>(count));
        if (count > 0)
            getBytes(values.data(),
                     static_cast<std::size_t>(count) * sizeof(T));
        return values;
    }

    std::string getString()
    {
        const std::uint64_t count = get<std::uint64_t>();
        checkCount(count, 1);
        std::string value(static_cast<std::size_t>(count), '\0');
        if (count > 0)
            getBytes(value.data(), static_cast<std::size_t>(count));
        return value;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    /** A hostile length prefix must not drive a huge allocation. */
    void checkCount(std::uint64_t count, std::size_t elem_size) const
    {
        if (count > (size_ - pos_) / elem_size)
            throw std::runtime_error(
                "StateReader: truncated checkpoint payload");
    }

    const std::byte *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace cidre::sim

#endif // CIDRE_SIM_SERIALIZE_H
