/**
 * @file
 * Crash-consistent binary artifact I/O.
 *
 * Every binary artifact the framework persists (model checkpoints,
 * training checkpoints, binary event datasets) goes through this
 * layer: the payload is assembled in memory with a ByteWriter, then
 * committed with writeFileAtomic — tmp file + fsync + rename, with a
 * CRC32 footer — so a crash mid-write can never leave a torn file
 * behind, and silent corruption (truncation, bit flips) is detected
 * on load instead of being deserialized into garbage weights.
 */

#ifndef CASCADE_UTIL_BINIO_HH
#define CASCADE_UTIL_BINIO_HH

#include <cstdint>
#include <string>
#include <utility>

namespace cascade {

/** CRC32 (IEEE 802.3 polynomial, the zlib convention). */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/** Little-endian append-only buffer for binary artifacts. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /**
     * Write into `storage`'s memory: its content is dropped and its
     * capacity kept, so re-encoding a payload of the same size into
     * the previous payload's string allocates nothing.
     */
    explicit ByteWriter(std::string storage) : buf_(std::move(storage))
    {
        buf_.clear();
    }

    void u8(uint8_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void f32(float v);
    void f64(double v);
    void bytes(const void *data, size_t len);
    /** Length-prefixed string (u64 length + raw bytes). */
    void str(const std::string &s);
    /** Overwrite the u64 written earlier at byte offset `at`. */
    void patchU64(size_t at, uint64_t v);

    const std::string &buffer() const { return buf_; }
    size_t size() const { return buf_.size(); }
    /** Move the buffer out, leaving the writer empty. */
    std::string take() { return std::exchange(buf_, std::string()); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked cursor over a binary payload. Every read returns
 * false on exhaustion instead of reading past the end, so corrupt
 * length fields fail loudly rather than fault.
 */
class ByteReader
{
  public:
    ByteReader(const void *data, size_t len)
        : p_(static_cast<const char *>(data)), len_(len)
    {}
    explicit ByteReader(const std::string &buf)
        : ByteReader(buf.data(), buf.size())
    {}

    bool u8(uint8_t &v);
    bool u32(uint32_t &v);
    bool u64(uint64_t &v);
    bool f32(float &v);
    bool f64(double &v);
    bool bytes(void *out, size_t len);
    bool str(std::string &s);
    /** Carve out a length-prefixed sub-payload as its own reader. */
    bool sub(ByteReader &out);

    size_t remaining() const { return len_ - pos_; }
    bool atEnd() const { return pos_ == len_; }

  private:
    const char *p_;
    size_t len_;
    size_t pos_ = 0;
};

/**
 * Commit a payload to `path` crash-consistently: write payload plus a
 * 4-byte CRC32 footer to `path.tmp`, fsync, rename over `path`, then
 * fsync the containing directory so the rename itself is durable.
 * The destination either keeps its old content or holds the complete
 * new artifact — never a torn mix. Every write()/flush()/fsync()/
 * close() return value is checked: a short write (ENOSPC, quota) is
 * surfaced as a clean failure, never a silently truncated artifact.
 * Honors the injectable I/O fault surface (util/fault.hh):
 * WRITE_FAIL_NTH, TORN_WRITE_NTH, SHORT_WRITE_BYTES, ENOSPC_NTH.
 * @return false on any detected I/O failure (the tmp file is
 *         removed); note an injected *torn* write reports success by
 *         design — only the CRC check on load can catch it
 */
bool writeFileAtomic(const std::string &path, const std::string &payload);

/**
 * Read a file written by writeFileAtomic, validating the CRC32
 * footer. @return false if the file is missing, shorter than the
 * footer, or the checksum does not match; `payload` is only assigned
 * on success.
 */
bool readFileValidated(const std::string &path, std::string &payload);

/**
 * @name Checked filesystem primitives
 * The project-invariant linter forbids unchecked ::write/::close/
 * rename calls outside this TU (tools/lint_cascade.py, rule
 * `unchecked-io`); callers that need to move, probe, create or drop
 * files — checkpoint generation rotation, write-window markers — go
 * through these helpers instead of raw libc.
 */
/** @{ */

/** True when `path` exists (any file type). */
bool fileExists(const std::string &path);

/**
 * Rename `from` over `to` and fsync the destination directory so the
 * rename survives a power loss. @return false on failure.
 */
bool renameFile(const std::string &from, const std::string &to);

/**
 * Remove `path` if it exists. @return false only when a file exists
 * and could not be removed (a missing file is success).
 */
bool removeFileIfExists(const std::string &path);

/**
 * Create (or truncate) an empty marker file at `path`. Not atomic and
 * not CRC-framed on purpose: markers carry presence, not content.
 */
bool touchFile(const std::string &path);

/** @} */

/**
 * @name Out-of-core file primitives
 * The event log (graph/eventlog.hh) streams multi-gigabyte synthetic
 * traces through two checked building blocks: an append-only writer
 * whose every write/fsync/close return is consumed, and a read-only
 * memory mapping with page-drop hints so a sequential training pass
 * never accumulates the whole file in resident memory. Raw syscalls
 * stay inside this TU per the `unchecked-io` lint rule.
 */
/** @{ */

/**
 * Checked append-only file writer. Unlike writeFileAtomic this is a
 * *streaming* sink — callers frame their own payload (the event log
 * CRCs each chunk) and decide which prefix of the file is valid on
 * reload. Fault injection for the log lives in the framing layer
 * (graph/eventlog.cc), not here, so a torn chunk is an ordinary
 * sequence of checked short appends.
 */
class AppendFile
{
  public:
    AppendFile() = default;
    ~AppendFile();
    AppendFile(const AppendFile &) = delete;
    AppendFile &operator=(const AppendFile &) = delete;

    /** Open (creating/truncating) `path` for appending. */
    bool open(const std::string &path);
    /** Append exactly `len` bytes, retrying EINTR/short writes. */
    bool append(const void *data, size_t len);
    /** Append at most `limit` bytes of `data` (torn-tail injection). */
    bool appendPrefix(const std::string &data, size_t limit);
    /** Flush to the platter (fsync). */
    bool sync();
    /** fsync + close; false if any step failed. Idempotent. */
    bool close();

    bool isOpen() const { return fd_ >= 0; }
    size_t bytesWritten() const { return written_; }

  private:
    int fd_ = -1;
    size_t written_ = 0;
};

/**
 * Read-only memory mapping of a whole file. The mapping is immutable
 * bytes — safe to read from any number of threads. `dropBehind`
 * releases the resident pages of a consumed prefix (MADV_DONTNEED)
 * so a single forward pass over a file ≫ RAM keeps a bounded
 * footprint; dropped pages fault back in transparently if re-read.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();
    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** Map `path` read-only; false if missing/unmappable (empty files
     *  map successfully with size() == 0). */
    bool open(const std::string &path);
    void close();

    const uint8_t *data() const { return data_; }
    size_t size() const { return size_; }
    bool isOpen() const { return data_ != nullptr || mapped_; }

    /** Hint a one-way sequential scan (aggressive readahead). */
    void adviseSequential() const;
    /** Drop resident pages of [0, offset) — advisory, never fails the
     *  caller; offset is rounded down to a page boundary. */
    void dropBehind(size_t offset) const;

  private:
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    bool mapped_ = false; ///< distinguishes an open empty file
};

/** @} */

/**
 * @name Framed message I/O over local stream sockets
 * The supervisor <-> worker transport of the sharded trainer
 * (train/shard.hh): length-prefixed, CRC32-checked frames over a
 * SOCK_STREAM socketpair. Writes never raise SIGPIPE (a SIGKILL'd
 * peer surfaces as a clean write failure); reads take a poll()
 * deadline so a hung worker trips the supervisor's watchdog instead
 * of blocking the run forever. Like the atomic-file path, every raw
 * syscall return is checked here, inside the sanctioned zone.
 */
/** @{ */

/** Outcome of one framed read. */
enum class FrameStatus
{
    Ok,      ///< a complete, CRC-valid frame was read
    Eof,     ///< the peer closed (or died — SIGKILL looks like this)
    Timeout, ///< no complete frame within the deadline
    Error    ///< syscall failure or a corrupt/oversized frame
};

/**
 * Write one frame (header + payload + CRC32) to a local stream
 * socket, retrying short writes and EINTR. @return false when the
 * peer is gone or any write fails.
 */
bool writeFrameFd(int fd, const std::string &payload);

/**
 * Read one complete frame. `timeout_ms` bounds each wait for more
 * bytes (-1 = block indefinitely); a deadline expiry mid-frame also
 * returns Timeout. `payload` is only assigned on Ok.
 */
FrameStatus readFrameFd(int fd, std::string &payload, int timeout_ms);

/** @} */

} // namespace cascade

#endif // CASCADE_UTIL_BINIO_HH
