#include "util/binio.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "util/fault.hh"
#include "util/logging.hh"

#ifdef _WIN32
#include <io.h>
#else
#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cascade {

namespace {

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/**
 * CRC32 slicing-by-8 tables. tables[0] is the classic bytewise
 * table; tables[k] advances a byte through k additional zero bytes,
 * which lets the hot loop fold eight input bytes per iteration
 * instead of one. The checksum produced is bit-identical to the
 * bytewise algorithm — only the throughput changes (multi-megabyte
 * checkpoint images are CRC'd on the commit path every cadence
 * point). A magic static keeps initialisation thread-safe: the
 * session's background checkpoint writer and the training thread
 * both checksum.
 */
struct CrcTables
{
    uint32_t t[8][256];

    CrcTables()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (int k = 1; k < 8; ++k) {
            for (uint32_t i = 0; i < 256; ++i)
                t[k][i] = t[k - 1][i] >> 8 ^ t[0][t[k - 1][i] & 0xffu];
        }
    }
};

const CrcTables &
crcTables()
{
    static const CrcTables tables;
    return tables;
}

} // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const auto &t = crcTables().t;
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    while (len >= 8) {
        // Byte-compose the two words so the fold is endian-neutral;
        // on little-endian targets this lowers to two plain loads.
        const uint32_t lo = c ^
            (static_cast<uint32_t>(p[0]) |
             static_cast<uint32_t>(p[1]) << 8 |
             static_cast<uint32_t>(p[2]) << 16 |
             static_cast<uint32_t>(p[3]) << 24);
        const uint32_t hi =
            static_cast<uint32_t>(p[4]) |
            static_cast<uint32_t>(p[5]) << 8 |
            static_cast<uint32_t>(p[6]) << 16 |
            static_cast<uint32_t>(p[7]) << 24;
        c = t[7][lo & 0xffu] ^ t[6][lo >> 8 & 0xffu] ^
            t[5][lo >> 16 & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][hi >> 8 & 0xffu] ^
            t[1][hi >> 16 & 0xffu] ^ t[0][hi >> 24];
        p += 8;
        len -= 8;
    }
    while (len-- > 0)
        c = t[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
ByteWriter::u8(uint8_t v)
{
    buf_.push_back(static_cast<char>(v));
}

void
ByteWriter::u32(uint32_t v)
{
    bytes(&v, sizeof(v));
}

void
ByteWriter::u64(uint64_t v)
{
    bytes(&v, sizeof(v));
}

void
ByteWriter::f32(float v)
{
    bytes(&v, sizeof(v));
}

void
ByteWriter::f64(double v)
{
    bytes(&v, sizeof(v));
}

void
ByteWriter::bytes(const void *data, size_t len)
{
    buf_.append(static_cast<const char *>(data), len);
}

void
ByteWriter::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
ByteWriter::patchU64(size_t at, uint64_t v)
{
    CASCADE_CHECK(at <= buf_.size() && buf_.size() - at >= sizeof(v),
                  "ByteWriter::patchU64 past the end");
    std::memcpy(&buf_[at], &v, sizeof(v));
}

bool
ByteReader::u8(uint8_t &v)
{
    return bytes(&v, sizeof(v));
}

bool
ByteReader::u32(uint32_t &v)
{
    return bytes(&v, sizeof(v));
}

bool
ByteReader::u64(uint64_t &v)
{
    return bytes(&v, sizeof(v));
}

bool
ByteReader::f32(float &v)
{
    return bytes(&v, sizeof(v));
}

bool
ByteReader::f64(double &v)
{
    return bytes(&v, sizeof(v));
}

bool
ByteReader::bytes(void *out, size_t len)
{
    if (len > len_ - pos_)
        return false;
    std::memcpy(out, p_ + pos_, len);
    pos_ += len;
    return true;
}

bool
ByteReader::str(std::string &s)
{
    uint64_t n = 0;
    if (!u64(n) || n > len_ - pos_)
        return false;
    s.assign(p_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
}

bool
ByteReader::sub(ByteReader &out)
{
    uint64_t n = 0;
    if (!u64(n) || n > len_ - pos_)
        return false;
    out = ByteReader(p_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
}

namespace {

/**
 * fsync the directory containing `path`, so a rename that just made a
 * file visible under it survives a power loss. Windows has no
 * directory handles to fsync; the rename there is best-effort.
 */
bool
fsyncParentDir(const std::string &path)
{
#ifdef _WIN32
    (void)path;
    return true;
#else
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    const bool synced = ::fsync(fd) == 0;
    const bool closed = ::close(fd) == 0;
    return synced && closed;
#endif
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &payload)
{
    using Kind = fault::WriteFaultAction::Kind;
    const fault::WriteFaultAction fa = fault::onAtomicFileWrite(path);
    if (fa.kind == Kind::FailEarly)
        return false;

    // The on-disk frame is payload || crc32(payload). The injected cut
    // points (torn/short/ENOSPC) slice that one logical byte stream,
    // exactly like a real partial write would — but the frame is never
    // materialised: for multi-megabyte checkpoints the extra copy
    // streams a second image of the payload through the caches the
    // training threads are running hot in.
    const uint32_t crc = crc32(payload.data(), payload.size());
    const char *crc_bytes = reinterpret_cast<const char *>(&crc);
    const size_t frame_len = payload.size() + sizeof(crc);

    size_t to_write = frame_len;
    bool injected_cut = false; // a cut binio must detect and surface
    switch (fa.kind) {
    case Kind::Torn:
        // Torn write: the truncated frame is committed and reported
        // as success — modeling a crash after rename but before the
        // data hit the platter. Only the loader's CRC catches it.
        to_write = frame_len / 2;
        break;
    case Kind::Short:
        if (static_cast<size_t>(fa.bytes) < to_write) {
            to_write = static_cast<size_t>(fa.bytes);
            injected_cut = true;
        }
        break;
    case Kind::Enospc:
        to_write = frame_len / 2;
        injected_cut = true;
        break;
    default:
        break;
    }

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;

    const size_t n_payload = std::min(to_write, payload.size());
    const size_t n_crc = to_write - n_payload;
    bool ok = n_payload == 0 ||
        std::fwrite(payload.data(), 1, n_payload, f) == n_payload;
    ok = ok &&
        (n_crc == 0 || std::fwrite(crc_bytes, 1, n_crc, f) == n_crc);
    ok = ok && std::fflush(f) == 0;
#ifndef _WIN32
    // Durability: the data must hit the disk before the rename makes
    // it visible, or a power loss could expose a hollow rename.
    ok = ok && ::fsync(::fileno(f)) == 0;
    // The image is write-once from this process's point of view: once
    // durable, drop its pages so a checkpoint writer running behind
    // the training loop doesn't evict the model's working set from
    // the page cache. Purely advisory — a failure is not an error.
    if (ok)
        (void)::posix_fadvise(::fileno(f), 0, 0, POSIX_FADV_DONTNEED);
#endif
    // A failing close can be the *first* report of a write error
    // (delayed allocation on ENOSPC); it must not be dropped.
    ok = std::fclose(f) == 0 && ok;
    if (injected_cut || !ok ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        (void)std::remove(tmp.c_str());
        return false;
    }
    // The rename is only durable once the directory entry is synced.
    return fsyncParentDir(path);
}

bool
fileExists(const std::string &path)
{
#ifdef _WIN32
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    (void)std::fclose(f);
    return true;
#else
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
#endif
}

bool
renameFile(const std::string &from, const std::string &to)
{
    if (std::rename(from.c_str(), to.c_str()) != 0)
        return false;
    return fsyncParentDir(to);
}

bool
removeFileIfExists(const std::string &path)
{
    if (!fileExists(path))
        return true;
    return std::remove(path.c_str()) == 0;
}

bool
touchFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    return std::fclose(f) == 0;
}

bool
readFileValidated(const std::string &path, std::string &payload)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return false;
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return false;
    const long size = std::ftell(f.get());
    if (size < static_cast<long>(sizeof(uint32_t)) ||
        std::fseek(f.get(), 0, SEEK_SET) != 0) {
        return false;
    }
    std::string data(static_cast<size_t>(size), '\0');
    if (!data.empty() &&
        std::fread(data.data(), 1, data.size(), f.get()) != data.size()) {
        return false;
    }
    const size_t body = data.size() - sizeof(uint32_t);
    uint32_t stored = 0;
    std::memcpy(&stored, data.data() + body, sizeof(stored));
    if (crc32(data.data(), body) != stored)
        return false;
    data.resize(body);
    payload = std::move(data);
    return true;
}

#ifndef _WIN32

AppendFile::~AppendFile()
{
    (void)close();
}

bool
AppendFile::open(const std::string &path)
{
    if (fd_ >= 0)
        return false;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    written_ = 0;
    return fd_ >= 0;
}

bool
AppendFile::append(const void *data, size_t len)
{
    if (fd_ < 0)
        return false;
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd_, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        p += n;
        len -= static_cast<size_t>(n);
        written_ += static_cast<size_t>(n);
    }
    return true;
}

bool
AppendFile::appendPrefix(const std::string &data, size_t limit)
{
    return append(data.data(), std::min(data.size(), limit));
}

bool
AppendFile::sync()
{
    return fd_ >= 0 && ::fsync(fd_) == 0;
}

bool
AppendFile::close()
{
    if (fd_ < 0)
        return true;
    const bool synced = ::fsync(fd_) == 0;
    const bool closed = ::close(fd_) == 0;
    fd_ = -1;
    return synced && closed;
}

MappedFile::~MappedFile()
{
    close();
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(other.data_), size_(other.size_), mapped_(other.mapped_)
{
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        close();
        data_ = other.data_;
        size_ = other.size_;
        mapped_ = other.mapped_;
        other.data_ = nullptr;
        other.size_ = 0;
        other.mapped_ = false;
    }
    return *this;
}

bool
MappedFile::open(const std::string &path)
{
    close();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        (void)::close(fd);
        return false;
    }
    size_ = static_cast<size_t>(st.st_size);
    if (size_ == 0) {
        // An empty file has nothing to map but is a valid open.
        mapped_ = true;
        const bool ok = ::close(fd) == 0;
        if (!ok)
            mapped_ = false;
        return ok;
    }
    void *p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    // The mapping keeps its own reference; the descriptor can go
    // either way without affecting it, but a failed close still
    // signals descriptor-table trouble worth surfacing.
    const bool closed = ::close(fd) == 0;
    if (p == MAP_FAILED || !closed) {
        if (p != MAP_FAILED)
            (void)::munmap(p, size_);
        data_ = nullptr;
        size_ = 0;
        return false;
    }
    data_ = static_cast<const uint8_t *>(p);
    mapped_ = true;
    return true;
}

void
MappedFile::close()
{
    if (data_ != nullptr)
        (void)::munmap(const_cast<uint8_t *>(data_), size_);
    data_ = nullptr;
    size_ = 0;
    mapped_ = false;
}

void
MappedFile::adviseSequential() const
{
    if (data_ != nullptr) {
        (void)::madvise(const_cast<uint8_t *>(data_), size_,
                        MADV_SEQUENTIAL);
    }
}

void
MappedFile::dropBehind(size_t offset) const
{
    if (data_ == nullptr)
        return;
    const size_t page = 4096;
    const size_t end = std::min(offset, size_) / page * page;
    if (end > 0) {
        (void)::madvise(const_cast<uint8_t *>(data_), end,
                        MADV_DONTNEED);
    }
}

namespace {

/** Frame header: magic, payload length, payload CRC32. */
constexpr uint32_t kFrameMagic = 0x43534652u; // "CSFR"
/** Sanity bound on frame payloads (state blobs are megabytes). */
constexpr uint32_t kFrameMaxBytes = 1u << 30;

/**
 * Send every byte, retrying EINTR and short writes. MSG_NOSIGNAL
 * turns a dead peer into a clean EPIPE failure instead of SIGPIPE —
 * the supervisor must survive writing to a SIGKILL'd worker.
 */
bool
sendAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

/**
 * Receive exactly `len` bytes, polling with `timeout_ms` before each
 * read so a hung or dead peer is detected instead of waited on.
 */
FrameStatus
recvAll(int fd, void *out, size_t len, int timeout_ms)
{
    char *p = static_cast<char *>(out);
    while (len > 0) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int pr = ::poll(&pfd, 1, timeout_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::Error;
        }
        if (pr == 0)
            return FrameStatus::Timeout;
        const ssize_t n = ::recv(fd, p, len, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::Error;
        }
        if (n == 0)
            return FrameStatus::Eof;
        p += n;
        len -= static_cast<size_t>(n);
    }
    return FrameStatus::Ok;
}

} // namespace

bool
writeFrameFd(int fd, const std::string &payload)
{
    if (payload.size() > kFrameMaxBytes)
        return false;
    uint32_t header[3];
    header[0] = kFrameMagic;
    header[1] = static_cast<uint32_t>(payload.size());
    header[2] = crc32(payload.data(), payload.size());
    return sendAll(fd, header, sizeof(header)) &&
           (payload.empty() ||
            sendAll(fd, payload.data(), payload.size()));
}

FrameStatus
readFrameFd(int fd, std::string &payload, int timeout_ms)
{
    uint32_t header[3];
    FrameStatus st = recvAll(fd, header, sizeof(header), timeout_ms);
    if (st != FrameStatus::Ok)
        return st;
    if (header[0] != kFrameMagic || header[1] > kFrameMaxBytes)
        return FrameStatus::Error;
    std::string body(header[1], '\0');
    if (!body.empty()) {
        st = recvAll(fd, body.data(), body.size(), timeout_ms);
        if (st != FrameStatus::Ok)
            return st;
    }
    if (crc32(body.data(), body.size()) != header[2])
        return FrameStatus::Error;
    payload = std::move(body);
    return FrameStatus::Ok;
}

#endif // !_WIN32

} // namespace cascade
