#include "trace/mtf.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#define MIPP_MTF_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mipp {

namespace {

constexpr char kHeaderMagic[8] = {'m', 'i', 'p', 'p', 'm', 't', 'f', 0};
constexpr char kFooterMagic[4] = {'m', 't', 'f', 'Z'};

/** Control-byte layout (docs/trace-format.md §record encoding). */
constexpr uint8_t kTypeMask = 0x0f;
constexpr uint8_t kInstBoundaryBit = 0x10;
constexpr uint8_t kTakenBit = 0x20;
constexpr uint8_t kReservedMask = 0xc0;

/** Largest canonical LEB128 length for a 64-bit value. */
constexpr int kMaxVarintBytes = 10;

uint64_t
fnv1a64(uint64_t h, const uint8_t *data, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr uint64_t kFnvInit = 14695981039346656037ull;

uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void
putLe32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
putLe64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
getLe32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getLe64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Decode one LEB128 varint from [p, end). Returns bytes consumed, or 0
 * on truncation / an over-long (> 10 byte) encoding.
 */
size_t
getVarint(const uint8_t *p, const uint8_t *end, uint64_t &v)
{
    v = 0;
    int shift = 0;
    for (int i = 0; i < kMaxVarintBytes && p + i < end; ++i) {
        uint8_t b = p[i];
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return static_cast<size_t>(i) + 1;
        shift += 7;
    }
    return 0;
}

} // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

MtfWriter::MtfWriter(std::ostream &os) : os_(os), fnv_(kFnvInit)
{
    buf_.reserve(1 << 16);
    uint8_t hdr[kMtfHeaderBytes] = {};
    std::memcpy(hdr, kHeaderMagic, sizeof kHeaderMagic);
    putLe32(hdr + 8, kMtfVersion);
    putLe32(hdr + 12, kMtfHeaderBytes);
    putLe64(hdr + 16, 0); // flags, zero in v1
    buf_.insert(buf_.end(), hdr, hdr + sizeof hdr);
}

MtfWriter::~MtfWriter() = default;

void
MtfWriter::put(uint8_t b)
{
    buf_.push_back(b);
    if (buf_.size() >= (1u << 16))
        flushBuf();
}

void
MtfWriter::putVarint(uint64_t v)
{
    do {
        uint8_t b = v & 0x7f;
        v >>= 7;
        put(b | (v ? 0x80 : 0));
    } while (v);
}

void
MtfWriter::flushBuf()
{
    if (buf_.empty())
        return;
    fnv_ = fnv1a64(fnv_, buf_.data(), buf_.size());
    os_.write(reinterpret_cast<const char *>(buf_.data()),
              static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
MtfWriter::append(const MicroOp &op)
{
    uint8_t ctl = static_cast<uint8_t>(op.type) & kTypeMask;
    if (op.instBoundary)
        ctl |= kInstBoundaryBit;
    if (op.taken)
        ctl |= kTakenBit;
    put(ctl);
    putVarint(zigzag(static_cast<int64_t>(op.pc - prevPc_)));
    prevPc_ = op.pc;
    // Operand bytes: kNoReg (-1) .. 31 mapped to 0 .. 32.
    put(static_cast<uint8_t>(op.src1 + 1));
    put(static_cast<uint8_t>(op.src2 + 1));
    put(static_cast<uint8_t>(op.dst + 1));
    if (isMemory(op.type)) {
        putVarint(zigzag(static_cast<int64_t>(op.addr - prevAddr_)));
        prevAddr_ = op.addr;
    }
    ++count_;
}

Status
MtfWriter::finish()
{
    if (finished_)
        return internalError("MtfWriter::finish called twice");
    finished_ = true;
    uint8_t tail[kMtfFooterBytes];
    std::memcpy(tail, kFooterMagic, sizeof kFooterMagic);
    putLe64(tail + 4, count_);
    // The checksum covers header + records + footer magic + count, so
    // tampering with the count invalidates it.
    buf_.insert(buf_.end(), tail, tail + 12);
    flushBuf();
    uint8_t sum[8];
    putLe64(sum, fnv_);
    os_.write(reinterpret_cast<const char *>(sum), 8);
    os_.flush();
    if (!os_)
        return internalError("mtf write: output stream failed");
    return Status::ok();
}

Status
writeMtf(const Trace &trace, std::ostream &os)
{
    MtfWriter w(os);
    for (const MicroOp &op : trace)
        w.append(op);
    return w.finish();
}

Status
saveMtf(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return invalidArgument("cannot write mtf file: " + path);
    Status st = writeMtf(trace, os);
    if (st.isOk() && !os)
        st = internalError("mtf write: I/O failure on " + path);
    return st;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/** Owns the raw bytes: either a heap copy or an mmap-ed region. */
struct MtfReader::Buffer {
    std::string owned;
    const uint8_t *data = nullptr;
    size_t size = 0;
#ifdef MIPP_MTF_HAVE_MMAP
    void *map = nullptr;
    size_t mapLen = 0;
#endif

    ~Buffer()
    {
#ifdef MIPP_MTF_HAVE_MMAP
        if (map)
            ::munmap(map, mapLen);
#endif
    }
};

MtfReader::MtfReader() = default;
MtfReader::~MtfReader() = default;
MtfReader::MtfReader(MtfReader &&) noexcept = default;
MtfReader &MtfReader::operator=(MtfReader &&) noexcept = default;
MtfReader::MtfReader(const MtfReader &) = default;
MtfReader &MtfReader::operator=(const MtfReader &) = default;

Status
MtfReader::validate(const MtfLimits &limits)
{
    const uint8_t *d = buf_->data;
    const size_t n = buf_->size;

    if (n > limits.maxBytes)
        return resourceExhausted(
            "mtf larger than the configured limit (" +
            std::to_string(limits.maxBytes) + " bytes)");
    if (n < kMtfHeaderBytes + kMtfFooterBytes)
        return corrupt("mtf too small to hold a header and footer (" +
                       std::to_string(n) + " bytes)");
    if (std::memcmp(d, kHeaderMagic, sizeof kHeaderMagic) != 0)
        return corrupt("not an mtf trace (bad magic)");

    uint32_t version = getLe32(d + 8);
    if (version != kMtfVersion)
        return invalidArgument("unsupported mtf version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kMtfVersion) + ")");
    uint32_t headerBytes = getLe32(d + 12);
    if (headerBytes != kMtfHeaderBytes)
        return corrupt("mtf v1 header size must be " +
                       std::to_string(kMtfHeaderBytes) + ", got " +
                       std::to_string(headerBytes));
    if (getLe64(d + 16) != 0)
        return corrupt("mtf v1 flags must be zero");

    const size_t footerAt = n - kMtfFooterBytes;
    if (std::memcmp(d + footerAt, kFooterMagic, sizeof kFooterMagic) != 0)
        return corrupt("mtf footer magic missing (truncated?)");
    uint64_t count = getLe64(d + footerAt + 4);
    uint64_t want = getLe64(d + footerAt + 12);
    if (fnv1a64(kFnvInit, d, footerAt + 12) != want)
        return corrupt("mtf checksum mismatch (bit rot or truncation)");

    // Bounds before any decode: the count must be plausible for the
    // record bytes present, so a count inflated behind a recomputed
    // checksum is rejected without touching the records.
    const size_t recordBytes = footerAt - kMtfHeaderBytes;
    if (count > limits.maxUops)
        return resourceExhausted(
            "mtf uop count " + std::to_string(count) +
            " exceeds limit " + std::to_string(limits.maxUops));
    if (count > recordBytes / kMtfMinRecordBytes)
        return corrupt("mtf uop count " + std::to_string(count) +
                       " not backed by record bytes (" +
                       std::to_string(recordBytes) + ")");

    // Full decode pass: prove every record so decode() is infallible.
    const uint8_t *p = d + kMtfHeaderBytes;
    const uint8_t *end = d + footerAt;
    for (uint64_t i = 0; i < count; ++i) {
        if (p >= end)
            return corrupt("mtf record " + std::to_string(i) +
                           " truncated");
        uint8_t ctl = *p++;
        if (ctl & kReservedMask)
            return corrupt("mtf record " + std::to_string(i) +
                           " has reserved control bits set");
        uint8_t type = ctl & kTypeMask;
        if (type >= static_cast<uint8_t>(UopType::NumTypes))
            return corrupt("mtf record " + std::to_string(i) +
                           " has invalid uop type " +
                           std::to_string(type));
        uint64_t delta = 0;
        size_t vn = getVarint(p, end, delta);
        if (vn == 0)
            return corrupt("mtf record " + std::to_string(i) +
                           " has a truncated or over-long pc delta");
        p += vn;
        if (end - p < 3)
            return corrupt("mtf record " + std::to_string(i) +
                           " truncated in operand bytes");
        for (int r = 0; r < 3; ++r) {
            if (p[r] > kNumRegs)
                return corrupt(
                    "mtf record " + std::to_string(i) +
                    " operand register " + std::to_string(p[r] - 1) +
                    " out of range");
        }
        p += 3;
        if (isMemory(static_cast<UopType>(type))) {
            vn = getVarint(p, end, delta);
            if (vn == 0)
                return corrupt(
                    "mtf record " + std::to_string(i) +
                    " has a truncated or over-long address delta");
            p += vn;
        }
    }
    if (p != end)
        return corrupt(
            "mtf has " + std::to_string(end - p) +
            " trailing record bytes beyond the footer uop count");

    info_.version = version;
    info_.uopCount = count;
    info_.fileBytes = n;
    info_.recordBytes = recordBytes;
    rewind();
    return Status::ok();
}

Status
MtfReader::parse(std::string bytes, MtfReader &out, const MtfLimits &limits)
{
    out = MtfReader();
    auto buf = std::make_shared<Buffer>();
    buf->owned = std::move(bytes);
    buf->data = reinterpret_cast<const uint8_t *>(buf->owned.data());
    buf->size = buf->owned.size();
    out.buf_ = std::move(buf);
    Status st = out.validate(limits);
    if (!st.isOk())
        out = MtfReader();
    return st;
}

Status
MtfReader::open(const std::string &path, MtfReader &out,
                const MtfLimits &limits)
{
    out = MtfReader();
    auto buf = std::make_shared<Buffer>();
#ifdef MIPP_MTF_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat stt {};
        if (::fstat(fd, &stt) == 0 && S_ISREG(stt.st_mode)) {
            size_t len = static_cast<size_t>(stt.st_size);
            if (len > limits.maxBytes) {
                ::close(fd);
                return resourceExhausted(
                    "mtf larger than the configured limit (" +
                    std::to_string(limits.maxBytes) + " bytes): " +
                    path);
            }
            if (len > 0) {
                void *m = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE,
                                 fd, 0);
                if (m != MAP_FAILED) {
                    buf->map = m;
                    buf->mapLen = len;
                    buf->data = static_cast<const uint8_t *>(m);
                    buf->size = len;
                }
            } else {
                buf->data =
                    reinterpret_cast<const uint8_t *>(buf->owned.data());
                buf->size = 0;
            }
        }
        ::close(fd);
    } else {
        return invalidArgument("cannot open mtf file: " + path);
    }
#endif
    if (!buf->data) {
        // Portable fallback: bounded slurp.
        std::ifstream is(path, std::ios::binary);
        if (!is)
            return invalidArgument("cannot open mtf file: " + path);
        char chunk[1 << 16];
        while (is) {
            is.read(chunk, sizeof chunk);
            size_t got = static_cast<size_t>(is.gcount());
            if (got == 0)
                break;
            if (buf->owned.size() + got > limits.maxBytes)
                return resourceExhausted(
                    "mtf larger than the configured limit (" +
                    std::to_string(limits.maxBytes) + " bytes): " +
                    path);
            buf->owned.append(chunk, got);
        }
        buf->data = reinterpret_cast<const uint8_t *>(buf->owned.data());
        buf->size = buf->owned.size();
    }
    out.buf_ = std::move(buf);
    Status st = out.validate(limits);
    if (!st.isOk())
        out = MtfReader();
    return st;
}

void
MtfReader::rewind()
{
    pos_ = kMtfHeaderBytes;
    decoded_ = 0;
    pc_ = 0;
    addr_ = 0;
}

size_t
MtfReader::decode(MicroOp *out, size_t maxUops)
{
    const uint8_t *d = buf_->data;
    const uint8_t *end = d + buf_->size - kMtfFooterBytes;
    size_t produced = 0;
    const uint8_t *p = d + pos_;
    while (produced < maxUops && decoded_ < info_.uopCount) {
        // validate() proved every record; this walk cannot overrun.
        uint8_t ctl = *p++;
        MicroOp op;
        op.type = static_cast<UopType>(ctl & kTypeMask);
        op.instBoundary = (ctl & kInstBoundaryBit) != 0;
        op.taken = (ctl & kTakenBit) != 0;
        uint64_t delta = 0;
        p += getVarint(p, end, delta);
        pc_ += static_cast<uint64_t>(unzigzag(delta));
        op.pc = pc_;
        op.src1 = static_cast<int8_t>(static_cast<int>(p[0]) - 1);
        op.src2 = static_cast<int8_t>(static_cast<int>(p[1]) - 1);
        op.dst = static_cast<int8_t>(static_cast<int>(p[2]) - 1);
        p += 3;
        if (isMemory(op.type)) {
            p += getVarint(p, end, delta);
            addr_ += static_cast<uint64_t>(unzigzag(delta));
            op.addr = addr_;
        }
        out[produced++] = op;
        ++decoded_;
    }
    pos_ = static_cast<size_t>(p - d);
    return produced;
}

// ---------------------------------------------------------------------------
// TraceSource adapter + materialization
// ---------------------------------------------------------------------------

Status
MtfTraceSource::open(const std::string &path,
                     std::unique_ptr<MtfTraceSource> &out,
                     const MtfLimits &limits)
{
    MtfReader reader;
    Status st = MtfReader::open(path, reader, limits);
    if (!st.isOk())
        return st;
    out = std::make_unique<MtfTraceSource>(std::move(reader));
    return Status::ok();
}

TraceSegment
MtfTraceSource::next(size_t maxUops)
{
    buf_.resize(std::min<uint64_t>(maxUops, reader_.uopCount() - base_));
    size_t n = reader_.decode(buf_.data(), buf_.size());
    TraceSegment seg{buf_.data(), n, base_};
    base_ += n;
    return seg;
}

void
MtfTraceSource::reset()
{
    reader_.rewind();
    base_ = 0;
}

std::string
traceBaseName(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base.resize(dot);
    return base.empty() ? "trace" : base;
}

Status
loadMtfTrace(const std::string &path, Trace &out, const MtfLimits &limits)
{
    MtfReader reader;
    Status st = MtfReader::open(path, reader, limits);
    if (!st.isOk())
        return st;
    std::vector<MicroOp> uops(reader.uopCount());
    size_t got = reader.decode(uops.data(), uops.size());
    if (got != uops.size())
        return internalError("mtf decode produced " +
                             std::to_string(got) + " of " +
                             std::to_string(uops.size()) + " uops");
    out = Trace(std::move(uops));
    return Status::ok();
}

} // namespace mipp
