/**
 * @file
 * The `.mtf` micro-op trace format — binary, versioned, checksummed.
 *
 * `.mtf` is the real-trace ingestion frontend (ROADMAP item 2): a
 * compact on-disk encoding of the exact MicroOp stream the whole
 * framework operates on, so any externally captured trace (a recorded
 * synthetic workload, a converted DynamoRIO/Intel-PT-style text dump)
 * can flow through the profiling driver (`profileSource` /
 * `profileSourceParallel`) at bounded memory and produce a Profile
 * *bit-identical* to profiling the same stream in memory.
 *
 * The byte-level layout is specified normatively in
 * `docs/trace-format.md`; the short version:
 *
 *     [header 24 B]  magic "mippmtf\0", version u32, headerBytes u32,
 *                    flags u64 (zero in v1)
 *     [records]      one variable-length record per uop: a control
 *                    byte (type + instBoundary/taken flags), a zigzag
 *                    LEB128 pc delta, three operand bytes, and for
 *                    Load/Store a zigzag LEB128 address delta
 *     [footer 20 B]  magic "mtfZ", uop count u64, FNV-1a-64 checksum
 *                    u64 over every preceding byte (header, records,
 *                    footer magic and count)
 *
 * Reading is hardened in the style of profile-format v2
 * (src/profiler/profile_io.hh): the file is size-capped before it is
 * mapped or read, magic/version/flags/checksum are validated before any
 * record is decoded, the footer uop count is cross-checked against the
 * record bytes actually present (a count inflated behind a recomputed
 * checksum is rejected before any allocation), and a full decode
 * validation pass runs at open so every later decode() is infallible.
 * Malformed bytes of any shape yield a structured Status — Corrupt /
 * InvalidArgument / ResourceExhausted — never UB (tests/test_mtf.cc
 * drives the malformed corpus under tests/corpus/ through this
 * promise).
 */

#ifndef MIPP_TRACE_MTF_HH
#define MIPP_TRACE_MTF_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_source.hh"
#include "util/status.hh"

namespace mipp {

/** Format version written by MtfWriter and accepted by MtfReader. */
constexpr uint32_t kMtfVersion = 1;
/** Fixed v1 header size in bytes. */
constexpr uint32_t kMtfHeaderBytes = 24;
/** Fixed footer size in bytes (magic + uop count + checksum). */
constexpr uint32_t kMtfFooterBytes = 20;
/** Smallest possible record: control + 1-byte pc delta + 3 operands. */
constexpr uint32_t kMtfMinRecordBytes = 5;

/**
 * Caps applied while opening untrusted `.mtf` bytes, mirroring
 * ProfileLimits. Defaults comfortably hold any trace this repo
 * records (~6 bytes/uop → 1 GiB ≈ 170M uops); a server can tighten
 * them per deployment.
 */
struct MtfLimits {
    size_t maxBytes = 1u << 30;     ///< whole-file size cap
    uint64_t maxUops = 1ull << 31;  ///< footer uop-count cap
};

/** Parsed header/footer facts of an opened `.mtf` stream. */
struct MtfInfo {
    uint32_t version = 0;
    uint64_t uopCount = 0;
    uint64_t fileBytes = 0;
    uint64_t recordBytes = 0;
    /** Mean encoded bytes per uop (fileBytes over uopCount). */
    double bytesPerUop() const
    {
        return uopCount ? static_cast<double>(fileBytes) / uopCount : 0.0;
    }
};

/**
 * Streaming `.mtf` encoder over any std::ostream. Bytes are emitted
 * strictly forward (no seeks), so the writer works on pipes: the uop
 * count lives in the footer, not the header. Usage:
 *
 *     MtfWriter w(os);
 *     for (const MicroOp &op : stream) w.append(op);
 *     Status st = w.finish();   // writes the footer, checks the stream
 */
class MtfWriter
{
  public:
    explicit MtfWriter(std::ostream &os);
    ~MtfWriter();

    MtfWriter(const MtfWriter &) = delete;
    MtfWriter &operator=(const MtfWriter &) = delete;

    /** Encode and buffer one uop. */
    void append(const MicroOp &op);

    /** Flush records and write the footer. Must be called exactly once;
     *  returns Internal if the underlying stream failed. */
    Status finish();

    uint64_t uopsWritten() const { return count_; }

  private:
    void put(uint8_t b);
    void putVarint(uint64_t v);
    void flushBuf();

    std::ostream &os_;
    std::vector<uint8_t> buf_;
    uint64_t fnv_;
    uint64_t count_ = 0;
    uint64_t prevPc_ = 0;
    uint64_t prevAddr_ = 0;
    bool finished_ = false;
};

/** Serialize a materialized trace to @p os as `.mtf`. */
Status writeMtf(const Trace &trace, std::ostream &os);

/** writeMtf to a file path. */
Status saveMtf(const Trace &trace, const std::string &path);

/**
 * Validated random-rewind decoder over an opened `.mtf` buffer.
 *
 * open()/parse() validate the complete frame — size caps, magic,
 * version, flags, checksum, footer count cross-checked against the
 * record bytes, and a full decode pass over every record — so decode()
 * on a successfully opened reader cannot fail. Files are mapped with
 * mmap where available (the buffer is paged by the OS, not copied to
 * the heap) and slurped through bounded reads otherwise.
 */
class MtfReader
{
  public:
    MtfReader();
    ~MtfReader();
    MtfReader(MtfReader &&) noexcept;
    MtfReader &operator=(MtfReader &&) noexcept;
    // Copies share the (immutable) mapped buffer and get an independent
    // decode cursor — cheap, and handy for multi-pass consumers.
    MtfReader(const MtfReader &);
    MtfReader &operator=(const MtfReader &);

    /** Open and fully validate @p path. On failure @p out is reset. */
    static Status open(const std::string &path, MtfReader &out,
                       const MtfLimits &limits = {});

    /** open() over an in-memory byte buffer (tests, socket uploads). */
    static Status parse(std::string bytes, MtfReader &out,
                        const MtfLimits &limits = {});

    const MtfInfo &info() const { return info_; }
    uint64_t uopCount() const { return info_.uopCount; }

    /**
     * Decode up to @p maxUops further uops into @p out. Returns the
     * number produced; 0 at end of stream. Never fails on an opened
     * reader (the open-time validation pass proved every record).
     */
    size_t decode(MicroOp *out, size_t maxUops);

    /** Rewind the decode cursor to the first record. */
    void rewind();

  private:
    struct Buffer;

    Status validate(const MtfLimits &limits);

    std::shared_ptr<const Buffer> buf_;
    MtfInfo info_;
    // Decode cursor.
    size_t pos_ = 0;       ///< byte offset of the next record
    uint64_t decoded_ = 0; ///< uops decoded so far
    uint64_t pc_ = 0;      ///< pc delta predictor state
    uint64_t addr_ = 0;    ///< memory-address delta predictor state
};

/**
 * TraceSource over an opened `.mtf` file: next() decodes the following
 * segment into one reused buffer (at most maxUops resident uops, never
 * more than remain; the file itself stays mmap-ed/paged), so
 * `profileSource` and `profileSourceParallel` ingest any `.mtf` at
 * bounded memory. Each span dies on the next next() call, so a
 * parallel batch copies its segments out.
 */
class MtfTraceSource final : public TraceSource
{
  public:
    /** Open @p path fully validated; on success @p out is live. */
    static Status open(const std::string &path,
                       std::unique_ptr<MtfTraceSource> &out,
                       const MtfLimits &limits = {});

    explicit MtfTraceSource(MtfReader reader) : reader_(std::move(reader))
    {
    }

    uint64_t sizeHint() const override { return reader_.uopCount(); }

    TraceSegment next(size_t maxUops) override;

    void reset() override;

    const MtfInfo &info() const { return reader_.info(); }

  private:
    MtfReader reader_;
    std::vector<MicroOp> buf_;
    uint64_t base_ = 0;
};

/** Materialize a whole `.mtf` file as a Trace (simulator-side use:
 *  accuracy/calibrate harnesses need the instruction stream). */
Status loadMtfTrace(const std::string &path, Trace &out,
                    const MtfLimits &limits = {});

/** The workload name a trace file stands for: its file name without
 *  the extension ("runs/stream_add.mtf" → "stream_add"); "trace" when
 *  that leaves nothing. */
std::string traceBaseName(const std::string &path);

} // namespace mipp

#endif // MIPP_TRACE_MTF_HH
