#include "profiler/profile_io.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <fstream>
#include <type_traits>

#include "util/failpoint.hh"

namespace mipp {

namespace {

constexpr const char *kMagic = "mipp-profile";
constexpr int kVersion = 2;

/** FNV-1a over the payload: cheap, dependency-free, and plenty to catch
 *  truncation/bit rot — this is integrity, not authentication. */
uint64_t
fnv1a64(std::string_view bytes)
{
    uint64_t h = 14695981039346656037ull;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Payload text builder. Integers print in decimal and doubles as
 * printf's %.17g (to_chars general, precision 17), so every double
 * round-trips exactly; a float field prints as the double it promotes
 * to.
 */
struct Text {
    std::string s;

    Text &
    operator<<(char c)
    {
        s += c;
        return *this;
    }

    Text &
    operator<<(std::string_view v)
    {
        s += v;
        return *this;
    }

    Text &
    operator<<(std::integral auto v)
    {
        char buf[24];
        s.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }

    Text &
    operator<<(double v)
    {
        char buf[32];
        s.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::general, 17)
                          .ptr);
        return *this;
    }
};

void
writeHistogram(Text &out, const char *tag, const LogHistogram &h)
{
    // Sparse: only non-empty bins.
    size_t nonEmpty = 0;
    for (size_t b = 0; b < h.numBins(); ++b)
        nonEmpty += h.binCount(b) > 0;
    out << tag << ' ' << nonEmpty << ' ' << h.infiniteCount() << '\n';
    for (size_t b = 0; b < h.numBins(); ++b) {
        if (h.binCount(b) > 0)
            out << b << ' ' << h.binCount(b) << '\n';
    }
}

/** C-locale whitespace (space, \t, \n, \v, \f, \r): the field
 *  separators. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * Checked token/field reader: a cursor over the payload bytes, read in
 * place. Every extraction failure, bound violation or token mismatch
 * latches a Status; subsequent reads become no-ops so the parse unwinds
 * without touching further state.
 *
 * A number starts after any whitespace: an optional '+', then what
 * std::from_chars takes for the field's type — decimal digits, with a
 * '-' only on signed and floating fields; a floating field takes a
 * decimal fraction and exponent and must be finite (no inf, nan or
 * hex). It ends where from_chars stops.
 */
struct In {
    const char *p;
    const char *end;
    const ProfileLimits &limits;
    Status st;

    In(std::string_view text, const ProfileLimits &limits)
        : p(text.data()), end(text.data() + text.size()), limits(limits)
    {
    }

    bool ok() const { return st.isOk(); }

    bool
    fail(const std::string &msg)
    {
        if (st.isOk())
            st = corrupt("profile parse: " + msg);
        return false;
    }

    void
    skipSpace()
    {
        while (p < end && isSpace(*p))
            ++p;
    }

    /** The next whitespace-delimited token; empty at the end. */
    std::string_view
    token()
    {
        skipSpace();
        const char *b = p;
        while (p < end && !isSpace(*p))
            ++p;
        return {b, static_cast<size_t>(p - b)};
    }

    template <typename T>
    bool
    get(T &v)
    {
        if (!ok())
            return false;
        skipSpace();
        const char *b = p;
        if (b < end && *b == '+') {
            ++b; // the grammar allows a '+'; from_chars does not
            if (b < end && *b == '-')
                return fail("truncated or malformed field");
        }
        auto [next, ec] = std::from_chars(b, end, v);
        if (ec != std::errc())
            return fail("truncated or malformed field");
        if constexpr (std::is_floating_point_v<T>)
            if (!std::isfinite(v))
                return fail("truncated or malformed field");
        p = next;
        return true;
    }

    bool
    expect(std::string_view want)
    {
        if (!ok())
            return false;
        std::string_view t = token();
        if (t.empty())
            return fail("truncated input, expected '" + std::string(want) +
                        "'");
        if (t != want)
            return fail("expected '" + std::string(want) + "', got '" +
                        std::string(t) + "'");
        return true;
    }

    /** Bytes not yet consumed — upper-bounds any plausible item count. */
    size_t remaining() const { return static_cast<size_t>(end - p); }

    /**
     * Read a count that drives an allocation: capped by @p cap and by
     * the bytes actually left (every serialized item takes >= 2 bytes,
     * so a count beyond remaining()/2+1 cannot be backed by data —
     * rejected before resize()/reserve() can OOM).
     */
    bool
    getCount(size_t &v, size_t cap, const char *what)
    {
        if (!get(v))
            return false;
        if (v > cap)
            return fail(std::string(what) + " count " +
                        std::to_string(v) + " exceeds limit " +
                        std::to_string(cap));
        if (v > remaining() / 2 + 1)
            return fail(std::string(what) + " count " +
                        std::to_string(v) +
                        " not backed by remaining input");
        return true;
    }
};

LogHistogram
readHistogram(In &in, const char *tag)
{
    LogHistogram h;
    size_t nonEmpty = 0;
    uint64_t infinite = 0;
    if (!in.expect(tag) ||
        !in.getCount(nonEmpty, in.limits.maxHistogramBin + 1,
                     "histogram bin") ||
        !in.get(infinite))
        return h;
    for (size_t i = 0; i < nonEmpty; ++i) {
        size_t bin = 0;
        uint64_t count = 0;
        if (!in.get(bin) || !in.get(count))
            return h;
        if (bin > in.limits.maxHistogramBin) {
            in.fail("histogram bin index " + std::to_string(bin) +
                    " exceeds limit");
            return h;
        }
        // binLower(bin) maps back into the same bin, reproducing it.
        h.add(LogHistogram::binLower(bin), count);
    }
    h.addInfinite(infinite);
    return h;
}

Status
parsePayload(std::string_view payload, Profile &p,
             const ProfileLimits &limits)
{
    In in(payload, limits);

    size_t nameLen = 0;
    if (!in.expect("name") ||
        !in.getCount(nameLen, limits.maxNameLen, "name length"))
        return in.st;
    // One separating byte, then the name's raw bytes.
    if (in.remaining() <= nameLen)
        return corrupt("profile parse: truncated name");
    p.name.assign(in.p + 1, nameLen);
    in.p += nameLen + 1;

    if (!in.expect("totals") || !in.get(p.totalUops) ||
        !in.get(p.profiledUops) || !in.get(p.profiledInsts))
        return in.st;
    if (!in.expect("sampling") || !in.get(p.sampling.microTraceSize) ||
        !in.get(p.sampling.windowSize))
        return in.st;
    if (p.sampling.microTraceSize == 0 || p.sampling.windowSize == 0)
        return corrupt("profile parse: zero sampling geometry");
    if (!in.expect("operands") || !in.get(p.srcOperands) ||
        !in.get(p.dstOperands))
        return in.st;

    if (!in.expect("uopcounts"))
        return in.st;
    for (auto &c : p.uopCounts)
        if (!in.get(c))
            return in.st;

    size_t nRob = 0;
    if (!in.expect("robsizes") ||
        !in.getCount(nRob, limits.maxRobSizes, "robsizes"))
        return in.st;
    if (nRob == 0)
        return corrupt("profile parse: no ROB sizes");
    p.robSizes.resize(nRob);
    for (size_t i = 0; i < nRob; ++i) {
        if (!in.get(p.robSizes[i]))
            return in.st;
        // The interpolation code binary-searches this axis; a
        // non-monotone axis would index out of pattern, not out of
        // bounds, so reject it here.
        if (p.robSizes[i] == 0 ||
            (i > 0 && p.robSizes[i] <= p.robSizes[i - 1]))
            return corrupt(
                "profile parse: robsizes not strictly increasing");
    }

    if (!in.expect("chains"))
        return in.st;
    p.chains = DependenceChains(p.robSizes);
    for (size_t i = 0; i < nRob; ++i) {
        DependenceChains::Row r{};
        if (!in.get(r.apSum) || !in.get(r.abpSum) || !in.get(r.cpSum) ||
            !in.get(r.weight) || !in.get(r.abpWeight))
            return in.st;
        p.chains.importRow(i, r);
    }

    if (!in.expect("loaddeps"))
        return in.st;
    p.loadDeps.resize(nRob);
    for (size_t i = 0; i < nRob; ++i) {
        for (int l = 0; l < LoadDepProfile::kMaxDepth; ++l)
            if (!in.get(p.loadDeps.histo[i][l]))
                return in.st;
        if (!in.get(p.loadDeps.loads[i]) ||
            !in.get(p.loadDeps.windows[i]) ||
            !in.get(p.loadDeps.independentLoads[i]))
            return in.st;
    }

    if (!in.expect("branch") || !in.get(p.branch.branches) ||
        !in.get(p.branch.entropySum) || !in.get(p.branch.staticBranches) ||
        !in.get(p.branch.historyBits))
        return in.st;

    if (!in.expect("cold"))
        return in.st;
    p.cold.resize(nRob);
    if (!in.get(p.cold.coldLoadMisses))
        return in.st;
    for (size_t i = 0; i < nRob; ++i)
        if (!in.get(p.cold.windowsWithCold[i]) ||
            !in.get(p.cold.coldInWindows[i]) ||
            !in.get(p.cold.totalWindows[i]))
            return in.st;

    p.reuseLoads = readHistogram(in, "reuse_loads");
    p.reuseStores = readHistogram(in, "reuse_stores");
    p.reuseAll = readHistogram(in, "reuse_all");
    p.reuseInsts = readHistogram(in, "reuse_insts");
    if (!in.ok())
        return in.st;

    size_t nOps = 0;
    if (!in.expect("memops") ||
        !in.getCount(nOps, limits.maxMemOps, "memops"))
        return in.st;
    p.memOps.resize(nOps);
    for (auto &op : p.memOps) {
        int isStore = 0;
        if (!in.get(op.pc) || !in.get(isStore) || !in.get(op.count) ||
            !in.get(op.firstPosSum) || !in.get(op.gapSum) ||
            !in.get(op.gapCount) || !in.get(op.microTraces) ||
            !in.get(op.loadDepthSum) || !in.get(op.loadDepthCount) ||
            !in.get(op.selfDependent))
            return in.st;
        op.isStore = isStore != 0;
        op.reuse = readHistogram(in, "op_reuse");
        size_t nStrides = 0;
        if (!in.expect("strides") ||
            !in.getCount(nStrides, limits.maxStridesPerOp, "strides"))
            return in.st;
        op.strides.reserve(nStrides);
        for (size_t s = 0; s < nStrides; ++s) {
            int64_t stride = 0;
            uint64_t n = 0;
            if (!in.get(stride) || !in.get(n))
                return in.st;
            op.strides.emplace_back(stride, n);
        }
        // Written sorted; re-sort in case the file was assembled by hand.
        std::sort(op.strides.begin(), op.strides.end());
    }

    size_t nWin = 0;
    if (!in.expect("windows") ||
        !in.getCount(nWin, limits.maxWindows, "windows"))
        return in.st;
    p.windows.resize(nWin);
    for (auto &w : p.windows) {
        if (!in.expect("w"))
            return in.st;
        for (auto &c : w.uopCounts)
            if (!in.get(c))
                return in.st;
        if (!in.get(w.insts) || !in.get(w.branches) ||
            !in.get(w.branchEntropy) || !in.get(w.coldMisses))
            return in.st;
        if (!in.expect("c"))
            return in.st;
        w.ap.resize(nRob);
        w.abp.resize(nRob);
        w.cp.resize(nRob);
        for (size_t i = 0; i < nRob; ++i)
            if (!in.get(w.ap[i]) || !in.get(w.abp[i]) ||
                !in.get(w.cp[i]))
                return in.st;
        size_t nMem = 0;
        if (!in.expect("m") ||
            !in.getCount(nMem, limits.maxMemOps, "window memcounts"))
            return in.st;
        w.memCounts.resize(nMem);
        for (auto &[idx, n] : w.memCounts) {
            if (!in.get(idx) || !in.get(n))
                return in.st;
            // Cross-reference into the memop table: an out-of-range
            // index would be a heap overread in every model that walks
            // window memCounts.
            if (idx >= nOps)
                return corrupt("profile parse: window memcount index " +
                               std::to_string(idx) + " out of range");
        }
    }
    if (!in.expect("end"))
        return in.st;
    return Status::ok();
}

/** Bounded slurp: reads at most limits.maxBytes + 1 so oversized input
 *  is detected without buffering it. */
Status
slurp(std::istream &is, size_t maxBytes, std::string &out)
{
    out.clear();
    char buf[1 << 16];
    while (is) {
        is.read(buf, sizeof buf);
        size_t got = static_cast<size_t>(is.gcount());
        if (got == 0)
            break;
        if (out.size() + got > maxBytes)
            return resourceExhausted(
                "profile larger than the configured limit (" +
                std::to_string(maxBytes) + " bytes)");
        out.append(buf, got);
    }
    return Status::ok();
}

} // namespace

void
writeProfile(const Profile &p, std::ostream &os)
{
    // The whole file is formatted into one string, so the trailing
    // checksum can cover the payload in place.
    Text body;
    body << kMagic << ' ' << kVersion << '\n';
    const size_t payloadStart = body.s.size();
    // Names may contain spaces in principle; store length-prefixed.
    body << "name " << p.name.size() << ' ' << p.name << '\n';
    body << "totals " << p.totalUops << ' ' << p.profiledUops << ' '
         << p.profiledInsts << '\n';
    body << "sampling " << p.sampling.microTraceSize << ' '
         << p.sampling.windowSize << '\n';
    body << "operands " << p.srcOperands << ' ' << p.dstOperands << '\n';

    body << "uopcounts";
    for (auto c : p.uopCounts)
        body << ' ' << c;
    body << '\n';

    body << "robsizes " << p.robSizes.size();
    for (auto r : p.robSizes)
        body << ' ' << r;
    body << '\n';

    body << "chains\n";
    for (size_t i = 0; i < p.robSizes.size(); ++i) {
        auto r = p.chains.exportRow(i);
        body << r.apSum << ' ' << r.abpSum << ' ' << r.cpSum << ' '
             << r.weight << ' ' << r.abpWeight << '\n';
    }

    body << "loaddeps\n";
    for (size_t i = 0; i < p.robSizes.size(); ++i) {
        for (int l = 0; l < LoadDepProfile::kMaxDepth; ++l)
            body << p.loadDeps.histo[i][l] << ' ';
        body << p.loadDeps.loads[i] << ' ' << p.loadDeps.windows[i] << ' '
             << p.loadDeps.independentLoads[i] << '\n';
    }

    body << "branch " << p.branch.branches << ' ' << p.branch.entropySum
         << ' ' << p.branch.staticBranches << ' ' << p.branch.historyBits
         << '\n';

    body << "cold " << p.cold.coldLoadMisses << '\n';
    for (size_t i = 0; i < p.robSizes.size(); ++i)
        body << p.cold.windowsWithCold[i] << ' ' << p.cold.coldInWindows[i]
             << ' ' << p.cold.totalWindows[i] << '\n';

    writeHistogram(body, "reuse_loads", p.reuseLoads);
    writeHistogram(body, "reuse_stores", p.reuseStores);
    writeHistogram(body, "reuse_all", p.reuseAll);
    writeHistogram(body, "reuse_insts", p.reuseInsts);

    body << "memops " << p.memOps.size() << '\n';
    for (const auto &op : p.memOps) {
        body << op.pc << ' ' << (op.isStore ? 1 : 0) << ' ' << op.count
             << ' ' << op.firstPosSum << ' ' << op.gapSum << ' '
             << op.gapCount << ' ' << op.microTraces << ' '
             << op.loadDepthSum << ' ' << op.loadDepthCount << ' '
             << op.selfDependent << '\n';
        writeHistogram(body, "op_reuse", op.reuse);
        body << "strides " << op.strides.size() << '\n';
        for (const auto &[stride, n] : op.strides)
            body << stride << ' ' << n << '\n';
    }

    body << "windows " << p.windows.size() << '\n';
    for (const auto &w : p.windows) {
        body << "w";
        for (auto c : w.uopCounts)
            body << ' ' << c;
        body << ' ' << w.insts << ' ' << w.branches << ' '
             << w.branchEntropy << ' ' << w.coldMisses << '\n';
        body << "c";
        for (size_t i = 0; i < p.robSizes.size(); ++i)
            body << ' ' << w.ap[i] << ' ' << w.abp[i] << ' ' << w.cp[i];
        body << '\n';
        body << "m " << w.memCounts.size();
        for (const auto &[idx, n] : w.memCounts)
            body << ' ' << idx << ' ' << n;
        body << '\n';
    }
    body << "end\n";

    uint64_t sum =
        fnv1a64(std::string_view(body.s).substr(payloadStart));
    body << "checksum ";
    for (int shift = 60; shift >= 0; shift -= 4)
        body << "0123456789abcdef"[(sum >> shift) & 15];
    body << '\n';
    os.write(body.s.data(), static_cast<std::streamsize>(body.s.size()));
}

Status
parseProfile(std::string_view data, Profile &out,
             const ProfileLimits &limits)
{
    if (data.size() > limits.maxBytes)
        return resourceExhausted(
            "profile larger than the configured limit");

    // Frame: magic+version line, payload, trailing checksum line.
    size_t firstNl = data.find('\n');
    if (firstNl == std::string_view::npos)
        return corrupt("not a mipp profile (no header line)");
    {
        In hdr(data.substr(0, firstNl), limits);
        int version = 0;
        if (hdr.token() != kMagic)
            return corrupt("not a mipp profile");
        if (!hdr.get(version))
            return corrupt("profile header has no version");
        if (version != kVersion)
            return invalidArgument("unsupported profile version " +
                                   std::to_string(version) +
                                   " (expected " +
                                   std::to_string(kVersion) + ")");
    }

    size_t sumPos = data.rfind("\nchecksum ");
    if (sumPos == std::string_view::npos || sumPos < firstNl)
        return corrupt("profile has no checksum line (truncated?)");
    std::string_view payload = data.substr(firstNl + 1, sumPos - firstNl);

    uint64_t want = 0;
    {
        In tail(data.substr(sumPos + 1), limits);
        tail.token(); // "checksum", as the search above found it
        std::string_view hex = tail.token();
        if (hex.size() != 16)
            return corrupt("malformed checksum line");
        auto [next, ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), want, 16);
        if (ec != std::errc() || next != hex.data() + hex.size())
            return corrupt("malformed checksum value");
        if (!tail.token().empty())
            return corrupt("trailing garbage after checksum");
    }
    if (fnv1a64(payload) != want || MIPP_FAILPOINT("profile_io.corrupt"))
        return corrupt("checksum mismatch (bit rot or truncation)");

    return parsePayload(payload, out, limits);
}

Status
readProfileChecked(std::istream &is, Profile &out,
                   const ProfileLimits &limits)
{
    std::string data;
    Status st = slurp(is, limits.maxBytes, data);
    if (!st.isOk())
        return st;
    return parseProfile(data, out, limits);
}

Status
loadProfileChecked(const std::string &path, Profile &out,
                   const ProfileLimits &limits)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return invalidArgument("cannot open profile: " + path);
    return readProfileChecked(is, out, limits);
}

bool
saveProfile(const Profile &profile, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeProfile(profile, os);
    return static_cast<bool>(os);
}

} // namespace mipp
