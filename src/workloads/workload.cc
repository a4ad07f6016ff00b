#include "workloads/workload.hh"

#include <algorithm>
#include <stdexcept>

#include "trace/rng.hh"

namespace mipp {

namespace {

/** Region base addresses per footprint class (fixed virtual layout). */
constexpr uint64_t kL1Base = 0x10000000ULL;
constexpr uint64_t kL2Base = 0x20000000ULL;
constexpr uint64_t kL3Base = 0x40000000ULL;
constexpr uint64_t kDramBase = 0x80000000ULL;
constexpr uint64_t kUniqueBase = 0x10000000000ULL;

/** Footprint sizes in bytes, chosen to sit between design-space cache
 *  sizes: L1Fit < 16 KB, 64 KB < L2Fit < 128 KB, 512 KB < L3Fit < 2 MB,
 *  Dram > 32 MB. */
uint64_t
footprintBytes(FootprintClass c, Rng &rng)
{
    switch (c) {
      case FootprintClass::L1Fit: return 4096 + rng.below(8) * 1024;
      case FootprintClass::L2Fit: return 80 * 1024 + rng.below(5) * 8192;
      case FootprintClass::L3Fit:
        return 1024 * 1024 + rng.below(9) * 96 * 1024;
      case FootprintClass::Dram:
        return 48ULL * 1024 * 1024 + rng.below(4) * 12 * 1024 * 1024;
      case FootprintClass::Unique: return 1ULL << 40;
    }
    return 4096;
}

uint64_t
regionBase(FootprintClass c, int opIndex)
{
    switch (c) {
      case FootprintClass::L1Fit: return kL1Base;
      case FootprintClass::L2Fit: return kL2Base;
      case FootprintClass::L3Fit: return kL3Base;
      case FootprintClass::Dram: return kDramBase;
      case FootprintClass::Unique:
        return kUniqueBase + static_cast<uint64_t>(opIndex) * (1ULL << 40);
    }
    return kL1Base;
}

/** Branch outcome behaviour of one static branch. */
struct BranchBehavior {
    enum Kind { LoopBack, Periodic, RandomOutcome } kind = Periodic;
    int period = 4;
    double takenProb = 0.5;
};

/** Address-generation state of one static memory operation. */
struct MemState {
    AccessPattern pattern = AccessPattern::Stride1;
    FootprintClass footprint = FootprintClass::L1Fit;
    uint64_t base = 0;
    uint64_t ws = 4096;       ///< working-set size in bytes
    int64_t stride1 = 8;
    int64_t stride2 = 8;
    uint64_t counter = 0;     ///< dynamic instances so far
    uint64_t offset = 0;      ///< current offset within the region

    uint64_t
    nextAddr(Rng &rng)
    {
        uint64_t a;
        switch (pattern) {
          case AccessPattern::Stride1:
            a = base + offset;
            offset = (offset + stride1) % ws;
            break;
          case AccessPattern::Stride2:
            a = base + offset;
            offset = (offset + (counter % 2 == 0 ? stride1 : stride2)) % ws;
            break;
          case AccessPattern::Random:
          case AccessPattern::PtrChase:
            a = base + (rng.below(ws / 8) * 8);
            break;
          default:
            a = base;
        }
        if (footprint == FootprintClass::Unique) {
            a = base + counter * kLineSize;
        }
        ++counter;
        return a;
    }
};

/** One slot of the static loop body. */
struct StaticInst {
    UopType type = UopType::IntAlu;
    uint64_t pc = 0;
    bool fusedLoad = false;    ///< compute op with a memory-read uop
    int memIndex = -1;         ///< index into body mem states
    int fusedMemIndex = -1;    ///< mem state of the fused read
    int branchIndex = -1;      ///< index into branch behaviours
    int8_t chaseReg = kNoReg;  ///< dedicated register for PtrChase loads
};

/** Fully elaborated static body plus dynamic generation state. */
struct Body {
    std::vector<StaticInst> insts;
    std::vector<MemState> mems;
    std::vector<BranchBehavior> branches;
    std::vector<uint64_t> branchExecCount;
};

/** Pick an index from normalized cumulative weights. */
int
pickWeighted(Rng &rng, const std::vector<double> &weights)
{
    double total = 0;
    int lastPositive = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] > 0) {
            total += weights[i];
            lastPositive = static_cast<int>(i);
        }
    }
    // All-zero mixes have no meaningful choice; fall back to the first
    // class instead of silently selecting the last (which turned an
    // all-zero pattern spec into PtrChase and an all-zero footprint spec
    // into Unique). WorkloadSpec::validate() rejects such specs upstream.
    if (total <= 0)
        return 0;
    double x = rng.uniform() * total;
    double acc = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (x < acc)
            return static_cast<int>(i);
    }
    // Floating-point round-off can push x past the last bin edge; the
    // last positively weighted class is the only correct fallback.
    return lastPositive;
}

MemState
makeMemState(const WorkloadSpec &spec, int opIndex, Rng &rng)
{
    MemState m;
    int pat = pickWeighted(rng, {spec.wStride1, spec.wStride2,
                                 spec.wRandom, spec.wPtrChase});
    m.pattern = static_cast<AccessPattern>(pat);
    int fpc = pickWeighted(rng, {spec.wL1, spec.wL2, spec.wL3,
                                 spec.wDram, spec.wUnique});
    m.footprint = static_cast<FootprintClass>(fpc);
    m.ws = footprintBytes(m.footprint, rng);
    m.base = regionBase(m.footprint, opIndex);
    m.stride1 = spec.strideBytes;
    m.stride2 = spec.strideBytes * 9;
    // Stagger starting offsets so ops of the same class interleave.
    m.offset = (rng.below(std::max<uint64_t>(m.ws / 64, 1)) * 64) %
               std::max<uint64_t>(m.ws, 1);
    return m;
}

Body
buildBody(const WorkloadSpec &spec, Rng &rng)
{
    Body body;
    const std::vector<double> mix = {
        spec.fLoad, spec.fStore, spec.fIntAlu, spec.fIntMul, spec.fIntDiv,
        spec.fFpAlu, spec.fFpMul, spec.fFpDiv, spec.fBranch, spec.fMove};
    const UopType mixTypes[] = {
        UopType::Load, UopType::Store, UopType::IntAlu, UopType::IntMul,
        UopType::IntDiv, UopType::FpAlu, UopType::FpMul, UopType::FpDiv,
        UopType::Branch, UopType::Move};

    int nextChaseReg = kNumIntRegs - 1; // r15 downward, at most 3 dedicated
    for (int i = 0; i < spec.loopBodyInsts; ++i) {
        StaticInst si;
        si.type = mixTypes[pickWeighted(rng, mix)];
        si.pc = 0x400000 + static_cast<uint64_t>(i) * 8;
        if (isMemory(si.type)) {
            si.memIndex = static_cast<int>(body.mems.size());
            body.mems.push_back(
                makeMemState(spec, si.memIndex, rng));
            if (si.type == UopType::Load &&
                body.mems.back().pattern == AccessPattern::PtrChase) {
                si.chaseReg = static_cast<int8_t>(nextChaseReg);
                if (nextChaseReg > kNumIntRegs - 3)
                    --nextChaseReg;
            }
        } else if (si.type == UopType::Branch) {
            si.branchIndex = static_cast<int>(body.branches.size());
            BranchBehavior b;
            if (rng.chance(spec.branchRandomFrac)) {
                b.kind = BranchBehavior::RandomOutcome;
                b.takenProb = spec.branchTakenProb;
            } else {
                b.kind = BranchBehavior::Periodic;
                b.period = std::max(2, spec.branchPeriod +
                                       static_cast<int>(rng.below(3)) - 1);
            }
            body.branches.push_back(b);
        } else if (si.type != UopType::Move &&
                   rng.chance(spec.loadOpFusion)) {
            // x86 reg-mem compute form: extra memory-read uop.
            si.fusedLoad = true;
            si.fusedMemIndex = static_cast<int>(body.mems.size());
            body.mems.push_back(
                makeMemState(spec, si.fusedMemIndex, rng));
        }
        body.insts.push_back(si);
    }

    // Loop-back branch closing the body.
    StaticInst loop;
    loop.type = UopType::Branch;
    loop.pc = 0x400000 + static_cast<uint64_t>(spec.loopBodyInsts) * 8;
    loop.branchIndex = static_cast<int>(body.branches.size());
    BranchBehavior lb;
    lb.kind = BranchBehavior::LoopBack;
    lb.period = std::max(2, spec.innerIters);
    body.branches.push_back(lb);
    body.insts.push_back(loop);

    body.branchExecCount.assign(body.branches.size(), 0);
    return body;
}

/** Tracks recently produced registers for dependence construction. */
class ProducerTracker
{
  public:
    void
    produced(int8_t reg)
    {
        if (reg == kNoReg)
            return;
        recent_[head_ % kDepth] = reg;
        head_++;
        last_ = reg;
    }

    /** Most recent destination register, or a base register. */
    int8_t lastDst() const { return last_; }

    /** Pick a producer roughly @p dist entries back. */
    int8_t
    recent(int dist) const
    {
        if (head_ == 0)
            return 0; // base register r0
        size_t n = std::min<size_t>(head_, kDepth);
        size_t idx = (head_ - 1 - std::min<size_t>(dist, n - 1)) % kDepth;
        return recent_[idx];
    }

  private:
    static constexpr size_t kDepth = 16;
    int8_t recent_[kDepth] = {};
    size_t head_ = 0;
    int8_t last_ = 0;
};

/** Round-robin destination register allocator per domain. */
class DstAllocator
{
  public:
    int8_t
    nextInt()
    {
        int8_t r = static_cast<int8_t>(4 + intIdx_ % 9); // r4..r12
        ++intIdx_;
        return r;
    }

    int8_t
    nextFp()
    {
        int8_t r = static_cast<int8_t>(kNumIntRegs + fpIdx_ % 14);
        ++fpIdx_;
        return r;
    }

  private:
    size_t intIdx_ = 0;
    size_t fpIdx_ = 0;
};

bool
isFp(UopType t)
{
    return t == UopType::FpAlu || t == UopType::FpMul || t == UopType::FpDiv;
}

/** Scratch register holding the value of a fused memory read. */
constexpr int8_t kScratchReg = 3;

} // namespace

void
WorkloadSpec::validate() const
{
    auto reject = [&](const std::string &why) {
        throw std::invalid_argument("workload spec '" + name + "': " + why);
    };

    const double mixFracs[] = {fLoad, fStore, fIntAlu, fIntMul, fIntDiv,
                               fFpAlu, fFpMul, fFpDiv, fBranch, fMove};
    double mixSum = 0;
    for (double f : mixFracs) {
        if (f < 0)
            reject("negative instruction-mix fraction");
        mixSum += f;
    }
    if (mixSum <= 0)
        reject("instruction mix is all zero");

    const double patterns[] = {wStride1, wStride2, wRandom, wPtrChase};
    const double footprints[] = {wL1, wL2, wL3, wDram, wUnique};
    double patSum = 0, fpSum = 0;
    for (double w : patterns) {
        if (w < 0)
            reject("negative access-pattern weight");
        patSum += w;
    }
    for (double w : footprints) {
        if (w < 0)
            reject("negative footprint weight");
        fpSum += w;
    }
    // Memory ops exist whenever loads/stores are in the mix or compute
    // ops can fuse a memory read; only then do the memory mixes matter.
    if (fLoad > 0 || fStore > 0 || loadOpFusion > 0) {
        if (patSum <= 0)
            reject("access-pattern weights are all zero");
        if (fpSum <= 0)
            reject("footprint weights are all zero");
    }

    if (loopBodyInsts < 1)
        reject("loop body must contain at least one instruction");
    if (loadOpFusion < 0 || loadOpFusion > 1 || branchRandomFrac < 0 ||
        branchRandomFrac > 1 || branchTakenProb < 0 || branchTakenProb > 1 ||
        serialChainFrac < 0 || serialChainFrac > 1 || depLocality < 0 ||
        depLocality > 1)
        reject("probability out of [0,1]");
    if (strideBytes == 0)
        reject("strideBytes must be non-zero");
}

Trace
generateWorkload(const WorkloadSpec &spec, size_t nUops,
                 const CancelToken &cancel)
{
    spec.validate();
    Rng rng(spec.seed);
    Body body = buildBody(spec, rng);

    Trace trace;
    trace.reserve(nUops + 4);
    ProducerTracker producers;
    DstAllocator dsts;

    auto pickSrc = [&](bool prefer_serial) -> int8_t {
        if (prefer_serial && rng.chance(spec.serialChainFrac))
            return producers.lastDst();
        int dist = rng.geometric(spec.depLocality, 15);
        return producers.recent(dist);
    };

    while (trace.size() < nUops && !cancel.cancelled()) {
        for (auto &si : body.insts) {
            if (trace.size() >= nUops)
                break;

            if (si.fusedLoad) {
                MicroOp ld;
                ld.type = UopType::Load;
                ld.pc = si.pc;
                ld.instBoundary = true;
                ld.addr = body.mems[si.fusedMemIndex].nextAddr(rng);
                ld.src1 = 0; // address from a long-lived base register
                ld.dst = kScratchReg;
                trace.push(ld);

                MicroOp op;
                op.type = si.type;
                op.pc = si.pc + 4;
                op.instBoundary = false;
                op.src1 = kScratchReg;
                op.src2 = pickSrc(true);
                op.dst = isFp(si.type) ? dsts.nextFp() : dsts.nextInt();
                producers.produced(op.dst);
                trace.push(op);
                continue;
            }

            MicroOp op;
            op.type = si.type;
            op.pc = si.pc;
            op.instBoundary = true;

            switch (si.type) {
              case UopType::Load: {
                MemState &m = body.mems[si.memIndex];
                op.addr = m.nextAddr(rng);
                if (si.chaseReg != kNoReg) {
                    // Pointer chase: address depends on the value this
                    // same static load produced last time.
                    op.src1 = si.chaseReg;
                    op.dst = si.chaseReg;
                } else {
                    // Index either loop-invariant or freshly computed.
                    op.src1 = rng.chance(0.3) ? producers.recent(
                        rng.geometric(spec.depLocality, 15)) : int8_t{0};
                    op.dst = dsts.nextInt();
                }
                producers.produced(op.dst);
                break;
              }
              case UopType::Store: {
                MemState &m = body.mems[si.memIndex];
                op.addr = m.nextAddr(rng);
                op.src1 = pickSrc(false); // data
                op.src2 = 0;              // address base
                break;
              }
              case UopType::Branch: {
                BranchBehavior &b = body.branches[si.branchIndex];
                uint64_t n = body.branchExecCount[si.branchIndex]++;
                switch (b.kind) {
                  case BranchBehavior::LoopBack:
                    op.taken = (n % b.period) != (uint64_t)(b.period - 1);
                    break;
                  case BranchBehavior::Periodic:
                    op.taken = (n % b.period) != 0;
                    break;
                  case BranchBehavior::RandomOutcome:
                    op.taken = rng.chance(b.takenProb);
                    break;
                }
                op.src1 = pickSrc(true); // condition input
                break;
              }
              case UopType::Move:
                op.src1 = pickSrc(false);
                op.dst = dsts.nextInt();
                producers.produced(op.dst);
                break;
              default: // compute
                op.src1 = pickSrc(true);
                op.src2 = pickSrc(false);
                op.dst = isFp(si.type) ? dsts.nextFp() : dsts.nextInt();
                producers.produced(op.dst);
                break;
            }
            trace.push(op);
        }
    }
    return trace;
}

Trace
generatePhased(const PhasedSpec &spec)
{
    Trace out;
    for (const auto &[seg, uops] : spec.segments) {
        Trace t = generateWorkload(seg, uops);
        for (const auto &op : t)
            out.push(op);
    }
    return out;
}

namespace {

/** Helper: start from balanced defaults, then tweak. */
WorkloadSpec
base(const std::string &name, uint64_t seed)
{
    WorkloadSpec s;
    s.name = name;
    s.seed = seed;
    return s;
}

} // namespace

std::vector<WorkloadSpec>
workloadSuite()
{
    std::vector<WorkloadSpec> suite;

    { // Streaming kernel (libquantum/lbm-like): unit-stride DRAM, high MLP.
        auto s = base("stream_add", 101);
        s.fLoad = 0.30; s.fStore = 0.12; s.fIntAlu = 0.28; s.fFpAlu = 0.10;
        s.fBranch = 0.10; s.fMove = 0.10; s.fIntMul = 0.0; s.fFpMul = 0.0;
        s.wStride1 = 1.0; s.wStride2 = 0; s.wRandom = 0; s.wPtrChase = 0;
        s.wL1 = 0.15; s.wL2 = 0.0; s.wL3 = 0.05; s.wDram = 0.80;
        s.strideBytes = 8;
        s.branchRandomFrac = 0.02; s.loopBodyInsts = 80;
        s.depLocality = 0.25; s.serialChainFrac = 0.05;
        suite.push_back(s);
    }
    { // Pointer chasing over a huge footprint (mcf-like): MLP ~ 1.
        auto s = base("ptr_chase", 102);
        s.fLoad = 0.32; s.fStore = 0.06; s.fIntAlu = 0.30; s.fBranch = 0.14;
        s.fMove = 0.12; s.fFpAlu = 0.06;
        s.wStride1 = 0.05; s.wStride2 = 0; s.wRandom = 0.25;
        s.wPtrChase = 0.70;
        s.wL1 = 0.25; s.wL2 = 0.05; s.wL3 = 0.10; s.wDram = 0.60;
        s.branchRandomFrac = 0.30; s.loopBodyInsts = 100;
        suite.push_back(s);
    }
    { // Independent random gathers (omnetpp-like): bursty DRAM, good MLP.
        auto s = base("rand_gather", 103);
        s.fLoad = 0.34; s.fStore = 0.10; s.fIntAlu = 0.28; s.fBranch = 0.12;
        s.fMove = 0.10; s.fFpAlu = 0.06;
        s.wStride1 = 0.10; s.wStride2 = 0.05; s.wRandom = 0.85;
        s.wPtrChase = 0;
        s.wL1 = 0.30; s.wL2 = 0.10; s.wL3 = 0.15; s.wDram = 0.45;
        s.branchRandomFrac = 0.20; s.loopBodyInsts = 90;
        suite.push_back(s);
    }
    { // Dense FP compute, cache resident (gamess-like).
        auto s = base("dense_compute", 104);
        s.fLoad = 0.18; s.fStore = 0.06; s.fIntAlu = 0.12; s.fFpAlu = 0.30;
        s.fFpMul = 0.20; s.fBranch = 0.06; s.fMove = 0.08;
        s.wL1 = 0.95; s.wL2 = 0.05; s.wL3 = 0; s.wDram = 0;
        s.loadOpFusion = 0.35; s.serialChainFrac = 0.30;
        s.branchRandomFrac = 0.02; s.loopBodyInsts = 150;
        suite.push_back(s);
    }
    { // Integer-dense media kernel (h264-like).
        auto s = base("int_crunch", 105);
        s.fLoad = 0.24; s.fStore = 0.10; s.fIntAlu = 0.38; s.fIntMul = 0.08;
        s.fBranch = 0.10; s.fMove = 0.10;
        s.fFpAlu = 0; s.fFpMul = 0;
        s.wL1 = 0.85; s.wL2 = 0.15; s.wL3 = 0; s.wDram = 0;
        s.loadOpFusion = 0.30; s.branchRandomFrac = 0.08;
        s.loopBodyInsts = 110;
        suite.push_back(s);
    }
    { // Branch-heavy game tree search (gobmk/sjeng-like).
        auto s = base("branchy", 106);
        s.fLoad = 0.22; s.fStore = 0.08; s.fIntAlu = 0.34; s.fBranch = 0.18;
        s.fMove = 0.14; s.fFpAlu = 0.04;
        s.wL1 = 0.70; s.wL2 = 0.20; s.wL3 = 0.10; s.wDram = 0;
        s.branchRandomFrac = 0.35; s.branchTakenProb = 0.35;
        s.loopBodyInsts = 140;
        suite.push_back(s);
    }
    { // Divide-limited FP kernel (povray-like): non-pipelined unit pressure.
        auto s = base("div_heavy", 107);
        s.fLoad = 0.18; s.fStore = 0.06; s.fIntAlu = 0.14; s.fFpAlu = 0.22;
        s.fFpMul = 0.16; s.fFpDiv = 0.08; s.fBranch = 0.08; s.fMove = 0.08;
        s.wL1 = 0.90; s.wL2 = 0.10; s.wL3 = 0; s.wDram = 0;
        s.serialChainFrac = 0.20; s.loopBodyInsts = 120;
        suite.push_back(s);
    }
    { // Blocked matrix kernel (calculix-like): L2/L3 strided.
        auto s = base("matrix_tile", 108);
        s.fLoad = 0.28; s.fStore = 0.10; s.fIntAlu = 0.14; s.fFpAlu = 0.20;
        s.fFpMul = 0.14; s.fBranch = 0.06; s.fMove = 0.08;
        s.wStride1 = 0.80; s.wStride2 = 0.20; s.wRandom = 0; s.wPtrChase = 0;
        s.wL1 = 0.30; s.wL2 = 0.40; s.wL3 = 0.30; s.wDram = 0;
        s.strideBytes = 64; s.loadOpFusion = 0.30;
        s.branchRandomFrac = 0.03; s.loopBodyInsts = 130;
        suite.push_back(s);
    }
    { // 3-D stencil sweep (leslie3d-like): multi-stride, LLC + DRAM.
        auto s = base("stencil", 109);
        s.fLoad = 0.30; s.fStore = 0.12; s.fIntAlu = 0.12; s.fFpAlu = 0.20;
        s.fFpMul = 0.12; s.fBranch = 0.06; s.fMove = 0.08;
        s.wStride1 = 0.50; s.wStride2 = 0.50; s.wRandom = 0; s.wPtrChase = 0;
        s.wL1 = 0.20; s.wL2 = 0.20; s.wL3 = 0.35; s.wDram = 0.25;
        s.strideBytes = 8; s.loopBodyInsts = 140;
        suite.push_back(s);
    }
    { // Hash-table build (xalancbmk-like): random stores, branchy.
        auto s = base("hash_build", 110);
        s.fLoad = 0.26; s.fStore = 0.16; s.fIntAlu = 0.28; s.fBranch = 0.14;
        s.fMove = 0.12; s.fFpAlu = 0.04;
        s.wStride1 = 0.15; s.wStride2 = 0; s.wRandom = 0.85; s.wPtrChase = 0;
        s.wL1 = 0.35; s.wL2 = 0.20; s.wL3 = 0.35; s.wDram = 0.10;
        s.branchRandomFrac = 0.35; s.loopBodyInsts = 100;
        suite.push_back(s);
    }
    { // Linked structure walk inside the LLC (astar-like): LLC-hit chains.
        auto s = base("list_walk_l3", 111);
        s.fLoad = 0.30; s.fStore = 0.06; s.fIntAlu = 0.26; s.fBranch = 0.14;
        s.fMove = 0.14; s.fFpAlu = 0.10;
        s.wStride1 = 0.10; s.wStride2 = 0; s.wRandom = 0.20;
        s.wPtrChase = 0.70;
        s.wL1 = 0.20; s.wL2 = 0.10; s.wL3 = 0.70; s.wDram = 0;
        s.branchRandomFrac = 0.25; s.loopBodyInsts = 90;
        suite.push_back(s);
    }
    { // Wide streaming FP with long serial chains (bwaves-like).
        auto s = base("stream_wide", 112);
        s.fLoad = 0.26; s.fStore = 0.10; s.fIntAlu = 0.10; s.fFpAlu = 0.26;
        s.fFpMul = 0.16; s.fBranch = 0.04; s.fMove = 0.08;
        s.wStride1 = 0.90; s.wStride2 = 0.10; s.wRandom = 0; s.wPtrChase = 0;
        s.wL1 = 0.10; s.wL2 = 0.10; s.wL3 = 0.20; s.wDram = 0.60;
        s.serialChainFrac = 0.45; s.depLocality = 0.6;
        s.branchRandomFrac = 0.02; s.loopBodyInsts = 160;
        suite.push_back(s);
    }
    { // Strided loads + scattered stores (GemsFDTD-like), high uops/inst.
        auto s = base("scatter_store", 113);
        s.fLoad = 0.26; s.fStore = 0.16; s.fIntAlu = 0.12; s.fFpAlu = 0.18;
        s.fFpMul = 0.12; s.fBranch = 0.06; s.fMove = 0.10;
        s.wStride1 = 0.55; s.wStride2 = 0.15; s.wRandom = 0.30;
        s.wPtrChase = 0;
        s.wL1 = 0.15; s.wL2 = 0.15; s.wL3 = 0.25; s.wDram = 0.45;
        s.loadOpFusion = 0.45; s.loopBodyInsts = 150;
        suite.push_back(s);
    }
    { // Cold-miss sweep (milc-like): every line touched once.
        auto s = base("cold_sweep", 114);
        s.fLoad = 0.30; s.fStore = 0.12; s.fIntAlu = 0.14; s.fFpAlu = 0.20;
        s.fFpMul = 0.10; s.fBranch = 0.06; s.fMove = 0.08;
        s.wStride1 = 1.0; s.wStride2 = 0; s.wRandom = 0; s.wPtrChase = 0;
        s.wL1 = 0.20; s.wL2 = 0; s.wL3 = 0; s.wDram = 0; s.wUnique = 0.80;
        s.branchRandomFrac = 0.02; s.loopBodyInsts = 100;
        suite.push_back(s);
    }
    { // Tight cache-resident loop (hmmer-like): near-peak IPC.
        auto s = base("loopy_small", 115);
        s.fLoad = 0.26; s.fStore = 0.10; s.fIntAlu = 0.36; s.fIntMul = 0.04;
        s.fBranch = 0.10; s.fMove = 0.14;
        s.fFpAlu = 0; s.fFpMul = 0;
        s.wL1 = 1.0; s.wL2 = 0; s.wL3 = 0; s.wDram = 0;
        s.branchRandomFrac = 0.03; s.loopBodyInsts = 60;
        s.depLocality = 0.2; s.serialChainFrac = 0.05;
        suite.push_back(s);
    }
    { // Mixed compiler-like behaviour (gcc-like): mid footprints, phases of
      // LLC-hit chains; used by the LLC-chaining experiment (Fig 4.9).
        auto s = base("mix_mid", 116);
        s.fLoad = 0.26; s.fStore = 0.12; s.fIntAlu = 0.28; s.fBranch = 0.14;
        s.fMove = 0.12; s.fFpAlu = 0.08;
        s.wStride1 = 0.35; s.wStride2 = 0.10; s.wRandom = 0.25;
        s.wPtrChase = 0.30;
        s.wL1 = 0.30; s.wL2 = 0.25; s.wL3 = 0.40; s.wDram = 0.05;
        s.branchRandomFrac = 0.25; s.loopBodyInsts = 130;
        suite.push_back(s);
    }
    { // Serial FP multiply chains (namd-like): dependence-limited.
        auto s = base("fp_serial", 117);
        s.fLoad = 0.18; s.fStore = 0.06; s.fIntAlu = 0.10; s.fFpAlu = 0.22;
        s.fFpMul = 0.28; s.fBranch = 0.06; s.fMove = 0.10;
        s.wL1 = 0.90; s.wL2 = 0.10; s.wL3 = 0; s.wDram = 0;
        s.serialChainFrac = 0.55; s.depLocality = 0.7;
        s.branchRandomFrac = 0.02; s.loopBodyInsts = 120;
        suite.push_back(s);
    }
    { // Integer multiply port pressure (crypto-like).
        auto s = base("mul_port", 118);
        s.fLoad = 0.18; s.fStore = 0.08; s.fIntAlu = 0.26; s.fIntMul = 0.22;
        s.fIntDiv = 0.02; s.fBranch = 0.08; s.fMove = 0.16;
        s.fFpAlu = 0; s.fFpMul = 0;
        s.wL1 = 0.95; s.wL2 = 0.05; s.wL3 = 0; s.wDram = 0;
        s.branchRandomFrac = 0.05; s.loopBodyInsts = 100;
        suite.push_back(s);
    }
    { // Bursty memory phases (soplex-like): misses clustered in the body.
        auto s = base("bursty_mem", 119);
        s.fLoad = 0.32; s.fStore = 0.10; s.fIntAlu = 0.22; s.fFpAlu = 0.14;
        s.fFpMul = 0.06; s.fBranch = 0.08; s.fMove = 0.08;
        s.wStride1 = 0.60; s.wStride2 = 0.10; s.wRandom = 0.30;
        s.wPtrChase = 0;
        s.wL1 = 0.40; s.wL2 = 0.10; s.wL3 = 0.10; s.wDram = 0.40;
        s.strideBytes = 256; s.loopBodyInsts = 200;
        s.branchRandomFrac = 0.10;
        suite.push_back(s);
    }
    { // Long-latency balanced mix (wrf-like): a bit of everything.
        auto s = base("balanced_mix", 120);
        s.fLoad = 0.24; s.fStore = 0.10; s.fIntAlu = 0.20; s.fIntMul = 0.02;
        s.fFpAlu = 0.16; s.fFpMul = 0.08; s.fFpDiv = 0.01; s.fBranch = 0.10;
        s.fMove = 0.09;
        s.wStride1 = 0.50; s.wStride2 = 0.15; s.wRandom = 0.25;
        s.wPtrChase = 0.10;
        s.wL1 = 0.40; s.wL2 = 0.20; s.wL3 = 0.25; s.wDram = 0.15;
        s.loadOpFusion = 0.25; s.branchRandomFrac = 0.12;
        s.loopBodyInsts = 170;
        suite.push_back(s);
    }

    return suite;
}

std::vector<WorkloadSpec>
memoryBoundSuite()
{
    std::vector<WorkloadSpec> out;
    for (const auto &s : workloadSuite()) {
        if (s.wDram + s.wUnique >= 0.25 || s.wL3 >= 0.4)
            out.push_back(s);
    }
    return out;
}

std::vector<PhasedSpec>
phasedSuite()
{
    std::vector<PhasedSpec> out;

    PhasedSpec p1;
    p1.name = "phase_compute_mem";
    p1.segments = {
        {suiteWorkload("dense_compute"), 150000},
        {suiteWorkload("stream_add"), 150000},
        {suiteWorkload("dense_compute"), 150000},
        {suiteWorkload("rand_gather"), 150000},
    };
    out.push_back(std::move(p1));

    PhasedSpec p2;
    p2.name = "phase_branch_shift";
    p2.segments = {
        {suiteWorkload("loopy_small"), 200000},
        {suiteWorkload("branchy"), 200000},
        {suiteWorkload("mix_mid"), 200000},
    };
    out.push_back(std::move(p2));

    return out;
}

WorkloadSpec
suiteWorkload(const std::string &name)
{
    for (const auto &s : workloadSuite())
        if (s.name == name)
            return s;
    throw std::out_of_range("no suite workload named " + name);
}

} // namespace mipp
