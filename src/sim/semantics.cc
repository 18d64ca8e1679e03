#include "sim/semantics.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace selvec
{

int64_t
safeIDiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return 0;
    return a / b;
}

namespace
{

/** Simulated integers are 64-bit two's complement: add, subtract and
 *  multiply (and negation, as 0 - a) wrap, computed through uint64_t
 *  so the simulator itself never overflows a signed value. */
int64_t
ibin(Opcode op, int64_t a, int64_t b)
{
    uint64_t ua = static_cast<uint64_t>(a);
    uint64_t ub = static_cast<uint64_t>(b);
    switch (op) {
      case Opcode::IAdd: case Opcode::VIAdd:
        return static_cast<int64_t>(ua + ub);
      case Opcode::ISub: case Opcode::VISub:
        return static_cast<int64_t>(ua - ub);
      case Opcode::IMul: case Opcode::VIMul:
        return static_cast<int64_t>(ua * ub);
      case Opcode::IDiv: case Opcode::VIDiv: return safeIDiv(a, b);
      case Opcode::IMin: case Opcode::VIMin: return std::min(a, b);
      case Opcode::IMax: case Opcode::VIMax: return std::max(a, b);
      case Opcode::IAnd: case Opcode::VIAnd: return a & b;
      case Opcode::IOr:  case Opcode::VIOr:  return a | b;
      case Opcode::IXor: case Opcode::VIXor: return a ^ b;
      case Opcode::IShl: case Opcode::VIShl:
        return a << (b & 63);
      case Opcode::IShr: case Opcode::VIShr:
        return a >> (b & 63);
      default:
        SV_PANIC("not an integer binary op: %s", opName(op));
    }
}

double
fbin(Opcode op, double a, double b)
{
    switch (op) {
      case Opcode::FAdd: case Opcode::VFAdd: return a + b;
      case Opcode::FSub: case Opcode::VFSub: return a - b;
      case Opcode::FMul: case Opcode::VFMul: return a * b;
      case Opcode::FDiv: case Opcode::VFDiv: return a / b;
      case Opcode::FMin: case Opcode::VFMin: return std::fmin(a, b);
      case Opcode::FMax: case Opcode::VFMax: return std::fmax(a, b);
      default:
        SV_PANIC("not an fp binary op: %s", opName(op));
    }
}

// In-place result constructors: lane vectors are resized, not
// reallocated, so a destination reused with the same shape allocates
// nothing after its first use.

void
outNone(RtVal &d)
{
    d.type = Type::None;
    d.floatData = false;
    d.iv.clear();
    d.fv.clear();
}

void
outScalarI(RtVal &d, int64_t v)
{
    d.type = Type::I64;
    d.floatData = false;
    d.fv.clear();
    d.iv.resize(1);
    d.iv[0] = v;
}

void
outScalarF(RtVal &d, double v)
{
    d.type = Type::F64;
    d.floatData = true;
    d.iv.clear();
    d.fv.resize(1);
    d.fv[0] = v;
}

std::vector<int64_t> &
outVectorI(RtVal &d, int vl)
{
    d.type = Type::VI64;
    d.floatData = false;
    d.fv.clear();
    d.iv.resize(static_cast<size_t>(vl));
    return d.iv;
}

std::vector<double> &
outVectorF(RtVal &d, int vl)
{
    d.type = Type::VF64;
    d.floatData = true;
    d.iv.clear();
    d.fv.resize(static_cast<size_t>(vl));
    return d.fv;
}

} // anonymous namespace

void
evalOpInto(RtVal &dest, const Operation &op,
           const RtVal *const *operands, size_t n_operands,
           int64_t iter, int vl, MemoryImage &mem)
{
    auto src = [&](size_t i) -> const RtVal & {
        SV_ASSERT(i < n_operands, "missing operand %zu of %s", i,
                  opName(op.opcode));
        return *operands[i];
    };
    auto elem_base = [&]() { return op.ref.elementAt(iter); };

    switch (op.opcode) {
      case Opcode::IConst:
        outScalarI(dest, op.iimm);
        return;
      case Opcode::FConst:
        outScalarF(dest, op.fimm);
        return;
      case Opcode::IMov:
        outScalarI(dest, src(0).laneI(0));
        return;
      case Opcode::FMov:
        outScalarF(dest, src(0).laneF(0));
        return;
      case Opcode::INeg:
        outScalarI(dest, ibin(Opcode::ISub, 0, src(0).laneI(0)));
        return;
      case Opcode::FNeg:
        outScalarF(dest, -src(0).laneF(0));
        return;
      case Opcode::FAbs:
        outScalarF(dest, std::fabs(src(0).laneF(0)));
        return;

      case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul:
      case Opcode::IDiv: case Opcode::IMin: case Opcode::IMax:
      case Opcode::IAnd: case Opcode::IOr: case Opcode::IXor:
      case Opcode::IShl: case Opcode::IShr:
        outScalarI(dest,
                   ibin(op.opcode, src(0).laneI(0), src(1).laneI(0)));
        return;

      case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
      case Opcode::FDiv: case Opcode::FMin: case Opcode::FMax:
        outScalarF(dest,
                   fbin(op.opcode, src(0).laneF(0), src(1).laneF(0)));
        return;

      case Opcode::FMulAdd:
        outScalarF(dest, src(0).laneF(0) * src(1).laneF(0) +
                             src(2).laneF(0));
        return;

      case Opcode::Load: {
        Type t = mem.arrays()[op.ref.array].elemType;
        if (t == Type::F64)
            outScalarF(dest, mem.loadF(op.ref.array, elem_base()));
        else
            outScalarI(dest, mem.loadI(op.ref.array, elem_base()));
        return;
      }
      case Opcode::Store: {
        Type t = mem.arrays()[op.ref.array].elemType;
        if (t == Type::F64)
            mem.storeF(op.ref.array, elem_base(), src(0).laneF(0));
        else
            mem.storeI(op.ref.array, elem_base(), src(0).laneI(0));
        outNone(dest);
        return;
      }
      case Opcode::VLoad: {
        Type t = mem.arrays()[op.ref.array].elemType;
        int64_t base = elem_base();
        if (t == Type::F64) {
            std::vector<double> &lanes = outVectorF(dest, vl);
            for (int l = 0; l < vl; ++l)
                lanes[static_cast<size_t>(l)] =
                    mem.loadF(op.ref.array, base + l);
            return;
        }
        std::vector<int64_t> &lanes = outVectorI(dest, vl);
        for (int l = 0; l < vl; ++l)
            lanes[static_cast<size_t>(l)] =
                mem.loadI(op.ref.array, base + l);
        return;
      }
      case Opcode::VStore: {
        const RtVal &v = src(0);
        int64_t base = elem_base();
        for (int l = 0; l < vl; ++l) {
            if (v.floatData)
                mem.storeF(op.ref.array, base + l, v.laneF(l));
            else
                mem.storeI(op.ref.array, base + l, v.laneI(l));
        }
        outNone(dest);
        return;
      }

      case Opcode::VIAdd: case Opcode::VISub: case Opcode::VIMul:
      case Opcode::VIDiv: case Opcode::VIMin: case Opcode::VIMax:
      case Opcode::VIAnd: case Opcode::VIOr: case Opcode::VIXor:
      case Opcode::VIShl: case Opcode::VIShr: {
        const RtVal &a = src(0);
        const RtVal &b = src(1);
        std::vector<int64_t> &lanes = outVectorI(dest, vl);
        for (int l = 0; l < vl; ++l)
            lanes[static_cast<size_t>(l)] =
                ibin(op.opcode, a.laneI(l), b.laneI(l));
        return;
      }
      case Opcode::VINeg: {
        const RtVal &a = src(0);
        std::vector<int64_t> &lanes = outVectorI(dest, vl);
        for (int l = 0; l < vl; ++l)
            lanes[static_cast<size_t>(l)] =
                ibin(Opcode::ISub, 0, a.laneI(l));
        return;
      }
      case Opcode::VFAdd: case Opcode::VFSub: case Opcode::VFMul:
      case Opcode::VFDiv: case Opcode::VFMin: case Opcode::VFMax: {
        const RtVal &a = src(0);
        const RtVal &b = src(1);
        std::vector<double> &lanes = outVectorF(dest, vl);
        for (int l = 0; l < vl; ++l)
            lanes[static_cast<size_t>(l)] =
                fbin(op.opcode, a.laneF(l), b.laneF(l));
        return;
      }
      case Opcode::VFNeg: {
        const RtVal &a = src(0);
        std::vector<double> &lanes = outVectorF(dest, vl);
        for (int l = 0; l < vl; ++l)
            lanes[static_cast<size_t>(l)] = -a.laneF(l);
        return;
      }
      case Opcode::VFAbs: {
        const RtVal &a = src(0);
        std::vector<double> &lanes = outVectorF(dest, vl);
        for (int l = 0; l < vl; ++l)
            lanes[static_cast<size_t>(l)] = std::fabs(a.laneF(l));
        return;
      }
      case Opcode::VFMulAdd: {
        const RtVal &a = src(0);
        const RtVal &b = src(1);
        const RtVal &c = src(2);
        std::vector<double> &lanes = outVectorF(dest, vl);
        for (int l = 0; l < vl; ++l)
            lanes[static_cast<size_t>(l)] =
                a.laneF(l) * b.laneF(l) + c.laneF(l);
        return;
      }

      case Opcode::VMerge: {
        // Window of VL lanes from concat(src0, src1) starting at
        // op.lane (0 <= lane <= VL).
        const RtVal &a = src(0);
        const RtVal &b = src(1);
        SV_ASSERT(op.lane >= 0 && op.lane <= vl,
                  "vmerge shift %d out of range", op.lane);
        if (a.floatData) {
            std::vector<double> &lanes = outVectorF(dest, vl);
            for (int l = 0; l < vl; ++l) {
                int idx = op.lane + l;
                lanes[static_cast<size_t>(l)] =
                    idx < vl ? a.laneF(idx) : b.laneF(idx - vl);
            }
            return;
        }
        std::vector<int64_t> &lanes = outVectorI(dest, vl);
        for (int l = 0; l < vl; ++l) {
            int idx = op.lane + l;
            lanes[static_cast<size_t>(l)] =
                idx < vl ? a.laneI(idx) : b.laneI(idx - vl);
        }
        return;
      }

      case Opcode::VSplat: {
        const RtVal &s = src(0);
        if (s.floatData) {
            std::vector<double> &lanes = outVectorF(dest, vl);
            std::fill(lanes.begin(), lanes.end(), s.laneF(0));
            return;
        }
        std::vector<int64_t> &lanes = outVectorI(dest, vl);
        std::fill(lanes.begin(), lanes.end(), s.laneI(0));
        return;
      }

      case Opcode::MovSV: {
        if (op.srcs[0] != kNoValue) {
            dest = src(0);
        } else {
            const RtVal &s = src(1);
            if (s.floatData) {
                std::vector<double> &lanes = outVectorF(dest, vl);
                std::fill(lanes.begin(), lanes.end(), 0.0);
            } else {
                std::vector<int64_t> &lanes = outVectorI(dest, vl);
                std::fill(lanes.begin(), lanes.end(),
                          static_cast<int64_t>(0));
            }
        }
        SV_ASSERT(op.lane >= 0 && op.lane < vl, "movsv lane %d",
                  op.lane);
        if (dest.floatData)
            dest.fv[static_cast<size_t>(op.lane)] = src(1).laneF(0);
        else
            dest.iv[static_cast<size_t>(op.lane)] = src(1).laneI(0);
        return;
      }
      case Opcode::MovVS:
      case Opcode::VPick: {
        const RtVal &v = src(0);
        SV_ASSERT(op.lane >= 0 && op.lane < vl, "lane %d out of range",
                  op.lane);
        if (v.floatData)
            outScalarF(dest, v.laneF(op.lane));
        else
            outScalarI(dest, v.laneI(op.lane));
        return;
      }

      case Opcode::XferStoreS:
      case Opcode::XferStoreV: {
        dest = src(0);
        dest.type = Type::Chan;
        return;
      }
      case Opcode::XferLoadV: {
        bool fdata = src(0).floatData;
        if (fdata) {
            std::vector<double> &lanes =
                outVectorF(dest, static_cast<int>(n_operands));
            for (size_t i = 0; i < n_operands; ++i)
                lanes[i] = src(i).laneF(0);
            SV_ASSERT(static_cast<int>(lanes.size()) == vl,
                      "xfer.loadv gathers %zu lanes", lanes.size());
            return;
        }
        std::vector<int64_t> &lanes =
            outVectorI(dest, static_cast<int>(n_operands));
        for (size_t i = 0; i < n_operands; ++i)
            lanes[i] = src(i).laneI(0);
        return;
      }
      case Opcode::XferLoadS: {
        const RtVal &chan = src(0);
        // The channel wraps either a scalar (lane-tagged stores) or a
        // whole vector; extract the requested lane.
        int lane = chan.lanes() > 1 ? op.lane : 0;
        if (chan.floatData)
            outScalarF(dest, chan.laneF(lane));
        else
            outScalarI(dest, chan.laneI(lane));
        return;
      }

      case Opcode::VPack: {
        bool fdata = src(0).floatData;
        if (fdata) {
            std::vector<double> &lanes =
                outVectorF(dest, static_cast<int>(n_operands));
            for (size_t i = 0; i < n_operands; ++i)
                lanes[i] = src(i).laneF(0);
            return;
        }
        std::vector<int64_t> &lanes =
            outVectorI(dest, static_cast<int>(n_operands));
        for (size_t i = 0; i < n_operands; ++i)
            lanes[i] = src(i).laneI(0);
        return;
      }

      case Opcode::ICmpLt:
        outScalarI(dest,
                   src(0).laneI(0) < src(1).laneI(0) ? 1 : 0);
        return;
      case Opcode::FCmpLt:
        outScalarI(dest,
                   src(0).laneF(0) < src(1).laneF(0) ? 1 : 0);
        return;

      case Opcode::ExitIf:
        // The exit decision is the executor's business; as a pure
        // operation it produces nothing.
        outNone(dest);
        return;

      case Opcode::Br:
      case Opcode::Nop:
        outNone(dest);
        return;

      default:
        SV_PANIC("evalOp: unhandled opcode %s", opName(op.opcode));
    }
}

RtVal
evalOp(const Operation &op, const std::vector<RtVal> &operands,
       int64_t iter, int vl, MemoryImage &mem)
{
    const RtVal *ptrs_buf[8];
    std::vector<const RtVal *> ptrs_heap;
    const RtVal *const *ptrs = ptrs_buf;
    if (operands.size() > 8) {
        ptrs_heap.reserve(operands.size());
        for (const RtVal &v : operands)
            ptrs_heap.push_back(&v);
        ptrs = ptrs_heap.data();
    } else {
        for (size_t i = 0; i < operands.size(); ++i)
            ptrs_buf[i] = &operands[i];
    }
    RtVal result;
    evalOpInto(result, op, ptrs, operands.size(), iter, vl, mem);
    return result;
}

} // namespace selvec
