#include "sim/rtval.hh"

#include <bit>
#include <cstdint>
#include <sstream>

namespace selvec
{

bool
RtVal::operator==(const RtVal &o) const
{
    if (floatData != o.floatData)
        return false;
    if (floatData) {
        if (fv.size() != o.fv.size())
            return false;
        for (size_t i = 0; i < fv.size(); ++i) {
            if (std::bit_cast<uint64_t>(fv[i]) !=
                std::bit_cast<uint64_t>(o.fv[i])) {
                return false;
            }
        }
        return true;
    }
    return iv == o.iv;
}

std::string
RtVal::str() const
{
    std::ostringstream out;
    out.precision(17);   // round-trips every finite double
    out << typeName(type) << "{";
    if (floatData) {
        for (size_t i = 0; i < fv.size(); ++i)
            out << (i ? ", " : "") << fv[i];
    } else {
        for (size_t i = 0; i < iv.size(); ++i)
            out << (i ? ", " : "") << iv[i];
    }
    out << "}";
    return out.str();
}

} // namespace selvec
