/**
 * @file
 * The shipped example kernels (the .lir files under kernels/) as test
 * inputs. Test binaries that include this define SELVEC_KERNEL_DIR.
 */

#ifndef SELVEC_TESTS_KERNEL_FILES_HH
#define SELVEC_TESTS_KERNEL_FILES_HH

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/executor.hh"

namespace selvec
{

inline const std::vector<std::string> &
kernelFiles()
{
    static const std::vector<std::string> kernels = {
        "butterfly.lir", "cmul.lir",   "dot.lir",
        "saxpy.lir",     "search.lir", "stencil5.lir",
    };
    return kernels;
}

/** The LIR text of one kernel file. */
inline std::string
readKernel(const std::string &name)
{
    std::string path = std::string(SELVEC_KERNEL_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Bind every named live-in of `loop` to a deterministic value. */
inline LiveEnv
bindLiveIns(const Loop &loop)
{
    LiveEnv env;
    int idx = 0;
    for (ValueId id : loop.liveIns) {
        const ValueInfo &info = loop.valueInfo(id);
        if (info.name.rfind("__", 0) == 0)
            continue;
        if (info.type == Type::I64) {
            env[info.name] = RtVal::scalarI(3 + idx);
        } else {
            env[info.name] = RtVal::scalarF(1.5 + 0.25 * idx);
        }
        ++idx;
    }
    return env;
}

} // namespace selvec

#endif // SELVEC_TESTS_KERNEL_FILES_HH
