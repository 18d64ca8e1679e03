/**
 * @file
 * Quickstart: compile the paper's dot product with selective
 * vectorization and watch it beat plain software pipelining.
 *
 * The flow below is the whole public API story:
 *   1. describe the loop in LIR (or build it with LoopBuilder);
 *   2. pick a machine;
 *   3. compileLoop() with a technique;
 *   4. tryRunVerified() on a MemoryImage: run the program, check it
 *      against the reference interpreter, read cycles and live-outs.
 */

#include <cstdio>
#include <cstdlib>

#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/printer.hh"

int
main()
{
    using namespace selvec;

    // 1. The loop: a dot product whose floating-point reduction must
    //    stay sequential (the paper's running example).
    Module module = parseLirOrDie(R"(
array X f64 4096
array Y f64 4096

loop dot {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        y = load Y[i]
        t = fmul x y
        s1 = fadd s t
    }
    liveout s1
}
)");
    const Loop &dot = module.loops.front();

    // 2. The machine: the paper's Figure 1 example (3 issue slots,
    //    one vector instruction per cycle, free scalar<->vector
    //    communication). On this machine the dot product is the
    //    paper's headline: II 2.0 scalar, 1.0 selective. (On the
    //    Table 1 machine this loop is bound by the FP-add recurrence
    //    and no technique can improve it -- try paperMachine() here
    //    and watch every II come out equal.)
    Machine machine = toyMachine();

    // 3. Compile under the baseline and under selective vectorization.
    ArrayTable arrays = module.arrays;
    CompiledProgram baseline =
        compileLoop(dot, arrays, machine, Technique::ModuloOnly);
    CompiledProgram selective =
        compileLoop(dot, arrays, machine, Technique::Selective);

    std::printf("baseline II/iteration:  %.2f\n",
                baseline.iiPerIteration());
    std::printf("selective II/iteration: %.2f\n",
                selective.iiPerIteration());
    std::printf("\nselective kernel:\n%s\n",
                formatKernel(selective.loops[0].main, machine,
                             selective.loops[0].mainSchedule)
                    .c_str());

    // 4. Execute both over 4096 iterations, each checked bit for bit
    //    (memory and live-outs) against the reference interpreter.
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);
    auto run = [&](const CompiledProgram &program) {
        MemoryImage mem(arrays);
        mem.fillPattern(1);
        Expected<ExecResult> r = tryRunVerified(program, dot, arrays,
                                                machine, mem, env, 4096);
        if (!r.ok()) {
            std::printf("%s: %s\n", techniqueName(program.technique),
                        r.status().str().c_str());
            std::exit(1);
        }
        return r.takeValue();
    };
    ExecResult base = run(baseline);
    ExecResult sel = run(selective);

    std::printf("baseline cycles:  %lld\n",
                static_cast<long long>(base.cycles));
    std::printf("selective cycles: %lld  (speedup %.2fx)\n",
                static_cast<long long>(sel.cycles),
                static_cast<double>(base.cycles) /
                    static_cast<double>(sel.cycles));
    std::printf("dot product: selective matches reference (%s)\n",
                sel.env.at("s1").str().c_str());
    return 0;
}
