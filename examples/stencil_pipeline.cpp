/**
 * @file
 * A 2D relaxation stencil (the tomcatv/mgrid workload family) compiled
 * under all four techniques. This is the scenario where selective
 * vectorization shines: the stencil is floating-point dense, the
 * baseline saturates the two FP units, and moving roughly half of the
 * arithmetic to the vector unit shortens the initiation interval even
 * after paying the misalignment merges.
 */

#include <cstdio>

#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/printer.hh"

int
main()
{
    using namespace selvec;

    // A 5-point relaxation with second-difference terms; the grid is
    // linearized with a row offset of 130.
    Module module = parseLirOrDie(R"(
array U f64 34000
array V f64 34000

loop stencil {
    livein w f64
    body {
        uc = load U[i + 131]
        ue = load U[i + 132]
        uw = load U[i + 130]
        un = load U[i + 261]
        us = load U[i + 1]
        hx = fadd ue uw
        hy = fadd un us
        h = fadd hx hy
        d1 = fsub h uc
        d2 = fmul d1 w
        du = fmul d2 d2
        corr = fadd d2 du
        u1 = fadd uc corr
        store V[i + 131] = u1
    }
}
)");
    const Loop &stencil = module.loops.front();
    Machine machine = paperMachine();

    LiveEnv env;
    env["w"] = RtVal::scalarF(0.25);
    const int64_t n = 4096;

    std::printf("%-14s %10s %10s %10s\n", "technique", "II/iter",
                "cycles", "speedup");
    int64_t baseline_cycles = 0;
    for (Technique t : {Technique::ModuloOnly, Technique::Traditional,
                        Technique::Full, Technique::Selective}) {
        ArrayTable arrays = module.arrays;
        CompiledProgram p = compileLoop(stencil, arrays, machine, t);
        // Always check against the oracle.
        MemoryImage mem(arrays);
        mem.fillPattern(7);
        Expected<ExecResult> run =
            tryRunVerified(p, stencil, arrays, machine, mem, env, n);
        if (!run.ok()) {
            std::printf("%s: %s\n", techniqueName(t),
                        run.status().str().c_str());
            return 1;
        }
        const ExecResult &r = run.value();

        if (t == Technique::ModuloOnly)
            baseline_cycles = r.cycles;
        std::printf("%-14s %10.2f %10lld %9.2fx\n", techniqueName(t),
                    p.iiPerIteration(),
                    static_cast<long long>(r.cycles),
                    static_cast<double>(baseline_cycles) /
                        static_cast<double>(r.cycles));

        if (t == Technique::Selective) {
            int vectorized = 0;
            for (bool b : p.partition.vectorize)
                vectorized += b ? 1 : 0;
            std::printf("\nselective vectorized %d of %d operations "
                        "(cost %lld, all-scalar %lld, all-vector "
                        "%lld)\n",
                        vectorized, stencil.numOps(),
                        static_cast<long long>(p.partition.bestCost),
                        static_cast<long long>(
                            p.partition.allScalarCost),
                        static_cast<long long>(
                            p.partition.allVectorCost));
            std::printf("\n%s", formatKernel(p.loops[0].main, machine,
                                             p.loops[0].mainSchedule)
                                    .c_str());
        }
        if (t == Technique::ModuloOnly || t == Technique::Selective) {
            std::printf("%s\n",
                        formatUtilization(p.loops[0].main, machine,
                                          p.loops[0].mainSchedule)
                            .c_str());
        }
    }
    return 0;
}
