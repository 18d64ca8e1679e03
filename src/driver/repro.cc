#include "driver/repro.hh"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "lir/lir.hh"
#include "support/deadline.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"

namespace selvec
{

namespace
{

const char *
transferName(TransferModel t)
{
    switch (t) {
    case TransferModel::ThroughMemory: return "through-memory";
    case TransferModel::DirectMove: return "direct-move";
    case TransferModel::Free: return "free";
    }
    return "through-memory";
}

const char *
alignmentName(AlignPolicy a)
{
    return a == AlignPolicy::AssumeAligned ? "assume-aligned"
                                           : "assume-misaligned";
}

Status
badBundle(const std::string &what)
{
    return Status::error(ErrorCode::InvalidInput, "repro", what);
}

/** Resolve a serialized enum name back through its name function. */
template <typename E, typename NameFn>
bool
enumOfName(const std::string &name, int count, NameFn nameOf, E *out)
{
    for (int i = 0; i < count; ++i) {
        E e = static_cast<E>(i);
        if (name == nameOf(e)) {
            *out = e;
            return true;
        }
    }
    return false;
}

JsonValue
jsonOfRtVal(const RtVal &v)
{
    JsonValue doc = JsonValue::object();
    const char *kind = nullptr;
    switch (v.type) {
    case Type::F64: kind = "sf"; break;
    case Type::I64: kind = "si"; break;
    case Type::VF64: kind = "vf"; break;
    case Type::VI64: kind = "vi"; break;
    default: kind = "sf"; break;
    }
    doc.set("kind", JsonValue(kind));
    JsonValue lanes = JsonValue::array();
    if (v.floatData) {
        for (double f : v.fv)
            lanes.append(JsonValue(f));
    } else {
        for (int64_t i : v.iv)
            lanes.append(JsonValue(i));
    }
    doc.set("lanes", lanes);
    return doc;
}

Expected<RtVal>
rtValOfJson(const JsonValue &doc)
{
    const JsonValue *kind = doc.find("kind");
    const JsonValue *lanes = doc.find("lanes");
    if (kind == nullptr || lanes == nullptr)
        return badBundle("live-in value needs 'kind' and 'lanes'");
    std::string k = kind->stringValue();
    bool isFloat = k == "sf" || k == "vf";
    bool isVector = k == "vf" || k == "vi";
    if (!isFloat && k != "si" && k != "vi")
        return badBundle("unknown live-in kind '" + k + "'");
    std::vector<double> fv;
    std::vector<int64_t> iv;
    for (const JsonValue &lane : lanes->items()) {
        if (isFloat)
            fv.push_back(lane.numberValue());
        else
            iv.push_back(lane.intValue());
    }
    size_t n = isFloat ? fv.size() : iv.size();
    if (n == 0 || (!isVector && n != 1))
        return badBundle("live-in lane count does not match kind '" +
                         k + "'");
    if (k == "sf")
        return RtVal::scalarF(fv[0]);
    if (k == "si")
        return RtVal::scalarI(iv[0]);
    if (k == "vf")
        return RtVal::vectorF(std::move(fv));
    return RtVal::vectorI(std::move(iv));
}

} // anonymous namespace

JsonValue
jsonOfMachine(const Machine &machine)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue(machine.name));

    JsonValue counts = JsonValue::object();
    for (int k = 0; k < kNumResKinds; ++k)
        if (machine.counts[k] != 0)
            counts.set(resKindName(static_cast<ResKind>(k)),
                       JsonValue(static_cast<int64_t>(
                           machine.counts[k])));
    doc.set("counts", counts);

    JsonValue classes = JsonValue::array();
    for (int c = 0; c < kNumOpClasses; ++c) {
        const ClassDesc &desc = machine.classes[c];
        JsonValue cls = JsonValue::object();
        cls.set("class",
                JsonValue(opClassName(static_cast<OpClass>(c))));
        cls.set("latency",
                JsonValue(static_cast<int64_t>(desc.latency)));
        JsonValue res = JsonValue::array();
        for (const Reservation &r : desc.reservations) {
            JsonValue entry = JsonValue::object();
            entry.set("kind", JsonValue(resKindName(r.kind)));
            entry.set("cycles",
                      JsonValue(static_cast<int64_t>(r.cycles)));
            res.append(entry);
        }
        cls.set("reservations", res);
        classes.append(cls);
    }
    doc.set("classes", classes);

    doc.set("vector_length",
            JsonValue(static_cast<int64_t>(machine.vectorLength)));
    doc.set("transfer", JsonValue(transferName(machine.transfer)));
    doc.set("alignment", JsonValue(alignmentName(machine.alignment)));
    doc.set("invocation_overhead",
            JsonValue(
                static_cast<int64_t>(machine.invocationOverhead)));
    doc.set("loop_overhead", JsonValue(machine.loopOverhead));
    return doc;
}

Expected<Machine>
machineOfJson(const JsonValue &doc)
{
    Machine m;
    // Start from a clean slate: every field comes from the document.
    for (int k = 0; k < kNumResKinds; ++k)
        m.counts[k] = 0;
    for (int c = 0; c < kNumOpClasses; ++c)
        m.classes[c] = ClassDesc{};

    if (const JsonValue *name = doc.find("name"))
        m.name = name->stringValue();

    const JsonValue *counts = doc.find("counts");
    if (counts == nullptr)
        return badBundle("machine needs a 'counts' object");
    for (const auto &member : counts->members()) {
        ResKind kind;
        if (!enumOfName(member.first, kNumResKinds, resKindName,
                        &kind))
            return badBundle("unknown resource kind '" +
                             member.first + "'");
        m.counts[static_cast<int>(kind)] =
            static_cast<int>(member.second.intValue());
    }

    const JsonValue *classes = doc.find("classes");
    if (classes == nullptr)
        return badBundle("machine needs a 'classes' array");
    for (const JsonValue &cls : classes->items()) {
        const JsonValue *clsName = cls.find("class");
        if (clsName == nullptr)
            return badBundle("machine class entry needs 'class'");
        OpClass oc;
        if (!enumOfName(clsName->stringValue(), kNumOpClasses,
                        opClassName, &oc))
            return badBundle("unknown op class '" +
                             clsName->stringValue() + "'");
        ClassDesc &desc = m.classes[static_cast<int>(oc)];
        if (const JsonValue *lat = cls.find("latency"))
            desc.latency = static_cast<int>(lat->intValue());
        if (const JsonValue *res = cls.find("reservations")) {
            for (const JsonValue &entry : res->items()) {
                const JsonValue *kind = entry.find("kind");
                const JsonValue *cycles = entry.find("cycles");
                if (kind == nullptr || cycles == nullptr)
                    return badBundle(
                        "reservation needs 'kind' and 'cycles'");
                Reservation r;
                if (!enumOfName(kind->stringValue(), kNumResKinds,
                                resKindName, &r.kind))
                    return badBundle("unknown resource kind '" +
                                     kind->stringValue() + "'");
                r.cycles = static_cast<int>(cycles->intValue());
                desc.reservations.push_back(r);
            }
        }
    }

    if (const JsonValue *vl = doc.find("vector_length"))
        m.vectorLength = static_cast<int>(vl->intValue());
    if (const JsonValue *t = doc.find("transfer")) {
        std::string name = t->stringValue();
        if (name == "through-memory")
            m.transfer = TransferModel::ThroughMemory;
        else if (name == "direct-move")
            m.transfer = TransferModel::DirectMove;
        else if (name == "free")
            m.transfer = TransferModel::Free;
        else
            return badBundle("unknown transfer model '" + name + "'");
    }
    if (const JsonValue *a = doc.find("alignment")) {
        std::string name = a->stringValue();
        if (name == "assume-misaligned")
            m.alignment = AlignPolicy::AssumeMisaligned;
        else if (name == "assume-aligned")
            m.alignment = AlignPolicy::AssumeAligned;
        else
            return badBundle("unknown alignment policy '" + name +
                             "'");
    }
    if (const JsonValue *io = doc.find("invocation_overhead"))
        m.invocationOverhead = static_cast<int>(io->intValue());
    if (const JsonValue *lo = doc.find("loop_overhead"))
        m.loopOverhead = lo->boolValue();

    Status valid = m.validateStatus();
    if (!valid)
        return valid;
    return m;
}

JsonValue
jsonOfReproBundle(const ReproBundle &bundle)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("selvec-repro-v1"));
    doc.set("name", JsonValue(bundle.name));
    doc.set("technique",
            JsonValue(techniqueName(bundle.technique)));
    doc.set("trip_count", JsonValue(bundle.tripCount));
    doc.set("invocations", JsonValue(bundle.invocations));
    doc.set("mem_pattern", JsonValue(bundle.memPattern));
    doc.set("seed",
            JsonValue(static_cast<int64_t>(bundle.seed)));
    doc.set("deadline_ms", JsonValue(bundle.deadlineMs));
    doc.set("fault_plan", JsonValue(bundle.faultPlan));

    doc.set("lir", JsonValue(writeLir(bundle.module)));
    doc.set("machine", jsonOfMachine(bundle.machine));

    JsonValue liveIns = JsonValue::array();
    for (const auto &binding : bundle.liveIns) {
        JsonValue entry = jsonOfRtVal(binding.second);
        // Rebuild with the name first for readability.
        JsonValue named = JsonValue::object();
        named.set("name", JsonValue(binding.first));
        for (const auto &member : entry.members())
            named.set(member.first, member.second);
        liveIns.append(named);
    }
    doc.set("live_ins", liveIns);

    const DriverOptions &o = bundle.options;
    JsonValue options = JsonValue::object();
    options.set("expansion_size", JsonValue(o.expansionSize));
    options.set("iter_split_unroll",
                JsonValue(static_cast<int64_t>(o.iterSplitUnroll)));
    JsonValue vect = JsonValue::object();
    vect.set("neighbor_guard", JsonValue(o.vectorize.neighborGuard));
    vect.set("recognize_reductions",
             JsonValue(o.vectorize.recognizeReductions));
    options.set("vectorize", vect);
    JsonValue part = JsonValue::object();
    part.set("max_iterations",
             JsonValue(
                 static_cast<int64_t>(o.partition.maxIterations)));
    part.set("probe_all_vector_cost",
             JsonValue(o.partition.probeAllVectorCost));
    part.set("consider_communication",
             JsonValue(o.partition.cost.considerCommunication));
    part.set("strategy",
             JsonValue(partitionStrategyName(o.partition.strategy)));
    part.set("exact_threshold",
             JsonValue(
                 static_cast<int64_t>(o.partition.exactThreshold)));
    part.set("exact_max_nodes",
             JsonValue(o.partition.exactMaxNodes));
    options.set("partition", part);
    JsonValue sched = JsonValue::object();
    sched.set("budget_factor",
              JsonValue(
                  static_cast<int64_t>(o.scheduling.budgetFactor)));
    sched.set("max_ii_factor",
              JsonValue(
                  static_cast<int64_t>(o.scheduling.maxIiFactor)));
    sched.set("max_ii_slack",
              JsonValue(
                  static_cast<int64_t>(o.scheduling.maxIiSlack)));
    sched.set("watchdog_factor",
              JsonValue(o.scheduling.watchdogFactor));
    options.set("scheduling", sched);
    doc.set("options", options);

    JsonValue failure = JsonValue::object();
    failure.set("code",
                JsonValue(errorCodeName(bundle.failure.code())));
    failure.set("stage", JsonValue(bundle.failure.stage()));
    failure.set("message", JsonValue(bundle.failure.message()));
    doc.set("failure", failure);
    return doc;
}

Expected<ReproBundle>
reproBundleOfJson(const JsonValue &doc)
{
    const JsonValue *schema = doc.find("schema");
    if (schema == nullptr ||
        schema->stringValue() != "selvec-repro-v1")
        return badBundle("not a selvec-repro-v1 document");

    ReproBundle bundle;
    if (const JsonValue *name = doc.find("name"))
        bundle.name = name->stringValue();

    const JsonValue *technique = doc.find("technique");
    if (technique == nullptr ||
        !enumOfName(technique->stringValue(),
                    static_cast<int>(Technique::IterationSplit) + 1,
                    techniqueName, &bundle.technique))
        return badBundle("missing or unknown 'technique'");

    if (const JsonValue *v = doc.find("trip_count"))
        bundle.tripCount = v->intValue();
    if (const JsonValue *v = doc.find("invocations"))
        bundle.invocations = v->intValue();
    if (const JsonValue *v = doc.find("mem_pattern"))
        bundle.memPattern = v->intValue();
    if (const JsonValue *v = doc.find("seed"))
        bundle.seed = static_cast<uint64_t>(v->intValue());
    if (const JsonValue *v = doc.find("deadline_ms"))
        bundle.deadlineMs = v->intValue();
    if (const JsonValue *v = doc.find("fault_plan"))
        bundle.faultPlan = v->stringValue();

    const JsonValue *lir = doc.find("lir");
    if (lir == nullptr)
        return badBundle("bundle needs a 'lir' field");
    Expected<Module> module = tryParseLir(lir->stringValue());
    if (!module.ok())
        return module.status();
    bundle.module = module.value();
    if (bundle.module.loops.empty())
        return badBundle("bundle LIR holds no loop");

    const JsonValue *machine = doc.find("machine");
    if (machine == nullptr)
        return badBundle("bundle needs a 'machine' object");
    Expected<Machine> parsedMachine = machineOfJson(*machine);
    if (!parsedMachine.ok())
        return parsedMachine.status();
    bundle.machine = parsedMachine.value();

    if (const JsonValue *liveIns = doc.find("live_ins")) {
        for (const JsonValue &entry : liveIns->items()) {
            const JsonValue *name = entry.find("name");
            if (name == nullptr)
                return badBundle("live-in entry needs 'name'");
            Expected<RtVal> value = rtValOfJson(entry);
            if (!value.ok())
                return value.status();
            bundle.liveIns[name->stringValue()] = value.value();
        }
    }

    if (const JsonValue *options = doc.find("options")) {
        DriverOptions &o = bundle.options;
        if (const JsonValue *v = options->find("expansion_size"))
            o.expansionSize = v->intValue();
        if (const JsonValue *v = options->find("iter_split_unroll"))
            o.iterSplitUnroll = static_cast<int>(v->intValue());
        if (const JsonValue *vect = options->find("vectorize")) {
            if (const JsonValue *v = vect->find("neighbor_guard"))
                o.vectorize.neighborGuard = v->boolValue();
            if (const JsonValue *v =
                    vect->find("recognize_reductions"))
                o.vectorize.recognizeReductions = v->boolValue();
        }
        if (const JsonValue *part = options->find("partition")) {
            if (const JsonValue *v = part->find("max_iterations"))
                o.partition.maxIterations =
                    static_cast<int>(v->intValue());
            if (const JsonValue *v =
                    part->find("probe_all_vector_cost"))
                o.partition.probeAllVectorCost = v->boolValue();
            if (const JsonValue *v = part->find("strategy"))
                parsePartitionStrategy(v->stringValue(),
                                       &o.partition.strategy);
            if (const JsonValue *v = part->find("exact_threshold"))
                o.partition.exactThreshold =
                    static_cast<int>(v->intValue());
            if (const JsonValue *v = part->find("exact_max_nodes"))
                o.partition.exactMaxNodes = v->intValue();
            if (const JsonValue *v =
                    part->find("consider_communication"))
                o.partition.cost.considerCommunication =
                    v->boolValue();
        }
        if (const JsonValue *sched = options->find("scheduling")) {
            if (const JsonValue *v = sched->find("budget_factor"))
                o.scheduling.budgetFactor =
                    static_cast<int>(v->intValue());
            if (const JsonValue *v = sched->find("max_ii_factor"))
                o.scheduling.maxIiFactor =
                    static_cast<int>(v->intValue());
            if (const JsonValue *v = sched->find("max_ii_slack"))
                o.scheduling.maxIiSlack =
                    static_cast<int>(v->intValue());
            if (const JsonValue *v = sched->find("watchdog_factor"))
                o.scheduling.watchdogFactor = v->intValue();
        }
    }

    if (const JsonValue *failure = doc.find("failure")) {
        ErrorCode code = ErrorCode::Internal;
        std::string stage = "repro";
        std::string message;
        if (const JsonValue *v = failure->find("code")) {
            if (!enumOfName(
                    v->stringValue(),
                    static_cast<int>(ErrorCode::WatchdogTripped) + 1,
                    errorCodeName, &code))
                return badBundle("unknown failure code '" +
                                 v->stringValue() + "'");
        }
        if (const JsonValue *v = failure->find("stage"))
            stage = v->stringValue();
        if (const JsonValue *v = failure->find("message"))
            message = v->stringValue();
        if (code != ErrorCode::Ok)
            bundle.failure = Status::error(code, stage, message);
    }
    return bundle;
}

Status
writeReproBundle(const std::string &path, const ReproBundle &bundle)
{
    std::error_code ec;
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::filesystem::create_directories(parent, ec);
        if (ec)
            return Status::error(
                ErrorCode::IoError, "repro",
                strfmt("cannot create repro directory '%s': %s",
                       parent.string().c_str(),
                       ec.message().c_str()));
    }
    return writeJsonFileChecked(path, jsonOfReproBundle(bundle));
}

Expected<ReproBundle>
loadReproBundle(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return Status::error(
            ErrorCode::IoError, "repro",
            strfmt("cannot open repro bundle '%s'", path.c_str()));
    }
    std::ostringstream text;
    text << in.rdbuf();
    Expected<JsonValue> doc = parseJson(text.str());
    if (!doc.ok())
        return doc.status();
    return reproBundleOfJson(doc.value());
}

namespace
{

/**
 * DESIGN.md §6.5 on one compiled main loop: no operand crosses between
 * the partitions twice in the same direction and lane. Scalar->vector
 * crossings are XferStoreS srcs[0], MovSV srcs[1] and VPack srcs[i]
 * (lane i); vector->scalar ones are XferStoreV srcs[0] (all lanes at
 * once) and MovVS/VPick srcs[0].
 */
Status
checkTransfersOnce(const Loop &main)
{
    constexpr int kAllLanes = -1;
    std::set<std::tuple<bool, ValueId, int>> seen;
    auto cross = [&](bool to_vector, ValueId value, int lane) {
        if (seen.emplace(to_vector, value, lane).second)
            return Status::success();
        std::string where =
            lane == kAllLanes ? "all lanes" : strfmt("lane %d", lane);
        return Status::error(
            ErrorCode::VerifyFailed, "replay",
            strfmt("loop '%s': value '%s' is transferred %s twice in "
                   "%s (DESIGN.md §6.5)",
                   main.name.c_str(), main.valueInfo(value).name.c_str(),
                   to_vector ? "scalar->vector" : "vector->scalar",
                   where.c_str()));
    };
    for (const Operation &op : main.ops) {
        Status st = Status::success();
        switch (op.opcode) {
          case Opcode::XferStoreS:
            st = cross(true, op.srcs[0], op.lane);
            break;
          case Opcode::MovSV:
            st = cross(true, op.srcs[1], op.lane);
            break;
          case Opcode::VPack:
            for (size_t i = 0; i < op.srcs.size() && st.ok(); ++i)
                st = cross(true, op.srcs[i], static_cast<int>(i));
            break;
          case Opcode::XferStoreV:
            st = cross(false, op.srcs[0], kAllLanes);
            break;
          case Opcode::MovVS:
          case Opcode::VPick:
            st = cross(false, op.srcs[0], op.lane);
            break;
          default:
            break;
        }
        if (!st.ok())
            return st;
    }
    return Status::success();
}

} // anonymous namespace

Status
checkCompiledInvariants(const CompiledProgram &program)
{
    for (const CompiledLoop &cl : program.loops) {
        if (Status st = checkTransfersOnce(cl.main); !st.ok())
            return st;
        if (cl.mainResMii > cl.mainSchedule.ii ||
            cl.mainRecMii > cl.mainSchedule.ii) {
            return Status::error(
                ErrorCode::VerifyFailed, "replay",
                strfmt("loop '%s': II %lld is below its ResMII %lld "
                       "or RecMII %lld (DESIGN.md §6.4)",
                       cl.main.name.c_str(),
                       static_cast<long long>(cl.mainSchedule.ii),
                       static_cast<long long>(cl.mainResMii),
                       static_cast<long long>(cl.mainRecMii)));
        }
    }
    if (program.technique == Technique::Selective &&
        !program.partition.exactUsed && !program.loops.empty() &&
        program.partition.bestCost != program.loops[0].mainResMii) {
        return Status::error(
            ErrorCode::VerifyFailed, "replay",
            strfmt("loop '%s': KL partition cost %lld differs from "
                   "the transformed loop's ResMII %lld (DESIGN.md "
                   "§6.3)",
                   program.loops[0].main.name.c_str(),
                   static_cast<long long>(program.partition.bestCost),
                   static_cast<long long>(
                       program.loops[0].mainResMii)));
    }
    return Status::success();
}

ReplayOutcome
replayBundle(const ReproBundle &bundle)
{
    ReplayOutcome outcome;

    // Re-arm the exact fault plan that was live when the failure was
    // recorded, preserving whatever the caller had installed.
    FaultPlan saved = currentFaultPlan();
    FaultPlan plan;
    if (!bundle.faultPlan.empty()) {
        Expected<FaultPlan> parsed = parseFaultPlan(bundle.faultPlan);
        if (!parsed.ok()) {
            outcome.status = parsed.status();
            return outcome;
        }
        plan = parsed.value();
    }
    if (plan.empty())
        clearFaultPlan();
    else
        installFaultPlan(plan);

    {
        ScopedDeadline guard(bundle.deadlineMs > 0
                                 ? Deadline::afterMs(bundle.deadlineMs)
                                 : Deadline::never());

        const Loop *loop = &bundle.module.loops.front();
        for (const Loop &candidate : bundle.module.loops)
            if (candidate.name == bundle.name)
                loop = &candidate;

        ArrayTable arrays = bundle.module.arrays;
        Expected<CompiledProgram> compiled =
            tryCompileLoop(*loop, arrays, bundle.machine,
                           bundle.technique, bundle.options);
        if (!compiled.ok()) {
            outcome.status = compiled.status();
        } else if (Status broken =
                       checkCompiledInvariants(compiled.value());
                   !broken) {
            outcome.status = broken;
        } else {
            MemoryImage mem(arrays);
            mem.fillPattern(
                static_cast<uint64_t>(bundle.memPattern));
            ExecLimits limits;
            limits.watchdogFactor =
                bundle.options.scheduling.watchdogFactor;
            outcome.status =
                tryRunVerified(compiled.value(), *loop, arrays,
                               bundle.machine, mem, bundle.liveIns,
                               bundle.tripCount, limits)
                    .status();
        }
    }

    if (saved.empty())
        clearFaultPlan();
    else
        installFaultPlan(saved);

    outcome.reproduced =
        outcome.status.code() == bundle.failure.code();
    return outcome;
}

} // namespace selvec
