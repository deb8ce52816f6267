#include "src/verify/replay.h"

#include <cstring>
#include <sstream>

namespace ecl::verify {

namespace {

bool bytesEqual(const std::uint8_t* a, const std::uint8_t* b, std::size_t n)
{
    return n == 0 || std::memcmp(a, b, n) == 0;
}

} // namespace

ReplayOutcome replayCounterexample(rt::ReactiveEngine& design,
                                   rt::ReactiveEngine* monitor,
                                   const ExploreResult& result,
                                   rt::TraceRecorder* designRec,
                                   rt::TraceRecorder* monitorRec)
{
    ReplayOutcome out;
    if (!result.violated || result.trace.empty()) {
        out.detail = "no violation to replay";
        return out;
    }
    const Violation& v = result.violation;
    const ModuleSema& dsema = design.moduleSema();
    std::vector<MonitorWire> wires;
    if (monitor) wires = wireMonitor(dsema, monitor->moduleSema());

    const std::size_t steps = result.trace.size();
    for (std::size_t t = 0; t < steps; ++t) {
        for (const InputEvent& ev : result.trace[t].inputs) {
            if (ev.value.empty())
                design.setInput(ev.signal);
            else
                design.setInputValue(ev.signal, ev.value);
        }
        // A trap in either engine's reaction mirrors the explorer's
        // RuntimeError violations (the design's AND the monitor's
        // reactions both run inside its per-transition try block).
        try {
            design.react();
            if (designRec) designRec->sample(design);

            // Feed the monitor this instant exactly as the explorer
            // did: presence (and value) of every wired design signal; a
            // terminated monitor stops reacting.
            if (monitor && !monitor->terminated()) {
                for (const MonitorWire& w : wires) {
                    if (!design.outputPresent(w.designSig)) continue;
                    if (!w.valued) {
                        monitor->setInput(w.monitorSig);
                        continue;
                    }
                    Value dv = design.outputValue(w.designSig);
                    const SignalInfo& msig =
                        monitor->moduleSema()
                            .signals[static_cast<std::size_t>(w.monitorSig)];
                    if (msig.valueType->isScalar())
                        monitor->setInputScalar(w.monitorSig, dv.toInt());
                    else
                        monitor->setInputValue(
                            w.monitorSig,
                            Value::fromBytes(msig.valueType, dv.data()));
                }
                monitor->react();
                if (monitorRec) monitorRec->sample(*monitor);
            }
        } catch (const EclError& e) {
            if (v.kind == Violation::Kind::RuntimeError && t + 1 == steps) {
                out.reproduced = true;
                out.detail = "runtime error reproduced at instant " +
                             std::to_string(t) + ": " + e.what();
            } else {
                out.detail = "unexpected runtime error at instant " +
                             std::to_string(t) + ": " + e.what();
            }
            return out;
        }
    }

    if (v.kind == Violation::Kind::RuntimeError) {
        out.detail = "trace completed without the recorded runtime error";
        return out;
    }

    // 1. The violating emission must be present on the monitored engine,
    //    with bit-identical value bytes when the signal is valued.
    if (v.kind != Violation::Kind::Predicate) {
        rt::ReactiveEngine* checked =
            v.kind == Violation::Kind::MonitorSignal ? monitor : &design;
        if (!checked) {
            out.detail = "monitor violation recorded but no monitor engine "
                         "given";
            return out;
        }
        if (!checked->outputPresent(v.signal)) {
            out.detail = "violation signal '" + v.what +
                         "' not emitted in the final instant";
            return out;
        }
        if (!v.value.empty()) {
            Value rv = checked->outputValue(v.signal);
            if (rv.size() != v.value.size() ||
                !bytesEqual(rv.data(), v.value.data(), rv.size())) {
                out.detail = "violation value mismatch on '" + v.what +
                             "': explorer " + v.value.toString() +
                             " vs replay " + rv.toString();
                return out;
            }
        }
    }

    // 2. The engines must land in the explorer's packed post-state,
    //    byte for byte.
    const rt::InstanceLayout dlayout = rt::computeInstanceLayout(dsema);
    const std::size_t header = monitor ? 8 : 4;
    const std::size_t mdata =
        monitor ? rt::computeInstanceLayout(monitor->moduleSema()).dataBytes
                : 0;
    if (v.state.size() != header + dlayout.dataBytes + mdata) {
        out.detail = "packed-state size mismatch (explored with a "
                     "different monitor setup?)";
        return out;
    }
    const std::uint8_t* rec = v.state.data();
    const std::vector<std::uint8_t> denc = design.packState();
    if (!bytesEqual(rec, denc.data(), 4) ||
        !bytesEqual(rec + header, denc.data() + 4, dlayout.dataBytes)) {
        out.detail = "design post-state differs from the explorer's record";
        return out;
    }
    if (monitor) {
        const std::vector<std::uint8_t> menc = monitor->packState();
        if (!bytesEqual(rec + 4, menc.data(), 4) ||
            !bytesEqual(rec + header + dlayout.dataBytes, menc.data() + 4,
                        mdata)) {
            out.detail =
                "monitor post-state differs from the explorer's record";
            return out;
        }
    }

    out.reproduced = true;
    out.detail = "violation '" + v.what + "' reproduced bit-exactly at "
                 "instant " +
                 std::to_string(steps - 1);
    return out;
}

std::string formatTrace(const ModuleSema& designSema,
                        const std::vector<TraceStep>& trace)
{
    std::ostringstream out;
    for (std::size_t t = 0; t < trace.size(); ++t) {
        out << "  instant " << t << ":";
        if (trace[t].inputs.empty()) out << " (no inputs)";
        for (const InputEvent& ev : trace[t].inputs) {
            out << ' '
                << designSema.signals[static_cast<std::size_t>(ev.signal)]
                       .name;
            if (!ev.value.empty()) out << '=' << ev.value.toString();
        }
        out << '\n';
    }
    return out.str();
}

} // namespace ecl::verify
