#include "src/rtos/rtos.h"

#include <algorithm>

namespace ecl::rtos {

Network::Network(cost::CostModel costModel) : cost_(std::move(costModel)) {}

int Network::addTask(std::shared_ptr<const CompiledModule> module,
                     int priority)
{
    Task t;
    t.module = std::move(module);
    t.engine = t.module->makeEngine();
    t.priority = priority;
    t.pending.resize(t.module->moduleSema().signals.size());
    tasks_.push_back(std::move(t));
    return static_cast<int>(tasks_.size() - 1);
}

void Network::connect(int from, const std::string& fromSignal, int to,
                      const std::string& toSignal)
{
    const ModuleSema& fromSema =
        tasks_[static_cast<std::size_t>(from)].module->moduleSema();
    const ModuleSema& toSema =
        tasks_[static_cast<std::size_t>(to)].module->moduleSema();
    const SignalInfo* fs = fromSema.findSignal(fromSignal);
    const SignalInfo* ts = toSema.findSignal(toSignal);
    if (!fs) throw EclError("connect: no signal '" + fromSignal + "'");
    if (!ts) throw EclError("connect: no signal '" + toSignal + "'");
    if (fs->dir != SignalDir::Output)
        throw EclError("connect: '" + fromSignal + "' is not an output");
    if (ts->dir != SignalDir::Input)
        throw EclError("connect: '" + toSignal + "' is not an input");
    if (fs->pure != ts->pure)
        throw EclError("connect: pure/valued mismatch on '" + fromSignal +
                       "' -> '" + toSignal + "'");
    connections_.push_back({from, fs->index, to, ts->index});
}

void Network::onOutput(int task, const std::string& signal,
                       std::function<void(const Value*)> callback)
{
    Task& t = tasks_[static_cast<std::size_t>(task)];
    const SignalInfo* s = t.module->moduleSema().findSignal(signal);
    if (!s) throw EclError("onOutput: no signal '" + signal + "'");
    t.hooks.push_back({s->index, std::move(callback)});
}

void Network::deliver(int task, int signal, const Value* value)
{
    Task& t = tasks_[static_cast<std::size_t>(task)];
    PendingEvent& ev = t.pending[static_cast<std::size_t>(signal)];
    if (ev.present) t.stats.eventsOverwritten++; // 1-place buffer overwrite
    ev.present = true;
    if (value) ev.value = *value;
    rtosCycles_ += cost_.params().cycEventDeliver;
    makeReady(task);
}

void Network::makeReady(int task)
{
    Task& t = tasks_[static_cast<std::size_t>(task)];
    if (t.ready) return;
    t.ready = true;
    readyQueue_.push_back(task);
}

void Network::inject(int task, const std::string& signal)
{
    const SignalInfo* s = tasks_[static_cast<std::size_t>(task)]
                              .module->moduleSema()
                              .findSignal(signal);
    if (!s || s->dir != SignalDir::Input)
        throw EclError("inject: '" + signal + "' is not an input");
    deliver(task, s->index, nullptr);
}

void Network::injectScalar(int task, const std::string& signal,
                           std::int64_t v)
{
    const ModuleSema& sema =
        tasks_[static_cast<std::size_t>(task)].module->moduleSema();
    const SignalInfo* s = sema.findSignal(signal);
    if (!s || s->dir != SignalDir::Input)
        throw EclError("inject: '" + signal + "' is not an input");
    if (s->pure) throw EclError("inject: '" + signal + "' is pure");
    Value v2 = Value::fromInt(s->valueType, v);
    deliver(task, s->index, &v2);
}

void Network::injectValue(int task, const std::string& signal, Value v)
{
    const ModuleSema& sema =
        tasks_[static_cast<std::size_t>(task)].module->moduleSema();
    const SignalInfo* s = sema.findSignal(signal);
    if (!s || s->dir != SignalDir::Input)
        throw EclError("inject: '" + signal + "' is not an input");
    deliver(task, s->index, &v);
}

int Network::pickNext()
{
    // FIFO among the highest priority present in the queue.
    int bestIdx = -1;
    int bestPrio = INT_MIN;
    for (std::size_t i = 0; i < readyQueue_.size(); ++i) {
        int task = readyQueue_[i];
        int prio = tasks_[static_cast<std::size_t>(task)].priority;
        if (prio > bestPrio) {
            bestPrio = prio;
            bestIdx = static_cast<int>(i);
        }
    }
    int task = readyQueue_[static_cast<std::size_t>(bestIdx)];
    readyQueue_.erase(readyQueue_.begin() + bestIdx);
    return task;
}

void Network::reactTask(int taskId)
{
    Task& t = tasks_[static_cast<std::size_t>(taskId)];
    t.ready = false;

    rtosCycles_ += cost_.params().cycKernelDispatch;
    if (lastRanTask_ != taskId)
        rtosCycles_ += cost_.params().cycContextSwitch;
    lastRanTask_ = taskId;

    // Latch pending events as this reaction's inputs (index-based fast
    // path: no name lookups per instant).
    const ModuleSema& sema = t.module->moduleSema();
    for (std::size_t i = 0; i < t.pending.size(); ++i) {
        PendingEvent& ev = t.pending[i];
        if (!ev.present) continue;
        ev.present = false;
        t.stats.eventsConsumed++;
        const SignalInfo& info = sema.signals[i];
        if (info.pure)
            t.engine->setInput(static_cast<int>(i));
        else
            t.engine->setInputValue(static_cast<int>(i),
                                    std::move(ev.value));
    }

    rt::ReactionResult r = t.engine->react();
    t.stats.activations++;
    std::uint64_t cycles = cost_.reactionCycles(r);
    t.stats.taskCycles += cycles;
    taskCycles_ += cycles;

    // Propagate emitted outputs.
    for (int sig : r.emittedOutputs) {
        const SignalInfo& info = sema.signals[static_cast<std::size_t>(sig)];
        const Value* value = nullptr;
        Value copy;
        if (!info.pure) {
            copy = t.engine->outputValue(sig);
            value = &copy;
        }
        for (const Connection& c : connections_) {
            if (c.fromTask != taskId || c.fromSignal != sig) continue;
            deliver(c.toTask, c.toSignal, value);
        }
        for (const OutputHook& h : t.hooks) {
            if (h.signal != sig) continue;
            h.callback(value);
        }
    }

    // Delta pauses keep the task alive without new events.
    if (t.engine->needsAutoResume()) makeReady(taskId);
}

void Network::boot()
{
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        Task& t = tasks_[i];
        if (t.booted) continue;
        t.booted = true;
        makeReady(static_cast<int>(i));
    }
    run();
}

std::size_t Network::run(std::size_t maxReactions)
{
    std::size_t reactions = 0;
    while (!readyQueue_.empty()) {
        if (++reactions > maxReactions)
            throw EclError("RTOS: reaction budget exceeded (livelock?)");
        reactTask(pickNext());
    }
    return reactions;
}

MemoryReport Network::memory() const
{
    MemoryReport m;
    const cost::CostParams& p = cost_.params();
    for (const Task& t : tasks_) {
        cost::CodeSize cs = cost_.moduleSize(t.module->machine());
        m.taskCode += cs.codeBytes;
        m.taskData += cs.dataBytes;
    }
    m.rtosCode = p.kernelCodeBytes + tasks_.size() * p.perTaskCodeOverhead;
    m.rtosData = p.kernelDataBytes +
                 tasks_.size() * (p.perTaskTcbBytes + p.perTaskStackBytes);
    for (const Task& t : tasks_) {
        // 1-place buffers: one flag + value slot per input signal.
        for (const SignalInfo& s : t.module->moduleSema().signals) {
            if (s.dir != SignalDir::Input) continue;
            m.rtosData += 1 + (s.pure ? 0 : s.valueType->size());
        }
    }
    m.rtosData += connections_.size() * p.perConnectionBytes;
    return m;
}

} // namespace ecl::rtos
