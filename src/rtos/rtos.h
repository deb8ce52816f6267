// RTOS simulator: asynchronous composition of compiled ECL modules.
//
// The paper's asynchronous implementation runs each module as a task under
// "a simple real-time kernel" [1] (the POLIS runtime). This simulator
// models that kernel:
//  * one task per compiled module, each with its own engine
//    (CompiledModule::makeEngine);
//  * POLIS/CFSM-style 1-place event buffers per input signal (a newer
//    event overwrites an unconsumed one; overwrites are counted);
//  * run-to-completion reactions, FIFO ready queue with priorities;
//  * cycle accounting split exactly like Table 1: task cycles (reaction
//    work, converted by the cost model) vs RTOS cycles (dispatch, context
//    switch, event delivery);
//  * memory accounting split the same way: task code/data vs kernel
//    code/data (kernel + TCBs + stacks + buffers).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/cost/cost.h"
#include "src/runtime/engine.h"

namespace ecl::rtos {

struct TaskStats {
    std::uint64_t activations = 0;
    std::uint64_t eventsConsumed = 0;
    std::uint64_t eventsOverwritten = 0;
    std::uint64_t taskCycles = 0;
};

struct MemoryReport {
    std::size_t taskCode = 0;
    std::size_t taskData = 0;
    std::size_t rtosCode = 0;
    std::size_t rtosData = 0;
};

class Network {
public:
    explicit Network(cost::CostModel costModel = cost::CostModel{});

    /// Adds a task running `module`. Higher priority runs first among
    /// simultaneously-ready tasks. Returns the task id.
    int addTask(std::shared_ptr<const CompiledModule> module,
                int priority = 0);

    /// Routes emissions of `fromSignal` (output of task `from`) into the
    /// 1-place input buffer of `toSignal` on task `to`. Values are carried
    /// along for valued signals.
    void connect(int from, const std::string& fromSignal, int to,
                 const std::string& toSignal);

    /// Registers a callback for emissions of an output signal (testbench
    /// observation; does not consume the event).
    void onOutput(int task, const std::string& signal,
                  std::function<void(const Value*)> callback);

    // --- external stimulus (the "environment") ---
    void inject(int task, const std::string& signal);
    void injectScalar(int task, const std::string& signal, std::int64_t v);
    void injectValue(int task, const std::string& signal, Value v);

    /// Runs the scheduler until no task is ready. Returns the number of
    /// reactions executed. Throws EclError if `maxReactions` is exceeded
    /// (livelock guard).
    std::size_t run(std::size_t maxReactions = 1 << 20);

    /// Boots every task (first reaction with no inputs), charging kernel
    /// startup costs. Call once before injecting stimulus.
    void boot();

    [[nodiscard]] std::uint64_t taskCycles() const { return taskCycles_; }
    [[nodiscard]] std::uint64_t rtosCycles() const { return rtosCycles_; }
    [[nodiscard]] const TaskStats& stats(int task) const
    {
        return tasks_[static_cast<std::size_t>(task)].stats;
    }
    [[nodiscard]] std::size_t taskCount() const { return tasks_.size(); }

    [[nodiscard]] MemoryReport memory() const;

    /// The task's engine.
    [[nodiscard]] rt::ReactiveEngine& engine(int task)
    {
        return *tasks_[static_cast<std::size_t>(task)].engine;
    }

private:
    struct PendingEvent {
        bool present = false;
        Value value; ///< Empty for pure signals.
    };

    struct Connection {
        int fromTask;
        int fromSignal; ///< Signal index in the emitter.
        int toTask;
        int toSignal;   ///< Signal index in the receiver.
    };

    struct OutputHook {
        int signal;
        std::function<void(const Value*)> callback;
    };

    struct Task {
        std::shared_ptr<const CompiledModule> module;
        std::unique_ptr<rt::ReactiveEngine> engine;
        int priority = 0;
        std::vector<PendingEvent> pending; ///< Indexed by signal index.
        bool ready = false;
        bool booted = false;
        TaskStats stats;
        std::vector<OutputHook> hooks;
    };

    void deliver(int task, int signal, const Value* value);
    void makeReady(int task);
    int pickNext();
    void reactTask(int taskId);

    cost::CostModel cost_;
    std::vector<Task> tasks_;
    std::vector<Connection> connections_;
    std::vector<int> readyQueue_;
    std::uint64_t taskCycles_ = 0;
    std::uint64_t rtosCycles_ = 0;
    int lastRanTask_ = -1;
};

} // namespace ecl::rtos
