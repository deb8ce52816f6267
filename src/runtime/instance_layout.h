// Shared fixed arena layout for one instance of a compiled module.
//
// SyncEngine (src/runtime/engine.h), the batch runtime
// (src/runtime/batch_engine.h) and the verification explorer
// (src/verify/explorer.h) all keep per-instance data — module variables
// plus valued-signal slots — as raw bytes, which the reaction kernel
// (src/runtime/kernel.h) executes through a view Store and an
// ArenaSigView, or hands to the native code as is. This header owns the
// one layout they agree on, so a state snapshot taken by one (a
// SyncEngine's packState(), the explorer's packed states) is
// byte-compatible with the others (a batch instance's arena slice):
//  * variables first, in VarInfo order, each 8-byte aligned;
//  * then valued-signal slots, ascending signal index, 8-byte aligned;
//  * dataBytes is the used extent, stride pads it to a 64-byte boundary
//    (anti-false-sharing when instances sit side by side in one arena).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/interp/eval.h"
#include "src/sema/sema.h"

namespace ecl::rt {

struct InstanceLayout {
    std::vector<std::uint32_t> varOffsets; ///< Per VarInfo index.
    std::vector<std::uint32_t> sigOffsets; ///< Per signal (0 for pure).
    std::size_t dataBytes = 0; ///< Used bytes (variables + valued slots).
    std::size_t stride = 0;    ///< dataBytes padded to 64 (>= 64).
};

inline InstanceLayout computeInstanceLayout(const ModuleSema& sema)
{
    constexpr std::size_t kInstanceAlign = 64;
    constexpr std::size_t kSlotAlign = 8;
    auto alignUp = [](std::size_t n, std::size_t a) {
        return (n + a - 1) / a * a;
    };

    InstanceLayout layout;
    std::size_t cursor = 0;
    layout.varOffsets.reserve(sema.vars.size());
    for (const VarInfo& v : sema.vars) {
        cursor = alignUp(cursor, kSlotAlign);
        layout.varOffsets.push_back(static_cast<std::uint32_t>(cursor));
        cursor += v.type->size();
    }
    layout.sigOffsets.assign(sema.signals.size(), 0);
    for (const SignalInfo& s : sema.signals) {
        if (s.pure) continue;
        cursor = alignUp(cursor, kSlotAlign);
        layout.sigOffsets[static_cast<std::size_t>(s.index)] =
            static_cast<std::uint32_t>(cursor);
        cursor += s.valueType->size();
    }
    layout.dataBytes = cursor;
    layout.stride = alignUp(std::max<std::size_t>(cursor, 1), kInstanceAlign);
    return layout;
}

/// One instance's per-instant signal values, exposed to the VM as view
/// Values over the instance's arena slice; rebase with bind() per
/// instance.
class ArenaSigView final : public SignalReader {
public:
    ArenaSigView(const ModuleSema& sema, const InstanceLayout& layout,
                 std::uint8_t* base)
        : sema_(&sema), layout_(&layout)
    {
        views_.reserve(sema.signals.size());
        for (const SignalInfo& s : sema.signals) {
            if (s.pure) {
                views_.emplace_back(); // empty, like SignalEnv's pure slots
            } else {
                valued_.push_back(s.index);
                views_.push_back(Value::view(
                    s.valueType,
                    base +
                        layout.sigOffsets[static_cast<std::size_t>(s.index)]));
            }
        }
    }

    void bind(std::uint8_t* base)
    {
        for (int idx : valued_)
            views_[static_cast<std::size_t>(idx)].rebind(
                base + layout_->sigOffsets[static_cast<std::size_t>(idx)]);
    }

    const Value& signalValue(int idx) const override
    {
        const Value& v = views_[static_cast<std::size_t>(idx)];
        if (v.empty())
            throw EclError("value read on pure signal '" +
                           sema_->signals[static_cast<std::size_t>(idx)].name +
                           "'");
        return v;
    }

private:
    const ModuleSema* sema_;
    const InstanceLayout* layout_;
    std::vector<int> valued_;  ///< Indices of valued signals.
    std::vector<Value> views_; ///< Empty Value for pure signals.
};

} // namespace ecl::rt
