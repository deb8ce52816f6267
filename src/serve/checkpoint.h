// Versioned per-session checkpoints over the packed instance state.
//
// A session's whole execution state is the shared verification/batch
// record [i32 control state][instance-layout data bytes] — the bytes
// rt::BatchEngine::packInstanceState and every engine's packState()
// emit and the verifier interns. A checkpoint wraps that record
// with enough metadata to make restoring SAFE across process and fleet
// boundaries:
//
//  * a magic + format version ("ECLCKPT1", kVersion) so readers reject
//    formats they do not know;
//  * a compile fingerprint hashing everything the packed bytes depend
//    on — module name, the signal table, the instance layout offsets,
//    and the flat machine's shape (state/node/action/config counts,
//    initial state). Control-state ids and arena offsets are only
//    meaningful against the exact compile that produced them (state
//    minimization renumbers ids; a different -O level or source
//    revision reshapes both), so restore refuses a fingerprint
//    mismatch instead of silently loading garbage;
//  * the session id and derived flags (terminated / auto-resume) for
//    observability.
//
// Serialization is little-endian and self-contained; parse + validate
// with parseCheckpoint, gate against a receiving compile with
// compileFingerprint.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/compiler.h"

namespace ecl::serve {

struct SessionCheckpoint {
    static constexpr std::uint32_t kVersion = 1;

    std::uint64_t fingerprint = 0; ///< compileFingerprint of the producer.
    std::uint64_t sessionId = 0;
    bool terminated = false;
    bool autoResume = false;
    /// Packed state: [i32 control state][instance-layout data bytes].
    std::vector<std::uint8_t> state;
};

/// Fingerprint of everything a packed state record depends on. Equal
/// fingerprints mean a checkpoint's bytes are drop-in loadable; the
/// function throws EclError when the module has no flat program.
[[nodiscard]] std::uint64_t compileFingerprint(const CompiledModule& mod);

/// Serializes to the stable binary format (magic "ECLCKPT1").
[[nodiscard]] std::vector<std::uint8_t>
serializeCheckpoint(const SessionCheckpoint& cp);

/// Parses + structurally validates a serialized checkpoint. Throws
/// EclError on a bad magic, unknown version, or truncated payload; the
/// fingerprint is NOT checked here (the receiving fleet compares it
/// against its own compile).
[[nodiscard]] SessionCheckpoint parseCheckpoint(const std::uint8_t* data,
                                                std::size_t size);

} // namespace ecl::serve
