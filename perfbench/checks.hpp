// Correctness checks the benchmark applies to every run's outputs.
//
// Each check returns the list of violations it found (empty = pass), so a
// run can report all of them and the self-test can feed each check a
// deliberately broken output and see it rejected. The checks test
// properties the method must have (wait_all waits for the straggler,
// fedavg_all peers agree bit-for-bit, every message arrives exactly once)
// or totals reached by independent paths (serialized model size from the
// architecture, a double-precision FedAvg) — never a copy of a previous
// run's output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fl/fedavg.hpp"
#include "net/transport.hpp"

namespace perfbench {

using Violations = std::vector<std::string>;

/// Serialized size of a flatten -> dense(hidden) -> relu -> dense(classes)
/// model, derived from the architecture and the weight blob layout
/// (4-byte magic, 1-byte version, 8-byte count, fp32 weights, 32-byte
/// digest) rather than read back from the program.
[[nodiscard]] std::size_t simple_model_bytes(std::size_t inputs,
                                             std::size_t hidden,
                                             std::size_t classes);

/// What a sim grid point must satisfy.
struct PointExpect {
    std::size_t peers = 0;
    std::size_t rounds = 0;
    std::size_t classes = 0;
    std::size_t model_bytes = 0;
    /// wait_all point: the whole roster every round, no timeout, and each
    /// peer's mean round at least the straggler's training time.
    bool wait_all = false;
    double straggler_train_s = 0.0;
    /// fedavg_all over one set: every final model identical and every
    /// round aggregated the whole roster.
    bool consensus = false;
    /// The model must end above chance (1 / classes).
    bool above_chance = false;
};

[[nodiscard]] Violations check_point(const bcfl::core::DecentralizedResult&
                                         result,
                                     const PointExpect& expect);

/// Mean final accuracy over peers (last aggregated round of each peer) —
/// the point's "precision".
[[nodiscard]] double final_accuracy(
    const bcfl::core::DecentralizedResult& result);

/// Compares a FedAvg result with the sample-weighted mean computed here in
/// double precision; they must agree within float rounding.
[[nodiscard]] Violations check_fedavg(
    std::span<const bcfl::fl::ModelUpdate> updates,
    std::span<const std::size_t> indices, std::span<const float> result);

// ------------------------------------------------------------ tcp_exchange

/// Chunk messages of the TCP exchange: [u32 sender][u32 round][u32 chunk]
/// followed by a payload derived from (seed, sender, chunk, round), so a
/// receiver regenerates and compares every byte.
class ChunkCodec {
public:
    ChunkCodec(std::uint64_t seed, std::size_t nodes, std::size_t model_bytes,
               std::size_t chunk_bytes);

    [[nodiscard]] std::size_t chunks() const { return chunks_; }
    [[nodiscard]] std::size_t payload_size(std::size_t chunk) const;
    [[nodiscard]] bcfl::Bytes encode(std::uint32_t sender, std::uint32_t round,
                                     std::uint32_t chunk) const;
    /// Checks `message` is chunk `chunk` of `round` from `sender`, intact.
    /// Empty string = pass; otherwise what is wrong.
    [[nodiscard]] std::string verify(const bcfl::Bytes& message,
                                     std::uint32_t sender, std::uint32_t round,
                                     std::uint32_t chunk) const;

private:
    std::size_t chunks_ = 0;
    std::size_t model_bytes_ = 0;
    std::size_t chunk_bytes_ = 0;
    // One base pattern per sender; a round's chunk is the pattern slice
    // with the round number folded into its first eight bytes.
    std::vector<bcfl::Bytes> base_;
};

/// Per-receiver stream check: every sender's chunks must arrive exactly
/// once and in order (round-major, chunk-minor).
class StreamCheck {
public:
    StreamCheck(const ChunkCodec& codec, std::size_t nodes, std::size_t self);

    /// Verifies the next message from `from`; returns "" or the fault.
    [[nodiscard]] std::string accept(std::size_t from, const bcfl::Bytes& message);
    /// Chunks received so far from `from`.
    [[nodiscard]] std::uint64_t received(std::size_t from) const {
        return next_[from];
    }

private:
    const ChunkCodec& codec_;
    std::size_t self_;
    std::vector<std::uint64_t> next_;  // per sender: round * chunks + chunk
};

/// End-of-run totals: every receiver got exactly `rounds` rounds from every
/// other sender, and the transport counted exactly what was sent.
[[nodiscard]] Violations check_exchange_totals(
    const std::vector<StreamCheck>& receivers, const ChunkCodec& codec,
    std::size_t nodes, std::uint64_t rounds, const bcfl::net::TrafficStats& stats);

}  // namespace perfbench
