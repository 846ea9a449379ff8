// Per-layer spans for the traced benchmark binary.
//
// The traced binary is linked with `-Wl,--wrap=<symbol>` for every symbol
// trace.cpp wraps, so each call from one source file of the program into
// another lands in a wrapper (trace.cpp) that opens a span,
// calls the real function and closes the span. A span records its parent
// (the span open when it started), so a function's self time is its span
// time minus its children's. Nothing in the program's sources changes.
//
// The untraced binary links notrace.cpp instead: the same interface with
// `enabled() == false` and no wrappers, so its timings carry no tracing
// cost.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

enum class Fn : std::uint8_t {
    keccak,        // crypto::keccak256 (both overloads)
    sha256,        // crypto::sha256
    verify,        // crypto::verify (Schnorr)
    rlp_encode,    // rlp::encode
    rlp_decode,    // rlp::decode
    tx_hash,       // chain::Transaction::hash
    tx_decode,     // chain::Transaction::decode
    block_import,  // chain::Blockchain::import_block
    pool_add,      // chain::TxPool::add
    mine_seal,     // chain::mine_seal
    submit_tx,     // node::Node::submit_tx
    vm_call,       // vm::Vm::call and vm::Vm::static_call
    matmul,        // ml::matmul_nn / matmul_nt / matmul_tn
    ml_train,      // ml::train
    ml_eval,       // ml::evaluate_accuracy
    serialize,     // ml::serialize_weights
    fedavg,        // fl::fedavg and fl::fedavg_subset
    check,         // the benchmark's own FedAvg check (excluded from layers)
};
inline constexpr std::size_t kFnCount = static_cast<std::size_t>(Fn::check) + 1;

struct FnStats {
    std::uint64_t calls = 0;
    double total_s = 0.0;  // inclusive span time
    double self_s = 0.0;   // span time minus child spans
    double bytes = 0.0;    // bytes hashed / encoded / decoded / serialized
    double flop = 0.0;     // matmul: 2*m*n*k
    std::uint64_t accepted = 0;  // pool_add: calls that returned true
    std::uint64_t nested = 0;    // pool_add: calls made inside submit_tx
};

struct Report {
    std::array<FnStats, kFnCount> fn{};
    double run_s = 0.0;        // wall time inside begin_run/end_run
    double top_level_s = 0.0;  // time inside spans that had no parent
    std::uint64_t fedavg_checked = 0;
    std::vector<std::string> fedavg_faults;
    /// Wrapped calls made off the thread that called begin_run; they are
    /// passed through untimed (the sim workloads run on one thread).
    std::uint64_t foreign_calls = 0;
};

/// Whether this binary records spans.
[[nodiscard]] bool enabled();
/// Spans are recorded only between begin_run and end_run, on the calling
/// thread; the pairs may repeat and their times add up.
void begin_run();
void end_run();
[[nodiscard]] const Report& report();

[[nodiscard]] inline const FnStats& stats(Fn fn) {
    return report().fn[static_cast<std::size_t>(fn)];
}

}  // namespace perfbench::trace
