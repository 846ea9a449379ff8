// Span recording and the `--wrap` wrappers of the traced benchmark binary.
//
// Each wrapper is bound by an asm label to `__wrap_<mangled symbol>` and
// calls the original through `__real_<mangled symbol>` (GNU ld resolves
// both when the binary is linked with `-Wl,--wrap=<mangled symbol>`).
// CMakeLists.txt builds the --wrap list from the mangled names in this
// file, so every `_Z...` name written here must be one that is wrapped,
// and adding a wrapper needs no other edit. Member functions are declared
// as free functions taking the object pointer first, which is how the
// Itanium C++ ABI passes `this` (after the hidden return-slot pointer,
// exactly as for a free function with the same return type).
#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/txpool.hpp"
#include "chain/types.hpp"
#include "checks.hpp"
#include "crypto/keccak.hpp"
#include "crypto/secp256k1.hpp"
#include "fl/fedavg.hpp"
#include "ml/layers.hpp"
#include "ml/train.hpp"
#include "node/node.hpp"
#include "rlp/rlp.hpp"
#include "trace.hpp"
#include "vm/evm.hpp"

namespace perfbench::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Frame {
    Fn fn;
    Clock::time_point start;
    double child_s = 0.0;
};

Report g_report;
std::vector<Frame> g_stack;
std::atomic<bool> g_active{false};
std::thread::id g_owner;
std::atomic<std::uint64_t> g_foreign{0};
Clock::time_point g_run_start;

double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
}

FnStats& slot(Fn fn) { return g_report.fn[static_cast<std::size_t>(fn)]; }

bool tracing() {
    if (!g_active.load(std::memory_order_acquire)) return false;
    if (std::this_thread::get_id() != g_owner) {
        g_foreign.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    return true;
}

/// One span: opened by the constructor, closed (and charged to its parent
/// as child time) by the destructor, so a throwing call still closes it.
class Span {
public:
    explicit Span(Fn fn) : on_(tracing()) {
        if (on_) g_stack.push_back({fn, Clock::now()});
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
        if (!on_) return;
        const double d = seconds(Clock::now() - g_stack.back().start);
        const Frame frame = g_stack.back();
        g_stack.pop_back();
        FnStats& s = slot(frame.fn);
        ++s.calls;
        s.total_s += d;
        s.self_s += d - frame.child_s;
        if (g_stack.empty()) {
            g_report.top_level_s += d;
        } else {
            g_stack.back().child_s += d;
        }
    }

    [[nodiscard]] bool on() const { return on_; }
    /// Whether the enclosing span (this span's parent) is `fn`.
    [[nodiscard]] bool parent_is(Fn fn) const {
        return on_ && g_stack.size() >= 2 && g_stack[g_stack.size() - 2].fn == fn;
    }

private:
    bool on_;
};

void add_bytes(const Span& span, Fn fn, std::size_t bytes) {
    if (span.on()) slot(fn).bytes += static_cast<double>(bytes);
}

void check_fedavg_result(std::span<const bcfl::fl::ModelUpdate> updates,
                         std::span<const std::size_t> indices,
                         std::span<const float> result) {
    const Span span(Fn::check);
    if (!span.on()) return;
    ++g_report.fedavg_checked;
    for (std::string& fault : check_fedavg(updates, indices, result)) {
        if (g_report.fedavg_faults.size() < 8) {
            g_report.fedavg_faults.push_back(std::move(fault));
        }
    }
}

}  // namespace

bool enabled() { return true; }

void begin_run() {
    g_owner = std::this_thread::get_id();
    g_run_start = Clock::now();
    g_active.store(true, std::memory_order_release);
}

void end_run() {
    g_active.store(false, std::memory_order_release);
    g_report.run_s += seconds(Clock::now() - g_run_start);
    g_report.foreign_calls = g_foreign.load();
}

const Report& report() { return g_report; }

}  // namespace perfbench::trace

using perfbench::trace::Fn;
using perfbench::trace::Span;
using bcfl::BytesView;
using bcfl::Hash32;
namespace chain = bcfl::chain;
namespace ml = bcfl::ml;
namespace fl = bcfl::fl;

#define PB_SYM(kind, mangled) asm("__" #kind "_" #mangled)

// ------------------------------------------------------------------ crypto
Hash32 real_keccak1(BytesView)
    PB_SYM(real, _ZN4bcfl6crypto9keccak256ESt4spanIKhLm18446744073709551615EE);
Hash32 wrap_keccak1(BytesView data)
    PB_SYM(wrap, _ZN4bcfl6crypto9keccak256ESt4spanIKhLm18446744073709551615EE);
Hash32 wrap_keccak1(BytesView data) {
    const Span span(Fn::keccak);
    perfbench::trace::add_bytes(span, Fn::keccak, data.size());
    return real_keccak1(data);
}

Hash32 real_keccak2(BytesView, BytesView) PB_SYM(
    real, _ZN4bcfl6crypto9keccak256ESt4spanIKhLm18446744073709551615EES3_);
Hash32 wrap_keccak2(BytesView a, BytesView b) PB_SYM(
    wrap, _ZN4bcfl6crypto9keccak256ESt4spanIKhLm18446744073709551615EES3_);
Hash32 wrap_keccak2(BytesView a, BytesView b) {
    const Span span(Fn::keccak);
    perfbench::trace::add_bytes(span, Fn::keccak, a.size() + b.size());
    return real_keccak2(a, b);
}

Hash32 real_sha256(BytesView)
    PB_SYM(real, _ZN4bcfl6crypto6sha256ESt4spanIKhLm18446744073709551615EE);
Hash32 wrap_sha256(BytesView data)
    PB_SYM(wrap, _ZN4bcfl6crypto6sha256ESt4spanIKhLm18446744073709551615EE);
Hash32 wrap_sha256(BytesView data) {
    const Span span(Fn::sha256);
    perfbench::trace::add_bytes(span, Fn::sha256, data.size());
    return real_sha256(data);
}

bool real_verify(const bcfl::crypto::Point&, BytesView,
                 const bcfl::crypto::Signature&)
    PB_SYM(real, _ZN4bcfl6crypto6verifyERKNS0_5PointESt4spanIKhLm18446744073709551615EERKNS0_9SignatureE);
bool wrap_verify(const bcfl::crypto::Point& pub, BytesView message,
                 const bcfl::crypto::Signature& sig)
    PB_SYM(wrap, _ZN4bcfl6crypto6verifyERKNS0_5PointESt4spanIKhLm18446744073709551615EERKNS0_9SignatureE);
bool wrap_verify(const bcfl::crypto::Point& pub, BytesView message,
                 const bcfl::crypto::Signature& sig) {
    const Span span(Fn::verify);
    return real_verify(pub, message, sig);
}

// --------------------------------------------------------------------- rlp
bcfl::Bytes real_rlp_encode(const bcfl::rlp::Item&)
    PB_SYM(real, _ZN4bcfl3rlp6encodeERKNS0_4ItemE);
bcfl::Bytes wrap_rlp_encode(const bcfl::rlp::Item& item)
    PB_SYM(wrap, _ZN4bcfl3rlp6encodeERKNS0_4ItemE);
bcfl::Bytes wrap_rlp_encode(const bcfl::rlp::Item& item) {
    const Span span(Fn::rlp_encode);
    bcfl::Bytes out = real_rlp_encode(item);
    perfbench::trace::add_bytes(span, Fn::rlp_encode, out.size());
    return out;
}

bcfl::rlp::Item real_rlp_decode(BytesView)
    PB_SYM(real, _ZN4bcfl3rlp6decodeESt4spanIKhLm18446744073709551615EE);
bcfl::rlp::Item wrap_rlp_decode(BytesView data)
    PB_SYM(wrap, _ZN4bcfl3rlp6decodeESt4spanIKhLm18446744073709551615EE);
bcfl::rlp::Item wrap_rlp_decode(BytesView data) {
    const Span span(Fn::rlp_decode);
    perfbench::trace::add_bytes(span, Fn::rlp_decode, data.size());
    return real_rlp_decode(data);
}

// ------------------------------------------------------------------- chain
Hash32 real_tx_hash(const chain::Transaction*)
    PB_SYM(real, _ZNK4bcfl5chain11Transaction4hashEv);
Hash32 wrap_tx_hash(const chain::Transaction* self)
    PB_SYM(wrap, _ZNK4bcfl5chain11Transaction4hashEv);
Hash32 wrap_tx_hash(const chain::Transaction* self) {
    const Span span(Fn::tx_hash);
    return real_tx_hash(self);
}

chain::Transaction real_tx_decode(BytesView) PB_SYM(
    real, _ZN4bcfl5chain11Transaction6decodeESt4spanIKhLm18446744073709551615EE);
chain::Transaction wrap_tx_decode(BytesView wire) PB_SYM(
    wrap, _ZN4bcfl5chain11Transaction6decodeESt4spanIKhLm18446744073709551615EE);
chain::Transaction wrap_tx_decode(BytesView wire) {
    const Span span(Fn::tx_decode);
    return real_tx_decode(wire);
}

chain::ImportResult real_block_import(chain::Blockchain*, const chain::Block&)
    PB_SYM(real, _ZN4bcfl5chain10Blockchain12import_blockERKNS0_5BlockE);
chain::ImportResult wrap_block_import(chain::Blockchain* self,
                                      const chain::Block& block)
    PB_SYM(wrap, _ZN4bcfl5chain10Blockchain12import_blockERKNS0_5BlockE);
chain::ImportResult wrap_block_import(chain::Blockchain* self,
                                      const chain::Block& block) {
    const Span span(Fn::block_import);
    return real_block_import(self, block);
}

bool real_pool_add(chain::TxPool*, const chain::Transaction&)
    PB_SYM(real, _ZN4bcfl5chain6TxPool3addERKNS0_11TransactionE);
bool wrap_pool_add(chain::TxPool* self, const chain::Transaction& tx)
    PB_SYM(wrap, _ZN4bcfl5chain6TxPool3addERKNS0_11TransactionE);
bool wrap_pool_add(chain::TxPool* self, const chain::Transaction& tx) {
    const Span span(Fn::pool_add);
    const bool accepted = real_pool_add(self, tx);
    if (span.on()) {
        perfbench::trace::FnStats& s = perfbench::trace::slot(Fn::pool_add);
        if (accepted) ++s.accepted;
        if (span.parent_is(Fn::submit_tx)) ++s.nested;
    }
    return accepted;
}

std::optional<std::uint64_t> real_mine_seal(const chain::BlockHeader&,
                                            std::uint64_t, std::uint64_t)
    PB_SYM(real, _ZN4bcfl5chain9mine_sealERKNS0_11BlockHeaderEmm);
std::optional<std::uint64_t> wrap_mine_seal(const chain::BlockHeader& header,
                                            std::uint64_t start,
                                            std::uint64_t attempts)
    PB_SYM(wrap, _ZN4bcfl5chain9mine_sealERKNS0_11BlockHeaderEmm);
std::optional<std::uint64_t> wrap_mine_seal(const chain::BlockHeader& header,
                                            std::uint64_t start,
                                            std::uint64_t attempts) {
    const Span span(Fn::mine_seal);
    return real_mine_seal(header, start, attempts);
}

// -------------------------------------------------------------------- node
void real_submit_tx(bcfl::node::Node*, const chain::Transaction&)
    PB_SYM(real, _ZN4bcfl4node4Node9submit_txERKNS_5chain11TransactionE);
void wrap_submit_tx(bcfl::node::Node* self, const chain::Transaction& tx)
    PB_SYM(wrap, _ZN4bcfl4node4Node9submit_txERKNS_5chain11TransactionE);
void wrap_submit_tx(bcfl::node::Node* self, const chain::Transaction& tx) {
    const Span span(Fn::submit_tx);
    real_submit_tx(self, tx);
}

// ---------------------------------------------------------------------- vm
bcfl::vm::CallResult real_vm_call(const bcfl::vm::Vm*, bcfl::vm::WorldState&,
                                  const bcfl::vm::CallContext&)
    PB_SYM(real, _ZNK4bcfl2vm2Vm4callERNS0_10WorldStateERKNS0_11CallContextE);
bcfl::vm::CallResult wrap_vm_call(const bcfl::vm::Vm* self,
                                  bcfl::vm::WorldState& state,
                                  const bcfl::vm::CallContext& ctx)
    PB_SYM(wrap, _ZNK4bcfl2vm2Vm4callERNS0_10WorldStateERKNS0_11CallContextE);
bcfl::vm::CallResult wrap_vm_call(const bcfl::vm::Vm* self,
                                  bcfl::vm::WorldState& state,
                                  const bcfl::vm::CallContext& ctx) {
    const Span span(Fn::vm_call);
    return real_vm_call(self, state, ctx);
}

bcfl::vm::CallResult real_vm_static_call(const bcfl::vm::Vm*,
                                         const bcfl::vm::WorldState&,
                                         const bcfl::vm::CallContext&)
    PB_SYM(real, _ZNK4bcfl2vm2Vm11static_callERKNS0_10WorldStateERKNS0_11CallContextE);
bcfl::vm::CallResult wrap_vm_static_call(const bcfl::vm::Vm* self,
                                         const bcfl::vm::WorldState& state,
                                         const bcfl::vm::CallContext& ctx)
    PB_SYM(wrap, _ZNK4bcfl2vm2Vm11static_callERKNS0_10WorldStateERKNS0_11CallContextE);
bcfl::vm::CallResult wrap_vm_static_call(const bcfl::vm::Vm* self,
                                         const bcfl::vm::WorldState& state,
                                         const bcfl::vm::CallContext& ctx) {
    const Span span(Fn::vm_call);
    return real_vm_static_call(self, state, ctx);
}

// ---------------------------------------------------------------------- ml
#define PB_MATMUL(name, mangled)                                             \
    void real_##name(const float*, const float*, float*, std::size_t,        \
                     std::size_t, std::size_t, bool) PB_SYM(real, mangled);  \
    void wrap_##name(const float* a, const float* b, float* out,             \
                     std::size_t m, std::size_t k, std::size_t n, bool acc)  \
        PB_SYM(wrap, mangled);                                               \
    void wrap_##name(const float* a, const float* b, float* out,             \
                     std::size_t m, std::size_t k, std::size_t n, bool acc) { \
        const Span span(Fn::matmul);                                         \
        if (span.on()) {                                                     \
            perfbench::trace::slot(Fn::matmul).flop +=                      \
                2.0 * static_cast<double>(m) * static_cast<double>(k) *      \
                static_cast<double>(n);                                      \
        }                                                                    \
        real_##name(a, b, out, m, k, n, acc);                                \
    }
PB_MATMUL(matmul_nn, _ZN4bcfl2ml9matmul_nnEPKfS2_Pfmmmb)
PB_MATMUL(matmul_nt, _ZN4bcfl2ml9matmul_ntEPKfS2_Pfmmmb)
PB_MATMUL(matmul_tn, _ZN4bcfl2ml9matmul_tnEPKfS2_Pfmmmb)
#undef PB_MATMUL

ml::TrainReport real_ml_train(ml::Sequential&, const ml::Dataset&,
                              const ml::TrainConfig&, ml::Sgd&)
    PB_SYM(real, _ZN4bcfl2ml5trainERNS0_10SequentialERKNS0_7DatasetERKNS0_11TrainConfigERNS0_3SgdE);
ml::TrainReport wrap_ml_train(ml::Sequential& model, const ml::Dataset& data,
                              const ml::TrainConfig& config, ml::Sgd& sgd)
    PB_SYM(wrap, _ZN4bcfl2ml5trainERNS0_10SequentialERKNS0_7DatasetERKNS0_11TrainConfigERNS0_3SgdE);
ml::TrainReport wrap_ml_train(ml::Sequential& model, const ml::Dataset& data,
                              const ml::TrainConfig& config, ml::Sgd& sgd) {
    const Span span(Fn::ml_train);
    return real_ml_train(model, data, config, sgd);
}

double real_ml_eval(ml::Sequential&, const ml::Dataset&, std::size_t)
    PB_SYM(real, _ZN4bcfl2ml17evaluate_accuracyERNS0_10SequentialERKNS0_7DatasetEm);
double wrap_ml_eval(ml::Sequential& model, const ml::Dataset& data,
                    std::size_t batch)
    PB_SYM(wrap, _ZN4bcfl2ml17evaluate_accuracyERNS0_10SequentialERKNS0_7DatasetEm);
double wrap_ml_eval(ml::Sequential& model, const ml::Dataset& data,
                    std::size_t batch) {
    const Span span(Fn::ml_eval);
    return real_ml_eval(model, data, batch);
}

bcfl::Bytes real_serialize(std::span<const float>)
    PB_SYM(real, _ZN4bcfl2ml17serialize_weightsESt4spanIKfLm18446744073709551615EE);
bcfl::Bytes wrap_serialize(std::span<const float> weights)
    PB_SYM(wrap, _ZN4bcfl2ml17serialize_weightsESt4spanIKfLm18446744073709551615EE);
bcfl::Bytes wrap_serialize(std::span<const float> weights) {
    const Span span(Fn::serialize);
    bcfl::Bytes out = real_serialize(weights);
    perfbench::trace::add_bytes(span, Fn::serialize, out.size());
    return out;
}

// ---------------------------------------------------------------------- fl
std::vector<float> real_fedavg(std::span<const fl::ModelUpdate>)
    PB_SYM(real, _ZN4bcfl2fl6fedavgESt4spanIKNS0_11ModelUpdateELm18446744073709551615EE);
std::vector<float> wrap_fedavg(std::span<const fl::ModelUpdate> updates)
    PB_SYM(wrap, _ZN4bcfl2fl6fedavgESt4spanIKNS0_11ModelUpdateELm18446744073709551615EE);
std::vector<float> wrap_fedavg(std::span<const fl::ModelUpdate> updates) {
    std::vector<float> out;
    {
        const Span span(Fn::fedavg);
        out = real_fedavg(updates);
    }
    perfbench::trace::check_fedavg_result(updates, {}, out);
    return out;
}

std::vector<float> real_fedavg_subset(std::span<const fl::ModelUpdate>,
                                      std::span<const std::size_t>)
    PB_SYM(real, _ZN4bcfl2fl13fedavg_subsetESt4spanIKNS0_11ModelUpdateELm18446744073709551615EES1_IKmLm18446744073709551615EE);
std::vector<float> wrap_fedavg_subset(std::span<const fl::ModelUpdate> updates,
                                      std::span<const std::size_t> indices)
    PB_SYM(wrap, _ZN4bcfl2fl13fedavg_subsetESt4spanIKNS0_11ModelUpdateELm18446744073709551615EES1_IKmLm18446744073709551615EE);
std::vector<float> wrap_fedavg_subset(std::span<const fl::ModelUpdate> updates,
                                      std::span<const std::size_t> indices) {
    std::vector<float> out;
    {
        const Span span(Fn::fedavg);
        out = real_fedavg_subset(updates, indices);
    }
    perfbench::trace::check_fedavg_result(updates, indices, out);
    return out;
}
