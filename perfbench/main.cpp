// The repository benchmark: three workloads, end-to-end metrics from the
// untraced binary, per-layer metrics from the traced one (see README.md).
//
//   perfbench --workload <paper_tradeoff|flat_gossip_64|tcp_exchange>
//             --seed <n> --seconds <s>
//
// Runs whole units of work (a full sweep of grid points, or a batch of
// exchange rounds) until at least --seconds have passed, checks every
// output, and prints one JSON object as its last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The traced binary (same sources plus trace.cpp) prints per-layer
// metrics instead of end-to-end ones.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/experiment.hpp"
#include "core/paper_setup.hpp"
#include "core/scenario.hpp"
#include "ml/data.hpp"
#include "net/tcp_transport.hpp"
#include "sim_spec.hpp"
#include "trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::trace::Fn;

// Set during static initialisation, before main: set-up time counts from
// the process's start.
const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::int64_t process_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Live threads of this process, from /proc/self/status.
double thread_count() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
    }
    return 0.0;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Options parse_options(int argc, char** argv) {
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (options.trace != perfbench::trace::enabled()) {
        throw std::invalid_argument(
            options.trace ? "--trace 1 needs the traced binary"
                          : "the traced binary runs only with --trace 1");
    }
    return options;
}

struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, {value, unit}});
    }
    void fail(const std::string& where, const std::vector<std::string>& faults) {
        for (const std::string& fault : faults) {
            violations.push_back(where + ": " + fault);
        }
    }
};

/// Totals every workload reports; unused fields stay 0 in the trace.
struct LayerTotals {
    bcfl::net::TrafficStats traffic;
    double send_self_s = 0.0;
    double wait_ms = 0.0;
    double threads = 0.0;
    double round_wall_ms = 0.0;
    // The paper's speed and precision, sim workloads only: the mean
    // simulated round and the mean final global-test accuracy over the
    // grid points. Both are outputs of the deterministic simulation, not
    // measurements of this machine.
    double sim_round_s = 0.0;
    double final_accuracy = 0.0;
};

void add_layer_metrics(Outcome& out, const LayerTotals& totals) {
    namespace trace = perfbench::trace;
    const trace::Report& report = trace::report();
    const double run_s = report.run_s;
    auto share = [run_s](double s) { return run_s > 0 ? s / run_s : 0.0; };
    auto mb = [](double bytes) { return bytes / 1e6; };
    const trace::FnStats& keccak = trace::stats(Fn::keccak);
    const trace::FnStats& sha = trace::stats(Fn::sha256);
    const trace::FnStats& verify = trace::stats(Fn::verify);
    const trace::FnStats& encode = trace::stats(Fn::rlp_encode);
    const trace::FnStats& decode = trace::stats(Fn::rlp_decode);
    const trace::FnStats& tx_hash = trace::stats(Fn::tx_hash);
    const trace::FnStats& tx_decode = trace::stats(Fn::tx_decode);
    const trace::FnStats& import = trace::stats(Fn::block_import);
    const trace::FnStats& pool = trace::stats(Fn::pool_add);
    const trace::FnStats& seal = trace::stats(Fn::mine_seal);
    const trace::FnStats& submit = trace::stats(Fn::submit_tx);
    const trace::FnStats& vm = trace::stats(Fn::vm_call);
    const trace::FnStats& matmul = trace::stats(Fn::matmul);
    const trace::FnStats& train = trace::stats(Fn::ml_train);
    const trace::FnStats& eval = trace::stats(Fn::ml_eval);
    const trace::FnStats& serialize = trace::stats(Fn::serialize);
    const trace::FnStats& fedavg = trace::stats(Fn::fedavg);
    auto count = [](std::uint64_t n) { return static_cast<double>(n); };

    out.metric("crypto.keccak_calls", count(keccak.calls), "count");
    out.metric("crypto.keccak_mb", mb(keccak.bytes), "MB");
    out.metric("crypto.keccak_self_s", keccak.self_s, "s");
    out.metric("crypto.keccak_share", share(keccak.self_s), "fraction");
    out.metric("crypto.sha256_mb", mb(sha.bytes), "MB");
    out.metric("crypto.sha256_self_s", sha.self_s, "s");
    out.metric("crypto.verify_calls", count(verify.calls), "count");
    out.metric("crypto.verify_self_s", verify.self_s, "s");
    out.metric("crypto.verify_share", share(verify.self_s), "fraction");
    out.metric("rlp.encode_mb", mb(encode.bytes), "MB");
    out.metric("rlp.decode_mb", mb(decode.bytes), "MB");
    out.metric("rlp.self_s", encode.self_s + decode.self_s, "s");
    out.metric("chain.tx_hash_calls", count(tx_hash.calls), "count");
    out.metric("chain.tx_hash_self_s", tx_hash.self_s, "s");
    // Inclusive: hashing a transaction re-encodes it (rlp) and runs keccak.
    out.metric("chain.tx_hash_share", share(tx_hash.total_s), "fraction");
    out.metric("chain.tx_decode_calls", count(tx_decode.calls), "count");
    out.metric("chain.block_import_calls", count(import.calls), "count");
    out.metric("chain.block_import_self_s", import.self_s, "s");
    out.metric("chain.pool_add_calls", count(pool.calls), "count");
    out.metric("chain.pool_accept_ratio",
               pool.calls ? count(pool.accepted) / count(pool.calls) : 0.0,
               "fraction");
    out.metric("chain.mine_seal_self_s", seal.self_s, "s");
    // Every wrapped Transaction::decode is a gossiped tx (node.cpp); those
    // not seen before go on to TxPool::add outside submit_tx, the rest were
    // decoded only to be discarded as duplicates.
    const std::uint64_t gossip_adds = pool.calls - pool.nested;
    out.metric("node.dup_tx_decodes",
               count(tx_decode.calls > gossip_adds ? tx_decode.calls - gossip_adds
                                                   : 0),
               "count");
    out.metric("node.submit_tx_self_s", submit.self_s, "s");
    out.metric("vm.execute_calls", count(vm.calls), "count");
    out.metric("vm.execute_self_s", vm.self_s, "s");
    out.metric("net.messages_sent", count(totals.traffic.messages_sent), "count");
    out.metric("net.messages_delivered", count(totals.traffic.messages_delivered),
               "count");
    out.metric("net.messages_dropped", count(totals.traffic.messages_dropped),
               "count");
    out.metric("net.mb_sent", mb(static_cast<double>(totals.traffic.bytes_sent)),
               "MB");
    out.metric("net.send_self_s", totals.send_self_s, "s");
    out.metric("net.wait_ms", totals.wait_ms, "ms");
    out.metric("net.threads", totals.threads, "count");
    out.metric("ml.matmul_gflop", matmul.flop / 1e9, "GFLOP");
    out.metric("ml.matmul_self_s", matmul.self_s, "s");
    out.metric("ml.matmul_gflops",
               matmul.self_s > 0 ? matmul.flop / 1e9 / matmul.self_s : 0.0,
               "GFLOP/s");
    out.metric("ml.train_self_s", train.self_s, "s");
    out.metric("ml.eval_calls", count(eval.calls), "count");
    out.metric("ml.eval_self_s", eval.self_s, "s");
    out.metric("ml.serialize_mb", mb(serialize.bytes), "MB");
    out.metric("fl.fedavg_calls", count(fedavg.calls), "count");
    out.metric("fl.fedavg_self_s", fedavg.self_s, "s");
    out.metric("core.self_s", run_s > 0 ? run_s - report.top_level_s : 0.0, "s");
    out.metric("core.sim_round_s", totals.sim_round_s, "sim_s");
    out.metric("fl.final_accuracy", totals.final_accuracy, "fraction");
    out.metric("trace.round_wall_ms", totals.round_wall_ms, "ms");
}

// ------------------------------------------------------------------- sim

void run_sim(const Options& options, Outcome& out) {
    namespace core = bcfl::core;
    const core::ScenarioSpec spec =
        perfbench::load_sim_spec(options.workload, options.seed);
    std::vector<core::ScenarioPoint> points = core::expand_grid(spec);
    bcfl::ml::SyntheticCifarConfig data_config = spec.data;
    data_config.clients = spec.base.peers;
    const bcfl::ml::FederatedData data = bcfl::ml::make_synthetic_cifar(data_config);
    const bcfl::fl::FlTask task = core::paper_simple_task(data, spec.model_hidden);
    const double setup_s = since(g_process_start);

    const std::size_t inputs =
        data_config.channels * data_config.height * data_config.width;
    std::vector<perfbench::PointExpect> expects;
    for (core::ScenarioPoint& point : points) {
        point.config.threads = 1;
        const core::DecentralizedConfig& config = point.config;
        perfbench::PointExpect expect;
        expect.peers = config.peers;
        expect.rounds = config.rounds;
        expect.classes = data_config.classes;
        expect.model_bytes = perfbench::simple_model_bytes(
            inputs, spec.model_hidden, data_config.classes);
        expect.wait_all = config.wait_policy.rfind("wait_all", 0) == 0;
        expect.straggler_train_s = bcfl::net::to_seconds(
            config.stragglers.empty()
                ? config.train_duration
                : std::max(config.train_duration,
                           config.straggler_train_duration));
        expect.consensus = expect.wait_all && config.aggregation == "fedavg_all";
        // flat_gossip_64 trains a hidden-8 model on 20 images per peer for
        // two rounds: a gossip load, not a learning task; it ends near chance.
        expect.above_chance = options.workload == "paper_tradeoff";
        expects.push_back(expect);
    }

    LayerTotals totals;
    double sim_round_s = 0.0;
    double accuracy = 0.0;
    std::size_t point_runs = 0;
    const double cpu0 = cpu_seconds();
    const Clock::time_point start = Clock::now();
    do {
        for (std::size_t i = 0; i < points.size(); ++i) {
            perfbench::trace::begin_run();
            const core::DecentralizedResult result =
                core::run_decentralized(task, points[i].config);
            perfbench::trace::end_run();
            out.fail(points[i].label, perfbench::check_point(result, expects[i]));
            sim_round_s += result.mean_round_seconds;
            accuracy += perfbench::final_accuracy(result);
            totals.traffic.messages_sent += result.traffic.messages_sent;
            totals.traffic.messages_delivered += result.traffic.messages_delivered;
            totals.traffic.messages_dropped += result.traffic.messages_dropped;
            totals.traffic.bytes_sent += result.traffic.bytes_sent;
            out.attempted += points[i].config.rounds;
            ++point_runs;
        }
    } while (since(start) < options.seconds);
    const double wall_s = since(start);
    const double cpu_s = cpu_seconds() - cpu0;
    const auto rounds = static_cast<double>(out.attempted);

    if (!options.trace) {
        out.metric("setup_s", setup_s, "s");
        out.metric("round_wall_ms", wall_s * 1e3 / rounds, "ms");
        out.metric("round_cpu_ms", cpu_s * 1e3 / rounds, "ms");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }

    const perfbench::trace::Report& report = perfbench::trace::report();
    if (report.foreign_calls != 0) {
        out.violations.push_back(std::to_string(report.foreign_calls) +
                                 " traced calls ran off the workload's thread");
    }
    out.fail("fedavg check", report.fedavg_faults);
    if (report.fedavg_checked == 0) {
        out.violations.push_back("no fedavg result was checked");
    }
    // A wrapper that records nothing means the call no longer crosses a
    // file boundary (or the wrap list went stale): the layer would read 0.
    static constexpr std::pair<Fn, const char*> kExercised[] = {
        {Fn::keccak, "keccak256"},    {Fn::sha256, "sha256"},
        {Fn::verify, "verify"},
        {Fn::rlp_encode, "rlp::encode"}, {Fn::rlp_decode, "rlp::decode"},
        {Fn::tx_hash, "Transaction::hash"},
        {Fn::tx_decode, "Transaction::decode"},
        {Fn::block_import, "Blockchain::import_block"},
        {Fn::pool_add, "TxPool::add"}, {Fn::mine_seal, "mine_seal"},
        {Fn::submit_tx, "Node::submit_tx"}, {Fn::vm_call, "Vm::call"},
        {Fn::matmul, "matmul"},       {Fn::ml_train, "ml::train"},
        {Fn::ml_eval, "evaluate_accuracy"},
        {Fn::serialize, "serialize_weights"}, {Fn::fedavg, "fedavg"},
    };
    for (const auto& [fn, name] : kExercised) {
        if (perfbench::trace::stats(fn).calls == 0) {
            out.violations.push_back(std::string("traced ") + name +
                                     " recorded no calls");
        }
    }
    totals.threads = thread_count();
    totals.round_wall_ms = wall_s * 1e3 / rounds;
    totals.sim_round_s = sim_round_s / static_cast<double>(point_runs);
    totals.final_accuracy = accuracy / static_cast<double>(point_runs);
    add_layer_metrics(out, totals);
}

// ------------------------------------------------------------ tcp_exchange

/// Three nodes on loopback TCP in a closed loop: each round every node
/// broadcasts one model's worth of chunks, and starts its next round once
/// it holds every other node's chunks of the current one. Rounds run in
/// batches; the first node to finish a batch decides, from the clock,
/// whether the next batch runs, and every node follows that decision, so a
/// run always ends on a whole batch.
class Exchange {
public:
    static constexpr std::size_t kNodes = 3;
    static constexpr std::uint32_t kBatch = 50;
    static constexpr std::uint32_t kMaxBatches = 4000;

    Exchange(std::uint64_t seed, std::size_t model_bytes, std::size_t chunk_bytes)
        : codec_(seed, kNodes, model_bytes, chunk_bytes), decisions_(kMaxBatches + 1) {
        nodes_.reserve(kNodes);
        for (std::size_t i = 0; i < kNodes; ++i) {
            nodes_.emplace_back(codec_, i);
        }
        for (std::size_t i = 0; i < kNodes; ++i) {
            transport_.add_node([this, i](bcfl::net::NodeId from,
                                          const bcfl::Bytes& message) {
                receive(i, from, message);
            });
        }
    }

    Exchange(const Exchange&) = delete;
    Exchange& operator=(const Exchange&) = delete;
    // The transport's threads call into nodes_, which is destroyed first.
    ~Exchange() { transport_.stop(); }

    void start() { transport_.start(); }

    /// Runs batches until `seconds` have passed.
    void run(double seconds, bool sample_threads) {
        start_ = Clock::now();
        start_cpu_ns_ = process_cpu_ns();
        deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
        for (std::size_t i = 0; i < kNodes; ++i) {
            transport_.schedule_after(static_cast<bcfl::net::NodeId>(i), 0,
                                      [this, i] {
                                          start_round(i, 1);
                                          advance(i);
                                      });
        }
        // A lost message stalls the closed loop; give up well inside the
        // benchmark's time budget and report it.
        const bcfl::net::SimTime limit =
            transport_.now() + static_cast<bcfl::net::SimTime>((seconds + 10.0) * 1e6);
        transport_.run(
            [&] {
                if (sample_threads) threads_ = std::max(threads_, thread_count());
                return finished_.load() == kNodes;
            },
            limit);
        transport_.stop();
        if (finished_.load() != kNodes && !failed_.load()) {
            fault("exchange did not finish within its time limit");
        }
    }

    /// Wall (or process CPU) time from the start of run() to the end of
    /// its last batch, in ms. A batch ends when the first node finishes it.
    [[nodiscard]] double timed_ms(bool cpu) const {
        const std::int64_t ns =
            cpu ? end_cpu_ns_.load() - start_cpu_ns_ : end_wall_ns_.load();
        return static_cast<double>(ns) * 1e-6;
    }

    [[nodiscard]] std::uint64_t rounds() const { return nodes_[0].rounds_done; }
    [[nodiscard]] bcfl::net::TrafficStats stats() const { return transport_.stats(); }
    [[nodiscard]] double threads() const { return threads_; }
    [[nodiscard]] double send_self_s() const {
        return static_cast<double>(send_ns_.load()) * 1e-9;
    }

    /// Call after run(): the faults seen, then the end-of-run totals.
    [[nodiscard]] std::vector<std::string> violations() const {
        std::vector<std::string> out = faults_;
        for (std::size_t i = 1; i < kNodes; ++i) {
            if (nodes_[i].rounds_done != nodes_[0].rounds_done) {
                out.push_back("nodes finished different round counts");
            }
        }
        std::vector<perfbench::StreamCheck> streams;
        for (const Node& node : nodes_) streams.push_back(node.stream);
        for (std::string& v : perfbench::check_exchange_totals(
                 streams, codec_, kNodes, rounds(), stats())) {
            out.push_back(std::move(v));
        }
        return out;
    }

    /// Mean over node-rounds of the time from a node's last send to its
    /// last receipt, in microseconds of the transport clock.
    [[nodiscard]] double mean_wait_us() const {
        double sum = 0.0;
        std::uint64_t n = 0;
        for (const Node& node : nodes_) {
            sum += node.wait_us;
            n += node.rounds_done;
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }

private:
    // Touched only on the node's own dispatch thread until stop().
    struct Node {
        Node(const perfbench::ChunkCodec& codec, std::size_t self)
            : stream(codec, kNodes, self) {}
        perfbench::StreamCheck stream;
        std::uint32_t round = 0;
        bool done = false;
        bcfl::net::SimTime last_send = 0;
        std::uint64_t rounds_done = 0;
        double wait_us = 0.0;   // last send -> last receipt, summed
    };

    void fault(std::string what) {
        {
            const std::lock_guard<std::mutex> lock(faults_mu_);
            if (faults_.size() < 8) faults_.push_back(std::move(what));
        }
        failed_.store(true);
        finished_.store(kNodes);  // stop the run loop
    }

    void receive(std::size_t self, bcfl::net::NodeId from,
                 const bcfl::Bytes& message) {
        Node& node = nodes_[self];
        if (failed_.load()) return;
        if (node.done) {
            fault("node " + std::to_string(self) + " got a message after its last round");
            return;
        }
        std::string problem = node.stream.accept(from, message);
        if (!problem.empty()) {
            fault("node " + std::to_string(self) + ": " + problem);
            return;
        }
        advance(self);
    }

    bool complete(std::size_t self) const {
        const Node& node = nodes_[self];
        const std::uint64_t need = std::uint64_t{node.round} * codec_.chunks();
        for (std::size_t s = 0; s < kNodes; ++s) {
            if (s != self && node.stream.received(s) < need) return false;
        }
        return true;
    }

    void advance(std::size_t self) {
        Node& node = nodes_[self];
        while (node.round > 0 && !node.done && complete(self)) {
            const bcfl::net::SimTime now = transport_.now();
            node.wait_us += static_cast<double>(now - node.last_send);
            ++node.rounds_done;
            if (node.round % kBatch == 0 && !go_on(node.round / kBatch)) {
                node.done = true;
                finished_.fetch_add(1);
                return;
            }
            start_round(self, node.round + 1);
        }
    }

    /// Whether batch `batch` + 1 runs; the first node to ask decides.
    bool go_on(std::uint32_t batch) {
        std::atomic<int>& decision = decisions_[batch];
        int decided = decision.load();
        if (decided == 0) {
            const Clock::time_point now = Clock::now();
            const int mine = now < deadline_ && batch < kMaxBatches ? 1 : 2;
            if (decision.compare_exchange_strong(decided, mine)) {
                decided = mine;
                if (mine == 2) {
                    end_wall_ns_.store(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
                            .count());
                    end_cpu_ns_.store(process_cpu_ns());
                }
            }
        }
        return decided == 1;
    }

    void start_round(std::size_t self, std::uint32_t round) {
        Node& node = nodes_[self];
        node.round = round;
        const auto id = static_cast<bcfl::net::NodeId>(self);
        for (std::size_t c = 0; c < codec_.chunks(); ++c) {
            const bcfl::Bytes message = codec_.encode(
                static_cast<std::uint32_t>(self), round, static_cast<std::uint32_t>(c));
            const Clock::time_point t0 = Clock::now();
            transport_.broadcast(id, message);
            send_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now() - t0)
                                   .count());
        }
        node.last_send = transport_.now();
    }

    perfbench::ChunkCodec codec_;
    bcfl::net::TcpTransport transport_;
    std::vector<Node> nodes_;
    /// Per batch: 0 open, 1 go on, 2 stop.
    std::vector<std::atomic<int>> decisions_;
    Clock::time_point start_;
    Clock::time_point deadline_;
    std::int64_t start_cpu_ns_ = 0;
    // Stamped by the node that decided to stop, when it did: the end of the
    // last batch, on the wall clock (since start_) and the process CPU clock.
    std::atomic<std::int64_t> end_wall_ns_{0};
    std::atomic<std::int64_t> end_cpu_ns_{0};
    std::atomic<std::size_t> finished_{0};
    std::atomic<bool> failed_{false};
    std::atomic<std::int64_t> send_ns_{0};
    double threads_ = 0.0;
    std::mutex faults_mu_;
    std::vector<std::string> faults_;
};

void run_tcp(const Options& options, Outcome& out) {
    // One model's worth per round: the paper_tradeoff model (12x12x3
    // inputs, 96 hidden, 10 classes), in chunks of the default chunk size.
    const std::size_t model_bytes = perfbench::simple_model_bytes(12 * 12 * 3, 96, 10);
    const std::size_t chunk_bytes = bcfl::core::DecentralizedConfig{}.chunk_bytes;
    // The run is split into sessions, each on a fresh transport (new
    // sockets and threads): how the kernel places one session's 14 threads
    // shifts its round time by up to 12%, and summing several sessions
    // averages that out. Set-up time is the first session's, the only cold
    // one. The round times are every session's timed batches (run() to the
    // end of its last batch) over all its rounds; a session's start() and
    // stop() are left out, as stop() waits out the transport's re-dial
    // timer.
    constexpr int kSessions = 10;
    double setup_s = 0.0;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    std::uint64_t rounds = 0;
    LayerTotals totals;
    for (int session = 0; session < kSessions; ++session) {
        Exchange exchange(options.seed, model_bytes, chunk_bytes);
        exchange.start();
        if (session == 0) setup_s = since(g_process_start);
        exchange.run(options.seconds / kSessions, options.trace);
        const std::vector<std::string> faults = exchange.violations();
        out.fail("tcp_exchange session " + std::to_string(session), faults);
        rounds += exchange.rounds();
        wall_ms += exchange.timed_ms(false);
        cpu_ms += exchange.timed_ms(true);
        const bcfl::net::TrafficStats stats = exchange.stats();
        totals.traffic.messages_sent += stats.messages_sent;
        totals.traffic.messages_delivered += stats.messages_delivered;
        totals.traffic.messages_dropped += stats.messages_dropped;
        totals.traffic.bytes_sent += stats.bytes_sent;
        totals.send_self_s += exchange.send_self_s();
        totals.wait_ms += exchange.mean_wait_us() * 1e-3 / kSessions;
        totals.threads = std::max(totals.threads, exchange.threads());
        if (!faults.empty()) break;
    }
    out.attempted += rounds;
    const double per_round = rounds ? 1.0 / static_cast<double>(rounds) : 0.0;

    if (!options.trace) {
        out.metric("setup_s", setup_s, "s");
        out.metric("round_wall_ms", wall_ms * per_round, "ms");
        out.metric("round_cpu_ms", cpu_ms * per_round, "ms");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }
    totals.round_wall_ms = wall_ms * per_round;
    add_layer_metrics(out, totals);
}

void print_result(const Outcome& out) {
    std::string line = "{\"correct\": ";
    line += out.violations.empty() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value_unit] : out.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", value_unit.first);
        if (!first) line += ", ";
        first = false;
        line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
                value_unit.second + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Options options = parse_options(argc, argv);
        Outcome out;
        if (perfbench::is_sim_workload(options.workload)) {
            run_sim(options, out);
        } else if (options.workload == "tcp_exchange") {
            run_tcp(options, out);
        } else {
            throw std::invalid_argument("unknown workload " + options.workload);
        }
        for (const std::string& v : out.violations) {
            std::fprintf(stderr, "perfbench: INCORRECT: %s\n", v.c_str());
        }
        print_result(out);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
