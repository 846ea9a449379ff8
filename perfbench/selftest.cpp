// The benchmark's own tests.
//
//   perfbench_selftest                      every check, fed a good output
//                                           (must pass) and deliberately
//                                           broken ones (must be rejected)
//   perfbench_selftest --determinism <workload>
//                                           the sim workload's scenario
//                                           document (seed 1) is
//                                           byte-identical at one worker
//                                           thread and at nproc
//
// Exits 0 when every case holds.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/scenario.hpp"
#include "fl/fedavg.hpp"
#include "sim_spec.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& name) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", name.c_str());
    if (!ok) ++g_failures;
}

void expect_pass(const perfbench::Violations& v, const std::string& name) {
    for (const std::string& fault : v) std::printf("  unexpected: %s\n", fault.c_str());
    expect(v.empty(), name + " is accepted");
}

void expect_reject(const perfbench::Violations& v, const std::string& name) {
    if (!v.empty()) std::printf("  rejected: %s\n", v.front().c_str());
    expect(!v.empty(), name + " is rejected");
}

// ---------------------------------------------------------- sim points

constexpr std::size_t kPeers = 3;
constexpr std::size_t kRounds = 4;

perfbench::PointExpect paper_expect() {
    perfbench::PointExpect e;
    e.peers = kPeers;
    e.rounds = kRounds;
    e.classes = 10;
    e.model_bytes = perfbench::simple_model_bytes(432, 96, 10);
    e.wait_all = true;
    e.straggler_train_s = 90.0;
    e.consensus = true;
    e.above_chance = true;
    return e;
}

/// A wait_all deployment that did everything right: rounds of 100 s, the
/// whole roster every round, identical final models.
bcfl::core::DecentralizedResult good_result() {
    bcfl::core::DecentralizedResult result;
    for (std::size_t p = 0; p < kPeers; ++p) {
        std::vector<bcfl::core::PeerRoundRecord> records;
        for (std::size_t r = 0; r < kRounds; ++r) {
            bcfl::core::PeerRoundRecord record;
            record.round = r + 1;
            record.round_started = bcfl::net::seconds(100 * r);
            record.published_at = record.round_started + bcfl::net::seconds(91);
            record.aggregated_at = record.round_started + bcfl::net::seconds(100);
            record.models_available = kPeers;
            record.chosen_accuracy = 0.4 + 0.01 * static_cast<double>(r);
            records.push_back(record);
        }
        result.peer_records.push_back(std::move(records));
        result.final_model_digests.push_back(bcfl::Hash32{});
    }
    result.traffic.messages_sent = 1000;
    result.traffic.messages_delivered = 990;
    result.traffic.messages_dropped = 10;
    result.traffic.bytes_sent = kPeers * kRounds * paper_expect().model_bytes * 2;
    return result;
}

void test_point_checks() {
    expect_pass(perfbench::check_point(good_result(), paper_expect()),
                "a correct wait_all point");
    using Mutation = std::function<void(bcfl::core::DecentralizedResult&)>;
    const std::vector<std::pair<std::string, Mutation>> cases = {
        {"a point with a round missing",
         [](auto& r) { r.peer_records[1].pop_back(); }},
        {"a round never aggregated",
         [](auto& r) { r.peer_records[2][1].aggregated_at = 0; }},
        {"a misnumbered round",
         [](auto& r) { r.peer_records[0][2].round = 7; }},
        {"a wait_all round that timed out",
         [](auto& r) { r.peer_records[0][3].timed_out = true; }},
        {"a wait_all round without the whole roster",
         [](auto& r) { r.peer_records[1][0].models_available = 2; }},
        {"wait_all rounds shorter than the straggler's training",
         [](auto& r) {
             for (auto& record : r.peer_records[0]) {
                 record.aggregated_at = record.round_started + bcfl::net::seconds(10);
             }
         }},
        {"final accuracy below chance",
         [](auto& r) {
             for (auto& records : r.peer_records) records.back().chosen_accuracy = 0.08;
         }},
        {"a final-model digest that differs from the rest",
         [](auto& r) { r.final_model_digests[2].data[0] ^= 1; }},
        {"a missing final-model digest",
         [](auto& r) { r.final_model_digests.pop_back(); }},
        {"delivered plus dropped above sent",
         [](auto& r) { r.traffic.messages_delivered = 995; }},
        {"bytes_sent below peers x rounds x model bytes",
         [](auto& r) { r.traffic.bytes_sent = paper_expect().model_bytes; }},
    };
    for (const auto& [name, mutate] : cases) {
        bcfl::core::DecentralizedResult broken = good_result();
        mutate(broken);
        expect_reject(perfbench::check_point(broken, paper_expect()), name);
    }
    // Outside wait_all / fedavg_all the roster and digests may differ.
    perfbench::PointExpect relaxed = paper_expect();
    relaxed.wait_all = false;
    relaxed.consensus = false;
    bcfl::core::DecentralizedResult partial = good_result();
    partial.peer_records[1][0].models_available = 1;
    partial.peer_records[1][0].timed_out = true;
    partial.final_model_digests[2].data[0] ^= 1;
    expect_pass(perfbench::check_point(partial, relaxed),
                "a wait_for=1 point aggregating alone");
}

// ---------------------------------------------------------------- fedavg

void test_fedavg_check() {
    std::vector<bcfl::fl::ModelUpdate> updates;
    for (int u = 0; u < 3; ++u) {
        bcfl::fl::ModelUpdate update;
        for (int i = 0; i < 257; ++i) {
            update.weights.push_back(0.37f * static_cast<float>(u + 1) -
                                     0.011f * static_cast<float>(i));
        }
        update.sample_count = 100.0 + 37.0 * u;
        updates.push_back(std::move(update));
    }
    const std::vector<float> all = bcfl::fl::fedavg(updates);
    expect_pass(perfbench::check_fedavg(updates, {}, all), "fl::fedavg's result");
    const std::vector<std::size_t> pick = {0, 2};
    const std::vector<float> some = bcfl::fl::fedavg_subset(updates, pick);
    expect_pass(perfbench::check_fedavg(updates, pick, some),
                "fl::fedavg_subset's result");

    std::vector<float> off = all;
    off[100] *= 1.0001f;
    expect_reject(perfbench::check_fedavg(updates, {}, off),
                  "a fedavg weight off by 1e-4 relative");
    std::vector<float> unweighted(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        unweighted[i] = (updates[0].weights[i] + updates[1].weights[i] +
                         updates[2].weights[i]) / 3.0f;
    }
    expect_reject(perfbench::check_fedavg(updates, {}, unweighted),
                  "an unweighted mean in place of fedavg");
    expect_reject(perfbench::check_fedavg(updates, pick, all),
                  "the full average in place of a subset's");
    std::vector<float> short_result(all.begin(), all.end() - 1);
    expect_reject(perfbench::check_fedavg(updates, {}, short_result),
                  "a fedavg result of the wrong length");
}

// ---------------------------------------------------------- tcp_exchange

void test_exchange_checks() {
    constexpr std::size_t kNodes = 3;
    const perfbench::ChunkCodec codec(42, kNodes, 1000, 256);  // 4 chunks
    expect(codec.chunks() == 4, "1000 bytes make 4 chunks of 256");
    expect(codec.verify(codec.encode(1, 3, 2), 1, 3, 2).empty(),
           "an intact chunk is accepted");

    bcfl::Bytes flipped = codec.encode(1, 3, 2);
    flipped[flipped.size() / 2] ^= 0x01;
    expect(!codec.verify(flipped, 1, 3, 2).empty(),
           "a flipped payload byte is rejected");
    bcfl::Bytes flipped_first = codec.encode(1, 3, 2);
    flipped_first[12] ^= 0x80;
    expect(!codec.verify(flipped_first, 1, 3, 2).empty(),
           "a flipped first payload byte is rejected");
    expect(!codec.verify(codec.encode(1, 2, 2), 1, 3, 2).empty(),
           "a chunk of the wrong round is rejected");
    bcfl::Bytes truncated = codec.encode(0, 1, 3);
    truncated.pop_back();
    expect(!codec.verify(truncated, 0, 1, 3).empty(),
           "a truncated chunk is rejected");
    const perfbench::ChunkCodec other_seed(43, kNodes, 1000, 256);
    expect(!codec.verify(other_seed.encode(1, 3, 2), 1, 3, 2).empty(),
           "a chunk made from another seed is rejected");

    // Receiver 0 hears from senders 1 and 2.
    auto fresh = [&] { return perfbench::StreamCheck(codec, kNodes, 0); };
    {
        perfbench::StreamCheck stream = fresh();
        bool ok = true;
        for (std::uint32_t round = 1; round <= 2; ++round) {
            for (std::uint32_t c = 0; c < 4; ++c) {
                ok = ok && stream.accept(1, codec.encode(1, round, c)).empty();
                ok = ok && stream.accept(2, codec.encode(2, round, c)).empty();
            }
        }
        expect(ok, "two rounds in per-sender order are accepted");
        expect(stream.received(1) == 8 && stream.received(2) == 8,
               "the stream counts 8 chunks per sender");
    }
    {
        perfbench::StreamCheck stream = fresh();
        (void)stream.accept(1, codec.encode(1, 1, 0));
        expect(!stream.accept(1, codec.encode(1, 1, 2)).empty(),
               "a skipped chunk (out of per-sender order) is rejected");
    }
    {
        perfbench::StreamCheck stream = fresh();
        (void)stream.accept(1, codec.encode(1, 1, 0));
        expect(!stream.accept(1, codec.encode(1, 1, 0)).empty(),
               "a duplicated chunk is rejected");
    }
    {
        perfbench::StreamCheck stream = fresh();
        expect(!stream.accept(2, codec.encode(1, 1, 0)).empty(),
               "a chunk relabelled with another sender is rejected");
        expect(!stream.accept(0, codec.encode(0, 1, 0)).empty(),
               "a message from the receiver itself is rejected");
    }

    // Totals: one round, every node hears all 4 chunks from both others.
    std::vector<perfbench::StreamCheck> receivers;
    for (std::size_t r = 0; r < kNodes; ++r) {
        receivers.emplace_back(codec, kNodes, r);
        for (std::size_t s = 0; s < kNodes; ++s) {
            if (s == r) continue;
            for (std::uint32_t c = 0; c < 4; ++c) {
                (void)receivers[r].accept(s, codec.encode(
                                                 static_cast<std::uint32_t>(s), 1, c));
            }
        }
    }
    bcfl::net::TrafficStats stats;
    stats.messages_sent = 6 * 4;
    stats.messages_delivered = 6 * 4;
    stats.bytes_sent = 6 * (1000 + 4 * 12);
    expect_pass(perfbench::check_exchange_totals(receivers, codec, kNodes, 1, stats),
                "a complete one-round exchange");
    expect_reject(perfbench::check_exchange_totals(receivers, codec, kNodes, 2, stats),
                  "an exchange missing its second round");
    bcfl::net::TrafficStats dropped = stats;
    dropped.messages_dropped = 1;
    expect_reject(perfbench::check_exchange_totals(receivers, codec, kNodes, 1, dropped),
                  "a transport that dropped a message");
    bcfl::net::TrafficStats extra = stats;
    ++extra.messages_sent;
    expect_reject(perfbench::check_exchange_totals(receivers, codec, kNodes, 1, extra),
                  "a transport send count above the benchmark's");
    bcfl::net::TrafficStats fewer_bytes = stats;
    fewer_bytes.bytes_sent -= 1;
    expect_reject(
        perfbench::check_exchange_totals(receivers, codec, kNodes, 1, fewer_bytes),
        "a transport byte count below the benchmark's");
}

// ------------------------------------------------------------ determinism

void test_determinism(const std::string& workload) {
    bcfl::core::ScenarioSpec spec = perfbench::load_sim_spec(workload, 1);
    const std::size_t wide = std::max(2u, std::thread::hardware_concurrency());
    spec.threads = 1;
    const std::string serial = bcfl::core::run_scenario(spec).dump();
    spec.threads = wide;
    const std::string parallel = bcfl::core::run_scenario(spec).dump();
    expect(serial == parallel,
           workload + " document at 1 and " + std::to_string(wide) +
               " threads is byte-identical (" + std::to_string(serial.size()) +
               " bytes)");
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc == 3 && std::string(argv[1]) == "--determinism") {
            test_determinism(argv[2]);
        } else if (argc == 1) {
            test_point_checks();
            test_fedavg_check();
            test_exchange_checks();
        } else {
            std::fprintf(stderr,
                         "usage: perfbench_selftest [--determinism <workload>]\n");
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_selftest: %s\n", e.what());
        return 1;
    }
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
