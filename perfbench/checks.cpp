#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

std::string peer_round(std::size_t peer, std::size_t round) {
    return "peer " + std::to_string(peer) + " round " + std::to_string(round);
}

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

constexpr std::size_t kHeader = 12;  // sender, round, chunk (u32 LE each)

void put_u32(std::uint8_t* out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* in) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
    return v;
}

// Folded into a chunk's first eight payload bytes so every round's chunk
// differs from every other round's.
std::uint64_t round_mask(std::uint32_t round, std::uint32_t chunk) {
    std::uint64_t state = (static_cast<std::uint64_t>(round) << 32) | chunk;
    return splitmix64(state);
}

}  // namespace

std::size_t simple_model_bytes(std::size_t inputs, std::size_t hidden,
                               std::size_t classes) {
    const std::size_t weights =
        inputs * hidden + hidden + hidden * classes + classes;
    return 4 + 1 + 8 + 4 * weights + 32;
}

Violations check_point(const bcfl::core::DecentralizedResult& result,
                       const PointExpect& expect) {
    Violations out;
    if (result.peer_records.size() != expect.peers) {
        out.push_back("expected " + std::to_string(expect.peers) +
                      " peers, got " +
                      std::to_string(result.peer_records.size()));
    }
    for (std::size_t p = 0; p < result.peer_records.size(); ++p) {
        const auto& records = result.peer_records[p];
        if (records.size() != expect.rounds) {
            out.push_back("peer " + std::to_string(p) + " ran " +
                          std::to_string(records.size()) + " of " +
                          std::to_string(expect.rounds) + " rounds");
        }
        for (std::size_t r = 0; r < records.size(); ++r) {
            const bcfl::core::PeerRoundRecord& record = records[r];
            if (record.round != r + 1) {
                out.push_back(peer_round(p, r + 1) + " is numbered " +
                              std::to_string(record.round));
            }
            if (record.aggregated_at == 0) {
                out.push_back(peer_round(p, r + 1) + " never aggregated");
            }
            if ((expect.wait_all || expect.consensus) &&
                record.models_available != expect.peers) {
                out.push_back(peer_round(p, r + 1) + " used " +
                              std::to_string(record.models_available) +
                              " of " + std::to_string(expect.peers) +
                              " models");
            }
            if (expect.wait_all && record.timed_out) {
                out.push_back(peer_round(p, r + 1) + " timed out");
            }
        }
        if (expect.wait_all && !records.empty()) {
            const double span = bcfl::net::to_seconds(
                records.back().aggregated_at - records.front().round_started);
            const double mean = span / static_cast<double>(records.size());
            if (mean < expect.straggler_train_s) {
                out.push_back("peer " + std::to_string(p) + " mean round " +
                              std::to_string(mean) +
                              " s is shorter than the straggler's " +
                              std::to_string(expect.straggler_train_s) +
                              " s of training");
            }
        }
    }

    const double chance = 1.0 / static_cast<double>(expect.classes);
    const double accuracy = final_accuracy(result);
    if (expect.above_chance && !(accuracy > chance)) {
        out.push_back("final accuracy " + std::to_string(accuracy) +
                      " is not above chance " + std::to_string(chance));
    }

    if (result.final_model_digests.size() != expect.peers) {
        out.push_back("expected " + std::to_string(expect.peers) +
                      " final-model digests, got " +
                      std::to_string(result.final_model_digests.size()));
    } else if (expect.consensus) {
        for (std::size_t p = 1; p < expect.peers; ++p) {
            if (result.final_model_digests[p] !=
                result.final_model_digests[0]) {
                out.push_back("peer " + std::to_string(p) +
                              " final model differs from peer 0's");
            }
        }
    }

    const bcfl::net::TrafficStats& traffic = result.traffic;
    if (traffic.messages_delivered + traffic.messages_dropped >
        traffic.messages_sent) {
        out.push_back("delivered " +
                      std::to_string(traffic.messages_delivered) +
                      " + dropped " + std::to_string(traffic.messages_dropped) +
                      " exceeds sent " + std::to_string(traffic.messages_sent));
    }
    const std::uint64_t floor_bytes =
        static_cast<std::uint64_t>(expect.peers) * expect.rounds *
        expect.model_bytes;
    if (traffic.bytes_sent < floor_bytes) {
        out.push_back("bytes_sent " + std::to_string(traffic.bytes_sent) +
                      " is below peers x rounds x model bytes " +
                      std::to_string(floor_bytes));
    }
    return out;
}

double final_accuracy(const bcfl::core::DecentralizedResult& result) {
    double sum = 0.0;
    std::size_t peers = 0;
    for (const auto& records : result.peer_records) {
        for (auto it = records.rbegin(); it != records.rend(); ++it) {
            if (it->aggregated_at != 0) {
                sum += it->chosen_accuracy;
                ++peers;
                break;
            }
        }
    }
    return peers ? sum / static_cast<double>(peers) : 0.0;
}

Violations check_fedavg(std::span<const bcfl::fl::ModelUpdate> updates,
                        std::span<const std::size_t> indices,
                        std::span<const float> result) {
    std::vector<std::size_t> chosen(indices.begin(), indices.end());
    if (chosen.empty()) {
        for (std::size_t u = 0; u < updates.size(); ++u) chosen.push_back(u);
    }
    Violations out;
    if (chosen.empty()) return {"fedavg over no updates"};
    const std::size_t dim = updates[chosen[0]].weights.size();
    if (result.size() != dim) {
        return {"fedavg result has " + std::to_string(result.size()) +
                " weights, expected " + std::to_string(dim)};
    }
    double total = 0.0;
    for (std::size_t u : chosen) total += updates[u].sample_count;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < dim; ++i) {
        double sum = 0.0;
        double magnitude = 0.0;
        for (std::size_t u : chosen) {
            const double term =
                updates[u].sample_count * static_cast<double>(updates[u].weights[i]);
            sum += term;
            magnitude += std::fabs(term);
        }
        const double expected = sum / total;
        // A few float ulps of the terms' magnitude: the program normalizes
        // the weights first, this check divides last.
        const double tolerance = 4.0 * std::ldexp(magnitude / total, -24) + 1e-30;
        if (std::fabs(static_cast<double>(result[i]) - expected) > tolerance) {
            if (bad == 0) {
                out.push_back("fedavg weight " + std::to_string(i) + " is " +
                              std::to_string(result[i]) + ", expected " +
                              std::to_string(expected));
            }
            ++bad;
        }
    }
    if (bad > 1) {
        out.push_back(std::to_string(bad) + " fedavg weights disagree in all");
    }
    return out;
}

ChunkCodec::ChunkCodec(std::uint64_t seed, std::size_t nodes,
                       std::size_t model_bytes, std::size_t chunk_bytes)
    : chunks_((model_bytes + chunk_bytes - 1) / chunk_bytes),
      model_bytes_(model_bytes),
      chunk_bytes_(chunk_bytes) {
    const std::size_t tail = model_bytes % chunk_bytes;
    if (chunk_bytes < 8 || (tail != 0 && tail < 8)) {
        throw std::invalid_argument("chunk payloads must be at least 8 bytes");
    }
    for (std::size_t s = 0; s < nodes; ++s) {
        std::uint64_t state = seed * 0x100000001B3ull + s;
        bcfl::Bytes pattern(model_bytes);
        for (std::size_t i = 0; i < model_bytes; i += 8) {
            const std::uint64_t word = splitmix64(state);
            std::memcpy(pattern.data() + i, &word,
                        std::min<std::size_t>(8, model_bytes - i));
        }
        base_.push_back(std::move(pattern));
    }
}

std::size_t ChunkCodec::payload_size(std::size_t chunk) const {
    return std::min(chunk_bytes_, model_bytes_ - chunk * chunk_bytes_);
}

bcfl::Bytes ChunkCodec::encode(std::uint32_t sender, std::uint32_t round,
                               std::uint32_t chunk) const {
    const std::size_t size = payload_size(chunk);
    bcfl::Bytes message(kHeader + size);
    put_u32(message.data(), sender);
    put_u32(message.data() + 4, round);
    put_u32(message.data() + 8, chunk);
    std::memcpy(message.data() + kHeader,
                base_[sender].data() + chunk * chunk_bytes_, size);
    std::uint64_t first = 0;
    std::memcpy(&first, message.data() + kHeader, 8);
    first ^= round_mask(round, chunk);
    std::memcpy(message.data() + kHeader, &first, 8);
    return message;
}

std::string ChunkCodec::verify(const bcfl::Bytes& message, std::uint32_t sender,
                               std::uint32_t round, std::uint32_t chunk) const {
    const std::string want = "sender " + std::to_string(sender) + " round " +
                             std::to_string(round) + " chunk " +
                             std::to_string(chunk);
    if (message.size() < kHeader) return "short message where " + want + " was due";
    const std::uint32_t got_sender = get_u32(message.data());
    const std::uint32_t got_round = get_u32(message.data() + 4);
    const std::uint32_t got_chunk = get_u32(message.data() + 8);
    if (got_sender != sender || got_round != round || got_chunk != chunk) {
        return "got sender " + std::to_string(got_sender) + " round " +
               std::to_string(got_round) + " chunk " +
               std::to_string(got_chunk) + " where " + want + " was due";
    }
    if (message.size() != kHeader + payload_size(chunk)) {
        return want + " has " + std::to_string(message.size() - kHeader) +
               " payload bytes, expected " + std::to_string(payload_size(chunk));
    }
    const bcfl::Bytes expected = encode(sender, round, chunk);
    if (std::memcmp(message.data(), expected.data(), expected.size()) != 0) {
        std::size_t at = 0;
        while (message[at] == expected[at]) ++at;
        return want + " payload differs at byte " + std::to_string(at - kHeader);
    }
    return {};
}

StreamCheck::StreamCheck(const ChunkCodec& codec, std::size_t nodes,
                         std::size_t self)
    : codec_(codec), self_(self), next_(nodes, 0) {}

std::string StreamCheck::accept(std::size_t from, const bcfl::Bytes& message) {
    if (from >= next_.size() || from == self_) {
        return "message from unexpected node " + std::to_string(from);
    }
    const std::uint64_t seq = next_[from];
    const auto round = static_cast<std::uint32_t>(seq / codec_.chunks() + 1);
    const auto chunk = static_cast<std::uint32_t>(seq % codec_.chunks());
    std::string fault =
        codec_.verify(message, static_cast<std::uint32_t>(from), round, chunk);
    if (fault.empty()) ++next_[from];
    return fault;
}

Violations check_exchange_totals(const std::vector<StreamCheck>& receivers,
                                 const ChunkCodec& codec, std::size_t nodes,
                                 std::uint64_t rounds,
                                 const bcfl::net::TrafficStats& stats) {
    Violations out;
    const std::uint64_t per_sender = rounds * codec.chunks();
    for (std::size_t r = 0; r < receivers.size(); ++r) {
        for (std::size_t s = 0; s < nodes; ++s) {
            if (s == r) continue;
            if (receivers[r].received(s) != per_sender) {
                out.push_back("node " + std::to_string(r) + " received " +
                              std::to_string(receivers[r].received(s)) +
                              " chunks from node " + std::to_string(s) +
                              ", expected " + std::to_string(per_sender));
            }
        }
    }
    std::uint64_t round_bytes = 0;
    for (std::size_t c = 0; c < codec.chunks(); ++c) {
        round_bytes += kHeader + codec.payload_size(c);
    }
    const std::uint64_t links = nodes * (nodes - 1);
    const std::uint64_t messages = links * per_sender;
    const std::uint64_t bytes = links * rounds * round_bytes;
    if (stats.messages_sent != messages) {
        out.push_back("transport counted " + std::to_string(stats.messages_sent) +
                      " sends, the benchmark made " + std::to_string(messages));
    }
    if (stats.bytes_sent != bytes) {
        out.push_back("transport counted " + std::to_string(stats.bytes_sent) +
                      " bytes sent, the benchmark sent " + std::to_string(bytes));
    }
    if (stats.messages_dropped != 0) {
        out.push_back("transport dropped " +
                      std::to_string(stats.messages_dropped) + " messages");
    }
    return out;
}

}  // namespace perfbench
