#pragma once

// The seeded mutator the fuzz tests share. Each call applies one to four
// mutations drawn from a util::SplitMix64 stream: a bit flip in one
// byte, a span deletion, a span duplication, or the insertion of one of
// the caller's tokens. A run is reproducible from its seed, so a failing
// input can be replayed and kept as a named case.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "resilience/util/random.hpp"

namespace resilience::fuzz {

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::span<const std::string_view> tokens)
      : rng_(seed), tokens_(tokens) {}

  [[nodiscard]] std::string mutate(std::string input) {
    const std::size_t rounds = 1 + below(4);
    for (std::size_t round = 0; round < rounds; ++round) {
      switch (below(4)) {
        case 0:  // flip one bit of one byte
          if (!input.empty()) {
            input[below(input.size())] ^=
                static_cast<char>(1u << below(8));
          }
          break;
        case 1: {  // delete a span
          const std::size_t at = below(input.size() + 1);
          input.erase(at, 1 + below(16));
          break;
        }
        case 2: {  // duplicate a span somewhere
          const std::size_t at = below(input.size() + 1);
          const std::string span = input.substr(at, 1 + below(32));
          input.insert(below(input.size() + 1), span);
          break;
        }
        default:  // insert a token
          input.insert(below(input.size() + 1), tokens_[below(tokens_.size())]);
          break;
      }
    }
    return input;
  }

 private:
  [[nodiscard]] std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.next() % n);
  }

  util::SplitMix64 rng_;
  std::span<const std::string_view> tokens_;
};

}  // namespace resilience::fuzz
