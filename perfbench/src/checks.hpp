#pragma once

// Response checking. The reference is the repository's own protocol
// session, service::JsonlSession, answering the same lines in process:
// warm, simulate and router-merged streams must equal it byte for byte;
// a cold analytic response streams its cells in pool order, so it is
// compared after sorting the cell lines.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace resilience::service {
class SweepService;
}
namespace resilience::util {
class ThreadPool;
}

namespace perfbench {

/// An in-process service answering request lines through JsonlSession.
class Reference {
 public:
  Reference(int threads, std::size_t cache_capacity);
  ~Reference();

  /// Every response line of `line`, each '\n'-terminated.
  [[nodiscard]] std::string answer(const std::string& line);
  /// Answers every entry once (cold, discarded) and returns the second,
  /// warm answers: what a filled server sends for each entry.
  [[nodiscard]] std::vector<std::string> warm_answers(
      const std::vector<std::string>& set);

 private:
  std::unique_ptr<resilience::util::ThreadPool> pool_;
  std::unique_ptr<resilience::service::SweepService> service_;
};

/// The response with its cell lines sorted (terminal line kept last).
[[nodiscard]] std::string sorted_cells(const std::string& response);

/// Checks what can be checked without a reference: a done line last, as
/// many cell lines as it reports cells, and `cache_hit` as expected (when
/// an expectation is given). Returns "" when the response passes.
[[nodiscard]] std::string check_shape(const std::string& response,
                                      std::optional<bool> expect_cache_hit);

/// Seeded choice of the cold-stream requests compared with the reference
/// after the timed window (about one in eight).
[[nodiscard]] bool sampled(std::uint64_t seed, std::size_t index);

}  // namespace perfbench
