// Incremental JSONL framing (net::LineFramer): lines reassembled across
// arbitrary read boundaries, CRLF tolerance, unterminated-tail delivery
// at EOF, and oversized lines rejected with a located (line number +
// stream offset) latched error — including boundaries drawn from the
// chaos injector's seeded split schedules, and a seeded fuzzer requiring
// any chunking of a hostile stream to frame exactly like one feed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/net/fault.hpp"
#include "resilience/net/framing.hpp"
#include "resilience/util/random.hpp"

namespace rn = resilience::net;

namespace {

using Lines = std::vector<std::string>;

rn::LineFramer::LineFn collect(Lines& lines) {
  return [&lines](std::string_view line) { lines.emplace_back(line); };
}

TEST(LineFramer, SingleChunkDeliversEveryLine) {
  rn::LineFramer framer;
  Lines lines;
  EXPECT_TRUE(framer.feed("alpha\nbeta\ngamma\n", collect(lines)));
  EXPECT_EQ(lines, (Lines{"alpha", "beta", "gamma"}));
  EXPECT_EQ(framer.lines_delivered(), 3u);
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(LineFramer, EveryTwoChunkSplitReassemblesIdentically) {
  const std::string stream = "first\nsecond line\r\n\nlast\n";
  const Lines expected{"first", "second line", "", "last"};
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    rn::LineFramer framer;
    Lines lines;
    EXPECT_TRUE(framer.feed(stream.substr(0, cut), collect(lines)));
    EXPECT_TRUE(framer.feed(stream.substr(cut), collect(lines)));
    EXPECT_EQ(lines, expected) << "split at byte " << cut;
    EXPECT_EQ(framer.buffered(), 0u) << "split at byte " << cut;
  }
}

TEST(LineFramer, ByteAtATimeMatchesSingleChunk) {
  const std::string stream = "a\nbb\r\nccc\n";
  rn::LineFramer framer;
  Lines lines;
  for (const char byte : stream) {
    EXPECT_TRUE(framer.feed(std::string_view(&byte, 1), collect(lines)));
  }
  EXPECT_EQ(lines, (Lines{"a", "bb", "ccc"}));
}

TEST(LineFramer, CrlfTerminatorDoesNotCountTowardTheLimit) {
  // A limit-sized payload must be accepted from CRLF clients too: the
  // tolerated '\r' is terminator, not payload — whether the line arrives
  // whole or byte by byte.
  rn::LineFramer whole(/*max_line_bytes=*/4);
  Lines lines;
  EXPECT_TRUE(whole.feed("abcd\r\n", collect(lines)));
  EXPECT_EQ(lines, (Lines{"abcd"}));

  rn::LineFramer split(/*max_line_bytes=*/4);
  Lines split_lines;
  for (const char byte : std::string("abcd\r\n")) {
    EXPECT_TRUE(split.feed(std::string_view(&byte, 1), collect(split_lines)));
  }
  EXPECT_EQ(split_lines, (Lines{"abcd"}));

  // But with no '\n' ever arriving, the '\r' is payload: EOF trips the
  // limit (and delivers it verbatim when within bounds).
  rn::LineFramer eof_framer(/*max_line_bytes=*/4);
  Lines eof_lines;
  EXPECT_TRUE(eof_framer.feed("abcd\r", collect(eof_lines)));
  EXPECT_FALSE(eof_framer.finish(collect(eof_lines)));
  EXPECT_TRUE(eof_framer.failed());

  rn::LineFramer eof_ok(/*max_line_bytes=*/4);
  Lines eof_ok_lines;
  EXPECT_TRUE(eof_ok.feed("abc\r", collect(eof_ok_lines)));
  EXPECT_TRUE(eof_ok.finish(collect(eof_ok_lines)));
  EXPECT_EQ(eof_ok_lines, (Lines{"abc\r"}));
}

TEST(LineFramer, CrlfStrippedOnlyAtLineEnd) {
  rn::LineFramer framer;
  Lines lines;
  // An interior '\r' is payload; only the terminator's '\r' is protocol.
  EXPECT_TRUE(framer.feed("pay\rload\r\n", collect(lines)));
  EXPECT_EQ(lines, (Lines{"pay\rload"}));
}

TEST(LineFramer, FinishDeliversUnterminatedTail) {
  rn::LineFramer framer;
  Lines lines;
  EXPECT_TRUE(framer.feed("complete\npartial", collect(lines)));
  EXPECT_EQ(lines, (Lines{"complete"}));
  EXPECT_EQ(framer.buffered(), 7u);
  EXPECT_TRUE(framer.finish(collect(lines)));
  EXPECT_EQ(lines, (Lines{"complete", "partial"}));
  EXPECT_EQ(framer.buffered(), 0u);
  // finish() is idempotent once drained.
  EXPECT_TRUE(framer.finish(collect(lines)));
  EXPECT_EQ(lines.size(), 2u);
}

TEST(LineFramer, OversizedLineLatchesLocatedError) {
  rn::LineFramer framer(/*max_line_bytes=*/8);
  Lines lines;
  EXPECT_TRUE(framer.feed("ok one\nok two\n", collect(lines)));
  EXPECT_FALSE(framer.feed("123456789\n", collect(lines)));
  EXPECT_TRUE(framer.failed());
  EXPECT_EQ(framer.error_line(), 3u);
  // Offset of the offending line's first byte: "ok one\n" + "ok two\n".
  EXPECT_EQ(framer.error_offset(), 14u);
  EXPECT_NE(framer.error_message().find("line 3"), std::string::npos);
  EXPECT_NE(framer.error_message().find("8-byte"), std::string::npos);
  EXPECT_EQ(lines, (Lines{"ok one", "ok two"}));  // nothing after the error
  // The error is latched: no resync, later input is refused.
  EXPECT_FALSE(framer.feed("short\n", collect(lines)));
  EXPECT_FALSE(framer.finish(collect(lines)));
  EXPECT_EQ(lines.size(), 2u);
}

TEST(LineFramer, OversizedDetectedWithoutTerminator) {
  // The limit must trip while the line is still buffering — a client
  // that never sends '\n' cannot grow the buffer unboundedly.
  rn::LineFramer framer(/*max_line_bytes=*/16);
  Lines lines;
  EXPECT_TRUE(framer.feed(std::string(16, 'x'), collect(lines)));
  EXPECT_FALSE(framer.feed("y", collect(lines)));
  EXPECT_TRUE(framer.failed());
  EXPECT_EQ(framer.error_line(), 1u);
  EXPECT_EQ(framer.error_offset(), 0u);
  EXPECT_EQ(framer.buffered(), 0u);  // buffer released on failure
}

TEST(LineFramer, OversizedTailFailsFinish) {
  rn::LineFramer framer(/*max_line_bytes=*/4);
  Lines lines;
  // 4 bytes buffered is exactly at the limit — legal until more arrives
  // or EOF asks for delivery.
  EXPECT_TRUE(framer.feed("abcd", collect(lines)));
  EXPECT_TRUE(framer.finish(collect(lines)));
  EXPECT_EQ(lines, (Lines{"abcd"}));

  rn::LineFramer framer2(/*max_line_bytes=*/3);
  Lines lines2;
  EXPECT_FALSE(framer2.feed("abcd", collect(lines2)));
  EXPECT_TRUE(framer2.failed());
  EXPECT_TRUE(lines2.empty());
}

TEST(LineFramer, UnlimitedByDefault) {
  rn::LineFramer framer;
  Lines lines;
  const std::string big(1 << 20, 'z');
  EXPECT_TRUE(framer.feed(big, collect(lines)));
  EXPECT_TRUE(framer.feed("\n", collect(lines)));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].size(), big.size());
}

TEST(FaultSchedule, SameSeedSameDraws) {
  rn::FaultSchedule a(42);
  rn::FaultSchedule b(42);
  rn::FaultSchedule c(43);
  bool all_equal = true;
  bool any_differ = false;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t draw = a.next();
    all_equal = all_equal && draw == b.next();
    any_differ = any_differ || draw != c.next();
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differ);
  EXPECT_NE(rn::FaultSchedule::mix(1, 2), rn::FaultSchedule::mix(2, 1));
}

TEST(FaultSchedule, ChunkLenStaysInBounds) {
  rn::FaultSchedule schedule(7);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t len = schedule.chunk_len(/*available=*/100,
                                               /*max_chunk=*/16);
    EXPECT_GE(len, 1u);
    EXPECT_LE(len, 16u);
  }
  // available below max_chunk caps the draw at available.
  for (int i = 0; i < 100; ++i) {
    const std::size_t len = schedule.chunk_len(/*available=*/3,
                                               /*max_chunk=*/512);
    EXPECT_GE(len, 1u);
    EXPECT_LE(len, 3u);
  }
}

TEST(LineFramer, InjectorSplitSchedulesReassembleIdentically) {
  // The chaos proxy's read boundaries, applied straight to the framer:
  // for many seeds, feed a JSONL stream in FaultSchedule-drawn chunks
  // and require exactly the lines a single feed delivers. This is the
  // in-vitro version of what every chaos run exercises over TCP.
  const std::string stream =
      "{\"type\":\"cell\",\"request\":\"r\"}\n"
      "{\"type\":\"cell\",\"request\":\"r\",\"i\":2}\r\n"
      "\n"
      "{\"type\":\"done\",\"request\":\"r\"}\n";
  rn::LineFramer whole;
  Lines expected;
  ASSERT_TRUE(whole.feed(stream, collect(expected)));
  ASSERT_EQ(expected.size(), 4u);

  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    rn::FaultSchedule schedule(seed);
    rn::LineFramer framer;
    Lines lines;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t len =
          schedule.chunk_len(stream.size() - offset, /*max_chunk=*/5);
      ASSERT_TRUE(
          framer.feed(stream.substr(offset, len), collect(lines)))
          << "seed " << seed;
      offset += len;
    }
    EXPECT_EQ(lines, expected) << "seed " << seed;
    EXPECT_EQ(framer.buffered(), 0u) << "seed " << seed;
  }
}

TEST(LineFramer, InjectorSplitTailDeliveredUnterminatedAtEof) {
  // A mid-line kill leaves an unterminated tail whatever the split
  // schedule was: finish() must deliver exactly the truncated prefix.
  const std::string stream =
      "{\"type\":\"cell\",\"request\":\"r\"}\n{\"type\":\"done\",\"requ";
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    rn::FaultSchedule schedule(seed);
    rn::LineFramer framer;
    Lines lines;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t len =
          schedule.chunk_len(stream.size() - offset, /*max_chunk=*/7);
      ASSERT_TRUE(
          framer.feed(stream.substr(offset, len), collect(lines)))
          << "seed " << seed;
      offset += len;
    }
    EXPECT_GT(framer.buffered(), 0u) << "seed " << seed;
    EXPECT_TRUE(framer.finish(collect(lines))) << "seed " << seed;
    EXPECT_EQ(lines,
              (Lines{"{\"type\":\"cell\",\"request\":\"r\"}",
                     "{\"type\":\"done\",\"requ"}))
        << "seed " << seed;
  }
}

TEST(LineFramer, StreamOffsetsAccumulateAcrossSplitLines) {
  rn::LineFramer framer(/*max_line_bytes=*/6);
  Lines lines;
  // "ab\n" (3 bytes) then "cdef" split over two feeds, then overflow.
  EXPECT_TRUE(framer.feed("ab\ncd", collect(lines)));
  EXPECT_TRUE(framer.feed("ef", collect(lines)));
  EXPECT_FALSE(framer.feed("ghi", collect(lines)));
  EXPECT_EQ(framer.error_line(), 2u);
  EXPECT_EQ(framer.error_offset(), 3u);  // the 'c' right after "ab\n"
}

// ---------------------------------------------------------------- fuzz --

/// Everything a feed sequence can observe of the framer.
struct Framed {
  Lines lines;
  bool fed = true;  ///< every feed() returned true
  bool finished = false;
  std::size_t lines_delivered = 0;
  bool failed = false;
  std::string error;
  std::size_t error_line = 0;
  std::size_t error_offset = 0;

  bool operator==(const Framed&) const = default;
};

/// Feeds `stream` in chunks of the given sizes (the last one takes what
/// is left), then finish().
Framed frame(const std::string& stream, const std::vector<std::size_t>& cuts,
             std::size_t max_line_bytes) {
  rn::LineFramer framer(max_line_bytes);
  Framed out;
  std::size_t offset = 0;
  for (std::size_t i = 0; offset < stream.size(); ++i) {
    const std::size_t len =
        i < cuts.size() ? cuts[i] : stream.size() - offset;
    out.fed = framer.feed(std::string_view(stream).substr(offset, len),
                          collect(out.lines)) &&
              out.fed;
    offset += len;
  }
  out.finished = framer.finish(collect(out.lines));
  out.lines_delivered = framer.lines_delivered();
  out.failed = framer.failed();
  out.error = framer.error_message();
  out.error_line = framer.error_line();
  out.error_offset = framer.error_offset();
  return out;
}

TEST(LineFramerFuzz, AnyChunkingMatchesOneWholeStreamFeed) {
  // Seeded streams of '\n', "\r\n", bare '\r', NUL, short text and runs
  // of the limit's length give or take two bytes; each is framed in one
  // feed, then in random chunkings, which must observe exactly the same
  // lines, counters, latched error and finish() result.
  constexpr std::size_t kStreams = 3000;
  constexpr std::size_t kChunkings = 8;
  const std::string_view pieces[] = {"\n", "\r\n", "\r",
                                     std::string_view("\0", 1), "ab", "{}"};
  resilience::util::SplitMix64 rng(0xf4a3'5eedULL);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::size_t limit = std::size_t{2} << below(6);  // 2 .. 64
    const std::size_t max_line_bytes = below(4) == 0 ? 0 : limit;
    std::string stream;
    for (std::size_t piece = below(24); piece > 0; --piece) {
      if (below(4) == 0) {
        stream.append(limit - 2 + below(5), 'x');  // limit - 2 .. limit + 2
      } else {
        stream.append(pieces[below(std::size(pieces))]);
      }
    }
    const Framed whole = frame(stream, {stream.size()}, max_line_bytes);
    for (std::size_t c = 0; c < kChunkings; ++c) {
      std::vector<std::size_t> cuts;
      for (std::size_t left = stream.size(); left > 0;) {
        cuts.push_back(std::min(left, 1 + below(1 + limit + 2)));
        left -= cuts.back();
      }
      ASSERT_EQ(frame(stream, cuts, max_line_bytes), whole)
          << "stream " << s << ", chunking " << c;
    }
  }
}

}  // namespace
