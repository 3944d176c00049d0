// Fuzz target for the wire reader: net::FrameParser and every message
// type's Decode — the code that parses untrusted bytes from any socket a
// daemon accepts. The parser must never read out of bounds, must give the
// same frames and the same verdict however the byte stream is cut into
// reads, and every frame it yields must re-encode to the exact bytes it
// came from. Every decoder runs on every frame's payload; a PublishBatchMsg,
// WindowMsg or ReplicateMsg that decodes must re-encode to its payload
// byte for byte.
//
// Build with -DAPOLLO_FUZZ=ON. When the toolchain supports
// -fsanitize=fuzzer this links against libFuzzer; otherwise a standalone
// driver main() replays corpus files passed on the command line, so the
// target still builds (and CI exercises the build) on plain GCC.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "net/frame.h"
#include "net/messages.h"

namespace {

using apollo::net::Frame;
using apollo::net::FrameParser;
using apollo::net::Payload;

// Feeds data[0, size) to `parser` in reads whose lengths come from the
// input's own bytes, so the corpus decides where frames are cut, and
// collects every frame it yields.
std::vector<Frame> FeedSplit(const std::uint8_t* data, std::size_t size,
                             FrameParser& parser) {
  std::vector<Frame> frames;
  Frame frame;
  for (std::size_t pos = 0, k = 0; pos < size; ++k) {
    const std::size_t read =
        std::min<std::size_t>(size - pos, 1 + (data[k % size] ^ k) % 61);
    const bool fed = parser.Feed(data + pos, read);
    if (fed != parser.ok()) __builtin_trap();
    while (parser.Next(frame)) frames.push_back(frame);
    if (!fed) break;
    pos += read;
  }
  // A failed parser takes no more bytes.
  if (!parser.ok() && parser.Feed(data, 1)) __builtin_trap();
  return frames;
}

template <typename Msg>
void Decode(const Payload& payload) {
  Msg msg;
  (void)Msg::Decode(payload, msg);
}

// The decoder accepts only what its encoder writes: a payload that decodes
// re-encodes to itself. Returns whether it decoded.
template <typename Msg>
bool DecodeReencodes(const Payload& payload, Msg& msg) {
  if (!Msg::Decode(payload, msg)) return false;
  Payload again;
  msg.Encode(again);
  if (again != payload) __builtin_trap();
  return true;
}

void DecodeEveryType(const Payload& payload) {
  using namespace apollo::net;
  Decode<HelloMsg>(payload);
  Decode<HelloAckMsg>(payload);
  Decode<PublishBatchAckMsg>(payload);
  Decode<SubscribeMsg>(payload);
  Decode<SubscribeAckMsg>(payload);
  Decode<DeliverMsg>(payload);
  Decode<FetchWindowMsg>(payload);
  Decode<QueryMsg>(payload);
  Decode<ResultMsg>(payload);
  Decode<TopicListMsg>(payload);
  Decode<MetricsTextMsg>(payload);
  Decode<HeartbeatMsg>(payload);
  Decode<ClusterMapMsg>(payload);
  Decode<ReplicateAckMsg>(payload);
  Decode<CQRegisterMsg>(payload);
  Decode<CQRegisterAckMsg>(payload);
  Decode<CQCancelMsg>(payload);
  Decode<CQCancelAckMsg>(payload);
  Decode<CQUpdateMsg>(payload);
  Decode<ErrorMsg>(payload);

  WindowMsg window;
  (void)DecodeReencodes(payload, window);
  ReplicateMsg replicate;
  (void)DecodeReencodes(payload, replicate);
  PublishBatchMsg batch;
  if (DecodeReencodes(payload, batch) &&
      (batch.SampleCount() == 0 || batch.SampleCount() > kMaxBatchSamples)) {
    __builtin_trap();
  }
}

void CheckFrameInvariants(const std::uint8_t* data, std::size_t size) {
  using namespace apollo::net;

  FrameParser split;
  const std::vector<Frame> frames = FeedSplit(data, size, split);

  // Cutting the stream differently changes nothing: one read of the whole
  // input yields the same frames and the same verdict.
  FrameParser whole;
  const bool fed = whole.Feed(data, size);
  if (fed != whole.ok() || whole.ok() != split.ok()) __builtin_trap();
  if (whole.error() != split.error()) __builtin_trap();
  if (whole.PendingBytes() != split.PendingBytes()) __builtin_trap();
  Frame frame;
  for (const Frame& want : frames) {
    if (!whole.Next(frame)) __builtin_trap();
    if (frame.type != want.type || frame.flags != want.flags ||
        frame.request_id != want.request_id || frame.payload != want.payload) {
      __builtin_trap();
    }
  }
  if (whole.Next(frame)) __builtin_trap();

  // The frames re-encode to the input they were parsed from, and a good
  // stream is exactly those frames plus the bytes still pending.
  std::vector<std::uint8_t> wire;
  for (const Frame& f : frames) {
    if (f.payload.size() > kMaxFrameLen) __builtin_trap();
    EncodeFrame(wire, f.type, f.request_id, f.payload, f.flags);
  }
  if (wire.size() > size || !std::equal(wire.begin(), wire.end(), data)) {
    __builtin_trap();
  }
  if (split.ok() && wire.size() + split.PendingBytes() != size) {
    __builtin_trap();
  }

  for (const Frame& f : frames) DecodeEveryType(f.payload);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  CheckFrameInvariants(data, size);
  return 0;
}

#if !defined(APOLLO_FUZZ_LIBFUZZER)
// Standalone corpus driver: replays each file argument through the target
// once. Keeps the target buildable/testable without libFuzzer.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::FILE* f = std::fopen(argv[i], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      buf.insert(buf.end(), chunk, chunk + n);
    }
    std::fclose(f);
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
    std::printf("ok %s (%zu bytes)\n", argv[i], buf.size());
  }
  return 0;
}
#endif
