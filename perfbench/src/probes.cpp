// Transport layer floors, probed on the fleet workload's own frame shape: a
// v3 Data frame carrying a 4-entry dependency vector and no control words
// (FDAS piggybacks none).
#include <sys/socket.h>
#include <unistd.h>

#include <vector>

#include "transport/uds.hpp"
#include "transport/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rdtgc;

namespace {

constexpr int kCodecReps = 200000;
constexpr int kHopReps = 20000;
constexpr int kRounds = 5;  // report the median round

transport::DataBody fleet_data_body() {
  transport::DataBody body;
  body.send_interval = 17;
  body.bytes = 1;
  body.dv = {17, 9, 12, 4};
  return body;
}

}  // namespace

void probe_transport_floors(const RunContext& ctx, Outcome& out) {
  const transport::DataBody body = fleet_data_body();
  transport::WireBuffer frame;
  transport::DecodedFrame decoded;
  transport::FrameMeta meta{1, 2, 0, 1};

  std::vector<double> encode_ns, decode_ns, hop_us;
  for (int round = 0; round < kRounds; ++round) {
    const auto e0 = Clock::now();
    for (int i = 0; i < kCodecReps; ++i) {
      meta.seq = static_cast<std::uint64_t>(i) + ctx.seed;
      transport::encode_data(frame, meta, body);
    }
    const auto e1 = Clock::now();
    bool ok = true;
    for (int i = 0; i < kCodecReps; ++i)
      ok = ok && transport::decode_frame(frame, decoded) ==
                     transport::WireError::kOk;
    const auto e2 = Clock::now();
    out.check(ok && decoded.data.dv == body.dv,
              "wire probe: Data frame did not round-trip");
    encode_ns.push_back(seconds_between(e0, e1) * 1e9 / kCodecReps);
    decode_ns.push_back(seconds_between(e1, e2) * 1e9 / kCodecReps);

    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds) != 0) {
      out.check(false, "uds probe: socketpair failed");
      break;
    }
    transport::Fd a(fds[0]), b(fds[1]);
    transport::WireBuffer in;
    bool hop_ok = true;
    const auto h0 = Clock::now();
    for (int i = 0; i < kHopReps && hop_ok; ++i) {
      hop_ok = transport::send_frame(a.get(), frame, 1000) &&
               transport::recv_frame(b.get(), in, 1000) ==
                   transport::RecvStatus::kFrame;
    }
    const auto h1 = Clock::now();
    out.check(hop_ok && in == frame, "uds probe: SEQPACKET hop failed");
    hop_us.push_back(seconds_between(h0, h1) * 1e6 / kHopReps);
  }
  out.add("transport.wire_encode_data_ns", median(encode_ns), "ns");
  out.add("transport.wire_decode_ns", median(decode_ns), "ns");
  out.add("transport.uds_hop_us", median(hop_us), "us");
}

}  // namespace perfbench
