// Non-blocking TCP transport for the network fabric, built on the
// EventLoop's epoll facility.
//
// Server accepts connections on a bound port (port 0 picks an ephemeral
// port; tests discover it via port()) and runs every connection on the
// loop thread: reads are drained to EAGAIN into a FrameParser, complete
// frames are dispatched to a FrameHandler, and writes go through a bounded
// per-connection outbound buffer — partial writes keep the remainder
// buffered and watch kFdWritable until it drains.
//
// Backpressure: when a connection's outbound buffer is full, droppable
// frames (subscription deliveries — the cursor does not advance, so the
// data is re-sent later) are skipped and counted; a non-droppable frame
// (a response the peer is waiting for) closes the connection instead of
// buffering without bound.
//
// Fault sites (an attached FaultInjector is consulted with the frame's
// MsgTypeName as the topic filter):
//   kNetSend   - frame send fails (responses close the connection) or is
//                delayed by charging the loop clock
//   kNetRecv   - received frame dropped before dispatch, or delayed
//   kConnDrop  - connection abruptly closed before dispatching a frame
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "eventloop/event_loop.h"
#include "net/frame.h"

namespace apollo::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned; see Server::port()
  std::string server_name = "apollod";
  // Outbound buffer bound per connection (bytes) before backpressure.
  std::size_t max_outbound_bytes = 4u << 20;
  // Connections with no traffic for this long are reaped (0 disables).
  TimeNs idle_timeout = 30 * kNsPerSec;
};

class Connection;
class Server;

// Implemented by the daemon. Both callbacks run on the loop thread.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  virtual void OnFrame(Connection& conn, const Frame& frame) = 0;
  // The connection is closing (any reason); per-connection state such as
  // subscriptions must be dropped. The Connection is destroyed on return.
  virtual void OnClose(Connection& /*conn*/) {}
};

// One accepted connection. Loop-thread only.
class Connection {
 public:
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  // Queues one frame. Droppable frames are skipped under backpressure
  // (returns false); a non-droppable frame that cannot be buffered or a
  // send fault closes the connection. Returns true when queued.
  bool SendFrame(MsgType type, std::uint32_t request_id,
                 const std::vector<std::uint8_t>& payload,
                 std::uint16_t flags = 0, bool droppable = false);

  // Requests teardown: the connection is destroyed after the current
  // dispatch returns (or by a posted loop task when called outside one).
  void Close();
  bool closing() const { return closing_; }

  // Cork/uncork: while corked, SendFrame only queues — the flush (one
  // writev over every queued frame) happens at Uncork. The daemon corks
  // around multi-frame work (subscription pumps, batch acks) so a burst
  // drains in one syscall instead of one write per frame.
  void Cork() { ++cork_depth_; }
  void Uncork();

  // Idle-reaper exemption. A connection holding server-side sessions
  // (push subscriptions, continuous queries) is intentionally quiet on
  // the inbound side — it must not be reaped as idle while those
  // sessions are active. The daemon sets this on subscribe/CQ-register
  // and clears it when the last session on the connection ends.
  void set_idle_exempt(bool exempt) { idle_exempt_ = exempt; }
  bool idle_exempt() const { return idle_exempt_; }

 private:
  friend class Server;
  Connection(Server& server, std::uint64_t id, int fd)
      : server_(server), id_(id), fd_(fd) {}

  Server& server_;
  std::uint64_t id_;
  int fd_;
  FrameParser parser_;
  // Queue of encoded frames, drained by one writev per flush (gathered
  // iovecs, capped at kMaxIov entries per syscall). out_pos_ is the sent
  // prefix of the front frame after a partial write; out_bytes_ is the
  // total unsent byte count (the backpressure measure).
  std::deque<std::vector<std::uint8_t>> outbound_;
  std::size_t out_pos_ = 0;
  std::size_t out_bytes_ = 0;
  int cork_depth_ = 0;
  bool want_write_ = false;
  bool closing_ = false;
  bool idle_exempt_ = false;
  TimeNs last_activity_ = 0;
};

class Server {
 public:
  // `loop` must be a real-time loop (fd watching is unavailable under an
  // auto-advancing SimClock) and outlive the server.
  Server(EventLoop& loop, ServerConfig config, FrameHandler& handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens and registers the accept fd with the loop. Call before
  // running the loop (or from the loop thread).
  Status Start();

  // Closes the listener and every connection. Call with the loop not
  // running (the daemon stops its loop thread first).
  void Stop();

  // Port actually bound (resolves config port 0). Valid after Start().
  std::uint16_t port() const { return port_.load(std::memory_order_acquire); }

  std::size_t ConnectionCount() const {
    return conn_count_.load(std::memory_order_acquire);
  }

  // Loop-thread only: the live connection with this id, or null.
  Connection* FindConnection(std::uint64_t id);

  // Injector consulted at kNetSend/kNetRecv/kConnDrop (not owned; null
  // detaches). Topic filter is the frame's MsgTypeName.
  void AttachFaultInjector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
  }

  EventLoop& loop() { return loop_; }
  const ServerConfig& config() const { return config_; }

 private:
  friend class Connection;

  void OnAcceptable();
  void OnConnEvent(std::uint64_t conn_id, std::uint32_t events);
  void ReadConn(Connection& conn);
  void FlushConn(Connection& conn);
  void DestroyConn(std::uint64_t conn_id);
  void SweepIdle(TimeNs now);
  std::optional<FaultAction> EvaluateFault(FaultSite site,
                                           std::string_view label);

  EventLoop& loop_;
  ServerConfig config_;
  FrameHandler& handler_;
  int listen_fd_ = -1;
  std::atomic<std::uint16_t> port_{0};
  TimerId idle_timer_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::atomic<std::size_t> conn_count_{0};
  std::atomic<FaultInjector*> fault_{nullptr};
};

// --- shared socket helpers (also used by the client) ---

// Sets O_NONBLOCK; returns false on fcntl failure.
bool SetNonBlocking(int fd);

// Creates a non-blocking IPv4 listener bound to address:port (port 0 picks
// one). On success returns the fd and stores the bound port.
Expected<int> TcpListen(const std::string& address, std::uint16_t port,
                        std::uint16_t& bound_port);

}  // namespace apollo::net
