// fvn::net transports — how encoded frames move between concurrently
// executing nodes (DESIGN.md §12). A Transport is a set of named mailboxes:
// node threads push frames at each other with send() and drain their own
// mailbox with recv(). Two implementations ship:
//
//   * InProcTransport — one bounded lock-free SPSC ring per directed
//     (src,dst) channel. Exactly one producer (the sending node's thread,
//     which also runs pump()) and one consumer (the receiving node's thread)
//     touch a ring, so a frame crosses threads with two atomic stores and no
//     lock. A mutex-guarded overflow deque per channel absorbs bursts beyond
//     the ring capacity so senders never block and frames are never lost;
//     FIFO order per channel is preserved across the spill (see the invariant
//     notes on Channel below and DESIGN.md §12.2).
//   * UdpTransport — one non-blocking AF_INET loopback socket per node.
//     Real kernel datagrams with real loss-of-ordering potential; construction
//     throws TransportError where sockets are unavailable (sandboxes), and
//     every caller is expected to degrade gracefully (tests skip, the CLI
//     reports exit 1).
//
// Fault injection lives in the shared base class so both transports misbehave
// identically: seeded per-sender RNG streams decide drop / duplicate /
// reorder / delay per frame, so a given (seed, per-sender send sequence)
// misbehaves reproducibly regardless of which transport carries the bytes.
// Reorder and delay are implemented as a per-sender hold queue released by
// pump(), which node event loops call every iteration.
//
// Thread model: send()/pump() are called by the sending node's thread,
// recv() by the receiving node's thread, quiet()/stats snapshots by the
// coordinator. Per-sender state (RNG, hold queue, send-side counters) sits
// behind a per-sender mutex that only the sender's own thread and the
// coordinator's occasional polls ever take — uncontended on the hot path —
// and delivery-side counters are plain atomics, so no global lock serializes
// concurrent senders. add_node() must complete before any node thread starts;
// afterwards the name→state maps are read-only and looked up without locks.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/spsc_ring.hpp"

namespace fvn::net {

/// Thrown when a transport cannot be constructed (e.g. no socket support) or
/// a frame is addressed to an unknown node.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Seeded misbehavior knobs. All rates are per-frame probabilities in [0,1].
struct FaultOptions {
  double drop_rate = 0.0;       ///< frame silently discarded
  double duplicate_rate = 0.0;  ///< frame transmitted twice
  double reorder_rate = 0.0;    ///< frame held ~1-3ms, letting later frames pass
  double delay_ms = 0.0;        ///< uniform extra [0, delay_ms) hold per frame
  std::uint64_t seed = 1;       ///< fault RNG seed (per-sender streams derive from it)

  bool any() const noexcept {
    return drop_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 || delay_ms > 0;
  }
};

/// Monotonic counters aggregated across all senders. stats() sums the
/// per-sender shards (each under its own mutex) and the delivery atomics.
struct TransportStats {
  std::uint64_t frames_sent = 0;         ///< send() calls (pre-fault)
  std::uint64_t frames_delivered = 0;    ///< frames handed to recv() callers
  std::uint64_t frames_dropped = 0;      ///< fault injection: discarded
  std::uint64_t frames_duplicated = 0;   ///< fault injection: sent twice
  std::uint64_t frames_delayed = 0;      ///< fault injection: held in the hold queue
  std::uint64_t bytes_sent = 0;          ///< post-fault bytes actually transmitted
  std::uint64_t bytes_delivered = 0;
};

class Transport {
 public:
  explicit Transport(FaultOptions faults = {});
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Register a node before any thread starts. Idempotent.
  virtual void add_node(const std::string& name);

  /// Fault-injecting send from `from`'s thread. Throws TransportError for an
  /// unregistered destination.
  void send(const std::string& from, const std::string& to, std::string frame);

  /// Release any held (reordered/delayed) frames from `from` whose hold has
  /// elapsed. Node loops call this once per iteration.
  void pump(const std::string& from);

  /// Opaque handle to `node`'s mailbox, valid once add_node registration is
  /// complete (the name maps are frozen then) and for the transport's
  /// lifetime; null for an unregistered node. A receiver looks its mailbox
  /// up once: the node event loop polls it every sweep, so a per-call name
  /// lookup would be pure idle tax.
  virtual void* rx_cursor(const std::string& node) = 0;

  /// Pop the next frame from the mailbox `cursor` (non-null, from this
  /// transport's rx_cursor()); false when the mailbox is empty.
  bool recv(void* cursor, std::string& frame);

  /// Doorbell protocol — lets an idle node *block* instead of spin-polling,
  /// which matters enormously when nodes outnumber cores: a runnable-but-idle
  /// thread steals scheduler slices from whichever node has real work. Every
  /// transmit rings the destination's doorbell, so a parked node wakes the
  /// moment a frame (data or ack) is bound for it. Usage, race-free:
  ///
  ///   ticket = rx_ticket(name);   // snapshot BEFORE the final mailbox check
  ///   if (sweep found nothing) rx_wait(name, ticket, timeout_ms);
  ///
  /// A frame transmitted after the snapshot advances the signal, so rx_wait
  /// returns immediately instead of sleeping through it.
  std::uint64_t rx_ticket(const std::string& node);
  /// Block until the doorbell moves past `ticket`, `timeout_ms` elapses, or
  /// wake_all() is called. Fault injection clamps the timeout: held
  /// (reordered/delayed) frames are only released by the *sender's* pump, so
  /// senders must keep waking while faults are live.
  void rx_wait(const std::string& node, std::uint64_t ticket, double timeout_ms);
  /// Ring every doorbell (coordinator, after setting the stop flag) so parked
  /// node threads notice shutdown immediately instead of timing out.
  void wake_all();

  /// Coordinator progress doorbell — the reverse direction of the per-node
  /// bells. Node threads ring it when they park (transition to idle) or fail,
  /// so the termination-detection loop blocks between scans and wakes the
  /// moment the cluster's idle/busy picture may have changed, instead of
  /// discovering it a poll interval later. Same race-free ticket contract:
  /// snapshot BEFORE the scan the coordinator might sleep on.
  std::uint64_t progress_ticket();
  void progress_wait(std::uint64_t ticket, double timeout_ms);
  void ring_progress();

  /// True when no frame is buffered anywhere: mailboxes, hold queues, and
  /// (for UDP) kernel socket buffers. Coordinator-side quiescence input.
  bool quiet();

  TransportStats stats();

 protected:
  /// Actually move bytes from `from` to `to`: push into the destination
  /// mailbox / socket. Always called from `from`'s thread (send or pump).
  virtual void transmit(const std::string& from, const std::string& to,
                        std::string frame) = 0;
  /// Pop from the implementation mailbox behind an rx_cursor() handle.
  virtual bool poll_cursor(void* cursor, std::string& frame) = 0;
  /// Implementation part of quiet() (mailboxes / socket buffers empty).
  virtual bool impl_quiet() = 0;

 private:
  struct HeldFrame {
    double due_ms = 0.0;  // steady-clock milliseconds since transport start
    std::string to;
    std::string frame;
  };
  /// One per node. `signal` counts rings; `waiting` is set under `mutex`
  /// before blocking, so a producer that observes it can take the mutex and
  /// be certain its notify lands inside the wait (no lost wakeups — a ring
  /// the producer fired before the flag was visible is caught by the
  /// predicate's signal/ticket comparison instead).
  struct Doorbell {
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<std::uint64_t> signal{0};
    std::atomic<bool> waiting{false};
  };
  /// All state only `from`'s thread writes. The mutex exists for the
  /// coordinator's quiet()/stats() reads; the owning thread never contends.
  struct SenderState {
    std::mutex mutex;
    std::mt19937_64 rng;
    std::vector<HeldFrame> held;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t frames_duplicated = 0;
    std::uint64_t frames_delayed = 0;
    std::uint64_t bytes_sent = 0;
  };

  SenderState& sender(const std::string& from);
  void ring(const std::string& to);
  static void ring_bell(Doorbell& bell);
  static void wait_bell(Doorbell& bell, std::uint64_t ticket, double timeout_ms);
  double now_ms() const;

  FaultOptions faults_;
  std::mutex setup_mutex_;  // guards senders_'s shape during add_node only
  std::map<std::string, std::unique_ptr<SenderState>> senders_;
  std::map<std::string, std::unique_ptr<Doorbell>> bells_;
  Doorbell progress_;  // coordinator-side; rung by node threads
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> bytes_delivered_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// Bounded lock-free SPSC rings per directed channel, all in one process.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(FaultOptions faults = {});

  void add_node(const std::string& name) override;
  void* rx_cursor(const std::string& node) override;

 protected:
  void transmit(const std::string& from, const std::string& to,
                std::string frame) override;
  bool poll_cursor(void* cursor, std::string& frame) override;
  bool impl_quiet() override;

 private:
  /// One directed (src,dst) channel: an SpscRing (see spsc_ring.hpp for the
  /// single-producer/single-consumer memory-ordering argument) plus an
  /// overflow deque. `overflowing_` is set only by the producer (under
  /// overflow_mutex_) and cleared only by the consumer (under
  /// overflow_mutex_, once the deque is drained). While it is set the
  /// producer appends to the overflow deque instead of the ring, so every
  /// overflow frame is newer than every ring frame and draining
  /// ring-then-overflow preserves per-channel FIFO.
  struct Channel {
    static constexpr std::size_t kCapacity = 256;

    SpscRing<std::string, kCapacity> ring;
    std::atomic<bool> overflowing_{false};
    std::mutex overflow_mutex_;
    std::deque<std::string> overflow_;

    void push(std::string frame);      // producer thread only
    bool pop(std::string& frame);      // consumer thread only
    bool looks_empty();                // coordinator: approximate emptiness
  };

  Channel* channel(const std::string& from, const std::string& to);

  std::mutex setup_mutex_;  // guards map shapes during add_node only
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Channel>> channels_;
  std::map<std::string, std::vector<Channel*>> inbound_;  // dst -> its channels
  std::vector<std::string> names_;
};

/// Non-blocking AF_INET UDP sockets on 127.0.0.1, one per node. Construction
/// of the first socket happens lazily in add_node(); failures throw
/// TransportError so callers can skip cleanly where sockets are unavailable.
class UdpTransport final : public Transport {
 public:
  explicit UdpTransport(FaultOptions faults = {});
  ~UdpTransport() override;

  void add_node(const std::string& name) override;
  void* rx_cursor(const std::string& node) override;

 protected:
  void transmit(const std::string& from, const std::string& to,
                std::string frame) override;
  bool poll_cursor(void* cursor, std::string& frame) override;
  bool impl_quiet() override;

 private:
  struct Socket {
    int fd = -1;
    std::uint16_t port = 0;
  };
  std::mutex mutex_;
  std::map<std::string, Socket> sockets_;
};

}  // namespace fvn::net
