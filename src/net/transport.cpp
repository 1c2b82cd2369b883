#include "net/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace fvn::net {

namespace {

/// Splitmix64 — derives an independent per-sender fault stream from the
/// cluster seed, so one node's send pattern never perturbs another's faults.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

Transport::Transport(FaultOptions faults)
    : faults_(faults), epoch_(std::chrono::steady_clock::now()) {}

double Transport::now_ms() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   epoch_)
      .count();
}

void Transport::add_node(const std::string& name) {
  std::lock_guard<std::mutex> lock(setup_mutex_);
  auto it = senders_.find(name);
  if (it != senders_.end()) return;
  auto state = std::make_unique<SenderState>();
  state->rng.seed(mix(faults_.seed) ^ fnv1a(name));
  senders_.emplace(name, std::move(state));
  bells_.emplace(name, std::make_unique<Doorbell>());
}

void Transport::ring_bell(Doorbell& b) {
  b.signal.fetch_add(1, std::memory_order_release);
  if (b.waiting.load(std::memory_order_acquire)) {
    // Taking the mutex orders this notify after the waiter's predicate check,
    // so the wakeup cannot slip between "checked, nothing new" and "blocked".
    std::lock_guard<std::mutex> lock(b.mutex);
    b.cv.notify_one();
  }
}

void Transport::wait_bell(Doorbell& b, std::uint64_t ticket, double timeout_ms) {
  std::unique_lock<std::mutex> lock(b.mutex);
  b.waiting.store(true, std::memory_order_release);
  b.cv.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                [&] { return b.signal.load(std::memory_order_acquire) != ticket; });
  b.waiting.store(false, std::memory_order_release);
}

void Transport::ring(const std::string& to) {
  // No lock: bells_ is immutable once node threads run (add_node contract).
  auto it = bells_.find(to);
  if (it != bells_.end()) ring_bell(*it->second);
}

std::uint64_t Transport::rx_ticket(const std::string& node) {
  auto it = bells_.find(node);
  return it == bells_.end() ? 0 : it->second->signal.load(std::memory_order_acquire);
}

void Transport::rx_wait(const std::string& node, std::uint64_t ticket,
                        double timeout_ms) {
  // Held (reordered/delayed) frames are released only by the sender's own
  // pump(), so under fault injection nobody may park for long.
  if (faults_.any()) timeout_ms = std::min(timeout_ms, 0.25);
  auto it = bells_.find(node);
  if (it != bells_.end()) wait_bell(*it->second, ticket, timeout_ms);
}

std::uint64_t Transport::progress_ticket() {
  return progress_.signal.load(std::memory_order_acquire);
}

void Transport::progress_wait(std::uint64_t ticket, double timeout_ms) {
  wait_bell(progress_, ticket, timeout_ms);
}

void Transport::ring_progress() { ring_bell(progress_); }

void Transport::wake_all() {
  for (auto& [name, bell] : bells_) {
    bell->signal.fetch_add(1, std::memory_order_release);
    std::lock_guard<std::mutex> lock(bell->mutex);
    bell->cv.notify_all();
  }
}

Transport::SenderState& Transport::sender(const std::string& from) {
  // No lock: senders_ is immutable once node threads run (add_node contract).
  auto it = senders_.find(from);
  if (it == senders_.end()) throw TransportError("unregistered sender " + from);
  return *it->second;
}

void Transport::send(const std::string& from, const std::string& to,
                     std::string frame) {
  SenderState& s = sender(from);
  bool duplicate = false;
  double hold_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    ++s.frames_sent;
    if (!faults_.any()) {
      s.bytes_sent += frame.size();
    } else {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      if (faults_.drop_rate > 0 && u(s.rng) < faults_.drop_rate) {
        ++s.frames_dropped;
        return;
      }
      duplicate =
          faults_.duplicate_rate > 0 && u(s.rng) < faults_.duplicate_rate;
      if (faults_.reorder_rate > 0 && u(s.rng) < faults_.reorder_rate) {
        // Hold long enough that frames sent immediately after overtake this one.
        hold_ms += 1.0 + 2.0 * u(s.rng);
      }
      if (faults_.delay_ms > 0) hold_ms += faults_.delay_ms * u(s.rng);
      if (duplicate) ++s.frames_duplicated;
      // Post-fault bytes: the duplicate plus the original, the latter counted
      // now even when it is transmitted later by pump().
      s.bytes_sent += frame.size() * (duplicate ? 2 : 1);
      if (hold_ms > 0.0) {
        ++s.frames_delayed;
        s.held.push_back(HeldFrame{now_ms() + hold_ms, to,
                                   duplicate ? frame : std::move(frame)});
      }
    }
  }
  // Transmit outside the sender lock; only this thread sends as `from`, so
  // the unlock cannot reorder this sender's frames. When both duplicate and
  // hold fired, the held copy above kept `frame` intact for the dup.
  if (duplicate) transmit(from, to, frame);
  if (hold_ms > 0.0) {
    if (duplicate) ring(to);
    return;  // original sits in the hold queue until pump()
  }
  transmit(from, to, std::move(frame));
  ring(to);
}

void Transport::pump(const std::string& from) {
  // Frames are only ever held by reorder/delay injection; without faults the
  // hold queues are provably empty and the node loop's per-sweep pump must
  // not pay a name lookup plus a lock for nothing.
  if (!faults_.any()) return;
  SenderState& s = sender(from);
  std::vector<HeldFrame> due;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.held.empty()) return;
    const double now = now_ms();
    for (std::size_t i = 0; i < s.held.size();) {
      if (s.held[i].due_ms <= now) {
        due.push_back(std::move(s.held[i]));
        s.held.erase(s.held.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (auto& h : due) {
    const std::string to = h.to;
    transmit(from, to, std::move(h.frame));
    ring(to);
  }
}

bool Transport::recv(void* cursor, std::string& frame) {
  if (!poll_cursor(cursor, frame)) return false;
  frames_delivered_.fetch_add(1, std::memory_order_relaxed);
  bytes_delivered_.fetch_add(frame.size(), std::memory_order_relaxed);
  return true;
}

bool Transport::quiet() {
  for (const auto& [name, state] : senders_) {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (!state->held.empty()) return false;
  }
  return impl_quiet();
}

TransportStats Transport::stats() {
  TransportStats out;
  for (const auto& [name, state] : senders_) {
    std::lock_guard<std::mutex> lock(state->mutex);
    out.frames_sent += state->frames_sent;
    out.frames_dropped += state->frames_dropped;
    out.frames_duplicated += state->frames_duplicated;
    out.frames_delayed += state->frames_delayed;
    out.bytes_sent += state->bytes_sent;
  }
  out.frames_delivered = frames_delivered_.load(std::memory_order_relaxed);
  out.bytes_delivered = bytes_delivered_.load(std::memory_order_relaxed);
  return out;
}

// --- InProcTransport --------------------------------------------------------

InProcTransport::InProcTransport(FaultOptions faults) : Transport(faults) {}

void InProcTransport::Channel::push(std::string frame) {
  // Only the consumer clears overflowing_, and only after draining the
  // deque — so reading false here proves the overflow is empty and the
  // ring push preserves FIFO.
  if (!overflowing_.load(std::memory_order_relaxed) && ring.try_push(frame)) {
    return;
  }
  std::lock_guard<std::mutex> lock(overflow_mutex_);
  overflowing_.store(true, std::memory_order_release);
  overflow_.push_back(std::move(frame));
}

bool InProcTransport::Channel::pop(std::string& frame) {
  // Ring first: while overflowing_, every ring frame predates every overflow
  // frame, so this order is exactly per-channel FIFO.
  if (ring.try_pop(frame)) return true;
  if (!overflowing_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(overflow_mutex_);
  if (overflow_.empty()) {
    overflowing_.store(false, std::memory_order_release);
    return false;
  }
  frame = std::move(overflow_.front());
  overflow_.pop_front();
  if (overflow_.empty()) overflowing_.store(false, std::memory_order_release);
  return true;
}

bool InProcTransport::Channel::looks_empty() {
  return ring.looks_empty() && !overflowing_.load(std::memory_order_acquire);
}

void InProcTransport::add_node(const std::string& name) {
  Transport::add_node(name);
  std::lock_guard<std::mutex> lock(setup_mutex_);
  for (const auto& existing : names_) {
    if (existing == name) return;  // idempotent
  }
  // Create both directions against every known node (and the self channel so
  // a misrouted frame errors in one place). N^2 channels is fine at the tens
  // of nodes a thread-per-node cluster can run; the planned event-loop
  // transport owns the thousands-of-nodes regime.
  for (const auto& other : names_) {
    channels_.emplace(std::make_pair(name, other), std::make_unique<Channel>());
    channels_.emplace(std::make_pair(other, name), std::make_unique<Channel>());
    inbound_[other].push_back(channels_.at({name, other}).get());
    inbound_[name].push_back(channels_.at({other, name}).get());
  }
  channels_.emplace(std::make_pair(name, name), std::make_unique<Channel>());
  inbound_[name].push_back(channels_.at({name, name}).get());
  names_.push_back(name);
}

InProcTransport::Channel* InProcTransport::channel(const std::string& from,
                                                   const std::string& to) {
  // No lock: the maps are immutable once node threads run (add_node contract).
  auto it = channels_.find({from, to});
  return it == channels_.end() ? nullptr : it->second.get();
}

void InProcTransport::transmit(const std::string& from, const std::string& to,
                               std::string frame) {
  Channel* ch = channel(from, to);
  if (ch == nullptr) throw TransportError("unknown destination " + to);
  ch->push(std::move(frame));
}

void* InProcTransport::rx_cursor(const std::string& node) {
  // No lock: the maps are immutable once node threads run, and map node
  // storage keeps the vector's address stable.
  auto it = inbound_.find(node);
  return it == inbound_.end() ? nullptr : &it->second;
}

bool InProcTransport::poll_cursor(void* cursor, std::string& frame) {
  for (Channel* ch : *static_cast<std::vector<Channel*>*>(cursor)) {
    if (ch->pop(frame)) return true;
  }
  return false;
}

bool InProcTransport::impl_quiet() {
  for (const auto& [key, ch] : channels_) {
    if (!ch->looks_empty()) return false;
  }
  return true;
}

// --- UdpTransport -----------------------------------------------------------

UdpTransport::UdpTransport(FaultOptions faults) : Transport(faults) {}

UdpTransport::~UdpTransport() {
  for (auto& [name, sock] : sockets_) {
    if (sock.fd >= 0) ::close(sock.fd);
  }
}

void UdpTransport::add_node(const std::string& name) {
  Transport::add_node(name);
  std::lock_guard<std::mutex> lock(mutex_);
  if (sockets_.count(name)) return;

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    throw TransportError(std::string("udp: socket() failed: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw TransportError(std::string("udp: bind() failed: ") + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int err = errno;
    ::close(fd);
    throw TransportError(std::string("udp: getsockname() failed: ") +
                         std::strerror(err));
  }
  // Non-blocking: node loops poll; they must never park in the kernel.
  int flags = 1;
  if (::ioctl(fd, FIONBIO, &flags) < 0) {
    const int err = errno;
    ::close(fd);
    throw TransportError(std::string("udp: FIONBIO failed: ") + std::strerror(err));
  }
  sockets_[name] = Socket{fd, ntohs(addr.sin_port)};
}

void UdpTransport::transmit(const std::string& from, const std::string& to,
                            std::string frame) {
  (void)from;
  Socket dst{};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sockets_.find(to);
    if (it == sockets_.end()) throw TransportError("unknown destination " + to);
    dst = it->second;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(dst.port);
  // Any socket can carry the datagram; use the destination's own fd for
  // sending too — sendto() is atomic per datagram and thread-safe. Loopback
  // sends only fail transiently (ENOBUFS under pressure); treat a failed
  // send exactly like a dropped frame — the reliability layer retransmits.
  (void)::sendto(dst.fd, frame.data(), frame.size(), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
}

void* UdpTransport::rx_cursor(const std::string& node) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sockets_.find(node);
  return it == sockets_.end() ? nullptr : &it->second;  // stable map storage
}

bool UdpTransport::poll_cursor(void* cursor, std::string& frame) {
  const Socket* sock = static_cast<Socket*>(cursor);
  char buf[65536];
  const ssize_t n = ::recvfrom(sock->fd, buf, sizeof(buf), 0, nullptr, nullptr);
  if (n < 0) return false;  // EWOULDBLOCK or transient error: nothing to read
  frame.assign(buf, static_cast<std::size_t>(n));
  return true;
}

bool UdpTransport::impl_quiet() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, sock] : sockets_) {
    int pending = 0;
    if (::ioctl(sock.fd, FIONREAD, &pending) == 0 && pending > 0) return false;
  }
  return true;
}

}  // namespace fvn::net
