#include "net/node.hpp"

#include <algorithm>
#include <thread>

namespace fvn::net {

using ndlog::Tuple;

namespace {

/// The cluster runs hard state only (Cluster rejects finite lifetimes), so
/// no row here ever expires and the core's lifetime clock can stand still.
constexpr double kCoreClock = 0.0;

/// Retransmit deadline of a first transmission; each re-send doubles it, up
/// to kMaxBackoffMs.
constexpr double kInitialBackoffMs = 2.0;
constexpr double kMaxBackoffMs = 50.0;

}  // namespace

Node::Node(std::string name, const ndlog::Catalog& catalog, const dataflow::Plan& plan,
           Transport& transport, const runtime::TupleEventHook* tuple_events,
           bool metered)
    : name_(std::move(name)),
      transport_(&transport),
      tuple_events_(tuple_events),
      metered_(metered),
      preds_(catalog),
      // Null registry: obs::Registry is not thread-safe and the shared
      // element counters would race across node threads.
      core_(name_, plan, preds_, nullptr,
            [this](const runtime::NodeCore&, runtime::NodeCore::Change change,
                   const Tuple& tuple) { on_change(change, tuple); }),
      epoch_(std::chrono::steady_clock::now()) {}

double Node::now_ms() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   epoch_)
      .count();
}

void Node::seed(Tuple fact) { seeds_.push_back(std::move(fact)); }

void Node::on_change(runtime::NodeCore::Change change, const Tuple& tuple) {
  using Change = runtime::NodeCore::Change;
  switch (change) {
    case Change::Remote:
      ship(tuple);
      return;
    case Change::Expire:
    case Change::Refresh:
      return;  // hard state only: nothing here ever expires
    case Change::Install:
      ++stats_.installed;
      break;
    case Change::Retract:
      break;
  }
  if (tuple_events_ != nullptr && *tuple_events_) {
    (*tuple_events_)(change == Change::Install ? "install" : "retract", name_, tuple,
                     now_ms() / 1000.0);
  }
}

void Node::ship(const Tuple& tuple) {
  auto& buf = outbuf_[preds_.location_of(tuple)];
  if (buf.empty()) ++outbuf_dirty_;
  buf.push_back(tuple);
}

void Node::flush_channels() {
  if (outbuf_dirty_ == 0) return;  // idle sweeps skip the whole scan
  outbuf_dirty_ = 0;
  for (auto& [dest, buf] : outbuf_) {
    if (buf.empty()) continue;
    Frame frame;
    frame.kind = Frame::Kind::DataBatch;
    frame.src = name_;
    frame.dst = dest;
    frame.tuples = std::move(buf);
    buf.clear();
    const std::size_t tuple_count = frame.tuples.size();
    auto oit = out_.try_emplace(dest).first;
    frame.seq = oit->second.next_seq++;
    std::string bytes;
    {
      obs::Timer::Scope scope(metered_ ? &stats_.encode : nullptr);
      bytes = encode_frame(frame);
    }
    const double due = now_ms() + kInitialBackoffMs;
    oit->second.pending.emplace(frame.seq, Pending{bytes, due, kInitialBackoffMs});
    due_heap_.push(Due{due, &oit->first, frame.seq});
    unacked_.fetch_add(1, std::memory_order_acq_rel);
    ++stats_.sent;
    stats_.tuples_shipped += tuple_count;
    stats_.bytes_sent += bytes.size();
    if (metered_) stats_.batch_size.observe(tuple_count);
    transport_->send(name_, dest, std::move(bytes));
  }
}

void Node::retransmit_due() {
  if (due_heap_.empty()) return;
  const double now = now_ms();
  while (!due_heap_.empty()) {
    const Due top = due_heap_.top();
    if (top.due_ms > now) break;  // heap order: nothing else is due either
    due_heap_.pop();
    auto oit = out_.find(*top.dest);
    if (oit == out_.end()) continue;
    auto pit = oit->second.pending.find(top.seq);
    if (pit == oit->second.pending.end()) continue;  // acked: stale heap entry
    Pending& p = pit->second;
    if (p.due_ms != top.due_ms) continue;  // rescheduled: stale heap entry
    try {
      transport_->send(name_, *top.dest, p.bytes);
    } catch (const TransportError&) {
      // The transport refused the frame (e.g. unreachable peer). A send that
      // never happened must not escalate backoff or skew retransmitted/
      // bytes_sent — retry later at the *same* backoff.
      p.due_ms = now + p.backoff_ms;
      due_heap_.push(Due{p.due_ms, &oit->first, top.seq});
      continue;
    }
    p.backoff_ms = std::min(p.backoff_ms * 2.0, kMaxBackoffMs);
    p.due_ms = now + p.backoff_ms;
    ++stats_.retransmitted;
    stats_.retransmit_bytes += p.bytes.size();
    stats_.bytes_sent += p.bytes.size();
    due_heap_.push(Due{p.due_ms, &oit->first, top.seq});
  }
}

void Node::send_ack(const std::string& dest, std::uint64_t cumulative_seq) {
  Frame ack;
  ack.kind = Frame::Kind::Ack;
  ack.seq = cumulative_seq;
  ack.src = name_;
  ack.dst = dest;
  std::string bytes = encode_frame(ack);
  // Acks are wire traffic too: count them into the node's byte totals (and
  // separately, so the protocol overhead stays visible).
  ++stats_.acks_sent;
  stats_.ack_bytes += bytes.size();
  stats_.bytes_sent += bytes.size();
  transport_->send(name_, dest, std::move(bytes));
}

void Node::deliver_tuples(const std::vector<Tuple>& tuples) {
  for (const auto& t : tuples) core_.deliver(t, kCoreClock);
  // One aggregate settle per delivered batch instead of per tuple — with
  // batching this is where most of the cluster's rule-evaluation time went.
  core_.settle(kCoreClock);
}

void Node::handle_batch(Frame&& frame) {
  const std::string src = frame.src;
  InChannel& in = in_[src];
  if (frame.seq < in.next_expected || in.reassembly.count(frame.seq) > 0) {
    // Already delivered or already buffered: the previous ack may have been
    // lost, so re-ack the cumulative frontier.
    ++stats_.duplicates;
    send_ack(src, in.next_expected - 1);
    return;
  }
  if (frame.seq != in.next_expected) {
    in.reassembly.emplace(frame.seq, std::move(frame.tuples));
    send_ack(src, in.next_expected - 1);
    return;
  }
  // In-order delivery: this batch, then everything it unblocks; one
  // cumulative ack for the whole run.
  std::vector<Tuple> batch = std::move(frame.tuples);
  for (;;) {
    ++in.next_expected;
    ++stats_.received;
    stats_.tuples_received += batch.size();
    deliver_tuples(batch);
    auto it = in.reassembly.find(in.next_expected);
    if (it == in.reassembly.end()) break;
    batch = std::move(it->second);
    in.reassembly.erase(it);
  }
  send_ack(src, in.next_expected - 1);
}

void Node::handle_frame(const std::string& bytes) {
  stats_.bytes_received += bytes.size();
  Frame frame;
  try {
    obs::Timer::Scope scope(metered_ ? &stats_.decode : nullptr);
    frame = decode_frame(bytes);
  } catch (const WireError&) {
    // Corrupt frame: count and drop; the sender's retransmit recovers it.
    ++stats_.corrupt_frames;
    return;
  }
  if (frame.kind == Frame::Kind::Ack) {
    auto it = out_.find(frame.src);
    if (it != out_.end()) {
      // Cumulative: one ack clears every pending batch up to and including
      // its seq (stale due_heap_ entries are skipped lazily on pop).
      auto& pending = it->second.pending;
      std::uint64_t cleared = 0;
      for (auto pit = pending.begin();
           pit != pending.end() && pit->first <= frame.seq;) {
        pit = pending.erase(pit);
        ++cleared;
      }
      if (cleared > 0) {
        stats_.acked += cleared;
        unacked_.fetch_sub(cleared, std::memory_order_acq_rel);
      }
    }
    return;
  }
  handle_batch(std::move(frame));
}

bool Node::sweep() {
  // Busy before the mailbox is touched: a frame this sweep pops has left the
  // transport, and its ack (which clears the sender's unacked count) leaves
  // before the derivations it triggers are flushed, so nothing else the
  // coordinator reads shows that work until this sweep ends.
  idle_.store(false, std::memory_order_release);
  transport_->pump(name_);
  retransmit_due();
  std::string bytes;
  std::uint64_t drained = 0;
  while (transport_->recv(rx_cursor_, bytes)) {
    ++drained;
    handle_frame(bytes);
    activity_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (drained > 0) stats_.last_active_ms = now_ms();
  // Everything this sweep derived for each remote peer leaves as one batch.
  flush_channels();
  if (drained == 0) {
    // Nothing popped and every derivation flushed: idle until the next sweep.
    idle_.store(true, std::memory_order_release);
    return false;
  }
  if (metered_) stats_.mailbox_depth.observe(drained);
  return true;
}

void Node::run(const std::atomic<bool>& stop) {
  try {
    rx_cursor_ = transport_->rx_cursor(name_);
    if (rx_cursor_ == nullptr) throw TransportError("no mailbox for " + name_);
    for (const auto& fact : seeds_) {
      core_.deliver(fact, kCoreClock);
      activity_.fetch_add(1, std::memory_order_acq_rel);
    }
    core_.settle(kCoreClock);
    seeds_.clear();
    flush_channels();  // the seeds' derivations ship before the first sweep
    std::uint32_t idle_streak = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (sweep()) {
        idle_streak = 0;
        continue;
      }
      if (++idle_streak < 8) {
        std::this_thread::yield();
        continue;
      }
      // Nothing to do: park on the transport doorbell instead of spinning.
      // A runnable-but-idle thread is pure overhead when nodes outnumber
      // cores — it steals scheduler slices from whichever node has real
      // work — and every frame bound for us rings the bell, so parking
      // costs one wakeup of latency, not a poll interval. The ticket is
      // snapshotted *before* a confirming sweep: a frame arriving between
      // that sweep and the wait advances the signal past the ticket and
      // rx_wait returns immediately. The timeout only backstops retransmit
      // deadlines (and, inside rx_wait, fault pumping); shutdown is a
      // wake_all() from the coordinator.
      const std::uint64_t ticket = transport_->rx_ticket(name_);
      if (sweep()) continue;
      double timeout_ms = 5.0;
      if (!due_heap_.empty()) {
        timeout_ms = std::clamp(due_heap_.top().due_ms - now_ms(), 0.05, 5.0);
      }
      // Parking is the cluster-wide signal the coordinator's termination scan
      // waits on (every node parked + nothing in flight ⇒ quiescent), so tell
      // it the idle picture changed before blocking.
      transport_->ring_progress();
      transport_->rx_wait(name_, ticket, timeout_ms);
    }
  } catch (const std::exception& e) {
    error_ = name_ + ": " + e.what();
    failed_.store(true, std::memory_order_release);
    idle_.store(true, std::memory_order_release);
    transport_->ring_progress();  // coordinator aborts the run promptly
  }
  stats_.overwrites = core_.overwrites();
}

}  // namespace fvn::net
