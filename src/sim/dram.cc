#include "sim/dram.h"

#include <algorithm>

#include "common/check.h"

namespace gpumas::sim {

DramChannel::DramChannel(const GpuConfig& cfg, int /*channel_index*/)
    : policy_(cfg.mem_sched),
      queue_capacity_(cfg.channel_queue_size),
      row_hit_cycles_(cfg.row_hit_cycles),
      row_miss_cycles_(cfg.row_miss_cycles),
      data_bus_cycles_(cfg.data_bus_cycles),
      slots_(static_cast<size_t>(cfg.channel_queue_size)),
      banks_(static_cast<size_t>(cfg.banks_per_channel)) {
  GPUMAS_CHECK(queue_capacity_ > 0);
  for (int i = 0; i < queue_capacity_; ++i) {
    slots_[static_cast<size_t>(i)].next =
        i + 1 < queue_capacity_ ? i + 1 : -1;
  }
  free_head_ = 0;
}

bool DramChannel::enqueue(const DramRequest& req) {
  if (full()) return false;
  GPUMAS_CHECK(req.bank < banks_.size());
  const int32_t idx = free_head_;
  Slot& slot = slots_[static_cast<size_t>(idx)];
  free_head_ = slot.next;
  slot.req = req;
  slot.seq = next_seq_++;
  slot.next = -1;
  slot.used = true;
  Bank& bank = banks_[req.bank];
  if (bank.tail >= 0) {
    slots_[static_cast<size_t>(bank.tail)].next = idx;
  } else {
    bank.head = idx;
  }
  bank.tail = idx;
  if (req.row == bank.open_row) ++bank.open_row_matches;
  ++live_;
  return true;
}

void DramChannel::unlink(Bank& bank, int32_t prev, int32_t idx) {
  Slot& slot = slots_[static_cast<size_t>(idx)];
  if (prev >= 0) {
    slots_[static_cast<size_t>(prev)].next = slot.next;
  } else {
    bank.head = slot.next;
  }
  if (bank.tail == idx) bank.tail = prev;
  slot.used = false;
  slot.next = free_head_;
  free_head_ = idx;
  --live_;
}

bool DramChannel::tick(uint64_t cycle) {
  if (bus_busy_until_ > cycle || live_ == 0) return false;

  // FR-FCFS: the earliest-arrived open-row hit on any free bank wins; per
  // bank that is the first open-row match along its arrival chain, so the
  // walk short-circuits (and skips entirely when the match counter is 0).
  int32_t best = -1;
  int32_t best_prev = -1;
  uint64_t best_seq = ~0ull;
  int best_bank = -1;
  if (policy_ == MemSchedPolicy::kFrFcfs) {
    for (size_t b = 0; b < banks_.size(); ++b) {
      const Bank& bank = banks_[b];
      if (bank.busy_until > cycle || bank.open_row_matches == 0) continue;
      int32_t prev = -1;
      for (int32_t i = bank.head; i >= 0;
           prev = i, i = slots_[static_cast<size_t>(i)].next) {
        const Slot& slot = slots_[static_cast<size_t>(i)];
        if (slot.req.row != bank.open_row) continue;
        if (slot.seq < best_seq) {
          best = i;
          best_prev = prev;
          best_seq = slot.seq;
          best_bank = static_cast<int>(b);
        }
        break;  // first match in arrival order is this bank's candidate
      }
    }
  }
  if (best < 0) {
    // Oldest request whose bank is free (= earliest arrival among free
    // banks' chain heads). This is both the FR-FCFS fallback and FCFS.
    for (size_t b = 0; b < banks_.size(); ++b) {
      const Bank& bank = banks_[b];
      if (bank.busy_until > cycle || bank.head < 0) continue;
      const Slot& head = slots_[static_cast<size_t>(bank.head)];
      if (head.seq < best_seq) {
        best = bank.head;
        best_prev = -1;
        best_seq = head.seq;
        best_bank = static_cast<int>(b);
      }
    }
  }
  if (best < 0) return false;

  const DramRequest req = slots_[static_cast<size_t>(best)].req;
  Bank& bank = banks_[static_cast<size_t>(best_bank)];
  unlink(bank, best_prev, best);

  const bool hit = bank.open_row == req.row;
  const int access = hit ? row_hit_cycles_ : row_miss_cycles_;
  hit ? ++row_hits_ : ++row_misses_;

  if (hit) {
    --bank.open_row_matches;
  } else {
    bank.open_row = req.row;
    bank.open_row_matches = 0;
    for (int32_t i = bank.head; i >= 0;
         i = slots_[static_cast<size_t>(i)].next) {
      if (slots_[static_cast<size_t>(i)].req.row == bank.open_row) {
        ++bank.open_row_matches;
      }
    }
  }
  bank.busy_until = cycle + static_cast<uint64_t>(access);
  bus_busy_until_ = cycle + static_cast<uint64_t>(data_bus_cycles_);

  total_queue_wait_ += cycle - req.enqueue_cycle;
  ++serviced_;

  const uint64_t ready =
      cycle + static_cast<uint64_t>(access + data_bus_cycles_);
  inflight_.push_back(DramCompletion{req.line, req.app, ready, req.is_write});
  if (ready < min_inflight_ready_) min_inflight_ready_ = ready;
  return true;
}

const std::vector<DramCompletion>& DramChannel::drain_completions(
    uint64_t cycle) {
  ready_buffer_.clear();
  if (inflight_.empty() || min_inflight_ready_ > cycle) return ready_buffer_;
  size_t keep = 0;
  min_inflight_ready_ = ~0ull;
  for (size_t i = 0; i < inflight_.size(); ++i) {
    if (inflight_[i].ready_cycle <= cycle) {
      ready_buffer_.push_back(inflight_[i]);
    } else {
      if (inflight_[i].ready_cycle < min_inflight_ready_) {
        min_inflight_ready_ = inflight_[i].ready_cycle;
      }
      inflight_[keep++] = inflight_[i];
    }
  }
  inflight_.resize(keep);
  // inflight_ is kept in issue order, so a stable sort on ready_cycle
  // yields ascending (ready_cycle, issue order). A drain holds a handful
  // of nearly ordered entries: an in-place insertion sort (strict `>`
  // keeps equal keys in issue order) avoids std::stable_sort's temporary
  // buffer on every call.
  for (size_t i = 1; i < ready_buffer_.size(); ++i) {
    const DramCompletion c = ready_buffer_[i];
    size_t j = i;
    for (; j > 0 && ready_buffer_[j - 1].ready_cycle > c.ready_cycle; --j) {
      ready_buffer_[j] = ready_buffer_[j - 1];
    }
    ready_buffer_[j] = c;
  }
  return ready_buffer_;
}

uint64_t DramChannel::next_work_cycle(uint64_t cycle) const {
  uint64_t wake = ~0ull;
  const auto bump = [&wake, cycle](uint64_t t) {
    if (t > cycle && t < wake) wake = t;
  };
  if (!inflight_.empty()) bump(min_inflight_ready_);
  if (live_ > 0) {
    bump(bus_busy_until_);
    for (const Bank& b : banks_) {
      if (b.head >= 0) bump(b.busy_until);
    }
  }
  return wake;
}

void DramChannel::retime(uint64_t now, uint64_t delta) {
  for (Bank& b : banks_) {
    if (b.busy_until > now) b.busy_until += delta;
  }
  if (bus_busy_until_ > now) bus_busy_until_ += delta;
  min_inflight_ready_ = ~0ull;
  for (DramCompletion& c : inflight_) {
    if (c.ready_cycle > now) c.ready_cycle += delta;
    min_inflight_ready_ = std::min(min_inflight_ready_, c.ready_cycle);
  }
  for (Slot& s : slots_) {
    if (s.used) s.req.enqueue_cycle += delta;
  }
}

}  // namespace gpumas::sim
