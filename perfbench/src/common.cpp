#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double nsPerCall(const char* what, std::uint64_t calls, double minSeconds,
                 double floorNs, const std::function<void()>& batch) {
  ScopedSpan span(what);
  std::vector<double> perCall;
  const std::uint64_t start = nowNs();
  // At least five repeats, so the median discards a descheduled batch.
  while (perCall.size() < 5 || secondsSince(start) < minSeconds) {
    const std::uint64_t t0 = nowNs();
    batch();
    perCall.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(calls));
  }
  const double ns = yewpar::median(perCall);
  if (!(ns >= floorNs)) {
    char msg[160];
    std::snprintf(msg, sizeof msg, "%s: %.3f ns per call is below the %.1f ns "
                  "floor", what, ns, floorNs);
    throw ImplausibleTiming(msg);
  }
  return ns;
}

double emptySearchMs(const std::function<void()>& search) {
  ScopedSpan span("engine.empty_search");
  std::vector<double> ms;
  const std::uint64_t start = nowNs();
  while (ms.size() < 20 || (ms.size() < 200 && secondsSince(start) < 0.2)) {
    const std::uint64_t t0 = nowNs();
    search();
    ms.push_back(secondsSince(t0) * 1e3);
  }
  return yewpar::median(ms);
}

// ---- Spans -----------------------------------------------------------------

Spans& Spans::get() {
  static Spans s;
  return s;
}

int Spans::open(const char* name, int search) {
  const int id = static_cast<int>(spans_.size());
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (search < 0 && parent >= 0) {
    search = spans_[static_cast<std::size_t>(parent)].search;
  }
  spans_.push_back({name, nowNs(), 0, id, parent, search});
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = nowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Spans::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span file " + path);
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i) f << ',';
    f << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
      << "\"ts\":" << static_cast<double>(s.start - base) * 1e-3
      << ",\"dur\":" << static_cast<double>(s.end - s.start) * 1e-3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"search\":" << s.search << "}}";
  }
  f << "]}\n";
}

// ---- GenStamps ---------------------------------------------------------------

std::atomic<bool> GenStamps::armed_{false};
std::atomic<std::uint32_t> GenStamps::epoch_{0};
std::atomic<int> GenStamps::nextSlot_{0};
std::array<GenStamps::Slot, GenStamps::kSlots> GenStamps::slots_{};

void GenStamps::arm() {
  for (auto& s : slots_) s = Slot{};
  nextSlot_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void GenStamps::disarm() { armed_.store(false, std::memory_order_release); }

GenStamps::Slot* GenStamps::mySlot() {
  // Threads of an earlier search (or the main thread, which outlives them)
  // re-claim a slot the first time they record in a new epoch.
  thread_local std::uint32_t epoch = ~0u;
  thread_local Slot* slot = nullptr;
  const std::uint32_t now = epoch_.load(std::memory_order_relaxed);
  if (epoch != now) {
    const int i = nextSlot_.fetch_add(1, std::memory_order_relaxed);
    slot = i < kSlots ? &slots_[static_cast<std::size_t>(i)] : nullptr;
    epoch = now;
  }
  return slot;
}

void GenStamps::onConstruct() {
  Slot* s = mySlot();
  if (s == nullptr) return;
  // A clock read costs about as much as a UTS node, so only every 16th
  // construction (and always a thread's first) is stamped: the last stamp
  // trails the true last construction by fewer than 16 constructions.
  if ((s->constructs++ & 15) == 0) {
    const std::uint64_t t = nowNs();
    if (s->first == 0) s->first = t;
    s->last = t;
  }
}

void GenStamps::onChild() {
  if (Slot* s = mySlot()) ++s->children;
}

GenStamps::Totals GenStamps::collect() {
  // Called after the search returned, i.e. after every worker thread was
  // joined, so plain reads of the slots are ordered after their writes.
  Totals t;
  for (const auto& s : slots_) {
    t.children += s.children;
    if (s.constructs == 0) continue;
    if (t.first == 0 || s.first < t.first) t.first = s.first;
    t.last = std::max(t.last, s.last);
    t.constructs += s.constructs;
  }
  return t;
}

}  // namespace perfbench
