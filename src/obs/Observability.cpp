//===--- obs/Observability.cpp - Tracing spans and runtime counters -------===//

#include "obs/Observability.h"

#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ptran;

ObsRegistry::ObsRegistry()
    : Epoch(std::chrono::steady_clock::now()),
      // Default-initialised: the ring's pages stay untouched (and out of
      // the resident set) until spans land in them.
      Ring(std::make_unique_for_overwrite<SpanRecord[]>(SpanCapacity)) {}

ObsCounter ObsRegistry::registerCounter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(CounterMu);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.try_emplace(std::string(Name)).first;
  return ObsCounter(&It->second);
}

namespace {

/// A counter appears in listings once something was added to it.
bool listed(const ObsCounterSlot &Slot, uint64_t &Value) {
  Value = Slot.Value.load(std::memory_order_relaxed);
  return Value || Slot.Touched.load(std::memory_order_relaxed);
}

/// This thread's dense index: drawn once, on the thread's first span, so
/// churning threads cost one counter increment each and no table entry.
uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local const uint32_t Index =
      Next.fetch_add(1, std::memory_order_relaxed);
  return Index;
}

} // namespace

uint64_t ObsRegistry::counterValue(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(CounterMu);
  auto It = Counters.find(Name);
  return It == Counters.end()
             ? 0
             : It->second.Value.load(std::memory_order_relaxed);
}

std::map<std::string, uint64_t> ObsRegistry::counters() const {
  std::map<std::string, uint64_t> Out;
  std::lock_guard<std::mutex> Lock(CounterMu);
  for (const auto &[Name, Slot] : Counters)
    if (uint64_t Value; listed(Slot, Value))
      Out.emplace(Name, Value);
  return Out;
}

void ObsRegistry::recordSpan(const char *Name, std::string_view Detail,
                             std::chrono::steady_clock::time_point Start,
                             std::chrono::steady_clock::time_point End) {
  using namespace std::chrono;
  SpanRecord R;
  R.Name = Name;
  R.StartNs = static_cast<uint64_t>(
      duration_cast<nanoseconds>(Start - Epoch).count());
  R.DurNs =
      static_cast<uint64_t>(duration_cast<nanoseconds>(End - Start).count());
  R.Tid = threadIndex();
  size_t Len = std::min(Detail.size(), DetailCapacity - 1);
  Detail.copy(R.Detail, Len);
  R.Detail[Len] = '\0';
  std::lock_guard<std::mutex> Lock(SpanMu);
  Ring[SpansRecorded++ % SpanCapacity] = R;
}

std::vector<ObsRegistry::SpanRecord>
ObsRegistry::spanWindow(uint64_t &Recorded) const {
  std::lock_guard<std::mutex> Lock(SpanMu);
  Recorded = SpansRecorded;
  if (SpansRecorded <= SpanCapacity)
    return std::vector<SpanRecord>(Ring.get(), Ring.get() + SpansRecorded);
  // Full ring: the oldest retained span sits where the next one goes.
  size_t Oldest = SpansRecorded % SpanCapacity;
  std::vector<SpanRecord> Out(Ring.get() + Oldest,
                              Ring.get() + SpanCapacity);
  Out.insert(Out.end(), Ring.get(), Ring.get() + Oldest);
  return Out;
}

std::vector<ObsRegistry::SpanRecord> ObsRegistry::spans() const {
  uint64_t Recorded;
  return spanWindow(Recorded);
}

uint64_t ObsRegistry::spansRecorded() const {
  std::lock_guard<std::mutex> Lock(SpanMu);
  return SpansRecorded;
}

bool ObsRegistry::empty() const {
  return spansRecorded() == 0 && counters().empty();
}

uint64_t ObsRegistry::nowNs() const {
  using namespace std::chrono;
  return static_cast<uint64_t>(
      duration_cast<nanoseconds>(steady_clock::now() - Epoch).count());
}

namespace {

/// Escapes a string for embedding in a JSON string literal.
std::string jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Formats nanoseconds as Chrome's microsecond timestamps (fractional
/// microseconds keep sub-microsecond spans visible).
std::string microseconds(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
  return Buf;
}

} // namespace

std::string ObsRegistry::chromeTraceJson() const {
  std::vector<SpanRecord> SpanCopy = spans();
  std::map<std::string, uint64_t> CounterCopy = counters();

  std::ostringstream Out;
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  uint64_t LastNs = 0;
  for (const SpanRecord &S : SpanCopy) {
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":\"" << jsonEscape(S.name())
        << "\",\"cat\":\"ptran\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Tid
        << ",\"ts\":" << microseconds(S.StartNs)
        << ",\"dur\":" << microseconds(S.DurNs);
    if (S.Detail[0])
      Out << ",\"args\":{\"detail\":\"" << jsonEscape(S.detail()) << "\"}";
    Out << "}";
    LastNs = std::max(LastNs, S.StartNs + S.DurNs);
  }
  for (const auto &[Name, Value] : CounterCopy) {
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":\"" << jsonEscape(Name)
        << "\",\"cat\":\"ptran\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
        << microseconds(LastNs) << ",\"args\":{\"value\":" << Value << "}}";
  }
  Out << "]}";
  return Out.str();
}

bool ObsRegistry::writeChromeTrace(const std::string &Path,
                                   std::string &Error) const {
  std::ofstream Out(Path);
  if (!Out) {
    Error = "cannot open trace file '" + Path + "' for writing";
    return false;
  }
  Out << chromeTraceJson() << "\n";
  Out.flush();
  if (!Out) {
    Error = "failed writing trace file '" + Path + "'";
    return false;
  }
  return true;
}

std::string ObsRegistry::statsTable() const {
  uint64_t Recorded;
  std::vector<SpanRecord> SpanCopy = spanWindow(Recorded);
  std::map<std::string, uint64_t> CounterCopy = counters();

  struct Agg {
    uint64_t Count = 0;
    uint64_t TotalNs = 0;
    uint64_t MaxNs = 0;
  };
  std::map<std::string_view, Agg> ByName;
  for (const SpanRecord &S : SpanCopy) {
    Agg &A = ByName[S.name()];
    ++A.Count;
    A.TotalNs += S.DurNs;
    A.MaxNs = std::max(A.MaxNs, S.DurNs);
  }
  std::vector<std::pair<std::string_view, Agg>> Sorted(ByName.begin(),
                                                       ByName.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    if (A.second.TotalNs != B.second.TotalNs)
      return A.second.TotalNs > B.second.TotalNs;
    return A.first < B.first;
  });

  auto Ms = [](uint64_t Ns) { return formatDouble(Ns / 1e6, 4); };

  std::string Out = "=== observability: timing spans ===\n";
  if (Recorded > SpanCopy.size())
    Out += "(the last " + std::to_string(SpanCopy.size()) + " of " +
           std::to_string(Recorded) + " spans recorded)\n";
  TablePrinter SpanTable(
      {"span", "count", "total [ms]", "mean [ms]", "max [ms]"});
  for (const auto &[Name, A] : Sorted)
    SpanTable.addRow({std::string(Name), std::to_string(A.Count), Ms(A.TotalNs),
                      Ms(A.Count ? A.TotalNs / A.Count : 0), Ms(A.MaxNs)});
  Out += SpanTable.str();

  Out += "\n=== observability: counters ===\n";
  TablePrinter CounterTable({"counter", "value"});
  for (const auto &[Name, Value] : CounterCopy)
    CounterTable.addRow({Name, std::to_string(Value)});
  Out += CounterTable.str();
  return Out;
}
