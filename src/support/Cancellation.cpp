//===--- support/Cancellation.cpp - Cooperative cancellation --------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Cancellation.h"

namespace ptran {

void CancelToken::reset() {
  Reason.store(CancelReason::None, std::memory_order_relaxed);
  HasDeadline.store(false, std::memory_order_relaxed);
  DeadlineNs.store(0, std::memory_order_relaxed);
  StepBudget.store(NoBudget, std::memory_order_relaxed);
  StepsUsed.store(0, std::memory_order_relaxed);
  Polls.store(0, std::memory_order_relaxed);
}

void CancelToken::trip(CancelReason R) {
  CancelReason Expected = CancelReason::None;
  Reason.compare_exchange_strong(Expected, R, std::memory_order_relaxed);
}

bool CancelToken::checkpoint(uint64_t Steps) {
  Polls.fetch_add(1, std::memory_order_relaxed);
  if (expired())
    return true;
  uint64_t Used =
      StepsUsed.fetch_add(Steps, std::memory_order_relaxed) + Steps;
  if (Used > StepBudget.load(std::memory_order_relaxed))
    trip(CancelReason::StepBudget);
  else if (HasDeadline.load(std::memory_order_relaxed)) {
    int64_t NowNs =
        std::chrono::steady_clock::now().time_since_epoch().count();
    if (NowNs >= DeadlineNs.load(std::memory_order_relaxed))
      trip(CancelReason::Deadline);
  }
  return expired();
}

const char *CancelToken::reasonName(CancelReason R) {
  switch (R) {
  case CancelReason::None:
    return "none";
  case CancelReason::Cancelled:
    return "cancelled";
  case CancelReason::Deadline:
    return "deadline";
  case CancelReason::StepBudget:
    return "step-budget";
  }
  return "unknown";
}

std::string CancelToken::describe() const {
  switch (reason()) {
  case CancelReason::None:
    return "live";
  case CancelReason::Cancelled:
    return "cancelled by caller";
  case CancelReason::Deadline:
    return "wall-clock deadline exceeded";
  case CancelReason::StepBudget:
    return "step budget exhausted after " + std::to_string(stepsUsed()) +
           " steps";
  }
  return "unknown";
}

std::string cancelMessage(const CancelToken &Token, const std::string &What) {
  const char *Prefix =
      Token.reason() == CancelReason::Cancelled ? "cancelled" : "timeout";
  return std::string(Prefix) + ": " + What + " cut short: " +
         Token.describe();
}

} // namespace ptran
