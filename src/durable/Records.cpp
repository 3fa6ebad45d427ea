//===--- durable/Records.cpp - Write-ahead journal record codecs ----------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "durable/Records.h"

using namespace ptran;
using namespace ptran::durable;

void durable::encodeFolds(ByteWriter &W, const std::vector<FoldEntry> &Folds,
                          const std::vector<std::string> &Names) {
  W.u32(static_cast<uint32_t>(Folds.size()));
  for (const FoldEntry &FE : Folds) {
    W.str(FE.Function);
    W.u32(static_cast<uint32_t>(FE.Conds.size()));
    for (const CondTotal &C : FE.Conds) {
      W.u32(C.Node);
      W.u8(C.Label);
      W.f64(C.Total);
    }
  }
  W.u32(static_cast<uint32_t>(Names.size()));
  for (const std::string &Name : Names)
    W.str(Name);
}

void durable::decodeFolds(ByteReader &R, std::vector<FoldEntry> &Folds,
                          std::vector<std::string> &Names) {
  uint32_t NumFuncs = R.u32();
  for (uint32_t I = 0; R.ok() && I < NumFuncs; ++I) {
    FoldEntry FE;
    FE.Function = R.str();
    uint32_t NumConds = R.u32();
    for (uint32_t J = 0; R.ok() && J < NumConds; ++J) {
      CondTotal C;
      C.Node = R.u32();
      C.Label = R.u8();
      C.Total = R.f64();
      FE.Conds.push_back(C);
    }
    Folds.push_back(std::move(FE));
  }
  uint32_t NumNames = R.u32();
  for (uint32_t I = 0; R.ok() && I < NumNames; ++I)
    Names.push_back(R.str());
}

std::vector<uint8_t> durable::encodeRecord(const DurableRecord &R) {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.u8(static_cast<uint8_t>(R.Type));
  W.str(R.Session);
  switch (R.Type) {
  case RecordType::SessionCreate:
    W.str(R.Source);
    W.u32(R.Mode);
    W.u32(R.LoopVariance);
    W.u32(R.OnBadProfile);
    break;
  case RecordType::SessionEvict:
    break;
  case RecordType::RunExec:
    W.u32(R.RunCount);
    break;
  case RecordType::EpochFold:
    encodeFolds(W, R.Folds, R.Clamped);
    break;
  case RecordType::ProfileIngest:
    W.u64(R.Profile.size());
    W.raw(R.Profile.data(), R.Profile.size());
    break;
  case RecordType::SaturationMark:
    W.str(R.FunctionName);
    break;
  }
  return Out;
}

bool durable::decodeRecord(const uint8_t *Data, size_t Len, DurableRecord &R,
                           std::string &Error) {
  ByteReader Rd(Data, Len);
  uint8_t Tag = Rd.u8();
  if (!Rd.ok()) {
    Error = "record body is empty";
    return false;
  }
  if (Tag < static_cast<uint8_t>(RecordType::SessionCreate) ||
      Tag > static_cast<uint8_t>(RecordType::SaturationMark)) {
    Error = "unknown record type tag " + std::to_string(Tag);
    return false;
  }
  R = DurableRecord();
  R.Type = static_cast<RecordType>(Tag);
  R.Session = Rd.str();
  switch (R.Type) {
  case RecordType::SessionCreate:
    R.Source = Rd.str();
    R.Mode = Rd.u32();
    R.LoopVariance = Rd.u32();
    R.OnBadProfile = Rd.u32();
    break;
  case RecordType::SessionEvict:
    break;
  case RecordType::RunExec:
    R.RunCount = Rd.u32();
    break;
  case RecordType::EpochFold:
    decodeFolds(Rd, R.Folds, R.Clamped);
    break;
  case RecordType::ProfileIngest:
    R.Profile = Rd.bytes(Rd.u64());
    break;
  case RecordType::SaturationMark:
    R.FunctionName = Rd.str();
    break;
  }
  if (!Rd.ok()) {
    Error = "record payload is truncated";
    return false;
  }
  if (!Rd.atEnd()) {
    Error = "record payload has trailing bytes";
    return false;
  }
  return true;
}
